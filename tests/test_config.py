"""Config parsing, canonical form, and hashing."""

from dataclasses import fields, replace

import pytest

from mtda.config import (
    ConfigError,
    ExperimentConfig,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
    save_config,
)


def test_roundtrip_lossless(tmp_path):
    cfg = ExperimentConfig(seed=99, mtdt_iterations=17, targets=("dusk",),
                           bars_source=False, out_dir="runs/x")
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    assert canonical_text(back) == canonical_text(cfg)


def test_hash_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert config_hash(a) == config_hash(b)
    b.seed = 8
    assert config_hash(a) != config_hash(b)


def test_comments_and_blank_lines_allowed():
    text = canonical_text(ExperimentConfig()) + "\n# trailing comment\n"
    assert parse_config(text) == ExperimentConfig()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("wat=1\n")


def test_repeated_key_rejected():
    with pytest.raises(ConfigError, match="line 2: repeated key 'seed'"):
        parse_config("seed=7\nseed=9\n")


def test_sectioned_file_is_rejected_at_its_first_header():
    # an old file converts by deleting its [...] lines
    with pytest.raises(ConfigError, match=r"line 1: expected key=value, got '\[experiment\]'"):
        parse_config("[experiment]\nseed=5\n[bars]\nbars_m=2\n")
    assert parse_config("seed=5\nbars_m=2\n") == ExperimentConfig(seed=5, bars_m=2)


def test_canonical_text_is_one_line_per_field_in_field_order():
    lines = canonical_text(ExperimentConfig()).splitlines()
    assert [line.partition("=")[0] for line in lines] == [f.name for f in fields(ExperimentConfig)]


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("seed=banana\n")


def test_validation_bounds():
    with pytest.raises(ConfigError, match="mtdt_iterations"):
        ExperimentConfig(mtdt_iterations=-1).validate()
    with pytest.raises(ConfigError, match="image_size"):
        ExperimentConfig(image_size=30).validate()
    with pytest.raises(ConfigError, match="adapt_iterations"):
        ExperimentConfig(adapt_iterations=-1).validate()
    with pytest.raises(ConfigError, match="target"):
        ExperimentConfig(targets=()).validate()
    # a target's artifacts are named by its last path component
    for targets in [("dusk", "dusk"), ("dusk", "/data/a/dusk"), ("dusk", "/"), ("dusk", "a/..")]:
        with pytest.raises(ConfigError, match="distinct names"):
            ExperimentConfig(targets=targets).validate()


@pytest.mark.parametrize("targets", [("source", "dusk"), ("dusk", "/data/a/source")])
def test_target_named_source_is_refused(targets):
    # its previews would overwrite transfer_grid/source_XX.ppm
    with pytest.raises(ConfigError, match="named 'source'"):
        ExperimentConfig(targets=targets).validate()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 6])
def test_seed_must_be_u64(seed):
    # each of these ran the stream of a valid seed under another config hash
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(seed=seed).validate()
    ExperimentConfig(seed=seed % 2**64).validate()


@pytest.mark.parametrize("name", ["mtdt_beta1", "mtdt_beta2"])
@pytest.mark.parametrize("beta", [1.0, 1.5])
def test_adam_betas_must_be_below_one(name, beta):
    # beta1 = 1 turns every parameter into NaN on the first Adam step; the
    # betas are constants, and a config that still sets one is rejected
    with pytest.raises(ConfigError, match=f"line 1: unknown key '{name}'"):
        parse_config(f"{name}={beta}\n")


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.txt")


def test_class_count_and_batch_sizes_are_constants_not_keys():
    cfg = ExperimentConfig()
    assert len(fields(ExperimentConfig)) == 12
    assert (cfg.num_classes, cfg.mtdt_batch, cfg.task_batch) == (4, 2, 4)
    with pytest.raises(TypeError):
        ExperimentConfig(task_batch=2)
    with pytest.raises(TypeError):
        replace(cfg, num_classes=3)


@pytest.mark.parametrize("over, message", [
    (dict(out_dir=""), "out_dir must not be empty"),
    (dict(source=""), "source must not be empty"),
    (dict(out_dir="runs/a\nseed=9"), "out_dir must not contain a line break"),
    (dict(source="source\r"), "source must not contain a line break"),
    (dict(targets=("dusk", "data/\u2028night")), "targets must not contain a line break"),
    (dict(targets=(" dusk",)), "targets must not start or end with whitespace"),
    (dict(out_dir="runs/a "), "out_dir must not start or end with whitespace"),
    (dict(source="\tsource"), "source must not start or end with whitespace"),
    (dict(targets=("x,y",)), "targets must not contain a comma"),
], ids=["empty-out-dir", "empty-source", "out-dir-newline", "source-return",
        "target-line-separator", "target-leading-space", "out-dir-trailing-space",
        "source-leading-tab", "target-comma"])
def test_string_values_that_config_txt_cannot_carry(tmp_path, over, message):
    # each one would re-parse as another config, or not at all, from its config.txt
    cfg = ExperimentConfig(**over)
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(),
    ExperimentConfig(targets=("dusk", "data/deep/night"), out_dir="runs/my run"),
], ids=["default", "dataset-dir-target"])
def test_canonical_text_parses_back_to_the_same_config(cfg):
    assert parse_config(canonical_text(cfg)) == cfg.validate()


@pytest.mark.parametrize("over, message", [
    (dict(targets=["dusk", "night"]), "targets must be of type tuple"),
    (dict(targets=("dusk", 3)), "targets must be strings"),
    (dict(seed=7.0), "seed must be of type int"),
    (dict(bars_m=True), "bars_m must be of type int"),
], ids=["targets-list", "target-not-str", "float-seed", "bool-bars-m"])
def test_values_of_another_type_than_their_default_are_rejected(over, message):
    # config.txt would write each one as text that parses back to another config, or not at all
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**over).validate()
