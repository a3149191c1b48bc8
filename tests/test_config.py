"""Config parsing, canonical form, and hashing."""

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
    cfg = ExperimentConfig(seed=99, mtdt_lr=2.5e-4, targets=("dusk",),
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


def test_float_repr_roundtrips_exactly(tmp_path):
    cfg = ExperimentConfig(task_lr=2.5e-4, mtdt_weight_decay=1e-5)
    back = parse_config(canonical_text(cfg))
    assert back.task_lr == 2.5e-4
    assert back.mtdt_weight_decay == 1e-5


def test_comments_and_blank_lines_allowed():
    text = canonical_text(ExperimentConfig()) + "\n# trailing comment\n"
    assert parse_config(text) == ExperimentConfig()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[experiment]\nwat=1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nope]\n")


def test_key_before_section_rejected():
    with pytest.raises(ConfigError, match="before any section"):
        parse_config("seed=1\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[experiment]\nseed=banana\n")


def test_validation_bounds():
    with pytest.raises(ConfigError, match="task_lr"):
        ExperimentConfig(task_lr=0.0).validate()
    with pytest.raises(ConfigError, match="image_size"):
        ExperimentConfig(image_size=30).validate()
    with pytest.raises(ConfigError, match="adapt_iterations"):
        ExperimentConfig(adapt_iterations=-1).validate()
    with pytest.raises(ConfigError, match="target"):
        ExperimentConfig(targets=()).validate()


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.txt")


@pytest.mark.parametrize("k", [3, 5])
def test_builtin_domains_fix_num_classes(k):
    with pytest.raises(ConfigError, match="num_classes must be 4"):
        ExperimentConfig(num_classes=k).validate()


def test_dataset_dir_domain_leaves_num_classes_free(tmp_path):
    ExperimentConfig(num_classes=5, targets=("dusk", str(tmp_path))).validate()
