"""CLI subcommands, exit codes, and artifact flow on a miniature config."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mtda.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from mtda.config import ExperimentConfig, canonical_text, save_config


@pytest.fixture()
def mini_cfg(tmp_path):
    cfg = ExperimentConfig(
        seed=5, train_scenes=6, eval_scenes=2,
        mtdt_iterations=2, adapt_iterations=4, bars_m=2, out_dir=str(tmp_path / "run"),
    )
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    return cfg, str(path)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == EXIT_USAGE


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--dump-images", "--no-bars-source", "--no-bars-target"])
def test_removed_flags_are_usage_errors(flag):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", flag])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("text, where", [
    ("seed=7\nstats_updates=0\n", "line 2: unknown key 'stats_updates'"),
    ("mtdt_iterations=2\nmtdt_lr=0.001\n", "line 2: unknown key 'mtdt_lr'"),
    ("task_momentum=0.9\n", "line 1: unknown key 'task_momentum'"),
    ("num_classes=4\n", "line 1: unknown key 'num_classes'"),
    ("mtdt_batch=2\n", "line 1: unknown key 'mtdt_batch'"),
    ("adapt_iterations=4\ntask_batch=4\n", "line 2: unknown key 'task_batch'"),
])
def test_removed_config_keys_are_config_errors(tmp_path, capsys, text, where):
    path = tmp_path / "old.txt"
    path.write_text(text)
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert where in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_stats_subcommand_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["stats"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["transfer", "eval"])
def test_transfer_and_eval_subcommands_are_gone(mini_cfg, command):
    cfg, path = mini_cfg
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path])
    assert exc.value.code == EXIT_USAGE
    assert not cfg_out(cfg).exists()


def test_empty_out_dir_fails_before_any_artifact(mini_cfg, capsys):
    assert main(["pipeline", "--config", mini_cfg[1], "--out", ""]) == EXIT_CONFIG
    assert "out_dir must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-mtdt", "adapt", "pipeline"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_a_file_fails_before_any_artifact(mini_cfg, tmp_path, capsys, command,
                                                      below):
    blocker = tmp_path / "notadir"
    blocker.write_bytes(b"kept")
    out = blocker / "run" if below else blocker
    assert main([command, "--config", mini_cfg[1], "--out", str(out)]) == EXIT_CONFIG
    assert f"{blocker} exists and is not a directory" in capsys.readouterr().err
    assert blocker.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt", "notadir"]


@pytest.mark.parametrize("command", ["train-mtdt", "adapt", "pipeline"])
def test_out_whose_config_is_a_directory_fails_before_any_artifact(mini_cfg, tmp_path, capsys,
                                                                   monkeypatch, command):
    monkeypatch.setattr("mtda.pipeline.build_datasets", lambda cfg: pytest.fail("generated"))
    blocker = tmp_path / "out" / "config.txt"
    blocker.mkdir(parents=True)
    out = blocker.parent
    assert main([command, "--config", mini_cfg[1], "--out", str(out)]) == EXIT_CONFIG
    assert f"{blocker} exists and is not a file" in capsys.readouterr().err
    assert list(out.rglob("*")) == [blocker]


@pytest.mark.parametrize("command", ["train-mtdt", "adapt", "pipeline"])
def test_target_named_source_fails_before_any_artifact(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("mtda.pipeline.build_datasets", lambda cfg: pytest.fail("generated"))
    path = tmp_path / "config.txt"
    path.write_text("seed=5\ntargets=source,dusk\ntrain_scenes=6\neval_scenes=2\n")
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "transfer_grid/source_XX.ppm holds the source previews" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("seed=banana\n")
    assert main(["train-mtdt", "--config", str(bad)]) == EXIT_CONFIG


def test_wrong_num_classes_fails_before_any_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    path = tmp_path / "config.txt"
    path.write_text("seed=5\nnum_classes=3\n")
    assert main(["train-mtdt", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "line 2: unknown key 'num_classes'" in capsys.readouterr().err
    assert not out.exists()


def test_adam_beta_of_one_fails_before_any_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    path = tmp_path / "config.txt"
    path.write_text("mtdt_beta1=1.0\n")
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "line 1: unknown key 'mtdt_beta1'" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_utf8_fails_before_any_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"seed=5\nsource=\xff\n")
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"{path}: byte 14 is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_target_fails_before_any_artifact(tmp_path):
    out = tmp_path / "run"
    path = tmp_path / "config.txt"
    save_config(ExperimentConfig(targets=("dusk", "dusk"), train_scenes=6, eval_scenes=2,
                                 out_dir=str(out)), path)
    assert main(["pipeline", "--config", str(path)]) == EXIT_CONFIG
    assert not out.exists()


def test_negative_seed_fails_before_any_artifact(mini_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", mini_cfg[1], "--seed", "-1", "--out", str(out)]) \
        == EXIT_CONFIG
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_nested_dataset_dir_target_names_its_artifacts(mini_cfg, tmp_path):
    from mtda.toydata import BUILTIN_DOMAINS, export, generate

    cfg, _ = mini_cfg
    data_dir = tmp_path / "data" / "deep" / "night"
    export(generate(BUILTIN_DOMAINS["night"], 9, 8, 32, 32), data_dir)

    def digests():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in data_dir.iterdir()}

    before = digests()
    cfg.targets = ("dusk", str(data_dir))
    path = tmp_path / "nested.txt"
    save_config(cfg, path)
    assert main(["pipeline", "--config", str(path)]) == EXIT_OK
    assert digests() == before
    out_dir = cfg_out(cfg)
    for name in ("dusk", "night"):
        assert (out_dir / f"stats_{name}.bin").is_file()
        assert (out_dir / "transfers" / name / "scenes.bin").is_file()
        assert (out_dir / f"eval_{name}.csv").is_file()
    record = json.loads((out_dir / "run_record.json").read_text())
    assert set(record["final_miou"]) == {"dusk", "night"}
    assert set(record["metrics"]["mtdt"]["statistics"]) == {"dusk", "night"}


@pytest.mark.parametrize("command", ["train-mtdt", "pipeline"])
def test_data_phase_failure_leaves_no_out_dir(mini_cfg, tmp_path, command):
    from mtda.toydata import BUILTIN_DOMAINS, export, generate

    cfg, _ = mini_cfg
    data_dir = tmp_path / "big"
    export(generate(BUILTIN_DOMAINS["night"], 5, 8, 64, 64), data_dir)
    cfg.targets = ("dusk", str(data_dir))
    path = tmp_path / "big.txt"
    save_config(cfg, path)
    assert main([command, "--config", str(path)]) == EXIT_RUNTIME
    assert not cfg_out(cfg).exists()


def test_missing_prerequisite_is_runtime_error(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert main(["adapt", "--config", path]) == EXIT_RUNTIME
    assert "transfers/dusk; run 'train-mtdt' first" in capsys.readouterr().err
    assert not cfg_out(cfg).exists()


def test_adapt_refuses_restyled_sets_of_another_seed(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert main(["train-mtdt", "--config", path]) == EXIT_OK
    (cfg_out(cfg) / "config.txt").unlink()  # a directory without one is accepted
    before = tree_digests(cfg_out(cfg))
    capsys.readouterr()
    assert main(["adapt", "--config", path, "--seed", "6"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"{cfg_out(cfg) / 'transfers' / 'dusk' / 'scenes.bin'} does not restyle" in err
    assert "run 'train-mtdt' first" in err
    assert tree_digests(cfg_out(cfg)) == before


def test_adapt_without_a_restyled_set_is_runtime_error(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert main(["train-mtdt", "--config", path]) == EXIT_OK
    (cfg_out(cfg) / "transfers" / "night" / "scenes.bin").unlink()
    capsys.readouterr()
    assert main(["adapt", "--config", path]) == EXIT_RUNTIME
    assert "transfers/night; run 'train-mtdt' first" in capsys.readouterr().err
    assert not (cfg_out(cfg) / "task_model.bin").exists()
    assert not (cfg_out(cfg) / "bars_diagnostics.jsonl").exists()


def test_stats_writes_one_checkpoint_per_target(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert not cfg_out(cfg).exists()
    assert main(["train-mtdt", "--config", path]) == EXIT_OK
    out_dir = cfg_out(cfg)
    files = sorted(p.name for p in out_dir.glob("stats_*.bin"))
    assert files == ["stats_dusk.bin", "stats_night.bin"]


def test_stats_rerun_bitwise_identical(mini_cfg):
    cfg, path = mini_cfg
    main(["train-mtdt", "--config", path])
    out_dir = cfg_out(cfg)
    first = {p.name: p.read_bytes() for p in out_dir.glob("stats_*.bin")}
    main(["train-mtdt", "--config", path])
    second = {p.name: p.read_bytes() for p in out_dir.glob("stats_*.bin")}
    assert first == second


def test_stats_checkpoints_reload_to_same_statistics(mini_cfg, tmp_path):
    from mtda.pipeline import build_datasets, init_models, phase_stats, run_phase
    from mtda.tensorio import read_archive

    cfg, _ = mini_cfg
    out_dir = cfg_out(cfg)
    out_dir.mkdir(parents=True)
    data = build_datasets(cfg)
    run_phase(cfg, "mtdt", data, out_dir)  # the statistics of its untrained encoder
    model, _, _ = init_models(cfg)
    stats_list, _ = phase_stats(cfg, model, data, tmp_path)
    assert len(stats_list) == 2
    for name, st in zip(data.target_names, stats_list):
        arrays = read_archive(out_dir / f"stats_{name}.bin")
        assert sorted(arrays) == ["mu", "n", "sigma"]
        assert (arrays["mu"] == st.mu).all()
        assert (arrays["sigma"] == st.sigma).all()
        assert arrays["n"] == st.n


def test_full_command_chain(mini_cfg, capsys):
    cfg, path = mini_cfg
    for command in ["train-mtdt", "adapt"]:
        assert main([command, "--config", path]) == EXIT_OK, command
    out_dir = cfg_out(cfg)
    assert (out_dir / "config.txt").read_text() == canonical_text(cfg)
    assert (out_dir / "mtdt_model.bin").is_file()
    assert (out_dir / "task_model.bin").is_file()
    assert (out_dir / "transfers" / "dusk" / "scenes.bin").is_file()
    assert (out_dir / "eval_dusk.csv").is_file()
    assert "mIoU" in capsys.readouterr().out


def test_phase_chain_leaves_the_pipeline_artifacts(mini_cfg, tmp_path):
    _, path = mini_cfg
    chain, pipe = tmp_path / "chain", tmp_path / "pipe"
    for command in ["train-mtdt", "adapt"]:
        assert main([command, "--config", path, "--out", str(chain)]) == EXIT_OK, command
    assert main(["pipeline", "--config", path, "--out", str(pipe)]) == EXIT_OK

    def digests(root):
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in root.rglob("*")
                if p.is_file() and p.name not in ("config.txt", "run_record.json")}

    assert digests(chain) == digests(pipe)
    assert {"mtdt_model.bin", "task_model.bin", "eval_night.csv"} <= set(digests(pipe))


def test_adapt_prints_the_pipeline_miou(mini_cfg, tmp_path, capsys):
    _, path = mini_cfg
    chain, pipe = tmp_path / "chain", tmp_path / "pipe"
    assert main(["train-mtdt", "--config", path, "--out", str(chain)]) == EXIT_OK
    capsys.readouterr()
    assert main(["adapt", "--config", path, "--out", str(chain)]) == EXIT_OK
    printed = [line for line in capsys.readouterr().out.splitlines() if "mIoU" in line]
    assert main(["pipeline", "--config", path, "--out", str(pipe)]) == EXIT_OK
    final = json.loads((pipe / "run_record.json").read_text())["final_miou"]
    assert printed == [f"[adapt] {name}: mIoU {v:.2f}" for name, v in final.items()]


def tree_digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["train-mtdt", "adapt", "pipeline"])
def test_out_of_another_seed_is_refused(mini_cfg, capsys, command):
    cfg, path = mini_cfg
    assert main(["train-mtdt", "--config", path]) == EXIT_OK
    before = tree_digests(cfg_out(cfg))
    capsys.readouterr()
    assert main([command, "--config", path, "--seed", "6"]) == EXIT_CONFIG
    assert f"{cfg_out(cfg) / 'config.txt'} holds another config" in capsys.readouterr().err
    assert tree_digests(cfg_out(cfg)) == before
    assert main([command, "--config", path]) == EXIT_OK  # the same config still reruns


@pytest.mark.parametrize("spelling", ["runs/x/", "./runs/x", "absolute"])
def test_same_config_reruns_under_any_spelling_of_its_out(mini_cfg, tmp_path, monkeypatch,
                                                          capsys, spelling):
    _, path = mini_cfg
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "runs" / "x"
    spelled = str(out) if spelling == "absolute" else spelling
    assert main(["pipeline", "--config", path, "--out", "runs/x"]) == EXIT_OK
    before = tree_digests(out)
    capsys.readouterr()
    assert main(["pipeline", "--config", path, "--seed", "6", "--out", spelled]) == EXIT_CONFIG
    assert f"{Path(spelled) / 'config.txt'} holds another config" in capsys.readouterr().err
    assert tree_digests(out) == before
    assert main(["pipeline", "--config", path, "--out", spelled]) == EXIT_OK
    after = tree_digests(out)
    for name in ("config.txt", "run_record.json"):  # both carry this run's spelling
        del before[name], after[name]
    assert after == before


def test_out_whose_config_does_not_parse_is_refused(mini_cfg, capsys):
    cfg, path = mini_cfg
    out = cfg_out(cfg)
    out.mkdir()
    # this config's config.txt as written in the sectioned format
    sectioned = (f"[experiment]\nseed=5\nimage_size=32\nout_dir={out}\n"
                 "[data]\nsource=source\ntargets=dusk,night\ntrain_scenes=6\neval_scenes=2\n"
                 "[mtdt]\nmtdt_iterations=2\n[task]\nadapt_iterations=4\n"
                 "[bars]\nbars_m=2\nbars_source=true\nbars_target=true\n")
    (out / "config.txt").write_text(sectioned)
    assert main(["pipeline", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{out / 'config.txt'} holds a config that does not parse" in err
    assert "line 1: expected key=value, got '[experiment]'" in err
    assert tree_digests(out) == {"config.txt": hashlib.sha256(sectioned.encode()).hexdigest()}
    # deleting its [...] lines converts it to this config exactly
    flat = "".join(line + "\n" for line in sectioned.splitlines() if not line.startswith("["))
    assert flat == canonical_text(cfg)


def test_pipeline_refuses_the_out_of_a_run_with_more_targets(mini_cfg, tmp_path, capsys):
    cfg, path = mini_cfg
    assert main(["pipeline", "--config", path]) == EXIT_OK
    before = tree_digests(cfg_out(cfg))
    cfg.targets = ("dusk",)
    dusk_only = tmp_path / "dusk.txt"
    save_config(cfg, dusk_only)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(dusk_only)]) == EXIT_CONFIG
    assert f"{cfg_out(cfg) / 'config.txt'} holds another config" in capsys.readouterr().err
    assert tree_digests(cfg_out(cfg)) == before


def test_pipeline_command_and_record(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert main(["pipeline", "--config", path]) == EXIT_OK
    out_dir = cfg_out(cfg)
    record = (out_dir / "run_record.json").read_text()
    assert '"config_hash"' in record
    assert '"final_miou"' in record
    assert list((out_dir / "transfer_grid").glob("*.ppm"))
    assert sorted(p.name for p in (out_dir / "transfer_grid").iterdir()) == [
        f"{domain}_{i:02d}.ppm" for domain in ("dusk", "night", "source") for i in range(4)]


def test_ablation_flags_change_config_hash(mini_cfg):
    from mtda.config import config_hash

    cfg, path = mini_cfg
    base = config_hash(cfg)
    cfg_no_src = ExperimentConfig(**{**cfg.__dict__, "bars_source": False,
                                     "targets": tuple(cfg.targets)})
    assert config_hash(cfg_no_src) != base


def cfg_out(cfg):
    return Path(cfg.out_dir)
