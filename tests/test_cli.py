"""CLI subcommands, exit codes, and artifact flow on a miniature config."""

import numpy as np
import pytest

from mtda.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from mtda.config import ExperimentConfig, save_config


@pytest.fixture()
def mini_cfg(tmp_path):
    cfg = ExperimentConfig(
        seed=5, train_scenes=6, eval_scenes=2,
        mtdt_iterations=2, adapt_iterations=4, bars_m=2,
        mtdt_batch=1, task_batch=2, out_dir=str(tmp_path / "run"),
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


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[experiment]\nseed=banana\n")
    assert main(["stats", "--config", str(bad)]) == EXIT_CONFIG


def test_wrong_num_classes_fails_before_any_artifact(tmp_path):
    out = tmp_path / "run"
    path = tmp_path / "config.txt"
    save_config(ExperimentConfig(num_classes=3, train_scenes=6, eval_scenes=2,
                                 out_dir=str(out)), path)
    assert main(["stats", "--config", str(path)]) == EXIT_CONFIG
    assert not out.exists()


def test_missing_prerequisite_is_runtime_error(mini_cfg):
    cfg, path = mini_cfg
    assert main(["transfer", "--config", path]) == EXIT_RUNTIME


def test_stats_writes_one_checkpoint_per_target(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert main(["stats", "--config", path]) == EXIT_OK
    out_dir = cfg_out(cfg)
    files = sorted(p.name for p in out_dir.glob("stats_*.bin"))
    assert files == ["stats_dusk.bin", "stats_night.bin"]


def test_stats_rerun_bitwise_identical(mini_cfg):
    cfg, path = mini_cfg
    main(["stats", "--config", path])
    out_dir = cfg_out(cfg)
    first = {p.name: p.read_bytes() for p in out_dir.glob("stats_*.bin")}
    main(["stats", "--config", path])
    second = {p.name: p.read_bytes() for p in out_dir.glob("stats_*.bin")}
    assert first == second


def test_stats_checkpoints_reload_to_same_statistics(mini_cfg):
    from mtda.pipeline import build_datasets, init_models, phase_stats, load_stats
    from pathlib import Path

    cfg, path = mini_cfg
    out_dir = cfg_out(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = build_datasets(cfg)
    model, _, _ = init_models(cfg)
    stats_list, _ = phase_stats(cfg, model, data, out_dir)
    reloaded = load_stats(cfg, out_dir)
    for a, b in zip(stats_list, reloaded):
        assert (a.mu == b.mu).all()
        assert (a.sigma == b.sigma).all()
        assert a.n == b.n


def test_full_command_chain(mini_cfg, capsys):
    cfg, path = mini_cfg
    for command in ["stats", "train-mtdt", "transfer", "adapt", "eval"]:
        assert main([command, "--config", path]) == EXIT_OK, command
    out_dir = cfg_out(cfg)
    assert (out_dir / "mtdt_model.bin").is_file()
    assert (out_dir / "task_model.bin").is_file()
    assert (out_dir / "transfers" / "dusk" / "manifest.txt").is_file()
    assert (out_dir / "eval_dusk.csv").is_file()
    assert "mIoU" in capsys.readouterr().out


def test_pipeline_command_and_record(mini_cfg, capsys):
    cfg, path = mini_cfg
    assert main(["pipeline", "--config", path, "--dump-images"]) == EXIT_OK
    out_dir = cfg_out(cfg)
    record = (out_dir / "run_record.json").read_text()
    assert '"config_hash"' in record
    assert '"final_miou"' in record
    assert list((out_dir / "transfer_grid").glob("*.ppm"))


def test_ablation_flags_change_config_hash(mini_cfg):
    from mtda.config import config_hash

    cfg, path = mini_cfg
    base = config_hash(cfg)
    cfg_no_src = ExperimentConfig(**{**cfg.__dict__, "bars_source": False,
                                     "targets": tuple(cfg.targets)})
    assert config_hash(cfg_no_src) != base


def cfg_out(cfg):
    from pathlib import Path

    return Path(cfg.out_dir)
