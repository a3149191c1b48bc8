"""The region-selection ablation script at miniature scale."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest
from test_pipeline import mini_cfg

from mtda.config import ConfigError

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_ablation.py"
_spec = importlib.util.spec_from_file_location("run_ablation", _SCRIPT)
run_ablation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_ablation)


def test_run_seed_reports_every_variant_and_target(tmp_path):
    results = run_ablation.run_seed(mini_cfg(tmp_path), tmp_path / "seed5")
    assert list(results) == [name for name, _ in run_ablation.VARIANTS] + ["source-only"]
    for name, per_target in results.items():
        assert set(per_target) == {"dusk", "night"}, name
        assert all(math.isfinite(v) for v in per_target.values()), name


def test_source_only_row_reads_no_restyle(tmp_path):
    # the restyles of 0 and 2 MTDT iterations differ; source-only trains on
    # the unrestyled source set, so its row must not move
    a = run_ablation.run_seed(mini_cfg(tmp_path, mtdt_iterations=0), tmp_path / "a")
    b = run_ablation.run_seed(mini_cfg(tmp_path), tmp_path / "b")
    restyled = Path("transfers") / "dusk" / "scenes.bin"
    assert (tmp_path / "a" / restyled).read_bytes() != (tmp_path / "b" / restyled).read_bytes()
    assert a["source-only"] == b["source-only"]


def test_invalid_config_fails_before_the_out_dir(tmp_path):
    with pytest.raises(ConfigError, match="adapt_iterations"):
        run_ablation.run_seed(mini_cfg(tmp_path, adapt_iterations=-1), tmp_path / "seed5")
    assert not (tmp_path / "seed5").exists()


def test_main_prints_one_finite_median_row_per_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run_ablation, "ExperimentConfig", lambda: mini_cfg(tmp_path))
    monkeypatch.setattr(sys, "argv", ["run_ablation.py", "--seeds", "5",
                                      "--out", str(tmp_path / "ablation")])
    assert run_ablation.main() == 0
    header, *rows = capsys.readouterr().out.split("median mIoU over seeds:\n")[1].splitlines()
    assert header.split() == ["variant", "dusk", "night", "avg"]
    assert [row.split()[0] for row in rows] == \
        [name for name, _ in run_ablation.VARIANTS] + ["source-only"]
    for row in rows:
        values = [float(v) for v in row.split()[1:]]
        assert len(values) == 3 and all(math.isfinite(v) for v in values), row
