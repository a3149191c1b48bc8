"""The region-selection ablation script at miniature scale."""

import importlib.util
import math
from pathlib import Path

from test_pipeline import mini_cfg

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
