#!/usr/bin/env python3
"""Region-selection ablation grid on the toy benchmark.

Runs the shared ``mtdt`` phase (transfer training and restyling) once per
seed and reads its restyled sets back.  Every cell of the grid is then one
``phase_adapt`` run, scored by ``phase_eval``: the four adaptation variants
(both label filters, each alone, neither) on the restyled sets, and
source-only, which is ``phase_adapt`` with neither filter on the unrestyled
source training set.  Prints a per-cell mIoU table of medians over seeds.

Example:
    python scripts/run_ablation.py --seeds 7 8 9 --out runs/ablation
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from mtda.config import ExperimentConfig
from mtda.pipeline import (
    build_datasets,
    load_transferred,
    phase_adapt,
    phase_eval,
    run_phase,
)

VARIANTS = [
    ("neither", dict(bars_source=False, bars_target=False)),
    ("source-filter", dict(bars_source=True, bars_target=False)),
    ("target-filter", dict(bars_source=False, bars_target=True)),
    ("both", dict(bars_source=True, bars_target=True)),
]


def run_seed(cfg: ExperimentConfig, out: Path) -> dict[str, dict[str, float]]:
    cfg.validate()
    out.mkdir(parents=True, exist_ok=True)
    data = build_datasets(cfg)
    run_phase(cfg, "mtdt", data, out)
    transferred = load_transferred(cfg, out)
    cells = [(name, transferred, flags) for name, flags in VARIANTS]
    cells.append(("source-only", [data.source_train] * len(cfg.targets),
                  dict(bars_source=False, bars_target=False)))

    results: dict[str, dict[str, float]] = {}
    for name, restyled, flags in cells:
        cell_cfg = replace(cfg, **flags, out_dir=str(out / name))
        (out / name).mkdir(exist_ok=True)
        net, _ = phase_adapt(cell_cfg, data, restyled, out / name)
        ev = phase_eval(cell_cfg, net, data, out / name)
        results[name] = {k: v["miou"] for k, v in ev.items()}
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8, 9])
    ap.add_argument("--out", default="runs/ablation")
    args = ap.parse_args()

    cfg0 = ExperimentConfig()
    per_seed = []
    for seed in args.seeds:
        res = run_seed(replace(cfg0, seed=seed), Path(args.out) / f"seed{seed}")
        per_seed.append(res)
        print(f"seed {seed}: " + "  ".join(
            f"{name}={np.mean(list(v.values())):.1f}" for name, v in res.items()))

    domains = list(per_seed[0]["both"].keys())
    print("\nmedian mIoU over seeds:")
    header = f"{'variant':<14}" + "".join(f"{d:>10}" for d in domains) + f"{'avg':>10}"
    print(header)
    for name in per_seed[0]:
        row = [float(np.median([r[name][d] for r in per_seed])) for d in domains]
        print(f"{name:<14}" + "".join(f"{v:>10.2f}" for v in row)
              + f"{np.mean(row):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
