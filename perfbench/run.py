"""Benchmark of the mtda pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload train-mtdt --seed 7 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``train-mtdt`` (MTDT training),
``train-adapt`` (BARS self-training plus evaluation) and ``infer-restyle``
(forward-only statistics, restyling, read-back, classification and
evaluation at 64x64).  Each run is one process and a closed loop.

With ``--trace 0`` nothing is traced and the end-to-end metrics are printed:

* ``setup_s`` (s): median over three set-ups of the time from workload start
  to the first timed step.
* ``img_per_s`` (images/s): images through the timed section over its wall
  time.  train-mtdt counts iterations x batch x (1 + targets), train-adapt
  BARS steps x batch x 2, infer-restyle the images encoded, restyled,
  classified and evaluated.
* ``step_ms_p50`` / ``step_ms_p90`` (ms): median and 90th percentile of the
  operation times (``workloads.py`` defines an operation per workload); the
  run has at least 110 operations, so at least ten lie beyond the p90.
* ``peak_rss_mb`` (MB): ``ru_maxrss`` of this process.
* ``failed_frac``: failed over attempted operations.  It is printed in the
  report and carried by ``attempted``/``failed`` in the result line, not
  listed as a metric, because on working code it is 0.

With ``--trace 1`` the run alternates untraced and traced passes after one
traced set-up, and prints the per-layer metrics: self time (``*.self_s`` and
every ``autodiff.*`` time), inclusive time (other ``*_s``), calls and counts
at each module boundary, averaged per traced pass; ``setup.*`` metrics cover
the traced set-up.  ``trace.overhead_pct`` compares the untraced passes'
``img_per_s`` with the traced ones'.  The spans are written to
``.perfbench_out/`` when the run ends.

Every run checks the program's outputs (see ``workloads.py``) and compares a
digest of them with earlier runs of the same sources and seed, kept in
``.perfbench_out/digests.json``.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

from tracer import AUTODIFF_OPS, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "img_per_s": "images/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


PER_LAYER = {
    "autodiff.conv2d.calls": "count",
    "autodiff.conv2d.fwd_s": "s",
    "autodiff.conv2d.gflop": "GFLOP-computed",
    "autodiff.conv2d.col_mb": "MB-computed",
    "autodiff.conv2d.gflop_per_s": "GFLOP/s",
    "autodiff.instance_norm.fwd_s": "s",
    "autodiff.relu.fwd_s": "s",
    "autodiff.other.fwd_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.ops_per_step": "count",
    "transfer.encode_s": "s",
    "transfer.extract_style_s": "s",
    "transfer.dst_transfer_s": "s",
    "transfer.generate_s": "s",
    "transfer.disc_s": "s",
    "transfer.perceptual_s": "s",
    "transfer.train_mtdt.self_s": "s",
    "taskseg.forward_s": "s",
    "taskseg.forward.calls": "count",
    "taskseg.predict_s": "s",
    "bars.step.self_s": "s",
    "bars.nearest_class_s": "s",
    "bars.class_means_s": "s",
    "bars.kept_frac_source": "ratio",
    "bars.kept_frac_target": "ratio",
    "bars.skipped_steps": "count",
    "bars.steps": "count",
    "optim.adam.step_s": "s",
    "optim.adam.step.calls": "count",
    "optim.sgd.step_s": "s",
    "optim.sgd.step.calls": "count",
    "stats.welford.update_s": "s",
    "stats.welford.update.calls": "count",
    "toydata.generate_s": "s",
    "toydata.export_s": "s",
    "toydata.load_s": "s",
    "toydata.bytes_written": "B",
    "toydata.bytes_read": "B",
    "tensorio.write_archive_s": "s",
    "pipeline.phase_stats_s": "s",
    "pipeline.phase_mtdt_s": "s",
    "pipeline.phase_transfer_s": "s",
    "pipeline.load_transferred_s": "s",
    "pipeline.phase_adapt_s": "s",
    "pipeline.phase_eval_s": "s",
    "pipeline.domain_classifier_accuracy_s": "s",
    "setup.pipeline.build_datasets_s": "s",
    "setup.pipeline.init_models_s": "s",
    "setup.pipeline.phase_stats_s": "s",
    "setup.pipeline.phase_transfer_s": "s",
    "setup.toydata.generate_s": "s",
    "setup.toydata.export_s": "s",
    "setup.stats.welford.update_s": "s",
    "setup.autodiff.conv2d.fwd_s": "s",
    "gc.collections": "count",
    "gc.gen2_collections": "count",
    "gc.collected": "count",
    "gc.pause_s": "s",
    "mem.rss_mb_per_step": "MB",
    "trace.img_per_s_untraced": "images/s",
    "trace.img_per_s_traced": "images/s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train-mtdt", "train-adapt", "infer-restyle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                         timeout=30, check=False)
    return res.stdout.strip() if res.returncode == 0 else None


def blas_info() -> tuple[str, int | None]:
    """Name and version of numpy's BLAS, and its thread count if the library
    loaded in this process reports one."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def provenance(run, seed: int, src_sha: str) -> dict:
    import numpy as np
    from mtda.config import config_hash

    blas, threads = blas_info()
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_sha,
        "workload": run.workload,
        "config_hash": config_hash(run.cfg),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# metrics


def _rate(passes) -> float:
    wall = sum(p.wall_s for p in passes)
    return sum(p.outcome.images for p in passes) / wall if wall > 0 else 0.0


def end_to_end(run) -> tuple[dict, dict]:
    """Metric values, and the sample count behind each."""
    passes = [p for p in run.passes if not p.traced]
    steps = [d for p in passes for d in p.durations]
    p90 = statistics.quantiles(steps, n=10, method="inclusive")[8] if len(steps) > 1 else 0.0
    values = {
        "setup_s": statistics.median(run.setup_s),
        "img_per_s": _rate(passes),
        "step_ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "step_ms_p90": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": f"{len(run.setup_s)} set-ups",
        "img_per_s": f"{sum(p.outcome.images for p in passes)} images in "
                     f"{sum(p.wall_s for p in passes):.2f} s, {len(passes)} passes",
        "step_ms_p50": f"n={len(steps)}",
        "step_ms_p90": f"n={len(steps)}, {len(steps) - int(0.9 * len(steps))} beyond",
        "peak_rss_mb": "own process",
    }
    return values, samples


def per_layer(run) -> dict:
    tracer = run.tracer
    traced = [p for p in run.passes if p.traced]
    n = len(traced)
    spans = summarize(tracer.spans["pass"])
    setup = summarize(tracer.spans["setup"])
    counters = tracer.counters["pass"]

    def calls(name, table=spans):
        return table.get(name, (0, 0.0, 0.0))[0]

    def incl(name, table=spans):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_s(name, table=spans):
        return table.get(name, (0, 0.0, 0.0))[2]

    others = [op for op in AUTODIFF_OPS if op not in ("conv2d", "instance_norm", "relu")]
    conv_s = self_s("autodiff.conv2d")
    flop = counters["autodiff.conv2d.flop"]
    ops = sum(p.outcome.ops for p in traced)
    diags = [d for p in traced for d in p.bars]
    rss = [r for p in run.passes for r in p.rss]
    untraced = _rate([p for p in run.passes if not p.traced])
    with_trace = _rate(traced)

    totals = {
        "autodiff.conv2d.calls": calls("autodiff.conv2d"),
        "autodiff.conv2d.fwd_s": conv_s,
        "autodiff.conv2d.gflop": flop / 1e9,
        "autodiff.conv2d.col_mb": counters["autodiff.conv2d.col_bytes"] / 2**20,
        "autodiff.instance_norm.fwd_s": self_s("autodiff.instance_norm"),
        "autodiff.relu.fwd_s": self_s("autodiff.relu"),
        "autodiff.other.fwd_s": sum(self_s(f"autodiff.{op}") for op in others),
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "transfer.train_mtdt.self_s": self_s("transfer.train_mtdt"),
        "taskseg.forward.calls": calls("taskseg.forward"),
        "bars.step.self_s": self_s("bars.step"),
        "bars.skipped_steps": sum(d.skipped for d in diags),
        "bars.steps": len(diags),
        "optim.adam.step_s": self_s("optim.adam.step"),
        "optim.adam.step.calls": calls("optim.adam.step"),
        "optim.sgd.step_s": self_s("optim.sgd.step"),
        "optim.sgd.step.calls": calls("optim.sgd.step"),
        "stats.welford.update_s": self_s("stats.welford.update"),
        "stats.welford.update.calls": calls("stats.welford.update"),
        "toydata.bytes_written": counters["toydata.bytes_written"],
        "toydata.bytes_read": counters["toydata.bytes_read"],
        "gc.collections": counters["gc.collections"],
        "gc.gen2_collections": counters["gc.gen2_collections"],
        "gc.collected": counters["gc.collected"],
        "gc.pause_s": counters["gc.pause_s"],
    }
    for name in ("transfer.encode", "transfer.extract_style", "transfer.dst_transfer",
                 "transfer.generate", "transfer.disc", "transfer.perceptual",
                 "taskseg.forward", "taskseg.predict", "bars.nearest_class",
                 "bars.class_means", "toydata.generate", "toydata.export", "toydata.load",
                 "tensorio.write_archive", "pipeline.phase_stats", "pipeline.phase_mtdt",
                 "pipeline.phase_transfer", "pipeline.load_transferred",
                 "pipeline.phase_adapt", "pipeline.phase_eval",
                 "pipeline.domain_classifier_accuracy"):
        totals[f"{name}_s"] = incl(name)

    values = {k: v / n for k, v in totals.items()}
    values.update({
        "autodiff.conv2d.gflop_per_s": flop / 1e9 / conv_s if conv_s else 0.0,
        "autodiff.ops_per_step": sum(calls(f"autodiff.{op}") for op in AUTODIFF_OPS) / ops,
        "bars.kept_frac_source": statistics.fmean(d.kept_fraction_source for d in diags)
        if diags else 0.0,
        "bars.kept_frac_target": statistics.fmean(d.kept_fraction_target for d in diags)
        if diags else 0.0,
        "mem.rss_mb_per_step": (rss[-1] - rss[0]) / (len(rss) - 1) if len(rss) > 1 else 0.0,
        "trace.img_per_s_untraced": untraced,
        "trace.img_per_s_traced": with_trace,
        "trace.overhead_pct": 100.0 * (untraced / with_trace - 1.0) if with_trace else 0.0,
        "setup.autodiff.conv2d.fwd_s": self_s("autodiff.conv2d", setup),
        "setup.stats.welford.update_s": self_s("stats.welford.update", setup),
    })
    for name in ("pipeline.build_datasets", "pipeline.init_models", "pipeline.phase_stats",
                 "pipeline.phase_transfer", "toydata.generate", "toydata.export"):
        values[f"setup.{name}_s"] = incl(name, setup)
    return values


def span_table(spans: dict, per: int) -> list[str]:
    lines = [f"  {'span':42s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}"]
    for name, (c, inc, slf) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:42s} {c / per:9.1f} {inc / per:10.4f} {slf / per:10.4f}")
    return lines


# ---------------------------------------------------------------------------


def load_digests() -> dict:
    try:
        return json.loads((OUT / "digests.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def save_digests(all_digests: dict) -> None:
    tmp = OUT / f"digests.json.{os.getpid()}"
    tmp.write_text(json.dumps(all_digests, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, OUT / "digests.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtda" / "__init__.py").is_file():
        print(f"perfbench: no mtda package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtda
    from workloads import run_workload

    if Path(mtda.__file__).resolve().parent != SRC / "mtda":
        print(f"perfbench: imported mtda from {mtda.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    src_sha = source_digest()
    all_digests = load_digests()
    known = all_digests.get(src_sha, {})
    run_id = uuid.uuid4().hex
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work,
                           known, run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    all_digests[src_sha] = {**known, **run.digests}
    save_digests(all_digests)

    prov = provenance(run, args.seed, src_sha)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} run_id={run_id}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for problem in run.problems + [q for p in run.passes for q in p.outcome.problems]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(run)
        units = PER_LAYER
        n = sum(p.traced for p in run.passes)
        print("spans of the traced set-up:")
        print("\n".join(span_table(summarize(run.tracer.spans["setup"]), 1)))
        print(f"spans per traced pass ({n} passes):")
        print("\n".join(span_table(summarize(run.tracer.spans["pass"]), n)))
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(trace_file, "wt", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "metrics": values, **run.tracer.dump()}, fh)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        values, samples = end_to_end(run)
        units = END_TO_END
        for name, unit in units.items():
            print(f"  {name:14s} {values[name]:12.4f} {unit:9s} ({samples[name]})")

    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_frac':14s} {frac:12.4f} {'ratio':9s} "
          f"({run.failed} failed / {run.attempted} attempted)")
    result = {
        "correct": run.failed == 0 and not run.problems and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
