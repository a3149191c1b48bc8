"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer as tr
import workloads

import mtda.pipeline  # noqa: F401  (loads every module the tracer patches)

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _snapshot() -> dict:
    """Every attribute of every mtda module and of every class the tracer patches."""
    owners = tr.mtda_modules() + [owner for _, module, attr in tr.TARGETS if "." in attr
                                  for owner, _, _ in tr.patch_sites(module, attr)]
    return {(id(o), k): (o, v) for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    tracer = tr.Tracer("test")
    with pytest.raises(RuntimeError):
        with tracer.active("pass"):
            assert mtda.pipeline.phase_mtdt is not before[
                (id(mtda.pipeline), "phase_mtdt")][1]
            raise RuntimeError("leave the traced section by an exception")
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (_, value) in before.items():
        assert after[key][1] is value, key
    assert tracer._on_gc not in gc.callbacks


def test_tracer_patches_every_module_that_imported_a_function():
    from mtda import autodiff, taskseg, transfer

    original = autodiff.conv2d
    tracer = tr.Tracer("test")
    with tracer.active("pass"):
        for module in (autodiff, transfer, taskseg):
            assert module.conv2d is not original
            assert module.conv2d.__wrapped__ is original
    assert transfer.conv2d is original and taskseg.conv2d is original


def test_summarize_self_time_excludes_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    out = tr.summarize(spans)
    assert out["a"] == [1, 10.0, 6.0]
    assert out["b"] == [2, 4.0, 3.0]
    assert out["c"] == [1, 1.0, 1.0]


def test_metric_names_and_units_match_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == bench.END_TO_END
    assert layers == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, unit in {**declared, **layers}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


@pytest.fixture
def short_runs(monkeypatch):
    """Minimal runs: one set-up, one untraced and one traced pass."""
    monkeypatch.setattr(workloads, "MIN_OPS", 0)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "TRACED_MIN_PASSES", 2)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name, tmp_path, short_runs):
    run = workloads.run_workload(name, 11, 0, True, tmp_path / name, {}, "test")
    problems = run.problems + [q for p in run.passes for q in p.outcome.problems]
    assert problems == []
    assert run.attempted > 0 and run.failed == 0
    assert [p.traced for p in run.passes] == [False, True]

    values = bench.per_layer(run)
    assert values.keys() == bench.PER_LAYER.keys()
    for section in ("setup", "pass"):
        for name_, (calls, incl, self_s) in tr.summarize(run.tracer.spans[section]).items():
            assert calls > 0 and -1e-9 <= self_s <= incl + 1e-9, name_
    assert (values["autodiff.backward.calls"] == 0) == (name == "infer-restyle")

    e2e, _ = bench.end_to_end(run)
    assert e2e.keys() == bench.END_TO_END.keys()
    assert all(v > 0 for v in e2e.values())


def test_digest_mismatch_fails_every_operation(tmp_path, short_runs):
    cfg = workloads.WORKLOADS["train-mtdt"].config(3, "w")
    key = f"train-mtdt/{workloads.config_hash(cfg)}/pass0"
    run = workloads.run_workload("train-mtdt", 3, 0, False, tmp_path / "w", {key: "0" * 64},
                                 "test")
    assert run.attempted > 0 and run.failed == run.attempted
    assert run.digests[key] != "0" * 64


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-mtdt",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
