"""The benchmark's three workloads and the closed loop that runs them.

Each workload is driven through the public phase functions of
``mtda.pipeline``.  A run sets the workload up (data generation, model
initialisation and the set-up phases), then runs *passes* back to back, each
starting when the previous one returned, until ``seconds`` have elapsed and
enough operations were seen for a 90th percentile with ten samples beyond
it.  A pass is a fixed amount of work, so every pass-level count repeats
exactly.

An operation is what ``failed`` and the step-time percentiles count:

* ``train-mtdt``: one MTDT training iteration; it ends at the call of the
  ``log_sink`` that ``train_mtdt`` receives.
* ``train-adapt``: one ``bars_step`` call.
* ``infer-restyle``: one 16-image forward batch of a whole network, i.e.
  one call of ``MtdtModel.transfer_image`` (restyling, also inside the
  domain-classifier phase) or ``TaskNet.predict`` (evaluation).  The
  single-image ``encode`` calls of the statistics phase and the small critic
  batches count as images, not as operations, so the step-time percentiles
  describe batches of one size and cost class.

Operations are timed by wrapping the names ``mtda.pipeline`` reaches them
through; the wrappers only read the clock and keep the operation's output
for the correctness checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mtda import pipeline
from mtda.config import ExperimentConfig, config_hash
from mtda.rng import SplitMix64
from mtda.taskseg import TaskNet
from mtda.transfer import MtdtModel

from tracer import Patches, Tracer, rss_mb

MIN_OPS = 110          # p90 of 110 samples leaves 11 beyond it
SETUP_REPEATS = 3      # set-up time is the median of this many set-ups
TRACED_MIN_PASSES = 4  # a traced run alternates untraced and traced passes


class StepClock:
    """Durations (and optionally RSS) at the end of every operation of a pass."""

    def __init__(self, sample_rss: bool = False):
        self.sample_rss = sample_rss
        self.durations: list[float] = []
        self.rss: list[float] = []
        self.outputs: list = []
        self._patches = Patches()

    def tick(self, duration: float, output=None) -> None:
        self.durations.append(duration)
        self.outputs.append(output)
        if self.sample_rss:
            self.rss.append(rss_mb())

    def time_calls(self, owner, attr: str, keep_output: bool) -> None:
        fn = owner.__dict__[attr]

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.tick(perf_counter() - t0, out if keep_output else None)
            return out

        self._patches.set(owner, attr, timed)

    def time_log_sink(self) -> None:
        """Wrap ``pipeline.train_mtdt`` so each iteration ends at its log_sink call."""
        fn = pipeline.train_mtdt

        def train_mtdt(*args, log_sink=None, **kwargs):
            last = perf_counter()

            def sink(record):
                nonlocal last
                now = perf_counter()
                self.tick(now - last, record)
                last = now
                if log_sink is not None:
                    log_sink(record)

            return fn(*args, log_sink=sink, **kwargs)

        self._patches.set(pipeline, "train_mtdt", train_mtdt)

    def uninstall(self) -> None:
        self._patches.restore()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def _scene_bytes(domains) -> bytes:
    return b"".join(s.image.tobytes() + s.label.tobytes() for scenes in domains for s in scenes)


def _stats_bytes(stats_list) -> bytes:
    return b"".join(s.mu.tobytes() + s.sigma.tobytes() for s in stats_list)


def _check_restyled(domains) -> list[str]:
    for scenes in domains:
        for s in scenes:
            if not np.isfinite(s.image).all():
                return ["restyled image is not finite"]
            if s.image.min() < -1.0 or s.image.max() > 1.0:
                return ["restyled image leaves [-1, 1]"]
    return []


def _check_eval(results: dict) -> list[str]:
    problems = []
    for name, r in results.items():
        if not math.isfinite(r["miou"]):
            problems.append(f"{name}: mIoU {r['miou']} is not finite")
        for v in r["per_class_iou"]:
            if v is not None and not math.isfinite(v):
                problems.append(f"{name}: per-class IoU {v} is neither finite nor undefined")
    return problems


@dataclass
class PassOutcome:
    ops: int
    digest: str | None
    problems: list[str]   # any problem fails every operation of the pass
    images: int

    @property
    def failed(self) -> int:
        return self.ops if self.problems else 0


class Workload:
    name = ""
    why = ""
    repeatable_passes = True   # every pass does identical work and must digest equal

    def config(self, seed: int, out_dir: str) -> ExperimentConfig:
        raise NotImplementedError

    def setup(self, cfg: ExperimentConfig, out: Path) -> dict:
        raise NotImplementedError

    def setup_digest(self, state: dict) -> str:
        return _digest(_stats_bytes(state["stats"]))

    def setup_problems(self, state: dict) -> list[str]:
        return []

    def install_clock(self, clock: StepClock) -> None:
        raise NotImplementedError

    def ops_per_pass(self, cfg: ExperimentConfig) -> int:
        raise NotImplementedError

    def execute(self, cfg: ExperimentConfig, state: dict, out: Path, verify: bool):
        raise NotImplementedError

    def check(self, cfg: ExperimentConfig, raw, clock: StepClock) -> PassOutcome:
        raise NotImplementedError


class TrainMtdt(Workload):
    name = "train-mtdt"
    why = ("MTDT transfer-network training: many tiny tensors, so backward and per-op "
           "cost dominate; the only workload with Adam, the critic and the tape memory growth")
    repeatable_passes = False  # passes keep training the same model
    iterations = 10

    def config(self, seed, out_dir):
        return ExperimentConfig(seed=seed, out_dir=out_dir, mtdt_iterations=self.iterations)

    def setup(self, cfg, out):
        data = pipeline.build_datasets(cfg)
        model, disc, pnet = pipeline.init_models(cfg)
        stats, _ = pipeline.phase_stats(cfg, model, data, out)
        return {"data": data, "model": model, "disc": disc, "pnet": pnet, "stats": stats}

    def install_clock(self, clock):
        clock.time_log_sink()

    def ops_per_pass(self, cfg):
        return cfg.mtdt_iterations

    def execute(self, cfg, state, out, verify):
        return pipeline.phase_mtdt(cfg, state["model"], state["disc"], state["pnet"],
                                   state["data"], state["stats"], out)

    def check(self, cfg, raw, clock):
        records = clock.outputs
        bad = sum(not all(math.isfinite(v) for v in r.values()) for r in records)
        problems = [] if len(records) == cfg.mtdt_iterations else [
            f"{len(records)} MTDT log records for {cfg.mtdt_iterations} iterations"]
        if bad:
            problems.append(f"{bad} MTDT iterations logged a non-finite loss")
        per_step = cfg.mtdt_batch * (1 + len(cfg.targets))
        return PassOutcome(ops=len(records), digest=_digest(records),
                           problems=problems, images=len(records) * per_step)


class TrainAdapt(Workload):
    name = "train-adapt"
    why = ("BARS self-training of the task net at full 32x32 resolution with SGD; "
           "the only workload that runs bars and taskseg training")
    iterations = 20

    def config(self, seed, out_dir):
        return ExperimentConfig(seed=seed, out_dir=out_dir, adapt_iterations=self.iterations)

    def setup(self, cfg, out):
        data = pipeline.build_datasets(cfg)
        model, _, _ = pipeline.init_models(cfg)
        stats, _ = pipeline.phase_stats(cfg, model, data, out)
        transferred = pipeline.phase_transfer(cfg, model, data, stats, out)
        return {"data": data, "stats": stats, "transferred": transferred}

    def setup_digest(self, state):
        return _digest(_stats_bytes(state["stats"]), _scene_bytes(state["transferred"]))

    def setup_problems(self, state):
        return _check_restyled(state["transferred"])

    def install_clock(self, clock):
        clock.time_calls(pipeline, "bars_step", keep_output=True)

    def ops_per_pass(self, cfg):
        return cfg.adapt_iterations

    def execute(self, cfg, state, out, verify):
        net, metrics = pipeline.phase_adapt(cfg, state["data"], state["transferred"], out,
                                            verify=verify)
        return metrics, pipeline.phase_eval(cfg, net, state["data"], out)

    def check(self, cfg, raw, clock):
        metrics, results = raw
        losses = [loss for loss, _diag in clock.outputs]
        bad = sum(not math.isfinite(loss) for loss in losses)
        problems = _check_eval(results)
        if len(losses) != cfg.adapt_iterations:
            problems.append(f"{len(losses)} BARS steps for {cfg.adapt_iterations} iterations")
        if bad:
            problems.append(f"{bad} BARS steps returned a non-finite loss")
        return PassOutcome(ops=len(losses), digest=_digest(losses, metrics, results),
                           problems=problems,
                           images=len(losses) * cfg.task_batch * 2)


class InferRestyle(Workload):
    name = "infer-restyle"
    why = ("forward only at 64x64: statistics, restyling with export and read-back, "
           "domain classification and evaluation; no tape, backward or optimizer")
    image_size = 64
    train_scenes = 64
    eval_scenes = 32

    def config(self, seed, out_dir):
        return ExperimentConfig(seed=seed, out_dir=out_dir, image_size=self.image_size,
                                train_scenes=self.train_scenes, eval_scenes=self.eval_scenes)

    def setup(self, cfg, out):
        data = pipeline.build_datasets(cfg)
        model, disc, _ = pipeline.init_models(cfg)
        return {"data": data, "model": model, "disc": disc}

    def setup_digest(self, state):
        return _digest(_scene_bytes([state["data"].source_train, state["data"].source_eval]))

    def install_clock(self, clock):
        for owner, attr in ((MtdtModel, "transfer_image"), (TaskNet, "predict")):
            clock.time_calls(owner, attr, keep_output=False)

    def ops_per_pass(self, cfg):
        # restyle batches, then a restyle and an evaluate batch per eval chunk
        per_target = math.ceil(cfg.train_scenes / 16) + 2 * math.ceil(cfg.eval_scenes / 16)
        return len(cfg.targets) * per_target

    def images_per_pass(self, cfg):
        # encoded + restyled + classified + evaluated
        return len(cfg.targets) * (2 * cfg.train_scenes + 2 * cfg.eval_scenes)

    def execute(self, cfg, state, out, verify):
        data = state["data"]
        stats, _ = pipeline.phase_stats(cfg, state["model"], data, out)
        transferred = pipeline.phase_transfer(cfg, state["model"], data, stats, out)
        loaded = pipeline.load_transferred(cfg, out)
        acc = pipeline.domain_classifier_accuracy(state["model"], state["disc"],
                                                  data.source_eval, stats)
        net = TaskNet(cfg.num_classes, SplitMix64(cfg.seed).derive("task-net"))
        results = pipeline.phase_eval(cfg, net, data, out)
        return stats, transferred, loaded, acc, results

    def check(self, cfg, raw, clock):
        stats, transferred, loaded, acc, results = raw
        problems = _check_restyled(transferred) + _check_eval(results)
        if _scene_bytes(loaded) != _scene_bytes(transferred) or any(
                len(a) != len(b) for a, b in zip(loaded, transferred)):
            problems.append("load_transferred differs from what phase_transfer wrote")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"domain classifier accuracy {acc} outside [0, 1]")
        ops = len(clock.durations)
        if ops != self.ops_per_pass(cfg):
            problems.append(f"{ops} inference batches, expected {self.ops_per_pass(cfg)}")
        digest = _digest(_stats_bytes(stats), _scene_bytes(transferred), acc, results)
        return PassOutcome(ops=ops, digest=digest, problems=problems,
                           images=self.images_per_pass(cfg))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (TrainMtdt(), TrainAdapt(), InferRestyle())}


@dataclass
class PassRecord:
    wall_s: float
    traced: bool
    outcome: PassOutcome
    durations: list[float]
    rss: list[float]
    bars: list = field(default_factory=list)  # BarsDiagnostics of traced train-adapt passes


@dataclass
class Run:
    workload: str
    cfg: ExperimentConfig
    setup_s: list[float]
    passes: list[PassRecord]
    problems: list[str]
    tracer: Tracer | None
    digests: dict[str, str]

    @property
    def attempted(self) -> int:
        return sum(p.outcome.ops for p in self.passes)

    @property
    def failed(self) -> int:
        if self.problems:
            return self.attempted
        return sum(p.outcome.failed for p in self.passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path,
                 known_digests: dict[str, str], run_id: str) -> Run:
    """Set up, then run passes in a closed loop; see the module docstring.

    ``known_digests`` maps digest keys from earlier runs of the same sources
    to their values; a pass whose digest differs counts all its operations
    as failed.  New keys are returned in ``Run.digests``."""
    wl = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    cfg = wl.config(seed, out.name)
    key = f"{name}/{config_hash(cfg)}"
    tracer = Tracer(run_id) if trace else None
    problems: list[str] = []
    digests: dict[str, str] = {}

    def expect(k: str, digest: str) -> bool:
        ref = known_digests.get(k, digests.get(k))
        digests.setdefault(k, digest)
        return ref is None or ref == digest

    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = perf_counter()
        with tracer.active("setup") if trace else nullcontext():
            state = wl.setup(cfg, out)
        setup_s.append(perf_counter() - t0)
        problems += wl.setup_problems(state)
        if not expect(f"{key}/setup", wl.setup_digest(state)):
            problems.append("set-up outputs differ from an earlier set-up of the same seed")

    min_ops = 0 if trace else MIN_OPS
    passes: list[PassRecord] = []
    start = perf_counter()
    while (not passes or perf_counter() - start < seconds
           or sum(p.outcome.ops for p in passes) < min_ops
           or (trace and len(passes) < TRACED_MIN_PASSES)):
        traced = trace and len(passes) % 2 == 1
        clock = StepClock(sample_rss=trace)
        raw = error = None
        with tracer.active("pass") if traced else nullcontext():
            wl.install_clock(clock)
            t0 = perf_counter()
            try:
                raw = wl.execute(cfg, state, out, verify=trace)
            except Exception:  # a failing pass is counted, and the loop goes on
                error = traceback.format_exc()
            wall = perf_counter() - t0
            clock.uninstall()
        if error is None:
            outcome = wl.check(cfg, raw, clock)
        else:
            ops = wl.ops_per_pass(cfg)
            outcome = PassOutcome(ops, None, [f"pass raised:\n{error}"], 0)
        pass_key = f"{key}/pass" if wl.repeatable_passes else f"{key}/pass{len(passes)}"
        if outcome.digest is not None and not expect(pass_key, outcome.digest):
            outcome.problems.append(f"outputs differ from an earlier run ({pass_key})")
        bars_diag = [d for _, d in clock.outputs] if traced and name == "train-adapt" else []
        passes.append(PassRecord(wall, traced, outcome, clock.durations, clock.rss, bars_diag))
    return Run(name, cfg, setup_s, passes, problems, tracer, digests)

