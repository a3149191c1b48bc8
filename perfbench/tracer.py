"""Outside-in tracer for the mtda modules.

The tracer wraps each public function listed in ``TARGETS`` in every mtda
module that imported it (``conv2d`` is patched in ``mtda.autodiff``,
``mtda.transfer`` and ``mtda.taskseg`` alike), and each listed method on the
class that defines it.  A wrapped call records a span: its name, start, end
and the span that was open when it started.  Spans are kept in memory, one
list per section (set-up or timed pass), and written out by the caller when
the run ends.  ``uninstall`` puts every patched attribute back exactly as it
was found.

Nothing here changes how the program computes: no garbage-collector setting
is touched, the collector is only observed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

AUTODIFF_OPS = (
    "conv2d", "instance_norm", "relu", "fully_connected", "clamp_unit", "add", "neg",
    "mul", "tensor_sum", "channel_affine", "concat_channels", "slice_channels",
    "upsample_nearest2x", "global_avg_pool", "l1_loss", "mse_loss",
    "softmax_cross_entropy", "sigmoid_bce_with_logits",
)

PIPELINE_PHASES = (
    "build_datasets", "init_models", "phase_stats", "phase_mtdt", "phase_transfer",
    "load_transferred", "phase_adapt", "phase_eval", "domain_classifier_accuracy",
)

# (span name, defining module, function or Class.method)
TARGETS: tuple[tuple[str, str, str], ...] = (
    *((f"autodiff.{op}", "mtda.autodiff", op) for op in AUTODIFF_OPS),
    ("autodiff.backward", "mtda.autodiff", "Tape.backward"),
    ("transfer.encode", "mtda.transfer", "MtdtModel.encode"),
    ("transfer.extract_style", "mtda.transfer", "MtdtModel.extract_style"),
    ("transfer.dst_transfer", "mtda.transfer", "MtdtModel.dst_transfer"),
    ("transfer.generate", "mtda.transfer", "MtdtModel.generate"),
    ("transfer.disc", "mtda.transfer", "MultiHeadDiscriminator.forward"),
    ("transfer.perceptual", "mtda.transfer", "PerceptualNet.features"),
    ("transfer.train_mtdt", "mtda.transfer", "train_mtdt"),
    ("taskseg.forward", "mtda.taskseg", "TaskNet.forward"),
    ("taskseg.predict", "mtda.taskseg", "TaskNet.predict"),
    ("bars.step", "mtda.bars", "bars_step"),
    ("bars.nearest_class", "mtda.bars", "nearest_class"),
    ("bars.class_means", "mtda.bars", "class_means"),
    ("optim.adam.step", "mtda.optim", "Adam.step"),
    ("optim.sgd.step", "mtda.optim", "SgdMomentum.step"),
    ("stats.welford.update", "mtda.stats", "WelfordAccumulator.update"),
    ("toydata.generate", "mtda.toydata", "generate"),
    ("toydata.export", "mtda.toydata", "export"),
    ("toydata.load", "mtda.toydata", "load"),
    ("tensorio.write_tensor", "mtda.tensorio", "write_tensor"),
    ("tensorio.read_tensor", "mtda.tensorio", "read_tensor"),
    ("tensorio.write_archive", "mtda.tensorio", "write_archive"),
    *((f"pipeline.{phase}", "mtda.pipeline", phase) for phase in PIPELINE_PHASES),
)


def _conv_counts(counters, x, p, stride=1, pad=0):
    """FLOPs and im2col bytes of one conv2d call, computed from its shapes."""
    b, _, h, w = x.shape
    co, ci, kh, kw = p.weights.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    counters["autodiff.conv2d.flop"] += 2 * b * ho * wo * co * ci * kh * kw
    counters["autodiff.conv2d.col_bytes"] += 8 * b * ho * wo * ci * kh * kw


def _file_bytes(key):
    def hook(counters, path, *_args, **_kwargs):
        counters[key] += os.path.getsize(path)
    return hook


HOOKS = {
    "autodiff.conv2d": _conv_counts,
    "tensorio.write_tensor": _file_bytes("toydata.bytes_written"),
    "tensorio.read_tensor": _file_bytes("toydata.bytes_read"),
}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def mtda_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mtda" or name.startswith("mtda."))]


def patch_sites(module: str, attr: str) -> list[tuple[object, str, object]]:
    """Every (owner, attribute name, original) through which mtda reaches `attr`.

    A method lives on its class; a function is found in every mtda module
    that holds the same object, under whatever name it was imported."""
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    original = getattr(mod, attr)
    return [(m, name, original) for m in mtda_modules()
            for name, value in list(vars(m).items()) if value is original]


def rss_mb() -> float:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Spans and counters at the mtda module boundaries, per section."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # section -> [(name, start, end, parent index or -1)]
        self.spans: dict[str, list] = defaultdict(list)
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patches = Patches()
        self._stack: list[int] = []
        self._gc_started = 0.0
        self._section = ""

    def _wrap(self, name: str, fn):
        spans_of, counters_of, stack = self.spans, self.counters, self._stack
        hook = HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of[self._section]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(counters_of[self._section], *args, **kwargs)
            return out

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        c = self.counters[self._section]
        c["gc.collections"] += 1
        c["gc.pause_s"] += perf_counter() - self._gc_started
        c["gc.collected"] += info["collected"]
        if info["generation"] == 2:
            c["gc.gen2_collections"] += 1

    def install(self, section: str) -> None:
        self._section = section
        self._stack.clear()
        for name, module, attr in TARGETS:
            for owner, attr_name, original in patch_sites(module, attr):
                self._patches.set(owner, attr_name, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    @contextmanager
    def active(self, section: str):
        self.install(section)
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self) -> dict:
        """Every span, for writing out once the run has ended."""
        return {
            "run_id": self.run_id,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "sections": {sec: [list(s) for s in spans] for sec, spans in self.spans.items()},
        }


def summarize(spans: list) -> dict[str, list[float]]:
    """name -> [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; children always close before their parent does."""
    child = [0.0] * len(spans)
    for _name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, t0, t1, _parent) in enumerate(spans):
        agg = out[name]
        agg[0] += 1
        agg[1] += t1 - t0
        agg[2] += t1 - t0 - child[i]
    return dict(out)
