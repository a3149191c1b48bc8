"""Central finite-difference verification of every differentiable op.

Each registry entry builds a freshly seeded probe: a closure that reruns the
op's forward pass to a scalar, plus the tensors whose analytic gradients get
compared against central differences with h = 1e-5.  Inputs of kinked ops
(ReLU, L1) are generated away from their kinks so the finite-difference
stencil stays on one linear piece.  Inside deep composites the kink
locations are not controllable, and a stencil that straddles a ReLU crossing
measures the wrong one-sided slope; elements that miss tolerance at the
default step are therefore re-measured once at h = 1e-6 (a real backward bug
fails at every step size, so the refinement cannot mask one).  Large tensors
are spot-checked on a seeded element subset to keep the whole suite fast.

The relative error uses a small additive regularizer so near-zero gradient
entries do not divide by zero:

    rel = |g_analytic - g_numeric| / (|g_analytic| + |g_numeric| + 1e-4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    IGNORE_VALUE,
    Tape,
    Tensor,
    channel_affine,
    clamp_unit,
    concat_batch,
    concat_channels,
    conv2d,
    fully_connected,
    global_avg_pool,
    instance_norm,
    l1_loss,
    mse_loss,
    relu,
    repeat_batch,
    sigmoid_bce_with_logits,
    slice_batch,
    slice_channels,
    softmax_cross_entropy,
    tensor_sum,
    upsample_conv2d,
    upsample_nearest2x,
)
from .layers import conv_params, fc_params
from .rng import SplitMix64

H_STEP = 1e-5
REL_TOLERANCE = 1e-4
MAX_ELEMENTS = 48  # larger tensors are spot-checked on this many seeded elements
_REG = 1e-4


def _central_diff(f: Callable[[], float], flat: np.ndarray, i: int, h: float) -> float:
    orig = flat[i]
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2.0 * h)


def relative_error(analytic, numeric) -> np.ndarray:
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + _REG)


@dataclass
class GradCheckResult:
    op: str
    probes: int
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < REL_TOLERANCE


def check_op(name: str, build: Callable[[SplitMix64], tuple[Callable[[], Tensor], list[Tensor]]],
             probes: int = 20) -> GradCheckResult:
    worst = 0.0
    for seed in range(probes):
        loss_fn, targets = build(SplitMix64(seed).derive(name))
        with Tape() as tape:
            loss = loss_fn()
        grads = tape.backward(loss, targets)
        pick = SplitMix64(seed).derive(name, "subset")
        f = lambda: loss_fn().item()
        for t, g in zip(targets, grads):
            analytic = (g if g is not None else np.zeros_like(t.data)).reshape(-1)
            flat = t.data.reshape(-1)
            if flat.size > MAX_ELEMENTS:
                indices = sorted({pick.randint(flat.size) for _ in range(MAX_ELEMENTS)})
            else:
                indices = range(flat.size)
            for i in indices:
                gn = _central_diff(f, flat, i, H_STEP)
                err = float(relative_error(analytic[i], gn))
                if err >= REL_TOLERANCE:
                    # wide stencil may straddle an activation kink; re-measure
                    gn = _central_diff(f, flat, i, H_STEP / 10.0)
                    err = float(relative_error(analytic[i], gn))
                worst = max(worst, err)
    return GradCheckResult(op=name, probes=probes, max_rel_err=worst)


def _rand(rng: SplitMix64, *shape: int) -> Tensor:
    return Tensor(rng.normal(int(np.prod(shape))).reshape(shape), requires_grad=True)


def _rand_off_kink(rng: SplitMix64, *shape: int, gap: float = 0.05) -> Tensor:
    """Values with |x| >= gap so h-sized perturbations never cross zero."""
    v = rng.normal(int(np.prod(shape))).reshape(shape)
    return Tensor(np.sign(v) * (np.abs(v) + gap), requires_grad=True)


def _probed(op: Callable[[], Tensor], rng: SplitMix64) -> Callable[[], Tensor]:
    """Contract a non-scalar op to a scalar through one frozen random functional."""
    shape = op().shape
    r = Tensor(rng.normal(int(np.prod(shape))).reshape(shape))
    return lambda: tensor_sum(op() * r)


def _build_conv(shape: tuple[int, ...], out_ch: int, k: int, stride: int, pad: int,
                frozen_weights: bool = False):
    """Registry entry for a conv2d probe; frozen weights have no
    requires_grad, so backward skips dw but not dx and db."""
    def build(rng):
        x = _rand(rng, *shape)
        p = conv_params(rng, shape[1], out_ch, k=k)
        p.weights.requires_grad = not frozen_weights
        targets = [x, p.bias] if frozen_weights else [x, p.weights, p.bias]
        return (_probed(lambda: conv2d(x, p, stride=stride, pad=pad), rng.derive("probe")),
                targets)
    return build


def _build_upsample_conv(rng):
    x = _rand(rng, 2, 3, 3, 4)
    p = conv_params(rng, 3, 4)
    return (_probed(lambda: upsample_conv2d(x, p), rng.derive("probe")),
            [x, p.weights, p.bias])


def _build_unary(op: Callable[[Tensor], Tensor], shape: tuple[int, ...], make=_rand):
    """Registry entry for a probe of the one-input op on an input drawn by make."""
    def build(rng):
        x = make(rng, *shape)
        return (_probed(lambda: op(x), rng.derive("probe")), [x])
    return build


def _build_fc(rng):
    v = _rand(rng, 3, 5)
    p = fc_params(rng, 5, 4)
    return (_probed(lambda: fully_connected(v, p), rng.derive("probe")),
            [v, p.weights, p.bias])


def _build_clamp(rng):
    # values on both sides of the range, none within h of the +/-1 kinks
    v = rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4) * 1.5
    v[np.abs(np.abs(v) - 1.0) < 0.05] *= 1.2
    x = Tensor(v, requires_grad=True)
    return (_probed(lambda: clamp_unit(x), rng.derive("probe")), [x])


def _build_l1(rng):
    a = _rand(rng, 2, 3, 4, 4)
    b = Tensor(a.data + np.sign(rng.normal(a.data.size).reshape(a.shape)) * 0.1,
               requires_grad=True)
    return (lambda: l1_loss(a, b), [a, b])


def _build_mse(rng):
    a = _rand(rng, 2, 3, 4, 4)
    b = _rand(rng, 2, 3, 4, 4)
    return (lambda: mse_loss(a, b), [a, b])


def _build_softmax_ce(rng):
    x = _rand(rng, 2, 5, 4, 4)
    labels = (rng.uniform(2 * 4 * 4) * 6).astype(np.int64).reshape(2, 4, 4)
    labels[labels == 5] = IGNORE_VALUE  # a sprinkling of ignored pixels
    return (lambda: softmax_cross_entropy(x, labels), [x])


def _build_bce(rng):
    x = _rand(rng, 2, 1, 4, 4)
    t = (rng.uniform(2 * 16) > 0.5).astype(np.float64).reshape(2, 1, 4, 4)
    return (lambda: sigmoid_bce_with_logits(x, t), [x])


def _build_channel_affine(rng):
    x = _rand(rng, 2, 3, 4, 4)
    s = _rand(rng, 1, 3)
    b = _rand(rng, 1, 3)
    return (_probed(lambda: channel_affine(x, s, b), rng.derive("probe")), [x, s, b])


def _build_concat_slice(rng):
    a = _rand(rng, 2, 3, 4, 4)
    b = _rand(rng, 2, 2, 4, 4)
    return (_probed(lambda: slice_channels(concat_channels([a, b]), 1, 4),
                    rng.derive("probe")), [a, b])


def _build_concat_slice_batch(rng):
    a = _rand(rng, 2, 3, 4, 4)
    b = _rand(rng, 3, 3, 4, 4)
    return (_probed(lambda: slice_batch(concat_batch([a, b]), 1, 4),
                    rng.derive("probe")), [a, b])


def _build_tad(rng):
    from .stats import DomainStatistics
    from .transfer import tad_forward

    x = _rand(rng, 2, 4, 5, 5)
    fc_scale = fc_params(rng, 4, 4)
    fc_bias = fc_params(rng, 4, 4)
    # one statistics row per sample, the layout of the stacked MTDT batch
    stats = [DomainStatistics(mu=rng.normal(4), sigma=np.abs(rng.normal(4)) + 0.5, n=10)
             for _ in range(2)]
    return (
        _probed(lambda: tad_forward(x, stats, fc_scale, fc_bias), rng.derive("probe")),
        [x, fc_scale.weights, fc_scale.bias, fc_bias.weights, fc_bias.bias],
    )


def _build_dst_block(rng):
    from .layers import ParamGroup
    from .stats import DomainStatistics
    from .transfer import TadResBlock

    params = ParamGroup()
    block = TadResBlock(params, "blk", channels=4, stats_dim=3, rng=rng)
    # the block zero-inits its second TAD's scale FC; fill both FCs in so
    # every path carries gradient during the check
    for fc in (block.fc_scale_b, block.fc_bias_b):
        fc.weights.data = rng.normal(fc.weights.data.size).reshape(fc.weights.shape)
        fc.bias.data = rng.normal(fc.bias.data.size)
    x = _rand(rng, 2, 4, 5, 5)
    # two targets, as in MtdtModel.dst_transfer's first block: one statistics
    # entry per row of the two copies of x
    s0, s1 = (DomainStatistics(mu=rng.normal(3), sigma=np.abs(rng.normal(3)) + 0.5, n=10)
              for _ in range(2))
    return (_probed(lambda: block.forward(x, [s0, s0, s1, s1], copies=2), rng.derive("probe")),
            [x] + params.tensors())


def _build_task_net(rng):
    from .taskseg import TaskNet

    net = TaskNet(num_classes=3, rng=rng)
    x = _rand(rng, 1, 3, 8, 8)
    labels = (rng.uniform(64) * 3).astype(np.int64).reshape(1, 8, 8)

    def loss_fn():
        logits, _ = net.forward(x)
        return softmax_cross_entropy(logits, labels)

    return (loss_fn, [x] + net.params.tensors())


REGISTRY: list[tuple[str, Callable]] = [
    ("conv2d", _build_conv((2, 3, 6, 6), 4, k=3, stride=2, pad=1)),
    ("fully_connected", _build_fc),
    ("instance_norm", _build_unary(instance_norm, (2, 3, 4, 4))),
    ("relu", _build_unary(relu, (2, 3, 4, 4), make=_rand_off_kink)),
    ("clamp_unit", _build_clamp),
    ("l1_loss", _build_l1),
    ("mse_loss", _build_mse),
    ("softmax_cross_entropy", _build_softmax_ce),
    ("sigmoid_bce_with_logits", _build_bce),
    ("channel_affine", _build_channel_affine),
    ("concat_slice_channels", _build_concat_slice),
    ("concat_slice_batch", _build_concat_slice_batch),
    ("upsample_nearest2x", _build_unary(upsample_nearest2x, (2, 3, 3, 3))),
    ("global_avg_pool", _build_unary(global_avg_pool, (2, 3, 4, 4))),
    ("tad", _build_tad),
    ("dst_block", _build_dst_block),
    ("task_net", _build_task_net),
    ("conv2d_stride1_pad1", _build_conv((2, 3, 5, 7), 4, k=3, stride=1, pad=1)),
    ("conv2d_1x1", _build_conv((2, 3, 4, 5), 2, k=1, stride=1, pad=0)),
    ("conv2d_frozen_weights", _build_conv((2, 3, 5, 5), 4, k=3, stride=2, pad=1,
                                          frozen_weights=True)),
    ("repeat_batch", _build_unary(lambda x: repeat_batch(x, 3), (2, 3, 4, 4))),
    ("upsample_conv2d", _build_upsample_conv),
]


def run_all(registry=None, probes: int = 20) -> list[GradCheckResult]:
    registry = REGISTRY if registry is None else registry
    return [check_op(name, build, probes=probes) for name, build in registry]
