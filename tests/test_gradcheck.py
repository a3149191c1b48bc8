"""The gradient-check harness itself: coverage and fault sensitivity."""

import numpy as np

from mtda.autodiff import Tensor, _emit, tensor_sum
from mtda.gradcheck import REGISTRY, check_op, run_all
from mtda.rng import SplitMix64


def test_registry_covers_each_op_once():
    names = [name for name, _ in REGISTRY]
    assert sorted(names) == sorted([
        "conv2d", "fully_connected", "instance_norm", "relu", "clamp_unit",
        "l1_loss", "mse_loss", "softmax_cross_entropy", "sigmoid_bce_with_logits",
        "channel_affine", "concat_slice_channels", "upsample_nearest2x",
        "global_avg_pool", "tad", "dst_block", "task_net", "conv2d_stride1_pad1",
        "conv2d_1x1", "conv2d_frozen_weights", "repeat_batch", "upsample_conv2d"])


def test_small_probe_run_passes():
    results = run_all(registry=REGISTRY[:6], probes=3)
    for r in results:
        assert r.passed, f"{r.op}: {r.max_rel_err}"


def _broken_scale(x: Tensor) -> Tensor:
    """Forward multiplies by 3, backward pretends the factor was 2."""
    def vjp(g):
        return g * 2.0,

    return _emit(x.data * 3.0, (x,), vjp)


def test_corrupted_backward_detected_and_named():
    def build(rng: SplitMix64):
        x = Tensor(rng.normal(6).reshape(2, 3), requires_grad=True)
        return (lambda: tensor_sum(_broken_scale(x)), [x])

    result = check_op("deliberately_broken", build, probes=2)
    assert not result.passed
    assert result.op == "deliberately_broken"
    assert result.max_rel_err > 0.1
