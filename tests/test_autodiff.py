"""Forward oracles and backward contracts for the tensor engine."""

import gc

import numpy as np
import pytest

from mtda.autodiff import (
    _COL_CHUNK_BYTES,
    IGNORE_VALUE,
    LayerParams,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    conv2d,
    fully_connected,
    instance_norm,
    l1_loss,
    mse_loss,
    relu,
    sigmoid_bce_with_logits,
    softmax_cross_entropy,
    tensor_sum,
)
from mtda.layers import conv_params, fc_params
from mtda.rng import SplitMix64


def conv_oracle(x, w, b, stride, pad):
    """Direct nested-loop cross-correlation."""
    B, C, H, W = x.shape
    Co, _, kh, kw = w.shape
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((B, Co, Ho, Wo))
    for bb in range(B):
        for o in range(Co):
            for i in range(Ho):
                for j in range(Wo):
                    acc = b[o]
                    for c in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, c, u, v] * xp[bb, c, i * stride + u, j * stride + v]
                    out[bb, o, i, j] = acc
    return out


class TestConv2d:
    def test_all_ones_sums_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        p = LayerParams("conv2d", Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        out = conv2d(x, p, stride=1, pad=0)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_one_by_one_affine(self):
        p = LayerParams("conv1x1", Tensor(np.full((1, 1, 1, 1), 2.0)), Tensor(np.ones(1)))
        x = Tensor(np.arange(12.0).reshape(1, 1, 3, 4))
        out = conv2d(x, p)
        np.testing.assert_array_equal(out.data, 2.0 * x.data + 1.0)

    def test_matches_direct_summation_oracle(self):
        cases = [((2, 8, 8), 3, 4, 3, stride, pad)
                 for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]]
        cases += [
            ((2, 7, 5), 3, 4, 3, 1, 1),   # odd, non-square
            ((1, 9, 6), 3, 2, 3, 2, 1),   # odd height, stride 2
            ((2, 7, 7), 3, 4, 3, 2, 0),   # stride 2, no padding
            ((2, 6, 5), 1, 3, 3, 1, 1),   # single input channel
            ((2, 5, 6), 4, 1, 3, 2, 1),   # single output channel
            ((2, 5, 7), 3, 4, 1, 1, 0),   # 1x1 kernel
            ((1, 4, 5), 2, 3, 1, 1, 1),   # padding wider than the kernel
        ]
        for (b, h, w), ci, co, k, stride, pad in cases:
            x = SplitMix64(42).normal(b * ci * h * w).reshape(b, ci, h, w)
            p = conv_params(SplitMix64(7), ci, co, k=k)
            got = conv2d(Tensor(x), p, stride, pad).data
            want = conv_oracle(x, p.weights.data, p.bias.data, stride, pad)
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    def test_multi_chunk_batch_matches_reference_and_adjoint(self, stride):
        # one 40x40 image's im2col rows exceed a GEMM chunk, so the batch of
        # three runs as several chunks in forward and in the dx GEMM
        assert 40 * 40 * 9 * 16 * 8 > _COL_CHUNK_BYTES
        rng = SplitMix64(21)
        x = rng.normal(3 * 16 * 40 * 40).reshape(3, 16, 40, 40)
        p = conv_params(SplitMix64(22), 16, 8, k=3)
        w, b = p.weights.data, p.bias.data
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = conv2d(xt, p, stride=stride, pad=1)
            r = SplitMix64(23).normal(y.data.size).reshape(y.shape)
            loss = tensor_sum(y * Tensor(r))
        tape.backward(loss)

        win = np.lib.stride_tricks.sliding_window_view(
            np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
        want = np.einsum("bchwij,ocij->bohw", win[:, :, ::stride, ::stride], w)
        assert np.abs(y.data - b[None, :, None, None] - want).max() < 1e-12
        # conv is linear in x and in w, so <y - b, r> = <x, dx> = <w, dw>
        lin = ((y.data - b[None, :, None, None]) * r).sum()
        assert (x * xt.grad).sum() == pytest.approx(lin, rel=1e-12)
        assert (w * p.weights.grad).sum() == pytest.approx(lin, rel=1e-12)
        np.testing.assert_allclose(p.bias.grad, r.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_frozen_weights_skip_dw_and_keep_dx(self):
        rng = SplitMix64(13)
        x = rng.normal(2 * 3 * 7 * 5).reshape(2, 3, 7, 5)
        r = rng.normal(2 * 4 * 4 * 3).reshape(2, 4, 4, 3)

        def grads(weights_trainable):
            p = conv_params(SplitMix64(14), 3, 4, k=3)
            p.weights.requires_grad = weights_trainable
            xt = Tensor(x, requires_grad=True)
            with Tape() as tape:
                y = conv2d(xt, p, stride=2, pad=1)
                loss = tensor_sum(y * Tensor(r))
            tape.backward(loss)
            _, _, conv_vjp = tape._records[y._node]
            assert (conv_vjp(r)[1] is None) == (not weights_trainable)
            return xt.grad, p.weights.grad, p.bias.grad

        dx, dw, db = grads(True)
        dx_f, dw_f, db_f = grads(False)
        assert dw is not None and dw_f is None
        assert (dx == dx_f).all()
        assert (db == db_f).all()

    def test_channel_mismatch_names_axes(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        p = conv_params(SplitMix64(0), 4, 2, k=3)
        with pytest.raises(ShapeError, match="3 channels.*expects 4"):
            conv2d(x, p)

    def test_kernel_too_large(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        p = LayerParams("conv2d", Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d(x, p, stride=1, pad=0)


class TestFullyConnected:
    def test_identity(self):
        p = LayerParams("fc", Tensor(np.eye(3)), Tensor(np.zeros(3)))
        v = Tensor(np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(fully_connected(v, p).data, v.data)

    def test_hand_arithmetic(self):
        p = LayerParams("fc", Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                        Tensor(np.array([1.0, 1.0])))
        out = fully_connected(Tensor(np.array([[1.0, 1.0]])), p)
        np.testing.assert_array_equal(out.data, [[4.0, 8.0]])

    def test_matches_triple_loop_oracle(self):
        rng = SplitMix64(5)
        v = rng.normal(3 * 6).reshape(3, 6)
        p = fc_params(SplitMix64(6), 6, 4)
        got = fully_connected(Tensor(v), p).data
        want = np.zeros((3, 4))
        for b in range(3):
            for o in range(4):
                want[b, o] = p.bias.data[o]
                for i in range(6):
                    want[b, o] += p.weights.data[o, i] * v[b, i]
        assert np.abs(got - want).max() < 1e-12

    def test_dim_mismatch(self):
        p = fc_params(SplitMix64(0), 5, 2)
        with pytest.raises(ShapeError, match="input dim 4"):
            fully_connected(Tensor(np.zeros((1, 4))), p)


class TestInstanceNorm:
    def test_constant_channel_is_zero(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.5))
        np.testing.assert_array_equal(instance_norm(x).data, np.zeros((2, 3, 4, 4)))

    def test_symmetric_two_point(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        out = instance_norm(x, eps=1e-14).data.ravel()
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_moments_match_two_pass_oracle(self):
        rng = SplitMix64(9)
        eps = 1e-5
        x = rng.normal(2 * 3 * 5 * 5).reshape(2, 3, 5, 5) * 3.0 + 1.0
        y = instance_norm(Tensor(x), eps).data
        for b in range(2):
            for c in range(3):
                assert abs(y[b, c].mean()) < 1e-10
                v = x[b, c].var()
                assert abs(y[b, c].var() - v / (v + eps)) < 1e-10

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            instance_norm(Tensor(np.zeros((1, 1, 2, 2))), eps=0.0)


class TestLosses:
    def test_l1_identical_inputs(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert l1_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_cross_entropy_uniform_logits(self):
        pred = Tensor(np.zeros((1, 4, 2, 2)))
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        assert abs(softmax_cross_entropy(pred, labels).item() - np.log(4.0)) < 1e-12

    def test_cross_entropy_ignore_matches_masked_loop(self):
        rng = SplitMix64(3)
        pred = rng.normal(1 * 4 * 4 * 4).reshape(1, 4, 4, 4)
        labels = (rng.uniform(16) * 4).astype(np.int64).reshape(1, 4, 4)
        labels[0, :2, :] = IGNORE_VALUE  # half the pixels ignored
        got = softmax_cross_entropy(Tensor(pred), labels).item()
        total, count = 0.0, 0
        for i in range(4):
            for j in range(4):
                if labels[0, i, j] == IGNORE_VALUE:
                    continue
                z = pred[0, :, i, j]
                total += np.log(np.exp(z - z.max()).sum()) + z.max() - z[labels[0, i, j]]
                count += 1
        assert count == 8
        assert abs(got - total / count) < 1e-12

    def test_cross_entropy_all_ignored_is_zero_with_zero_grad(self):
        pred = Tensor(np.random.rand(1, 3, 2, 2), requires_grad=True)
        labels = np.full((1, 2, 2), IGNORE_VALUE, dtype=np.int64)
        with Tape() as tape:
            loss = softmax_cross_entropy(pred, labels)
        assert loss.item() == 0.0
        tape.backward(loss)
        np.testing.assert_array_equal(pred.grad, np.zeros_like(pred.data))

    def test_cross_entropy_rejects_out_of_range_label(self):
        pred = Tensor(np.zeros((1, 3, 1, 1)))
        labels = np.array([[[7]]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"outside \[0,3\)"):
            softmax_cross_entropy(pred, labels)

    def test_losses_permutation_invariant_over_pixels(self):
        rng = SplitMix64(12)
        a = rng.normal(24).reshape(1, 2, 3, 4)
        b = rng.normal(24).reshape(1, 2, 3, 4)
        perm = np.argsort(SplitMix64(1).uniform(12))
        ap = a.reshape(1, 2, 12)[:, :, perm].reshape(1, 2, 3, 4)
        bp = b.reshape(1, 2, 12)[:, :, perm].reshape(1, 2, 3, 4)
        assert l1_loss(Tensor(a), Tensor(b)).item() == pytest.approx(
            l1_loss(Tensor(ap), Tensor(bp)).item(), abs=1e-15)
        assert mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(
            mse_loss(Tensor(ap), Tensor(bp)).item(), abs=1e-15)
        labels = (SplitMix64(2).uniform(12) * 2).astype(np.int64).reshape(1, 3, 4)
        lp = labels.reshape(1, 12)[:, perm].reshape(1, 3, 4)
        assert softmax_cross_entropy(Tensor(a), labels).item() == pytest.approx(
            softmax_cross_entropy(Tensor(ap), lp).item(), abs=1e-14)

    def test_bce_known_value(self):
        z = Tensor(np.array([[0.0]]))
        t = np.array([[1.0]])
        assert abs(sigmoid_bce_with_logits(z, t).item() - np.log(2.0)) < 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.rand(3, 4), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_l1_sign_rule(self):
        # loss = l1(a*x + b, 0) with positive a*x + b has d/dx = a
        a, b0 = 3.0, 0.5
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = l1_loss(x * a + b0, Tensor(np.zeros(1)))
        tape.backward(loss)
        assert x.grad[0] == pytest.approx(a)

    def test_gradient_of_sum_equals_sum_of_gradients(self):
        rng = SplitMix64(8)
        x = Tensor(rng.normal(8).reshape(2, 4), requires_grad=True)
        t1 = Tensor(rng.normal(8).reshape(2, 4))
        t2 = Tensor(rng.normal(8).reshape(2, 4))
        with Tape() as tape:
            total = mse_loss(x, t1) + mse_loss(x, t2)
        tape.backward(total)
        g_total = x.grad.copy()

        x.zero_grad()
        with Tape() as tape:
            la = mse_loss(x, t1)
            lb = mse_loss(x, t2)
        tape.backward(la)
        tape.backward(lb)
        np.testing.assert_allclose(x.grad, g_total, atol=1e-15)

    def test_loss_not_on_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = tensor_sum(x)
        with Tape() as other:
            tensor_sum(x)
        with pytest.raises(TapeError):
            other.backward(loss)

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_finished_tape_is_freed_by_reference_counting(self):
        from mtda.taskseg import TaskNet

        net = TaskNet(num_classes=3, rng=SplitMix64(0))
        x = Tensor(SplitMix64(1).normal(2 * 3 * 8 * 8).reshape(2, 3, 8, 8))
        labels = (SplitMix64(2).uniform(2 * 8 * 8) * 3).astype(np.int64).reshape(2, 8, 8)

        def step():
            with Tape() as tape:
                logits, _ = net.forward(x)
                loss = softmax_cross_entropy(logits, labels)
            net.params.zero_grad()
            tape.backward(loss)

        step()  # warm-up: lazy imports and one-time caches
        gc.collect()
        gc.disable()  # an automatic collection would hide a cycle
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ops_deterministic(self):
        rng = SplitMix64(4)
        x = rng.normal(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
        p = conv_params(SplitMix64(1), 3, 4)
        a = conv2d(Tensor(x), p, 2, 1).data
        b = conv2d(Tensor(x), p, 2, 1).data
        assert (a == b).all()
