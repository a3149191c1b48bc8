"""Forward oracles and backward contracts for the tensor engine."""

import gc
import sys

import numpy as np
import pytest

from mtda.autodiff import (
    _COL_CHUNK_BYTES,
    IGNORE_VALUE,
    NORM_EPS,
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
    upsample_conv2d,
    upsample_nearest2x,
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
        p = LayerParams(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        out = conv2d(x, p, stride=1, pad=0)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_one_by_one_affine(self):
        p = LayerParams(Tensor(np.full((1, 1, 1, 1), 2.0)), Tensor(np.ones(1)))
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
            ((2, 10, 9), 3, 4, 3, 3, 1),  # stride 3
            ((1, 8, 11), 2, 3, 3, 3, 0),  # stride 3, no padding
            # non-square kernels: the lowering indexes kernel rows and columns apart
            ((2, 7, 6), 3, 4, (3, 1), 1, 1),
            ((2, 6, 7), 3, 4, (1, 3), 1, 1),
            ((2, 9, 8), 3, 2, (3, 1), 2, 1),
            ((2, 8, 9), 3, 2, (1, 3), 3, 0),
        ]
        for (b, h, w), ci, co, k, stride, pad in cases:
            kh, kw = (k, k) if isinstance(k, int) else k
            rng = SplitMix64(42)
            x = rng.normal(b * ci * h * w).reshape(b, ci, h, w)
            p = LayerParams(Tensor(rng.normal(co * ci * kh * kw).reshape(co, ci, kh, kw),
                                   requires_grad=True), Tensor(rng.normal(co)))
            xt = Tensor(x, requires_grad=True)
            with Tape() as tape:
                y = conv2d(xt, p, stride, pad)
                r = rng.normal(y.data.size).reshape(y.shape)
                loss = tensor_sum(y * Tensor(r))
            dx, dw = tape.backward(loss, [xt, p.weights])
            want = conv_oracle(x, p.weights.data, p.bias.data, stride, pad)
            assert y.shape == want.shape
            assert y.data.flags.c_contiguous
            assert np.abs(y.data - want).max() < 1e-12
            # conv is linear in x and in w, so <y - b, r> = <x, dx> = <w, dw>
            lin = ((want - p.bias.data[None, :, None, None]) * r).sum()
            assert (x * dx).sum() == pytest.approx(lin, rel=1e-12, abs=1e-12)
            assert (p.weights.data * dw).sum() == pytest.approx(lin, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_multi_chunk_batch_matches_reference_and_adjoint(self, stride):
        # three images' lowered rows overflow a GEMM chunk, so forward and the
        # stride-1 dx run as several chunks, and dw reads a kept matrix written
        # chunk by chunk.  A 40x40 image lowers to (40 + 2) * 40 rows of 3-pixel
        # runs at stride 1, and to one 3x3 window per output pixel otherwise
        rows, taps = (42 * 40, 3) if stride == 1 else ((39 // stride + 1) ** 2, 9)
        assert 3 * 8 * rows * taps * 16 > _COL_CHUNK_BYTES
        assert 3 * 8 * 42 * 40 * 3 * 8 > _COL_CHUNK_BYTES  # dx: 8 channels, stride 1
        rng = SplitMix64(21)
        x = rng.normal(3 * 16 * 40 * 40).reshape(3, 16, 40, 40)
        p = conv_params(SplitMix64(22), 16, 8, k=3)
        w, b = p.weights.data, p.bias.data
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = conv2d(xt, p, stride=stride, pad=1)
            r = SplitMix64(23).normal(y.data.size).reshape(y.shape)
            loss = tensor_sum(y * Tensor(r))
        dx, dw, db = tape.backward(loss, [xt, p.weights, p.bias])
        # untaped, the chunks share one lowered buffer instead of a kept matrix
        np.testing.assert_array_equal(conv2d(Tensor(x), p, stride=stride, pad=1).data, y.data)

        win = np.lib.stride_tricks.sliding_window_view(
            np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
        want = np.einsum("bchwij,ocij->bohw", win[:, :, ::stride, ::stride], w)
        assert np.abs(y.data - b[None, :, None, None] - want).max() < 1e-12
        # conv is linear in x and in w, so <y - b, r> = <x, dx> = <w, dw>
        lin = ((y.data - b[None, :, None, None]) * r).sum()
        assert (x * dx).sum() == pytest.approx(lin, rel=1e-12)
        assert (w * dw).sum() == pytest.approx(lin, rel=1e-12)
        np.testing.assert_allclose(db, r.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_negative_pad_rejected(self):
        p = conv_params(SplitMix64(0), 1, 1, k=1)
        with pytest.raises(ValueError, match="pad must be >= 0, got -1"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), p, 1, -1)

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
            grads = tape.backward(loss, [xt, p.weights, p.bias])
            _, _, conv_vjp = tape._records[y._node]
            assert (conv_vjp(r)[1] is None) == (not weights_trainable)
            return grads

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

    def test_fc_weights_rejected(self):
        p = LayerParams(Tensor(np.eye(3)), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="4-d"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), p)

    def test_kernel_too_large(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        p = LayerParams(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d(x, p, stride=1, pad=0)


class TestRelu:
    def test_edge_values_and_gradient_mask(self):
        x = Tensor(np.array([-0.0, 0.0, np.inf, -np.inf, -2.0, 3.0, 1e-300]),
                   requires_grad=True)
        with Tape() as tape:
            y = relu(x)
            loss = tensor_sum(y)
        [grad] = tape.backward(loss, [x])
        np.testing.assert_array_equal(y.data, [0.0, 0.0, np.inf, 0.0, 0.0, 3.0, 1e-300])
        assert not np.signbit(y.data).any()
        np.testing.assert_array_equal(grad, x.data > 0)

    def test_nan_propagates(self):
        # a NaN activation reaches the loss instead of being hidden as 0
        x = Tensor(np.array([np.nan, 1.0, -1.0]), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
            loss = tensor_sum(y)
        [grad] = tape.backward(loss, [x])
        assert np.isnan(y.data[0]) and np.isnan(loss.item())
        np.testing.assert_array_equal(grad, [0.0, 1.0, 0.0])


class TestFullyConnected:
    def test_identity(self):
        p = LayerParams(Tensor(np.eye(3)), Tensor(np.zeros(3)))
        v = Tensor(np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(fully_connected(v, p).data, v.data)

    def test_conv_weights_rejected(self):
        p = LayerParams(Tensor(np.ones((3, 3, 1, 1))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="2-d"):
            fully_connected(Tensor(np.ones((1, 3))), p)

    def test_hand_arithmetic(self):
        p = LayerParams(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
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
        out = instance_norm(x).data.ravel()
        want = 1.0 / np.sqrt(1.0 + NORM_EPS)
        np.testing.assert_allclose(out, [-want, want], atol=1e-6)

    def test_moments_match_two_pass_oracle(self):
        rng = SplitMix64(9)
        x = rng.normal(2 * 3 * 5 * 5).reshape(2, 3, 5, 5) * 3.0 + 1.0
        y = instance_norm(Tensor(x)).data
        for b in range(2):
            for c in range(3):
                assert abs(y[b, c].mean()) < 1e-10
                v = x[b, c].var()
                assert abs(y[b, c].var() - v / (v + NORM_EPS)) < 1e-10

    def test_moments_hold_under_a_large_channel_offset(self):
        # a one-pass E[x^2] - m^2 variance would lose about 1e-10 of it here
        rng = SplitMix64(11)
        x = rng.normal(2 * 3 * 64 * 64).reshape(2, 3, 64, 64) + 1e3 * np.arange(1, 4)[:, None, None]
        y = instance_norm(Tensor(x)).data
        for b in range(2):
            for c in range(3):
                assert abs(y[b, c].mean()) < 1e-10
                v = x[b, c].var()
                assert abs(y[b, c].var() - v / (v + NORM_EPS)) < 1e-10


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
        [grad] = tape.backward(loss, [pred])
        np.testing.assert_array_equal(grad, np.zeros_like(pred.data))

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
    @pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a * b], ids=["add", "mul"])
    def test_elementwise_ops_do_not_broadcast(self, op):
        with pytest.raises(ShapeError, match=r"shapes \(1,\) and \(\) differ"):
            op(Tensor(np.ones(1)), Tensor(2.0))

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.rand(3, 4), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
        [grad] = tape.backward(loss, [x])
        np.testing.assert_array_equal(grad, np.ones((3, 4)))

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 4, 5), (4, 16, 16, 16)])
    def test_upsample_gradient_sums_the_four_copies(self, shape):
        rng = np.random.default_rng(3)
        B, C, H, W = shape
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        g = rng.standard_normal((B, C, 2 * H, 2 * W))
        with Tape() as tape:
            loss = tensor_sum(upsample_nearest2x(x) * Tensor(g))
        [grad] = tape.backward(loss, [x])
        copies = g.reshape(B, C, H, 2, W, 2)
        # any two orders of the three additions differ by under 4 eps x the sum of magnitudes
        tol = 4 * np.finfo(np.float64).eps * np.abs(copies).sum(axis=(3, 5))
        assert (np.abs(grad - copies.sum(axis=(3, 5))) <= tol).all()

    @pytest.mark.parametrize("shape, out_ch", [
        ((2, 16, 16, 16), 3), ((4, 32, 8, 8), 16), ((1, 2, 4, 5), 3), ((1, 1, 1, 1), 2)])
    def test_upsample_conv_matches_upsample_then_conv(self, shape, out_ch):
        rng = SplitMix64(11)
        x = Tensor(rng.normal(int(np.prod(shape))).reshape(shape), requires_grad=True)
        p = conv_params(rng, shape[1], out_ch)
        B, _, H, W = shape
        g = Tensor(rng.normal(B * out_ch * 4 * H * W).reshape(B, out_ch, 2 * H, 2 * W))
        results = []
        for op in (lambda: upsample_conv2d(x, p),
                   lambda: conv2d(upsample_nearest2x(x), p, stride=1, pad=1)):
            with Tape() as tape:
                y = op()
                loss = tensor_sum(y * g)
            results.append([y.data] + tape.backward(loss, [x, p.weights, p.bias]))
        # folding pre-sums kernel taps, so the two orders agree to rounding only
        for name, got, want in zip(("y", "dx", "dw", "db"), *results):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("k", [1, 5])
    def test_upsample_conv_needs_a_3x3_kernel(self, k):
        p = conv_params(SplitMix64(1), 2, 3, k=k)
        with pytest.raises(ShapeError, match="3x3 kernel"):
            upsample_conv2d(Tensor(np.zeros((1, 2, 4, 4))), p)

    def test_l1_sign_rule(self):
        # loss = l1(a*x + b, 0) with positive a*x + b has d/dx = a
        a, b0 = 3.0, 0.5
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = l1_loss(x * Tensor([a]) + Tensor([b0]), Tensor(np.zeros(1)))
        [grad] = tape.backward(loss, [x])
        assert grad[0] == pytest.approx(a)

    def test_gradient_of_sum_equals_sum_of_gradients(self):
        rng = SplitMix64(8)
        x = Tensor(rng.normal(8).reshape(2, 4), requires_grad=True)
        t1 = Tensor(rng.normal(8).reshape(2, 4))
        t2 = Tensor(rng.normal(8).reshape(2, 4))
        with Tape() as tape:
            total = mse_loss(x, t1) + mse_loss(x, t2)
        [g_total] = tape.backward(total, [x])

        with Tape() as tape:
            la = mse_loss(x, t1)
            lb = mse_loss(x, t2)
        [ga] = tape.backward(la, [x])
        [gb] = tape.backward(lb, [x])
        np.testing.assert_allclose(ga + gb, g_total, atol=1e-15)

    def test_two_losses_on_one_tape_match_two_tapes(self):
        rng = SplitMix64(9)
        x = Tensor(rng.normal(8).reshape(2, 4), requires_grad=True)
        y = Tensor(rng.normal(8).reshape(2, 4), requires_grad=True)
        t = Tensor(rng.normal(8).reshape(2, 4))

        def losses():
            return mse_loss(x * y, t), l1_loss(relu(x + y), t)

        with Tape() as shared:
            la, lb = losses()
        # asking in either order, with overlapping wrt, changes nothing
        shared_b = shared.backward(lb, [y, x])
        shared_a = shared.backward(la, [x, y])
        with Tape() as tape_a:
            la2, _ = losses()
        with Tape() as tape_b:
            _, lb2 = losses()
        for got, want in zip(shared_a + shared_b,
                             tape_a.backward(la2, [x, y]) + tape_b.backward(lb2, [y, x])):
            np.testing.assert_array_equal(got, want)

    def test_step_between_two_backwards_changes_nothing(self):
        # train_mtdt steps the generator before asking the same tape for the
        # critic's gradients; every vjp must use the weights of the forward
        p = fc_params(SplitMix64(10), 3, 2)
        x = Tensor(SplitMix64(11).normal(6).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(relu(fully_connected(x, p)))
        wrt = [x, p.weights, p.bias]
        before = tape.backward(loss, wrt)
        p.weights.data = p.weights.data * 2.0
        for got, want in zip(tape.backward(loss, wrt), before):
            np.testing.assert_array_equal(got, want)

    def test_unreached_or_frozen_leaf_gets_none(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        frozen = Tensor(np.ones(3))
        with Tape() as tape:
            loss = tensor_sum(x * frozen)
        gx, g_unused, g_frozen = tape.backward(loss, [x, unused, frozen])
        np.testing.assert_array_equal(gx, np.ones(3))
        assert g_unused is None and g_frozen is None
        assert tape.backward(loss, []) == []

    def test_wrt_holding_op_output_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            h = relu(x)
            loss = tensor_sum(h)
        with pytest.raises(TapeError, match="recorded on this tape"):
            tape.backward(loss, [x, h])

    def test_loss_not_on_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = tensor_sum(x)
        with Tape() as other:
            tensor_sum(x)
        with pytest.raises(TapeError):
            other.backward(loss, [x])

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y, [x])

    def test_finished_tape_is_freed_by_reference_counting(self):
        from mtda.taskseg import TaskNet

        net = TaskNet(num_classes=3, rng=SplitMix64(0))
        x = Tensor(SplitMix64(1).normal(2 * 3 * 8 * 8).reshape(2, 3, 8, 8))
        labels = (SplitMix64(2).uniform(2 * 8 * 8) * 3).astype(np.int64).reshape(2, 8, 8)

        def step():
            with Tape() as tape:
                logits, _ = net.forward(x)
                loss = softmax_cross_entropy(logits, labels)
            tape.backward(loss, net.params.tensors())

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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc settings")
class TestHeap:
    def test_repeated_training_steps_reuse_freed_memory(self):
        # a default glibc heap gives back and re-faults several MB in each such
        # step (30k-50k faults over these ten); a kept heap faults almost none
        rng = SplitMix64(5)
        layers = [conv_params(rng.derive(str(i)), 16 if i else 3, 16) for i in range(6)]
        x = rng.normal(4 * 3 * 32 * 32).reshape(4, 3, 32, 32)

        def step():
            with Tape() as tape:
                h = Tensor(x)
                for p in layers:
                    h = relu(instance_norm(conv2d(h, p, 1, 1)))
                loss = tensor_sum(h)
            tape.backward(loss, [p.weights for p in layers])

        import resource

        for _ in range(3):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
