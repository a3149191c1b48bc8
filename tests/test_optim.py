"""Optimizer update rules."""

import numpy as np
import pytest

from mtda.autodiff import Tensor
from mtda.optim import Adam, SgdMomentum


def make_param(value, grad):
    p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    return [p], [np.asarray(grad, dtype=np.float64)]


class TestSgd:
    def test_zero_grad_zero_decay_unchanged(self):
        params, grads = make_param([1.0, -2.0], [0.0, 0.0])
        SgdMomentum(lr=0.1, momentum=0.9).step(params, grads)
        np.testing.assert_array_equal(params[0].data, [1.0, -2.0])

    def test_hand_arithmetic_single_step(self):
        params, grads = make_param([1.0], [0.5])
        SgdMomentum(lr=0.1, momentum=0.0).step(params, grads)
        assert params[0].data[0] == pytest.approx(0.95)

    def test_momentum_accumulates(self):
        params, grads = make_param([0.0], [1.0])
        opt = SgdMomentum(lr=1.0, momentum=0.5)
        opt.step(params, grads)                  # v=1, p=-1
        opt.step(params, [np.array([1.0])])      # v=1.5, p=-2.5
        assert params[0].data[0] == pytest.approx(-2.5)

    def test_weight_decay_additive(self):
        params, grads = make_param([2.0], [0.0])
        SgdMomentum(lr=0.1, momentum=0.0, weight_decay=0.5).step(params, grads)
        # g_eff = 0 + 0.5*2 = 1 -> p = 2 - 0.1
        assert params[0].data[0] == pytest.approx(1.9)

    def test_none_grad_skipped(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SgdMomentum(lr=0.1).step([p], [None])
        assert p.data[0] == 1.0


class TestAdam:
    def test_zero_grad_zero_decay_unchanged(self):
        params, grads = make_param([3.0], [0.0])
        Adam(lr=0.1).step(params, grads)
        assert params[0].data[0] == pytest.approx(3.0)

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g/(|g| + eps')
        params, grads = make_param([0.0], [0.3])
        Adam(lr=0.1).step(params, grads)
        assert params[0].data[0] == pytest.approx(-0.1, rel=1e-4)

    def test_quadratic_convergence_run(self):
        # minimize (w-3)^2 from w=0; derived oracle: run and track the loss
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam(lr=0.1)
        losses = []
        for _ in range(100):
            grad = 2.0 * (p.data - 3.0)
            losses.append(float((p.data[0] - 3.0) ** 2))
            opt.step([p], [grad])
        assert abs(p.data[0] - 3.0) < 0.5
        # monotone decrease over the trailing window medians
        first = np.median(losses[:20])
        mid = np.median(losses[40:60])
        last = np.median(losses[-20:])
        assert first > mid > last


@pytest.mark.parametrize("make_opt", [lambda: SgdMomentum(lr=0.1, momentum=0.9),
                                      lambda: Adam(lr=0.1)], ids=["sgd", "adam"])
@pytest.mark.parametrize("n_grads", [1, 3])
def test_grads_length_mismatch_raises_before_any_update(make_opt, n_grads):
    params = [Tensor(np.array([1.0]), requires_grad=True) for _ in range(2)]
    opt = make_opt()
    with pytest.raises(ValueError):
        opt.step(params, [np.array([1.0])] * n_grads)
    assert [p.data[0] for p in params] == [1.0, 1.0]
    assert opt == make_opt()
