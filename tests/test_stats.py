"""Streaming statistics against two-pass oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtda.rng import SplitMix64
from mtda.stats import (
    InsufficientDataError,
    RunningMeanBank,
    WelfordAccumulator,
    load_accumulator,
    save_accumulator,
)


def two_pass_oracle(maps: list[np.ndarray]):
    """Per-channel mean/variance of the concatenated stream, with the online
    algorithm's divisor (n_updates - 1) * H * W."""
    stream = np.stack(maps)          # (n, H, W, C)
    n, h, w, c = stream.shape
    flat = stream.reshape(-1, c)
    mu = flat.mean(axis=0)
    ss = ((flat - mu[None, :]) ** 2).sum(axis=0)
    return mu, ss / ((n - 1) * h * w)


def feed(values):
    acc = WelfordAccumulator(1, 1, 1)
    for v in values:
        acc.update(np.array([[[float(v)]]]))
    return acc


class TestWelford:
    def test_stream_2_4_6(self):
        st_ = feed([2, 4, 6]).extract()
        assert st_.mu[0] == pytest.approx(4.0, abs=1e-14)
        assert st_.variance[0] == pytest.approx(4.0, abs=1e-14)  # two-pass sample variance
        assert st_.sigma[0] == pytest.approx(2.0, abs=1e-14)

    def test_constant_stream_zero_variance(self):
        st_ = feed([3.25] * 7).extract()
        assert st_.mu[0] == pytest.approx(3.25)
        assert st_.variance[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_two_pass_oracle_on_long_random_stream(self):
        rng = SplitMix64(17)
        acc = WelfordAccumulator(4, 4, 3)
        maps = []
        for _ in range(200):
            m = rng.normal(48).reshape(4, 4, 3) * 2.5 + 0.7
            maps.append(m)
            acc.update(m)
        st_ = acc.extract()
        mu, var = two_pass_oracle(maps)
        np.testing.assert_allclose(st_.mu, mu, rtol=1e-10)
        np.testing.assert_allclose(st_.variance, var, rtol=1e-10)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            feed([2]).extract()
        with pytest.raises(InsufficientDataError):
            WelfordAccumulator(1, 1, 1).extract()

    def test_shape_mismatch(self):
        acc = WelfordAccumulator(2, 2, 1)
        with pytest.raises(ValueError, match="shape"):
            acc.update(np.zeros((2, 3, 1)))

    def test_spatial_sum_of_second_moment_nonnegative(self):
        rng = SplitMix64(23)
        acc = WelfordAccumulator(3, 3, 2)
        for _ in range(50):
            acc.update(rng.normal(18).reshape(3, 3, 2))
            assert (acc.s.sum(axis=(0, 1)) >= -1e-12).all()

    def test_mean_invariant_to_per_update_spatial_permutation(self):
        rng = SplitMix64(31)
        maps = [rng.normal(12).reshape(3, 4, 1) for _ in range(20)]
        acc_a = WelfordAccumulator(3, 4, 1)
        acc_b = WelfordAccumulator(3, 4, 1)
        perm_rng = SplitMix64(99)
        for m in maps:
            acc_a.update(m)
            p = np.argsort(perm_rng.uniform(12))
            acc_b.update(m.reshape(12, 1)[p].reshape(3, 4, 1))
        np.testing.assert_allclose(acc_a.extract().mu, acc_b.extract().mu, rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40))
    def test_scalar_stream_property(self, values):
        st_ = feed(values).extract()
        arr = np.asarray(values, dtype=np.float64)
        mu = arr.mean()
        var = ((arr - mu) ** 2).sum() / (len(values) - 1)
        assert st_.mu[0] == pytest.approx(mu, rel=1e-10, abs=1e-10)
        assert st_.variance[0] == pytest.approx(var, rel=1e-10, abs=1e-9)

    def test_serialization_roundtrip_bit_exact(self, tmp_path):
        rng = SplitMix64(5)
        acc = WelfordAccumulator(2, 3, 4)
        for _ in range(9):
            acc.update(rng.normal(24).reshape(2, 3, 4))
        path = tmp_path / "stats_demo.bin"
        save_accumulator(path, acc)
        back = load_accumulator(path)
        assert back.n == acc.n
        assert (back.m == acc.m).all()
        assert (back.s == acc.s).all()
        st_a, st_b = acc.extract(), back.extract()
        assert (st_a.mu == st_b.mu).all() and (st_a.sigma == st_b.sigma).all()


class TestRunningMeanBank:
    def test_first_update_is_value(self):
        bank = RunningMeanBank(3, 2)
        bank.update(1, np.array([4.0, -1.0]))
        np.testing.assert_array_equal(bank.means[1], [4.0, -1.0])
        assert list(bank.initialized()) == [False, True, False]

    def test_two_updates_average(self):
        bank = RunningMeanBank(1, 1)
        bank.update(0, np.array([1.0]))
        bank.update(0, np.array([3.0]))
        assert bank.means[0, 0] == pytest.approx(2.0)

    def test_matches_direct_mean_oracle(self):
        rng = SplitMix64(77)
        bank = RunningMeanBank(2, 5)
        submitted = []
        for _ in range(50):
            v = rng.normal(5)
            submitted.append(v)
            bank.update(1, v)
        np.testing.assert_allclose(bank.means[1], np.mean(submitted, axis=0), atol=1e-12)
        assert bank.counts[1] == 50
        assert bank.counts[0] == 0

    def test_slot_out_of_range(self):
        bank = RunningMeanBank(2, 3)
        with pytest.raises(IndexError):
            bank.update(2, np.zeros(3))

    def test_vector_dim_checked(self):
        bank = RunningMeanBank(2, 3)
        with pytest.raises(ValueError):
            bank.update(0, np.zeros(4))
