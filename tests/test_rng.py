"""SplitMix64 against the reference outputs, and the stream conventions built on it."""

import numpy as np
import pytest

from mtda.rng import SplitMix64


@pytest.mark.parametrize("seed, expected", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
])
def test_next_u64_matches_the_reference_implementation(seed, expected):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(3)] == expected


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
def test_bulk_draws_equal_sequential_draws(seed):
    bulk, seq = SplitMix64(seed), SplitMix64(seed)
    draws = bulk.u64s(37)
    assert draws.dtype == np.uint64
    assert draws.tolist() == [seq.next_u64() for _ in range(37)]
    assert bulk.state == seq.state
    assert bulk.next_u64() == seq.next_u64()


def test_derive_is_a_pure_function_of_state_and_tags():
    rng = SplitMix64(7)
    state = rng.state
    a = rng.derive("task-net", 3)
    assert rng.state == state  # deriving draws nothing from the parent
    assert a.state == SplitMix64(7).derive("task-net", 3).state
    assert a.u64s(4).tolist() == SplitMix64(7).derive("task-net", 3).u64s(4).tolist()
    others = [rng.derive("task-net", 4), rng.derive("mtdt", 3), rng.derive("task-net"),
              SplitMix64(8).derive("task-net", 3)]
    assert len({a.state, *(o.state for o in others)}) == 1 + len(others)


def test_randint_stays_in_range():
    rng = SplitMix64(11)
    for bound in [1, 2, 3, 7, 1000, 2**63 + 5]:
        draws = [rng.randint(bound) for _ in range(200)]
        assert all(0 <= d < bound for d in draws)
    assert {rng.randint(3) for _ in range(200)} == {0, 1, 2}


@pytest.mark.parametrize("bound", [0, -1])
def test_randint_rejects_a_bound_below_one(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(0).randint(bound)
