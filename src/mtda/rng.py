"""Deterministic PRNG used everywhere randomness is needed.

The generator is SplitMix64 (Steele/Lea/Flood splittable generator, as
published in Vigna's reference C implementation): the state advances by the
64-bit golden-gamma constant and each output is a fixed 64-bit finalizer of
the state.  Because output i depends only on ``seed + (i+1)*GAMMA``, bulk
draws vectorize over numpy uint64 without changing the stream, and any other
language can reproduce the exact sequence from the two constants below.

Derived quantities are fixed conventions of this package:

* doubles in [0, 1): top 53 bits, ``(x >> 11) * 2**-53``
* doubles in (0, 1]: ``((x >> 11) + 1) * 2**-53``
* standard normals: Box-Muller on consecutive (0,1] / [0,1) pairs
* bounded ints: Lemire multiply-shift, ``(x * bound) >> 64``
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output finalizer on a 64-bit state value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Sequential SplitMix64 stream with vectorized bulk draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK
        return mix64(self._state)

    def u64s(self, n: int) -> np.ndarray:
        """Next n outputs as uint64, identical to n calls of next_u64()."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = np.uint64(self._state) + steps * np.uint64(GAMMA)
        self._state = (self._state + n * GAMMA) & _MASK
        return _mix64_vec(states)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.u64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller (pairs drawn, tail dropped)."""
        m = (n + 1) // 2
        raw = self.u64s(2 * m)
        # u1 in (0,1] so log() is finite; u2 in [0,1)
        u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def randint(self, bound: int) -> int:
        """One integer in [0, bound) by Lemire multiply-shift."""
        if bound <= 0:
            raise ValueError(f"randint bound must be positive, got {bound}")
        return (self.next_u64() * bound) >> 64

    def uniform_range(self, lo: float, hi: float, n: int) -> np.ndarray:
        return lo + (hi - lo) * self.uniform(n)

    def derive(self, *tags: int | str) -> "SplitMix64":
        """Independent child stream keyed by (current seed, tags).

        Each tag folds into the state through the SplitMix64 finalizer, so
        distinct tag sequences give unrelated streams.
        """
        z = mix64(self._state ^ GAMMA)
        for tag in tags:
            if isinstance(tag, str):
                for b in tag.encode("utf-8"):
                    z = mix64(z ^ b)
            else:
                z = mix64(z ^ (int(tag) & _MASK))
        return SplitMix64(z)
