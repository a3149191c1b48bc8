"""Streaming per-channel feature statistics and running-mean banks.

The accumulator follows the online scheme exactly: the mean buffer M gets an
elementwise cumulative-moving-average update, while the second-moment buffer
S accumulates (F - mu_before)(F - mu_after) with the *spatially averaged*
running means broadcast over positions.  After n >= 2 updates the channel
variance is sum(S) / ((n-1) * H * W), which equals the two-pass sample
variance of the concatenated stream of n*H*W observations about its global
mean (the spatial averaging inside the update telescopes to exactly that
sum of squares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InsufficientDataError(RuntimeError):
    """Variance is undefined before the second update."""


@dataclass
class DomainStatistics:
    """Frozen per-channel mean and standard deviation of one target domain."""

    mu: np.ndarray      # (C,)
    sigma: np.ndarray   # (C,), standard deviation (not variance)
    n: int

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape or self.mu.ndim != 1:
            raise ValueError(f"mu/sigma must be matching vectors, got {self.mu.shape} {self.sigma.shape}")
        if (self.sigma < 0).any() or not np.isfinite(self.mu).all() or not np.isfinite(self.sigma).all():
            raise ValueError("domain statistics must be finite with sigma >= 0")


class WelfordAccumulator:
    """Online mean/variance over a stream of fixed-size (H, W, C) feature maps."""

    def __init__(self, height: int, width: int, channels: int):
        self.shape = (height, width, channels)
        self.m = np.zeros(self.shape)
        self.s = np.zeros(self.shape)
        self.n = 0

    def update(self, feat: np.ndarray) -> None:
        # a contiguous copy keeps the buffers' layout, and thus the reduction
        # order of extract, independent of the caller's strides
        feat = np.ascontiguousarray(feat, dtype=np.float64)
        if feat.shape != self.shape:
            raise ValueError(f"feature shape {feat.shape} != accumulator shape {self.shape}")
        mu_before = self.m.mean(axis=(0, 1))
        self.m += (feat - self.m) / (self.n + 1)
        mu_after = self.m.mean(axis=(0, 1))
        if self.n == 0:
            d = feat - mu_after[None, None, :]
            self.s = d * d
        else:
            self.s += (feat - mu_before[None, None, :]) * (feat - mu_after[None, None, :])
        self.n += 1

    def extract(self) -> DomainStatistics:
        if self.n < 2:
            raise InsufficientDataError(
                f"variance needs at least 2 updates, accumulator has {self.n}"
            )
        h, w, _ = self.shape
        mu = self.m.mean(axis=(0, 1))
        var = self.s.sum(axis=(0, 1)) / ((self.n - 1) * h * w)
        return DomainStatistics(mu=mu, sigma=np.sqrt(np.maximum(var, 0.0)), n=self.n)


class RunningMeanBank:
    """K slots of cumulative moving averages over D-dimensional vectors."""

    def __init__(self, slots: int, dim: int):
        self.means = np.zeros((slots, dim))
        self.counts = np.zeros(slots, dtype=np.int64)

    @property
    def slots(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def update(self, slot: int, v: np.ndarray) -> None:
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range [0,{self.slots})")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector shape {v.shape} != ({self.dim},)")
        c = self.counts[slot]
        self.means[slot] += (v - self.means[slot]) / (c + 1)
        self.counts[slot] = c + 1

    def initialized(self) -> np.ndarray:
        """Boolean mask of slots that received at least one update."""
        return self.counts > 0
