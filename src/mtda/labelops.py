"""Label-map utilities shared by the transfer and region-selection code."""

from __future__ import annotations

import numpy as np


def one_hot(label: np.ndarray, num_classes: int) -> np.ndarray:
    """(B,H,W) int labels -> (B,K,H,W) float64 one-hot; ignore rows are all-zero."""
    label = np.asarray(label)
    out = np.zeros((label.shape[0], num_classes) + label.shape[1:], dtype=np.float64)
    keep = (label >= 0) & (label < num_classes)
    b, y, x = np.nonzero(keep)
    out[b, label[keep], y, x] = 1.0
    return out


def nn_downsample(label: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor downsample of (...,H,W) by the top-left sample of each block."""
    if factor == 1:
        return label
    if label.shape[-1] % factor or label.shape[-2] % factor:
        raise ValueError(f"spatial size {label.shape[-2:]} not divisible by {factor}")
    return label[..., ::factor, ::factor]


def nn_upsample(label: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upsample of (...,H,W) by block repetition."""
    if factor == 1:
        return label
    return label.repeat(factor, axis=-2).repeat(factor, axis=-1)
