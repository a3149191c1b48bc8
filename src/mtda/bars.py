"""Bi-directional adaptive region selection for self-training.

Two per-class centroid banks exist for every target domain: one accumulates
penultimate task-network features of restyled source images under the source
labels, the other accumulates target-image features under pseudo labels.
Region selection is cross-directional: restyled-image pixels are compared
against the *target* bank and target-image pixels against the *restyled*
bank.  A pixel's label survives only when its feature's nearest initialized
centroid (L2, ties to the lowest class index) is the label itself; everything
else becomes the ignore value and contributes nothing to the loss.

Centroid updates use raw labels for the first ``switch_iteration`` steps and
the filtered labels afterwards.  Cold start: while a bank is missing the
centroid of some class present in the current label, pixels of that class
are kept unfiltered (their nearest-centroid test is not yet meaningful), and
a completely empty bank skips filtering for that direction altogether.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import IGNORE_VALUE, Tape, Tensor, softmax_cross_entropy
from .stats import RunningMeanBank
from .taskseg import FEATURE_DIM, TaskNet


def class_means(features: np.ndarray, labels: np.ndarray,
                num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean feature vector and pixel count per class.

    features: (Df, Hf, Wf); labels: (Hf, Wf) integers.  Classes absent from
    the map come back with count 0 and a zero mean that must not be used.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[1:] != labels.shape:
        raise ValueError(
            f"feature grid {features.shape[1:]} != label grid {labels.shape}"
        )
    df = features.shape[0]
    flat_f = features.reshape(df, -1)
    flat_l = labels.reshape(-1)
    keep = flat_l != IGNORE_VALUE
    if ((flat_l[keep] < 0) | (flat_l[keep] >= num_classes)).any():
        raise ValueError(f"labels outside [0,{num_classes}) in class_means")
    means = np.zeros((num_classes, df))
    counts = np.bincount(flat_l[keep], minlength=num_classes).astype(np.int64)
    for c in np.unique(flat_l[keep]):
        means[c] = flat_f[:, flat_l == c].mean(axis=1)
    return means, counts


def nearest_class(features: np.ndarray, bank: RunningMeanBank) -> np.ndarray:
    """Per-pixel argmin over initialized centroids of the L2 feature distance.

    features: (..., Df, Hf, Wf), e.g. one image or a whole batch; the result
    is the (..., Hf, Wf) class map."""
    init = bank.initialized()
    if not init.any():
        raise ValueError("centroid bank has no initialized class")
    features = np.asarray(features, dtype=np.float64)
    *lead, df, hf, wf = features.shape
    classes = np.nonzero(init)[0]                      # ascending, so argmin ties
    cents = bank.means[classes]                        # break toward lowest index
    flat = np.moveaxis(features.reshape(*lead, df, -1), -2, -1).reshape(-1, df)  # (P, Df)
    d2 = ((flat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(d2, axis=1)].reshape(*lead, hf, wf)


def filter_labels(labels: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """Keep a label only where the nearest class agrees with it."""
    labels = np.asarray(labels)
    nearest = np.asarray(nearest)
    if labels.shape != nearest.shape:
        raise ValueError(f"labels {labels.shape} and nearest map {nearest.shape} differ")
    return np.where(labels == nearest, labels, IGNORE_VALUE)


@dataclass
class BarsState:
    num_classes: int
    num_domains: int
    switch_iteration: int
    iteration: int = 0
    # one per-class centroid bank per target domain and direction
    transferred_banks: list[RunningMeanBank] = field(init=False)
    target_banks: list[RunningMeanBank] = field(init=False)

    def __post_init__(self):
        self.transferred_banks, self.target_banks = (
            [RunningMeanBank(self.num_classes, FEATURE_DIM) for _ in range(self.num_domains)]
            for _ in range(2))


def _select_with_cold_start(features: np.ndarray, labels: np.ndarray,
                            bank: RunningMeanBank) -> tuple[np.ndarray, int]:
    """Filtered labels for one direction, honoring the cold-start keep rule.

    features: (B, Df, Hf, Wf); labels: (B, Hf, Wf).  Returns (filtered maps,
    number of pixels kept only because their class centroid is not
    initialized yet)."""
    init = bank.initialized()
    if not init.any():
        return labels.copy(), int((labels != IGNORE_VALUE).sum())
    nearest = nearest_class(features, bank)
    filtered = filter_labels(labels, nearest)
    valid = labels != IGNORE_VALUE
    uninit = valid & ~init[np.clip(labels, 0, bank.slots - 1)] & (labels < bank.slots)
    filtered[uninit] = labels[uninit]
    return filtered, int(uninit.sum())


def _update_banks_from_batch(bank: RunningMeanBank, features: np.ndarray,
                             labels: np.ndarray, num_classes: int) -> None:
    """One CMA update per (image, present class); absent classes untouched."""
    for b in range(features.shape[0]):
        means, counts = class_means(features[b], labels[b], num_classes)
        for c in range(num_classes):
            if counts[c] > 0:
                bank.update(c, means[c])


@dataclass
class BarsDiagnostics:
    iteration: int
    loss: float
    kept_fraction_source: float
    kept_fraction_target: float
    cold_start_keeps: int
    skipped: bool
    centroid_counts_transferred: list[int]
    centroid_counts_target: list[int]


def bars_step(state: BarsState, net: TaskNet, optimizer, domain: int,
              transferred_image: np.ndarray, source_label: np.ndarray,
              target_image: np.ndarray, *,
              filter_source: bool = True, train_target: bool = True,
              verify: bool = False) -> tuple[float, BarsDiagnostics]:
    """One self-training step on one target domain.

    transferred_image/target_image: (B,3,H,W); source_label: (B,H,W), the
    grid of the task net's logits and features (input resolution).
    ``filter_source=False`` trains the restyled images with the full source
    labels; ``train_target=False`` drops the pseudo-label term entirely (the
    two ablation axes).  Banks are always updated so the other direction's
    selection stays available.  With ``verify=True`` every kept pixel is
    re-checked against its nearest centroid (cold-start keeps excepted).
    """
    if not 0 <= domain < state.num_domains:
        raise IndexError(f"domain {domain} out of range [0,{state.num_domains})")
    k = state.num_classes

    with Tape() as tape:
        logits_src, feats_src_t = net.forward(Tensor(transferred_image))
        logits_tgt, feats_tgt_t = net.forward(Tensor(target_image))
        feats_src = feats_src_t.data
        feats_tgt = feats_tgt_t.data

        lab_src = np.asarray(source_label)
        lab_tgt = np.argmax(logits_tgt.data, axis=1)

        if filter_source:
            bars_src, cold_keeps = _select_with_cold_start(
                feats_src, lab_src, state.target_banks[domain])
        else:
            bars_src, cold_keeps = lab_src.copy(), 0
        bars_tgt, n_cold = _select_with_cold_start(
            feats_tgt, lab_tgt, state.transferred_banks[domain])
        cold_keeps += n_cold

        if verify:
            if filter_source:
                _check_selection(feats_src, lab_src, bars_src, state.target_banks[domain],
                                 what=f"restyled[{domain}]")
            _check_selection(feats_tgt, lab_tgt, bars_tgt, state.transferred_banks[domain],
                             what=f"target[{domain}]")

        keep_src, keep_tgt = bars_src != IGNORE_VALUE, bars_tgt != IGNORE_VALUE

        loss = softmax_cross_entropy(logits_src, bars_src)
        if train_target:
            loss = loss + softmax_cross_entropy(logits_tgt, bars_tgt)

        skipped = not (keep_src.any() or (train_target and keep_tgt.any()))
        if not skipped:
            params = net.params.tensors()
            optimizer.step(params, tape.backward(loss, params))

    # centroid updates after the step; the switch picks raw vs filtered labels
    use_filtered = state.iteration >= state.switch_iteration
    up_src = bars_src if use_filtered else lab_src
    up_tgt = bars_tgt if use_filtered else lab_tgt
    _update_banks_from_batch(state.transferred_banks[domain], feats_src, up_src, k)
    _update_banks_from_batch(state.target_banks[domain], feats_tgt, up_tgt, k)
    state.iteration += 1

    diag = BarsDiagnostics(
        iteration=state.iteration - 1,
        loss=float(loss.item()),
        kept_fraction_source=float(keep_src.mean()),
        kept_fraction_target=float(keep_tgt.mean()),
        cold_start_keeps=cold_keeps,
        skipped=skipped,
        centroid_counts_transferred=[int(c) for c in state.transferred_banks[domain].counts],
        centroid_counts_target=[int(c) for c in state.target_banks[domain].counts],
    )
    return float(loss.item()), diag


def _check_selection(features: np.ndarray, raw: np.ndarray, kept: np.ndarray,
                     bank: RunningMeanBank, what: str) -> None:
    """Exhaustive soundness check: every filtered-kept pixel's nearest centroid
    is its own label."""
    init = bank.initialized()
    if not init.any():
        return
    nearest = nearest_class(features, bank)
    check = (kept != IGNORE_VALUE) & init[np.clip(raw, 0, bank.slots - 1)]
    if not (nearest[check] == kept[check]).all():
        raise AssertionError(f"selection soundness violated on {what} pixels")
