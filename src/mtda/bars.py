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
from .labelops import nn_downsample, nn_upsample
from .stats import RunningMeanBank
from .taskseg import TaskNet

DEFAULT_SWITCH_ITERATION = 300


def class_means(features: np.ndarray, labels: np.ndarray,
                num_classes: int, ignore_value: int = IGNORE_VALUE
                ) -> tuple[np.ndarray, np.ndarray]:
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
    keep = flat_l != ignore_value
    if ((flat_l[keep] < 0) | (flat_l[keep] >= num_classes)).any():
        raise ValueError(f"labels outside [0,{num_classes}) in class_means")
    means = np.zeros((num_classes, df))
    counts = np.bincount(flat_l[keep], minlength=num_classes).astype(np.int64)
    for c in np.unique(flat_l[keep]):
        means[c] = flat_f[:, flat_l == c].mean(axis=1)
    return means, counts


def nearest_class(features: np.ndarray, bank: RunningMeanBank) -> np.ndarray:
    """Per-pixel argmin over initialized centroids of the L2 feature distance."""
    init = bank.initialized()
    if not init.any():
        raise ValueError("centroid bank has no initialized class")
    features = np.asarray(features, dtype=np.float64)
    df, hf, wf = features.shape
    classes = np.nonzero(init)[0]                      # ascending, so argmin ties
    cents = bank.means[classes]                        # break toward lowest index
    flat = features.reshape(df, -1).T                  # (P, Df)
    d2 = ((flat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(d2, axis=1)].reshape(hf, wf)


def filter_labels(labels: np.ndarray, nearest: np.ndarray,
                  ignore_value: int = IGNORE_VALUE) -> np.ndarray:
    """Keep a label only where the nearest class agrees with it."""
    labels = np.asarray(labels)
    nearest = np.asarray(nearest)
    if labels.shape != nearest.shape:
        raise ValueError(f"labels {labels.shape} and nearest map {nearest.shape} differ")
    return np.where(labels == nearest, labels, ignore_value)


@dataclass
class BarsState:
    num_classes: int
    feature_dim: int
    num_domains: int
    switch_iteration: int = DEFAULT_SWITCH_ITERATION
    iteration: int = 0
    # one per-class centroid bank per target domain and direction
    transferred_banks: list[RunningMeanBank] = field(default_factory=list)
    target_banks: list[RunningMeanBank] = field(default_factory=list)

    def __post_init__(self):
        if not self.transferred_banks:
            self.transferred_banks = [RunningMeanBank(self.num_classes, self.feature_dim)
                                      for _ in range(self.num_domains)]
            self.target_banks = [RunningMeanBank(self.num_classes, self.feature_dim)
                                 for _ in range(self.num_domains)]


def _select_with_cold_start(features: np.ndarray, labels: np.ndarray,
                            bank: RunningMeanBank) -> tuple[np.ndarray, int]:
    """Filtered labels for one direction, honoring the cold-start keep rule.

    Returns (filtered map, number of pixels kept only because their class
    centroid is not initialized yet)."""
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
    domain: int
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

    transferred_image/target_image: (B,3,H,W); source_label: (B,H,W).
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

        factor = transferred_image.shape[2] // feats_src.shape[2]
        lab_src = nn_downsample(np.asarray(source_label), factor)
        lab_tgt = np.argmax(nn_downsample(logits_tgt.data, factor), axis=1)

        cold_keeps = 0
        if filter_source:
            bars_src = np.empty_like(lab_src)
            for b in range(lab_src.shape[0]):
                bars_src[b], n_cold = _select_with_cold_start(
                    feats_src[b], lab_src[b], state.target_banks[domain])
                cold_keeps += n_cold
        else:
            bars_src = lab_src.copy()

        bars_tgt = np.empty_like(lab_tgt)
        for b in range(lab_tgt.shape[0]):
            bars_tgt[b], n_cold = _select_with_cold_start(
                feats_tgt[b], lab_tgt[b], state.transferred_banks[domain])
            cold_keeps += n_cold

        if verify:
            _verify_selection(feats_src, lab_src, bars_src, state.target_banks[domain],
                              enabled=filter_source, what=f"restyled[{domain}]")
            _verify_selection(feats_tgt, lab_tgt, bars_tgt, state.transferred_banks[domain],
                              enabled=True, what=f"target[{domain}]")

        kept_src = float((bars_src != IGNORE_VALUE).mean())
        kept_tgt = float((bars_tgt != IGNORE_VALUE).mean())

        loss = softmax_cross_entropy(logits_src, nn_upsample(bars_src, factor))
        if train_target:
            loss = loss + softmax_cross_entropy(logits_tgt, nn_upsample(bars_tgt, factor))

        n_kept = (bars_src != IGNORE_VALUE).sum()
        if train_target:
            n_kept += (bars_tgt != IGNORE_VALUE).sum()
        skipped = n_kept == 0
        if not skipped:
            net.params.zero_grad()
            tape.backward(loss)
            optimizer.step(net.params.named())
            net.params.zero_grad()

    # centroid updates after the step; the switch picks raw vs filtered labels
    use_filtered = state.iteration >= state.switch_iteration
    up_src = bars_src if use_filtered else lab_src
    up_tgt = bars_tgt if use_filtered else lab_tgt
    _update_banks_from_batch(state.transferred_banks[domain], feats_src, up_src, k)
    _update_banks_from_batch(state.target_banks[domain], feats_tgt, up_tgt, k)
    state.iteration += 1

    diag = BarsDiagnostics(
        domain=domain,
        iteration=state.iteration - 1,
        loss=float(loss.item()),
        kept_fraction_source=kept_src,
        kept_fraction_target=kept_tgt,
        cold_start_keeps=cold_keeps,
        skipped=bool(skipped),
        centroid_counts_transferred=[int(c) for c in state.transferred_banks[domain].counts],
        centroid_counts_target=[int(c) for c in state.target_banks[domain].counts],
    )
    return float(loss.item()), diag


def _verify_selection(features: np.ndarray, raw: np.ndarray, kept: np.ndarray,
                      bank: RunningMeanBank, enabled: bool, what: str) -> None:
    """Exhaustive soundness check: every filtered-kept pixel's nearest centroid
    is its own label."""
    if not enabled:
        return
    init = bank.initialized()
    if not init.any():
        return
    for b in range(features.shape[0]):
        nearest = nearest_class(features[b], bank)
        mask = kept[b] != IGNORE_VALUE
        cold = mask & ~init[np.clip(raw[b], 0, bank.slots - 1)]
        check = mask & ~cold
        if not (nearest[check] == kept[b][check]).all():
            raise AssertionError(
                f"selection soundness violated on {what} pixels"
            )
