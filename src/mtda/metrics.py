"""Segmentation evaluation: confusion matrix, per-class IoU, mIoU."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import IGNORE_VALUE


class UndefinedMetricError(RuntimeError):
    """mIoU over a confusion matrix in which no class appears."""


class ConfusionMatrix:
    """K x K integer counts, rows ground truth, columns prediction."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, pred: np.ndarray, gt: np.ndarray) -> None:
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
        keep = gt != IGNORE_VALUE
        g = gt[keep]
        p = pred[keep]
        k = self.num_classes
        if ((g < 0) | (g >= k)).any() or ((p < 0) | (p >= k)).any():
            raise ValueError(f"labels outside [0,{k}) in confusion accumulation")
        self.counts += np.bincount(g * k + p, minlength=k * k).reshape(k, k)


def iou_per_class(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(IoU vector, present mask); IoU is NaN for classes absent from gt and pred."""
    c = cm.counts
    tp = np.diag(c).astype(np.float64)
    fp = c.sum(axis=0) - np.diag(c)
    fn = c.sum(axis=1) - np.diag(c)
    denom = tp + fp + fn
    present = denom > 0
    iou = np.full(cm.num_classes, np.nan)
    iou[present] = tp[present] / denom[present]
    return iou, present


def miou(cm: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-class IoU and its mean over classes present in gt or pred."""
    iou, present = iou_per_class(cm)
    if not present.any():
        raise UndefinedMetricError("no class present in ground truth or prediction")
    return iou, float(iou[present].mean())


def write_iou_report(path: str | Path, class_names: list[str], cm: ConfusionMatrix) -> None:
    """CSV with one row per class plus a mean row."""
    iou, present = iou_per_class(cm)
    mean = float(iou[present].mean()) if present.any() else float("nan")
    lines = ["class,iou\n"]
    for name, v in zip(class_names, iou):
        lines.append(f"{name},{'' if np.isnan(v) else f'{v:.6f}'}\n")
    lines.append(f"mean,{mean:.6f}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
