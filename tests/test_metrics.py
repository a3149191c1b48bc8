"""Confusion matrix and mIoU oracles."""

import numpy as np
import pytest

from mtda.autodiff import IGNORE_VALUE
from mtda.metrics import ConfusionMatrix, UndefinedMetricError, miou, write_iou_report
from mtda.rng import SplitMix64


def loop_confusion(pred, gt, k):
    cm = np.zeros((k, k), dtype=np.int64)
    for g, p in zip(gt.ravel(), pred.ravel()):
        if g != IGNORE_VALUE:
            cm[g, p] += 1
    return cm


class TestConfusion:
    def test_perfect_prediction_diagonal(self):
        cm = ConfusionMatrix(3)
        labels = np.array([[0, 1], [2, 1]])
        cm.accumulate(labels, labels)
        assert np.trace(cm.counts) == 4
        assert cm.counts.sum() == 4

    def test_all_ignored_leaves_matrix_unchanged(self):
        cm = ConfusionMatrix(3)
        gt = np.full((4, 4), IGNORE_VALUE)
        cm.accumulate(np.zeros((4, 4), dtype=np.int64), gt)
        assert cm.counts.sum() == 0

    def test_matches_loop_oracle(self):
        rng = SplitMix64(3)
        gt = (rng.uniform(200) * 5).astype(np.int64).reshape(10, 20)
        gt[gt == 4] = IGNORE_VALUE
        pred = (rng.uniform(200) * 4).astype(np.int64).reshape(10, 20)
        cm = ConfusionMatrix(4)
        cm.accumulate(pred, gt)
        np.testing.assert_array_equal(cm.counts, loop_confusion(pred, gt, 4))

    def test_accumulation_order_independent(self):
        rng = SplitMix64(4)
        gts = [(rng.uniform(64) * 3).astype(np.int64).reshape(8, 8) for _ in range(4)]
        preds = [(rng.uniform(64) * 3).astype(np.int64).reshape(8, 8) for _ in range(4)]
        a, b = ConfusionMatrix(3), ConfusionMatrix(3)
        for g, p in zip(gts, preds):
            a.accumulate(p, g)
        for g, p in zip(reversed(gts), reversed(preds)):
            b.accumulate(p, g)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(ValueError, match="outside"):
            cm.accumulate(np.array([[5]]), np.array([[0]]))


class TestMiou:
    def test_perfect_prediction(self):
        cm = ConfusionMatrix(3)
        labels = np.array([[0, 1, 2, 2]])
        cm.accumulate(labels, labels)
        iou, mean = miou(cm)
        np.testing.assert_array_equal(iou, [1.0, 1.0, 1.0])
        assert mean == 1.0

    def test_two_class_hand_case(self):
        # cm [[3,1],[1,3]]: each class has TP=3, FP=1, FN=1 -> IoU 3/5
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[3, 1], [1, 3]], dtype=np.int64)
        iou, mean = miou(cm)
        np.testing.assert_allclose(iou, [0.6, 0.6])
        assert mean == pytest.approx(0.6)

    def test_absent_class_excluded_from_mean(self):
        cm = ConfusionMatrix(3)
        cm.counts = np.array([[3, 1, 0], [1, 3, 0], [0, 0, 0]], dtype=np.int64)
        iou, mean = miou(cm)
        assert np.isnan(iou[2])
        assert mean == pytest.approx(0.6)

    def test_empty_matrix_undefined(self):
        with pytest.raises(UndefinedMetricError):
            miou(ConfusionMatrix(3))

    def test_invariant_under_class_permutation(self):
        rng = SplitMix64(6)
        counts = (rng.uniform(16) * 50).astype(np.int64).reshape(4, 4)
        cm = ConfusionMatrix(4)
        cm.counts = counts.copy()
        _, mean = miou(cm)
        perm = np.argsort(SplitMix64(7).uniform(4))
        cmp_ = ConfusionMatrix(4)
        cmp_.counts = counts[np.ix_(perm, perm)]
        _, mean_p = miou(cmp_)
        assert mean == pytest.approx(mean_p, abs=1e-12)

    def test_miou_bounds(self):
        rng = SplitMix64(8)
        cm = ConfusionMatrix(4)
        cm.counts = (rng.uniform(16) * 30).astype(np.int64).reshape(4, 4)
        iou, mean = miou(cm)
        assert 0.0 <= mean <= 1.0
        assert ((iou >= 0) & (iou <= 1) | np.isnan(iou)).all()


def test_report_csv_structure(tmp_path):
    cm = ConfusionMatrix(2)
    cm.counts = np.array([[3, 1], [1, 3]], dtype=np.int64)
    path = tmp_path / "report.csv"
    write_iou_report(path, ["road", "sky"], cm)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,iou"
    assert lines[1].startswith("road,0.6")
    assert lines[-1].startswith("mean,0.6")
