"""Region selection: class means, nearest centroids, label filtering, and the
self-training step."""

import numpy as np
import pytest

from mtda import bars
from mtda.autodiff import IGNORE_VALUE, Tape, Tensor, softmax_cross_entropy
from mtda.bars import (
    BarsState,
    _select_with_cold_start,
    bars_step,
    class_means,
    filter_labels,
    nearest_class,
)
from mtda.optim import SgdMomentum
from mtda.pipeline import _task_optimizer
from mtda.rng import SplitMix64
from mtda.stats import RunningMeanBank
from mtda.taskseg import TaskNet


def loop_class_means(features, labels, k):
    df = features.shape[0]
    sums = np.zeros((k, df))
    counts = np.zeros(k, dtype=np.int64)
    for i in range(labels.shape[0]):
        for j in range(labels.shape[1]):
            c = labels[i, j]
            if c == IGNORE_VALUE:
                continue
            sums[c] += features[:, i, j]
            counts[c] += 1
    means = np.zeros((k, df))
    for c in range(k):
        if counts[c]:
            means[c] = sums[c] / counts[c]
    return means, counts


class TestClassMeans:
    def test_single_class_is_global_mean(self):
        rng = SplitMix64(1)
        f = rng.normal(3 * 4 * 4).reshape(3, 4, 4)
        labels = np.full((4, 4), 2, dtype=np.int64)
        means, counts = class_means(f, labels, 4)
        np.testing.assert_allclose(means[2], f.reshape(3, -1).mean(axis=1), atol=1e-12)
        assert counts.tolist() == [0, 0, 16, 0]

    def test_hand_arithmetic_two_by_two(self):
        f = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # Df=1
        labels = np.array([[0, 0], [1, 1]])
        means, counts = class_means(f, labels, 2)
        assert means[0, 0] == pytest.approx(1.5)
        assert means[1, 0] == pytest.approx(3.5)
        assert counts.tolist() == [2, 2]

    def test_matches_loop_oracle_with_absent_class(self):
        rng = SplitMix64(2)
        f = rng.normal(5 * 6 * 6).reshape(5, 6, 6)
        labels = (rng.uniform(36) * 3).astype(np.int64).reshape(6, 6)  # class 3 absent
        labels[0, 0] = IGNORE_VALUE
        means, counts = class_means(f, labels, 4)
        want_means, want_counts = loop_class_means(f, labels, 4)
        np.testing.assert_allclose(means, want_means, atol=1e-12)
        assert counts.tolist() == want_counts.tolist()
        assert counts[3] == 0 and (means[3] == 0).all()

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            class_means(np.zeros((2, 4, 4)), np.zeros((3, 3), dtype=np.int64), 2)


class TestCentroidBank:
    def test_first_update_sets_centroid(self):
        bank = RunningMeanBank(3, 2)
        bank.update(1, np.array([2.0, -1.0]))
        np.testing.assert_array_equal(bank.means[1], [2.0, -1.0])
        assert bank.initialized().tolist() == [False, True, False]

    def test_sequence_matches_arithmetic_mean(self):
        rng = SplitMix64(3)
        bank = RunningMeanBank(2, 4)
        vecs = [rng.normal(4) for _ in range(25)]
        for v in vecs:
            bank.update(0, v)
        np.testing.assert_allclose(bank.means[0], np.mean(vecs, axis=0), atol=1e-12)
        assert bank.counts[1] == 0

    def test_replay_reproduces_bank(self):
        rng = SplitMix64(4)
        bank = RunningMeanBank(3, 2)
        log = []
        for _ in range(30):
            c = rng.randint(3)
            v = rng.normal(2)
            bank.update(c, v)
            log.append((c, v))
        replay = RunningMeanBank(3, 2)
        for c, v in log:
            replay.update(c, v)
        assert (bank.means == replay.means).all()
        assert (bank.counts == replay.counts).all()


class TestNearestClass:
    def bank_with(self, cents):
        dims = [len(v) for v in cents if v is not None]
        bank = RunningMeanBank(len(cents), dims[0])
        for c, v in enumerate(cents):
            if v is not None:
                bank.update(c, np.asarray(v, dtype=np.float64))
        return bank

    def test_exact_centroid_wins(self):
        bank = self.bank_with([[10.0, 0.0], [0.0, 10.0], [1.0, 1.0]])
        f = np.array([[[1.0]], [[1.0]]])  # (Df=2, 1, 1)
        assert nearest_class(f, bank)[0, 0] == 2

    def test_tie_breaks_to_lowest_class(self):
        bank = self.bank_with([[5.0], [-1.0], [5.0], [1.0]])
        # feature 0.0 is equidistant from centroids 1 and 3
        f = np.zeros((1, 1, 1))
        assert nearest_class(f, bank)[0, 0] == 1

    def test_uninitialized_class_never_selected(self):
        bank = self.bank_with([None, [0.0], None, [4.0]])
        f = np.full((1, 2, 2), 100.0)   # nearest overall would be class 3
        out = nearest_class(f, bank)
        assert set(np.unique(out)) <= {1, 3}
        assert (out == 3).all()

    def test_matches_bruteforce_oracle(self):
        rng = SplitMix64(5)
        bank = self.bank_with([rng.normal(6) for _ in range(4)])
        f = rng.normal(6 * 5 * 5).reshape(6, 5, 5)
        got = nearest_class(f, bank)
        cents = bank.means
        for i in range(5):
            for j in range(5):
                d = [np.sqrt(((f[:, i, j] - cents[c]) ** 2).sum()) for c in range(4)]
                assert got[i, j] == int(np.argmin(d))

    def test_same_result_for_distance_and_squared_distance(self):
        rng = SplitMix64(6)
        bank = self.bank_with([rng.normal(3) for _ in range(5)])
        f = rng.normal(3 * 4 * 4).reshape(3, 4, 4)
        got = nearest_class(f, bank)
        cents = bank.means
        flat = f.reshape(3, -1).T
        d2 = ((flat[:, None, :] - cents[None]) ** 2).sum(axis=2)
        assert (got.ravel() == np.argmin(d2 + 7.5, axis=1)).all()  # argmin invariance

    def test_batch_matches_one_call_per_image(self):
        rng = SplitMix64(7)
        bank = self.bank_with([rng.normal(4) for _ in range(3)] + [None])
        f = rng.normal(3 * 4 * 5 * 6).reshape(3, 4, 5, 6)
        got = nearest_class(f, bank)
        assert got.shape == (3, 5, 6)
        for b in range(3):
            assert (got[b] == nearest_class(f[b], bank)).all()

    def test_empty_bank_raises(self):
        with pytest.raises(ValueError, match="no initialized class"):
            nearest_class(np.zeros((2, 2, 2)), RunningMeanBank(3, 2))


class TestFilterLabels:
    def test_full_agreement_keeps_everything(self):
        labels = np.array([[0, 1], [2, 3]])
        out = filter_labels(labels, labels.copy())
        np.testing.assert_array_equal(out, labels)

    def test_full_disagreement_ignores_everything(self):
        labels = np.array([[0, 1], [2, 3]])
        nearest = (labels + 1) % 4
        assert (filter_labels(labels, nearest) == IGNORE_VALUE).all()

    def test_mixed_matches_loop_oracle(self):
        rng = SplitMix64(7)
        labels = (rng.uniform(36) * 4).astype(np.int64).reshape(6, 6)
        nearest = (rng.uniform(36) * 4).astype(np.int64).reshape(6, 6)
        got = filter_labels(labels, nearest)
        for i in range(6):
            for j in range(6):
                want = labels[i, j] if labels[i, j] == nearest[i, j] else IGNORE_VALUE
                assert got[i, j] == want

    def test_already_ignored_stays_ignored(self):
        labels = np.array([[IGNORE_VALUE, 1]])
        nearest = np.array([[IGNORE_VALUE, 1]])
        out = filter_labels(labels, nearest)
        assert out[0, 0] == IGNORE_VALUE  # equality with ignore keeps the ignore value
        labels2 = np.array([[IGNORE_VALUE]])
        assert filter_labels(labels2, np.array([[2]]))[0, 0] == IGNORE_VALUE


class TestPseudoLabels:
    """Pseudo labels are the task net's argmax map, ``TaskNet.predict``."""

    def rigged_net(self, bias):
        net = TaskNet(len(bias), SplitMix64(0))
        net.classifier.weights.data[:] = 0.0
        net.classifier.bias.data = np.asarray(bias, dtype=np.float64)
        return net

    def test_dominating_class_everywhere(self):
        net = self.rigged_net([0.1, 0.9, 0.3])
        out = net.predict(np.zeros((1, 3, 16, 16)))
        assert (out == 1).all()

    def test_tie_goes_to_lowest_index(self):
        net = self.rigged_net([0.5, 0.5, 0.1])
        out = net.predict(np.zeros((1, 3, 16, 16)))
        assert (out == 0).all()

    def test_matches_argmax_oracle(self):
        rng = SplitMix64(8)
        net = TaskNet(4, SplitMix64(9))
        img = rng.normal(2 * 3 * 16 * 16).reshape(2, 3, 16, 16)
        got = net.predict(img)
        logits, _ = net.forward(Tensor(img))
        for b in range(2):
            for i in range(16):
                for j in range(16):
                    assert got[b, i, j] == int(np.argmax(logits.data[b, :, i, j]))


def make_step_inputs(seed=11, b=2, size=16):
    rng = SplitMix64(seed)
    tr = rng.normal(b * 3 * size * size).reshape(b, 3, size, size)
    lab = (rng.uniform(b * size * size) * 4).astype(np.int64).reshape(b, size, size)
    tg = rng.normal(b * 3 * size * size).reshape(b, 3, size, size)
    return tr, lab, tg


class TestBarsStep:
    def fresh(self, m=300):
        net = TaskNet(4, SplitMix64(1))
        opt = SgdMomentum(lr=2.5e-4, momentum=0.9, weight_decay=5e-4)
        state = BarsState(num_classes=4, num_domains=2, switch_iteration=m)
        return state, net, opt

    def test_cold_start_keeps_all_pixels(self):
        state, net, opt = self.fresh()
        tr, lab, tg = make_step_inputs()
        loss, diag = bars_step(state, net, opt, 0, tr, lab, tg, verify=True)
        assert diag.kept_fraction_source == 1.0
        assert diag.kept_fraction_target == 1.0
        assert not diag.skipped
        assert loss > 0.0
        # centroids bootstrapped from the raw labels
        assert sum(diag.centroid_counts_transferred) > 0
        assert sum(diag.centroid_counts_target) > 0

    def test_kept_fraction_is_direct_count(self):
        state, net, opt = self.fresh()
        tr, lab, tg = make_step_inputs()
        bars_step(state, net, opt, 0, tr, lab, tg)
        # second step: banks initialized, filtering active; verify the count
        _, feats_t = net.forward(Tensor(tr))
        kept = []
        for bb in range(tr.shape[0]):
            filt, _ = _select_with_cold_start(feats_t.data[bb], lab[bb],
                                              state.target_banks[0])
            kept.append((filt != IGNORE_VALUE).sum())
        _, diag = bars_step(state, net, opt, 0, tr, lab, tg, verify=True)
        assert 0.0 <= diag.kept_fraction_source <= 1.0
        assert diag.kept_fraction_source * lab.size == pytest.approx(sum(kept))

    def test_determinism_for_frozen_inputs(self):
        tr, lab, tg = make_step_inputs()
        losses = []
        for _ in range(2):
            state, net, opt = self.fresh()
            loss, _ = bars_step(state, net, opt, 0, tr, lab, tg)
            losses.append(loss)
        assert losses[0] == losses[1]

    def test_switch_controls_centroid_labels(self, monkeypatch):
        # the bank updates get the raw labels (source labels, target argmax)
        # before step m and the filtered maps from step m on; the first step
        # filters against empty banks, which keep everything, so m=1 tells the
        # two apart on the second step's filtered side and m=2 on its raw side
        seen = []
        update = bars._update_banks_from_batch

        def spy(bank, features, labels, num_classes):
            seen.append(labels.copy())
            update(bank, features, labels, num_classes)

        monkeypatch.setattr(bars, "_update_banks_from_batch", spy)
        tr, lab, tg = make_step_inputs()
        for m in (1, 2):
            state, net, opt = self.fresh(m=m)
            for step in range(2):
                _, feats_src = net.forward(Tensor(tr))
                logits_tgt, feats_tgt = net.forward(Tensor(tg))
                raw_tgt = np.argmax(logits_tgt.data, axis=1)
                filt_src, _ = _select_with_cold_start(feats_src.data, lab,
                                                      state.target_banks[0])
                filt_tgt, _ = _select_with_cold_start(feats_tgt.data, raw_tgt,
                                                      state.transferred_banks[0])
                seen.clear()
                bars_step(state, net, opt, 0, tr, lab, tg)
                want = (filt_src, filt_tgt) if step >= m else (lab, raw_tgt)
                assert len(seen) == 2
                np.testing.assert_array_equal(seen[0], want[0])
                np.testing.assert_array_equal(seen[1], want[1])
            # the second step's filter rejects pixels in both directions
            assert (filt_src != lab).any() and (filt_tgt != raw_tgt).any()

    def test_source_term_alone_is_plain_supervised_training(self):
        # with no filter and no target term, a step is one supervised step on
        # the source batch: the target forward and the bank updates feed nothing
        steps = [make_step_inputs(seed=20 + i) for i in range(5)]
        state, net, opt = BarsState(4, 2, 300), TaskNet(4, SplitMix64(1)), _task_optimizer()
        plain_net, plain_opt = TaskNet(4, SplitMix64(1)), _task_optimizer()
        for tr, lab, tg in steps:
            loss, diag = bars_step(state, net, opt, 0, tr, lab, tg,
                                   filter_source=False, train_target=False)
            with Tape() as tape:
                logits, _ = plain_net.forward(Tensor(tr))
                plain_loss = softmax_cross_entropy(logits, lab)
            params = plain_net.params.tensors()
            plain_opt.step(params, tape.backward(plain_loss, params))
            assert not diag.skipped
            assert loss == plain_loss.item()
            for name, p in net.params.state_arrays().items():
                np.testing.assert_array_equal(p, plain_net.params.state_arrays()[name], name)

    def test_domain_out_of_range(self):
        state, net, opt = self.fresh()
        tr, lab, tg = make_step_inputs()
        with pytest.raises(IndexError):
            bars_step(state, net, opt, 5, tr, lab, tg)

    def test_no_gradient_from_ignored_pixels(self):
        rng = SplitMix64(13)
        logits = Tensor(rng.normal(1 * 3 * 4 * 4).reshape(1, 3, 4, 4), requires_grad=True)
        labels = (rng.uniform(16) * 3).astype(np.int64).reshape(1, 4, 4)
        labels[0, :2, :] = IGNORE_VALUE
        with Tape() as tape:
            loss = softmax_cross_entropy(logits, labels)
        [grad] = tape.backward(loss, [logits])
        assert (grad[0, :, :2, :] == 0).all()
        assert np.abs(grad[0, :, 2:, :]).sum() > 0
