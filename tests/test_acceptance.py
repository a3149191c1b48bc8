"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 exist: oracle and property checks that run in seconds.
Criteria 6-9 (end-to-end gain over source-only on three seeds, ablation
ordering of the two label filters, domain-classifier accuracy on held-out
restyled images, byte-determinism) are not implemented yet.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import time

import numpy as np

from mtda.autodiff import IGNORE_VALUE, NORM_EPS, LayerParams, Tensor
from mtda.bars import class_means, filter_labels, nearest_class
from mtda.rng import SplitMix64
from mtda.stats import DomainStatistics, RunningMeanBank, WelfordAccumulator
from mtda.transfer import tad_forward


def identity_fc(dim: int) -> LayerParams:
    return LayerParams(Tensor(np.eye(dim)), Tensor(np.zeros(dim)))


def report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} — {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# -------------------------------------------------------------------- 1


def test_criterion_1_welford_oracle_equivalence():
    t0 = time.time()
    rng = SplitMix64(101)
    worst = 0.0
    for _ in range(50):
        n = 3 + rng.randint(498)
        h = 1 + rng.randint(8)
        w = 1 + rng.randint(8)
        c = 1 + rng.randint(16)
        acc = WelfordAccumulator(h, w, c)
        maps = []
        scale = 0.5 + 3.0 * rng.uniform(1)[0]
        shift = rng.normal(1)[0] * 2.0
        for _ in range(n):
            m = rng.normal(h * w * c).reshape(h, w, c) * scale + shift
            maps.append(m)
            acc.update(m)
        got = acc.extract()
        stream = np.stack(maps).reshape(-1, c)
        mu = stream.mean(axis=0)
        var = ((stream - mu[None, :]) ** 2).sum(axis=0) / ((n - 1) * h * w)
        worst = max(worst,
                    float(np.abs(got.mu - mu).max() / max(np.abs(mu).max(), 1e-30)),
                    float(np.abs(got.sigma**2 - var).max() / max(np.abs(var).max(), 1e-30)))
    dt = time.time() - t0
    report(1, "welford-oracle", worst < 1e-10 and dt < 5.0,
           f"50 streams, worst rel err {worst:.2e}, {dt:.1f}s")


# -------------------------------------------------------------------- 2


def test_criterion_2_tad_statistic_matching():
    t0 = time.time()
    rng = SplitMix64(202)
    worst = 0.0
    for _ in range(100):
        c = 2 + rng.randint(7)
        h = 4 + rng.randint(8)
        x = Tensor(rng.normal(c * h * h).reshape(1, c, h, h) * (0.5 + 2 * rng.uniform(1)[0])
                   + rng.normal(1)[0])
        stats = DomainStatistics(mu=rng.normal(c) * 2.0,
                                 sigma=np.abs(rng.normal(c)) + 0.1, n=4)
        out = tad_forward(x, [stats], identity_fc(c), identity_fc(c)).data
        for ch in range(c):
            v = x.data[0, ch].var()
            worst = max(worst, abs(out[0, ch].mean() - stats.mu[ch]))
            worst = max(worst,
                        abs(out[0, ch].std() - stats.sigma[ch] * np.sqrt(v / (v + NORM_EPS))))
    dt = time.time() - t0
    report(2, "tad-statistic-matching", worst < 1e-8 and dt < 5.0,
           f"100 inputs, worst abs err {worst:.2e}, {dt:.1f}s")


# -------------------------------------------------------------------- 3


def test_criterion_3_gradient_checks():
    from mtda.gradcheck import REL_TOLERANCE, run_all

    t0 = time.time()
    results = run_all(probes=20)
    dt = time.time() - t0
    for r in results:
        print(f"    gradcheck {r.op:<24} max_rel_err={r.max_rel_err:.3e} "
              f"{'ok' if r.passed else 'FAIL'}")
    worst = max(r.max_rel_err for r in results)
    report(3, "gradient-checks",
           all(r.passed for r in results) and dt < 120.0,
           f"{len(results)} ops x 20 probes, worst rel err {worst:.2e} "
           f"(tol {REL_TOLERANCE:g}), {dt:.0f}s")


# -------------------------------------------------------------------- 4


def test_criterion_4_bars_oracle_equivalence():
    t0 = time.time()
    rng = SplitMix64(404)
    exact = True
    worst_mean = 0.0
    for _ in range(100):
        k = 2 + rng.randint(5)
        df = 1 + rng.randint(6)
        h = 2 + rng.randint(7)
        feats = rng.normal(df * h * h).reshape(df, h, h)
        labels = (rng.uniform(h * h) * (k + 1)).astype(np.int64).reshape(h, h)
        labels[labels == k] = IGNORE_VALUE

        means, counts = class_means(feats, labels, k)
        flat_l = labels.ravel()
        flat_f = feats.reshape(df, -1)
        for c in range(k):
            sel = flat_l == c
            assert counts[c] == sel.sum()
            if counts[c]:
                worst_mean = max(worst_mean,
                                 float(np.abs(means[c] - flat_f[:, sel].mean(axis=1)).max()))

        bank = RunningMeanBank(k, df)
        submitted = {c: [] for c in range(k)}
        for _ in range(1 + rng.randint(6)):
            c = rng.randint(k)
            v = rng.normal(df)
            bank.update(c, v)
            submitted[c].append(v)
        for c in range(k):
            if submitted[c]:
                worst_mean = max(worst_mean, float(np.abs(
                    bank.means[c] - np.mean(submitted[c], axis=0)).max()))

        near = nearest_class(feats, bank)
        cents = bank.means
        init = np.nonzero(bank.initialized())[0]
        for i in range(h):
            for j in range(h):
                d = [np.sqrt(((feats[:, i, j] - cents[c]) ** 2).sum()) for c in init]
                exact &= near[i, j] == init[int(np.argmin(d))]

        filtered = filter_labels(labels, near)
        for i in range(h):
            for j in range(h):
                want = labels[i, j] if labels[i, j] == near[i, j] else IGNORE_VALUE
                exact &= filtered[i, j] == want
    dt = time.time() - t0
    report(4, "bars-oracle", exact and worst_mean < 1e-12 and dt < 10.0,
           f"100 instances, argmin/filter exact={exact}, "
           f"worst mean err {worst_mean:.2e}, {dt:.1f}s")


# -------------------------------------------------------------------- 5


def test_criterion_5_filtered_label_soundness():
    from mtda.bars import BarsState
    from mtda.optim import SgdMomentum
    from mtda.taskseg import TaskNet
    from mtda.bars import bars_step

    rng = SplitMix64(505)
    net = TaskNet(4, SplitMix64(1))
    opt = SgdMomentum(lr=2.5e-4, momentum=0.9)
    state = BarsState(num_classes=4, num_domains=2, switch_iteration=5)
    violations = 0
    checked = 0
    for step in range(24):
        b = 2
        tr = rng.normal(b * 3 * 16 * 16).reshape(b, 3, 16, 16)
        lab = (rng.uniform(b * 16 * 16) * 4).astype(np.int64).reshape(b, 16, 16)
        tg = rng.normal(b * 3 * 16 * 16).reshape(b, 3, 16, 16)
        # verify=True raises on any kept pixel whose nearest centroid is not
        # its label (cold-start keeps excepted); also re-check here explicitly
        _, diag = bars_step(state, net, opt, step % 2, tr, lab, tg, verify=True)
        logits, feats = net.forward(Tensor(tr))
        bank = state.target_banks[step % 2]
        init = bank.initialized()
        if init.all():
            for bb in range(b):
                near = nearest_class(feats.data[bb], bank)
                filtered = filter_labels(lab[bb], near)
                kept = filtered != IGNORE_VALUE
                checked += int(kept.sum())
                violations += int((near[kept] != filtered[kept]).sum())
    report(5, "filtered-label-soundness", violations == 0 and checked > 0,
           f"{checked} kept pixels re-checked exhaustively, {violations} violations")
