"""Acceptance suite: one test per published criterion, one line each.

Criterion 2 checks the Pearson chi-squared test of the paper's printed
31-match winning-streak table against an independent computation (plain
arithmetic and scipy) and that it rejects independence, as the paper
concludes. The published statistic and p-value cannot be obtained from
those printed counts; they are kept below for the record.
"""

import itertools
import json
import math
import os
import pathlib
import time

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

from conftest import build_match
from matchpulse import (
    changepoint, ewm, ingest, pipeline, shift, stats, streaks, synth)
from matchpulse.cli import main as cli_main
from matchpulse.explain import shapley_values
from matchpulse.model import (
    BpConfig,
    NetConfig,
    PsoConfig,
    bce_loss,
    gradient,
    pso_optimize,
    scenario_matrix,
    stratified_split,
    train_bp_pso,
)

SAMPLE_14 = [1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1]

COUNTS_31 = np.array([
    [936, 765], [485, 351], [298, 221], [137, 161],
    [55, 85], [22, 33], [25, 21],
])

# The paper prints chi2 = 111.497, p = 9.51e-18 for COUNTS_31. The Pearson
# statistic of these counts is 32.5997 (df = 6, p = 1.2519e-05), and no
# common variant (G-test, Yates, cumulative rows, row-vs-rest sums, trend
# test, any single-cell misprint) gives 111.497. The published p is the
# upper tail of 111.497 at df = 13 (14 cells - 1), not at the df = 6 of a
# 7x2 independence test. Both readings reject independence.
PUBLISHED_CHI2_31 = 111.497
PUBLISHED_P_31 = 9.51e-18


def test_criterion_01_worked_example_fidelity():
    start = time.monotonic()
    table = streaks.build_contingency(streaks.extract_streaks(SAMPLE_14), cap=3)
    assert table.counts.tolist() == [[4, 1], [1, 3], [0, 1]]
    assert table.row_margins.tolist() == [5, 4, 1]
    assert streaks.transition_probs(table) == [0.8, 0.25, 0.0]
    assert time.monotonic() - start < 0.001 * 10  # generous margin on < 1 ms


def test_criterion_02_chi_squared_fixture():
    observed = COUNTS_31.astype(float)
    n = observed.sum()
    rows, cols = observed.shape
    oracle_stat = 0.0
    for i in range(rows):
        for j in range(cols):
            expected = observed[i].sum() * observed[:, j].sum() / n
            oracle_stat += (observed[i, j] - expected) ** 2 / expected
    oracle_df = (rows - 1) * (cols - 1)
    scipy_stat, scipy_p, scipy_df, _ = chi2_contingency(
        COUNTS_31, correction=False)
    assert scipy_stat == pytest.approx(oracle_stat, rel=1e-12)
    assert scipy_df == oracle_df == 6

    result = streaks.chi_squared_test(
        streaks.ContingencyTable(COUNTS_31.copy(), cap=7))
    assert result.statistic == pytest.approx(oracle_stat, rel=1e-12)
    assert result.df == oracle_df
    assert result.p_value == pytest.approx(scipy_p, rel=1e-9)
    assert result.validity
    assert result.p_value < 1e-3  # the paper's conclusion: reject independence
    # pin the fixture itself, so an edit to COUNTS_31 cannot pass unnoticed
    assert result.statistic == pytest.approx(32.5997, abs=1e-4)
    assert result.p_value == pytest.approx(1.2519e-05, rel=1e-4)
    # the published p-value is the df = 13 tail of the published statistic
    assert chi2.sf(PUBLISHED_CHI2_31, 13) == pytest.approx(PUBLISHED_P_31, rel=1e-3)


def test_criterion_03_conditional_probabilities_oracle():
    rng = np.random.default_rng(31)
    seqs = [rng.integers(0, 2, size=rng.integers(10, 80)) for _ in range(8)]
    cap = 5
    table = streaks.conditional_win_probs(seqs, cap=cap)
    for side, result in ((1, table.win_given_win), (0, table.win_given_loss)):
        support = {k: 0 for k in range(1, cap + 1)}
        wins = {k: 0 for k in range(1, cap + 1)}
        for seq in seqs:
            for t in range(len(seq) - 1):
                k = 0
                for back in range(t, -1, -1):
                    if seq[back] == side:
                        k += 1
                    else:
                        break
                if k:
                    b = min(k, cap)
                    support[b] += 1
                    wins[b] += int(seq[t + 1] == 1)
        for k in range(1, cap + 1):
            prob, s, w = result[k]
            assert (s, w) == (support[k], wins[k])
            assert prob == (w / s if s else None)


def test_criterion_04_exact_test_mc_vs_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 25:
        counts = rng.integers(0, 6, size=(3, 2))
        if counts.sum() > 30 or counts.sum() == 0:
            continue
        if (counts.sum(axis=1) == 0).any() or (counts.sum(axis=0) == 0).any():
            continue
        table = streaks.ContingencyTable(counts, cap=3)
        exact = streaks.enumerate_exact_p(table)
        mc = streaks.exact_test(table, replicates=100_000, seed=1000 + checked)
        assert abs(mc.p_value - exact) <= 3 * max(mc.mc_standard_error, 1e-4)
        checked += 1
    assert time.monotonic() - start < 10.0


def test_criterion_05_type_one_calibration():
    start = time.monotonic()

    def null_test(seqs):
        return streaks.chi_squared_test(
            streaks.contingency_from_sequences(seqs, cap=7))

    cfg = synth.GeneratorConfig(p=0.5, T=200, matches=31, seed=0)
    rate, _ = synth.calibrate(null_test, 0.05, 2000, cfg)
    se = math.sqrt(0.05 * 0.95 / 2000)
    assert abs(rate - 0.05) <= 3 * se
    assert time.monotonic() - start < 60.0


def test_criterion_06_entropy_weight_method():
    rng = np.random.default_rng(6)
    from matchpulse.ingest import StandardizedFrame

    def frame(z):
        ids = [f"c{i}" for i in range(z.shape[1])]
        return StandardizedFrame(z, ids)

    for _ in range(25):
        z = rng.random((int(rng.integers(3, 40)), int(rng.integers(1, 6))))
        w = ewm.entropy_weights(frame(z))
        assert abs(w.weights.sum() - 1.0) <= 1e-12
        perm = rng.permutation(z.shape[1])
        wp = ewm.entropy_weights(frame(z[:, perm]))
        assert np.allclose(wp.weights, w.weights[perm], atol=1e-12)

    z = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
    w = ewm.entropy_weights(frame(z), epsilon=1e-12)
    T = 3
    ref = []
    for j in range(2):
        total = z[:, j].sum()
        acc = sum((z[t, j] / total) * math.log(z[t, j] / total + 1e-12)
                  for t in range(T) if z[t, j])
        ref.append(-acc / math.log(T))
    denom = sum(1 - e for e in ref)
    ref_w = [(1 - e) / denom for e in ref]
    assert np.allclose(w.weights, ref_w, atol=1e-10)


def test_criterion_07_cusum_behavior():
    const = np.full(50, 0.4)
    _, cps = changepoint.cusum_detect(
        const, changepoint.CusumParams(d=0.0, h=0.5, mu=0.4))
    assert cps.n == 0

    # 10-point step: five points at 0.2, then five at 0.9, mu=0.5, d=0, h=1
    step = np.array([0.2] * 5 + [0.9] * 5)
    _, cps = changepoint.cusum_detect(
        step, changepoint.CusumParams(d=0.0, h=1.0, mu=0.5))
    assert cps.times == [4, 8]
    assert cps.signs == [-1, 1]

    rng = np.random.default_rng(7)
    values = 0.5 + 0.2 * np.sin(np.arange(300) / 8) + 0.05 * rng.standard_normal(300)
    for target in (2, 5, 10, 20, 40):
        result = changepoint.tune_threshold(
            values, target, changepoint.default_params(values), h0=1.0, max_iter=200)
        assert result.converged
        assert result.iterations <= 200
        assert abs(result.change_points.n - target) <= max(1, 0.01 * target)


def test_criterion_08_shift_intensity():
    ss = shift.relative_distance(changepoint.ChangePointSet([5], [1], 10))
    assert np.allclose(ss.values,
                       [0.2, 0.4, 0.6, 0.8, 1.0, 0.8, 0.6, 0.4, 0.2, 0.0],
                       atol=1e-12)
    ss = shift.relative_distance(changepoint.ChangePointSet([4, 6], [1, -1], 12))
    assert ss.at(4) == pytest.approx(1.0, abs=1e-12)
    assert ss.at(6) == pytest.approx(-2.0, abs=1e-12)
    assert ss.at(5) == pytest.approx(-0.5, abs=1e-12)
    assert ss.at(12) == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(8)
    for _ in range(1000):
        T = int(rng.integers(5, 100))
        n = int(rng.integers(0, min(T, 10) + 1))
        times = sorted(int(t) for t in
                       rng.choice(np.arange(1, T + 1), size=n, replace=False))
        signs = [int(s) for s in rng.choice([-1, 1], size=n)]
        cps = changepoint.ChangePointSet(times, signs, T)
        ss = shift.relative_distance(cps)
        if n == 0:
            assert np.all(ss.values == 0)
            continue
        d_max = cps.durations().max()
        for (t, v), d, sign in zip(ss.anchors, cps.durations(), signs):
            assert abs(v) == pytest.approx(d_max / d, abs=1e-12)
            assert np.sign(v) == sign
        # piecewise-linear continuity at half-integer probes
        for t in np.arange(0.5, T, 0.5):
            assert np.isfinite(ss.at(float(t)))


def test_criterion_09_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(9)
    for _ in range(50):
        cfg = NetConfig(int(rng.integers(1, 6)),
                        tuple(rng.integers(1, 7, size=rng.integers(1, 3))))
        params = rng.standard_normal(cfg.n_params())
        X = rng.standard_normal((int(rng.integers(1, 16)), cfg.input_dim))
        y = rng.integers(0, 2, size=X.shape[0]).astype(float)
        g = gradient(cfg, params, X, y)
        eps = 1e-6
        fd = np.empty_like(g)
        for j in range(cfg.n_params()):
            up, dn = params.copy(), params.copy()
            up[j] += eps
            dn[j] -= eps
            fd[j] = (bce_loss(cfg, up, X, y) - bce_loss(cfg, dn, X, y)) / (2 * eps)
        rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8)
        assert rel < 1e-4
    assert time.monotonic() - start < 5.0


def test_criterion_10_pso_sphere():
    sphere = lambda P: np.sum(P ** 2, axis=1)
    solved = 0
    for seed in range(20):
        _, val, trace = pso_optimize(
            sphere, 5, PsoConfig(iterations=200, seed=seed))
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        if val < 1e-3:
            solved += 1
    assert solved >= 19


def test_criterion_11_stepwise_selection():
    rng = np.random.default_rng(11)
    # duplicated feature: the copy must never be selected alongside
    x = rng.standard_normal(250)
    y = (rng.random(250) < 1 / (1 + np.exp(-2 * x))).astype(int)
    trace = stats.stepwise_select(np.column_stack([x, x]),
                                  y, feature_ids=["a", "a_copy"])
    assert trace.final_features == ["a"]

    # pure noise must not reach an informative-model AUC
    Xn = rng.standard_normal((200, 4))
    yn = rng.integers(0, 2, size=200)
    assert stats.stepwise_select(Xn, yn).final_auc < 0.65

    # AUC equals the pairwise brute-force oracle on random instances
    for _ in range(30):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.integers(0, 6, size=n) / 5
        auc, _ = stats.roc_auc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = np.mean([(1.0 if p > q else 0.5 if p == q else 0.0)
                         for p in pos for q in neg])
        assert auc == pytest.approx(brute, abs=1e-12)


def test_criterion_12_scenario_auc_trend():
    start = time.monotonic()
    boost = lambda k: 0.22 if k >= 1 else (-0.22 if k <= -1 else 0.0)
    seq = synth.gen_momentum(synth.GeneratorConfig(
        p=0.5, T=320, matches=1, seed=4, boost=boost))[0]
    match = build_match(seq, match_id="trend", seed=4)

    analysis = pipeline.analyze_momentum(ingest.derive_features(match))
    analysis = pipeline.detect_changepoints(analysis, target=10)
    X, names, y = pipeline.scenario_inputs(analysis)
    col_map = pipeline.scenario_column_map(names)

    table, _ = scenario_matrix(
        X, y, col_map, seeds=(0, 1, 2, 3, 4),
        net_cfg_builder=lambda dim: NetConfig(dim, (8,)),
        pso_cfg=PsoConfig(swarm=20, iterations=60),
        bp_cfg=BpConfig(learning_rate=0.05, epochs=500))
    aucs = [table[sid].auc for sid in
            ("base", "base_m", "base_m_cp", "base_m_cp_v")]
    assert all(a <= b + 1e-12 for a, b in zip(aucs, aucs[1:]))
    assert aucs[-1] - aucs[0] >= 0.01
    assert time.monotonic() - start < 600.0


def test_criterion_13_shap_properties():
    rng = np.random.default_rng(13)
    # efficiency on every test instance of a trained network
    X = rng.standard_normal((120, 3))
    y = (X[:, 0] - X[:, 1] + 0.3 * rng.standard_normal(120) > 0).astype(float)
    net = train_bp_pso(X, y, NetConfig(3, (4,)),
                       PsoConfig(swarm=10, iterations=20, seed=13),
                       BpConfig(epochs=50))
    train_idx, test_idx = stratified_split(y, 0.8, seed=13)
    bg = X[train_idx[:30]]
    for i in test_idx:
        r = shapley_values(net.predict_proba, X[i], bg)
        assert r.phi.sum() == pytest.approx(r.prediction - r.base_value,
                                            abs=1e-8)

    # linear closed form
    w = np.array([1.5, -2.0, 0.25])
    bg = rng.standard_normal((40, 3))
    x = rng.standard_normal(3)
    r = shapley_values(lambda A: np.atleast_2d(A) @ w + 0.1, x, bg)
    assert np.allclose(r.phi, w * (x - bg.mean(axis=0)), atol=1e-10)

    # three-feature brute-force equivalence
    def predict(A):
        A = np.atleast_2d(A)
        return np.sin(A[:, 0]) * A[:, 1] + A[:, 2]

    bg = rng.standard_normal((10, 3))
    x = rng.standard_normal(3)

    def value(subset):
        rows = bg.copy()
        for j in subset:
            rows[:, j] = x[j]
        return float(np.mean(predict(rows)))

    brute = np.zeros(3)
    for perm in itertools.permutations(range(3)):
        have = []
        for i in perm:
            before = value(tuple(have))
            have.append(i)
            brute[i] += value(tuple(have)) - before
    brute /= 6
    r = shapley_values(predict, x, bg)
    assert np.allclose(r.phi, brute, atol=1e-12)


def test_criterion_14_cli_reproducibility(tmp_path, synthetic_csv, capsys):
    path = tmp_path / "points.csv"
    path.write_text(synthetic_csv)
    fast = ["--hidden", "3", "--swarm", "6", "--pso-iterations", "10",
            "--epochs", "30"]
    commands = [
        ["test-momentum", "--input", str(path), "--seed", "2"],
        ["momentum", "--input", str(path)],
        ["changepoints", "--input", str(path)],
        ["shift", "--input", str(path), "--target-changepoints", "6"],
        ["train", "--input", str(path), "--seed", "2"] + fast,
    ]
    for i, argv in enumerate(commands):
        outs = []
        for run in ("a", "b"):
            out = str(tmp_path / f"{i}{run}")
            assert cli_main(argv + ["--out", out]) == 0
            outs.append({
                name: pathlib.Path(out, name).read_bytes()
                for name in sorted(os.listdir(out))
                if not name.startswith(".")
            })
        capsys.readouterr()
        assert outs[0] == outs[1]
