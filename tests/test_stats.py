import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import rankdata

from matchpulse.errors import DegenerateDesign, NoConvergence, SingleClass
from matchpulse.stats import (
    SEPARATION_COEF_CAP,
    auc_score,
    average_ranks,
    classification_metrics,
    fit_logistic,
    roc_auc,
    single_class,
    stepwise_select,
)


def nll(beta, X, y):
    eta = X @ beta[:-1] + beta[-1]
    return np.sum(np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0) - y * eta)


def scipy_fit(X, y):
    """Independent maximum-likelihood oracle via BFGS."""
    res = minimize(nll, np.zeros(X.shape[1] + 1), args=(X, y), method="BFGS")
    return res.x


def logistic_data(rng, n, beta, intercept):
    X = rng.standard_normal((n, len(beta)))
    p = 1 / (1 + np.exp(-(X @ beta + intercept)))
    return X, (rng.random(n) < p).astype(int)


def test_fit_matches_bfgs_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        X, y = logistic_data(rng, 400, np.array([1.0, -0.5]), 0.3)
        model = fit_logistic(X, y)
        ref = scipy_fit(X, y)
        assert np.allclose(model.coefficients, ref[:-1], atol=1e-4)
        assert model.intercept == pytest.approx(ref[-1], abs=1e-4)
        assert not model.separation_flag


def test_fit_gradient_vanishes_at_solution():
    rng = np.random.default_rng(1)
    X, y = logistic_data(rng, 300, np.array([0.8]), -0.2)
    model = fit_logistic(X, y)
    Xd = np.hstack([X, np.ones((len(y), 1))])
    p = model.predict_proba(X)
    assert np.linalg.norm(Xd.T @ (p - y)) < 1e-6


def test_fit_symmetric_data_zero_intercept():
    # dataset invariant under (x, y) -> (-x, 1-y), so the MLE intercept is 0
    X = np.array([[1.0], [-1.0], [2.0], [-2.0], [3.0], [-3.0]])
    y = np.array([1, 0, 0, 1, 1, 0])
    model = fit_logistic(X, y)
    assert model.intercept == pytest.approx(0.0, abs=1e-8)
    assert not model.separation_flag


def test_separation_is_capped_and_flagged():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = fit_logistic(X, y)
    assert model.separation_flag
    assert np.abs(model.coefficients).max() <= SEPARATION_COEF_CAP + 1e-9
    # still classifies the training data perfectly
    assert roc_auc(model.predict_proba(X), y)[0] == 1.0


def test_fit_rejects_degenerate_designs():
    y = np.array([0, 1, 0, 1, 0, 1])
    with pytest.raises(DegenerateDesign):
        fit_logistic(np.ones((6, 1)), y)
    x = np.arange(6.0).reshape(-1, 1)
    with pytest.raises(DegenerateDesign):
        fit_logistic(np.hstack([x, x]), y)
    with pytest.raises(DegenerateDesign):
        fit_logistic(np.ones((2, 3)), [0, 1])


def test_fit_single_class_raises():
    with pytest.raises(SingleClass):
        fit_logistic(np.arange(4.0).reshape(-1, 1), [1, 1, 1, 1])


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_pairwise_oracle_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(4, 60)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        # coarse grid scores force ties
        scores = rng.integers(0, 5, size=n) / 4
        auc, _ = roc_auc(scores, labels)
        assert auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]),
                          st.integers(0, 1)), min_size=2, max_size=60))
def test_auc_score_equals_roc_auc_and_pairwise_oracle(pairs):
    scores, labels = map(list, zip(*pairs))
    if len(set(labels)) < 2:
        with pytest.raises(SingleClass):
            auc_score(scores, labels)
        return
    auc = auc_score(scores, labels)
    assert type(auc) is float
    assert auc == roc_auc(scores, labels)[0]
    # half-integer rank sums and pair counts are exact in binary
    assert auc == brute_force_auc(scores, labels)


@pytest.mark.parametrize("labels", [[], [1], [0, 0, 0], [1.0, 1.0]])
def test_one_class_labels_raise(labels):
    assert single_class(np.asarray(labels))
    with pytest.raises(SingleClass):
        auc_score([0.5] * len(labels), labels)
    with pytest.raises(SingleClass):
        classification_metrics([0.5] * len(labels), labels)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.25, 1.0, 3.0, 1e300]),
                min_size=1, max_size=60))
def test_average_ranks_equal_rankdata_with_ties(values):
    assert np.array_equal(average_ranks(values), rankdata(values))


def test_auc_perfect_and_reversed():
    labels = [0, 0, 1, 1]
    assert roc_auc([0.1, 0.2, 0.8, 0.9], labels)[0] == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], labels)[0] == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], labels)[0] == 0.5


def test_roc_curve_endpoints_and_monotone():
    rng = np.random.default_rng(4)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    _, curve = roc_auc(scores, labels)
    assert curve[0] == (0.0, 0.0)
    assert curve[-1] == (1.0, 1.0)
    fprs = [p[0] for p in curve]
    tprs = [p[1] for p in curve]
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))


def test_classification_metrics_hand_fixture():
    scores = [0.9, 0.8, 0.3, 0.7, 0.2, 0.6]
    labels = [1, 1, 1, 0, 0, 0]
    r = classification_metrics(scores, labels, threshold=0.5)
    assert (r.tp, r.fp, r.tn, r.fn) == (2, 2, 1, 1)
    assert r.precision == pytest.approx(0.5)
    assert r.recall == pytest.approx(2 / 3)
    assert r.f1 == pytest.approx(2 * 0.5 * (2 / 3) / (0.5 + 2 / 3))


def test_metrics_zero_division_guards():
    r = classification_metrics([0.1, 0.2, 0.3, 0.9], [0, 0, 1, 1], threshold=0.95)
    assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0


def test_stepwise_selects_informative_feature_first():
    rng = np.random.default_rng(5)
    n = 300
    signal = rng.standard_normal(n)
    noise = rng.standard_normal((n, 2))
    y = (rng.random(n) < 1 / (1 + np.exp(-2.5 * signal))).astype(int)
    X = np.column_stack([noise[:, 0], signal, noise[:, 1]])
    trace = stepwise_select(X, y, feature_ids=["n1", "sig", "n2"])
    assert trace.steps[0][:2] == ("add", "sig")
    assert "sig" in trace.final_features
    assert trace.final_auc > 0.7


def test_stepwise_pure_noise_selects_little():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((200, 4))
    y = rng.integers(0, 2, size=200)
    trace = stepwise_select(X, y)
    # in-sample AUC always creeps up a little, but noise must not beat a
    # genuinely informative model
    assert trace.final_auc < 0.65


def test_stepwise_skips_duplicate_columns():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(250)
    y = (rng.random(250) < 1 / (1 + np.exp(-2 * x))).astype(int)
    X = np.column_stack([x, x])  # second column is an exact duplicate
    trace = stepwise_select(X, y, feature_ids=["a", "a_copy"])
    assert trace.final_features == ["a"]


def test_stepwise_tie_breaks_to_lower_index():
    y = np.array([0, 0, 0, 1, 1, 1] * 10)
    x = y + 0.0
    rng = np.random.default_rng(8)
    x = x + 0.01 * rng.standard_normal(len(y))
    # two equally predictive distinct columns; the lower index must win
    X = np.column_stack([x, x + 1.0])
    trace = stepwise_select(X, y, feature_ids=["first", "second"])
    assert trace.steps[0][1] == "first"


def test_stepwise_trace_is_unchanged():
    # recorded from the version that scored candidates with roc_auc's curve;
    # the coarse column gives tied scores, and one step removes a feature
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 5))
    X[:, 3] = np.round(X[:, 3])
    beta = np.array([1.2, 0.0, -0.8, 0.6, 0.0])
    y = (rng.random(60) < 1 / (1 + np.exp(-X @ beta))).astype(int)
    trace = stepwise_select(X, y, feature_ids=["a", "b", "c", "d", "e"])
    assert trace.steps == [
        ("add", "c", ["c"], 0.6422222222222222),
        ("add", "e", ["c", "e"], 0.6666666666666666),
        ("add", "b", ["b", "c", "e"], 0.6766666666666666),
        ("add", "d", ["b", "c", "d", "e"], 0.6822222222222222),
        ("add", "a", ["a", "b", "c", "d", "e"], 0.7033333333333334),
        ("remove", "b", ["a", "c", "d", "e"], 0.7088888888888889),
    ]
    assert trace.final_auc == 0.7088888888888889


def test_stepwise_empty_candidates_raises():
    with pytest.raises(ValueError):
        stepwise_select(np.ones((4, 0)), [0, 1, 0, 1])


def test_stepwise_trace_is_consistent():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((150, 3))
    beta = np.array([1.5, -1.0, 0.0])
    y = (rng.random(150) < 1 / (1 + np.exp(-X @ beta))).astype(int)
    trace = stepwise_select(X, y)
    assert trace.final_features == trace.steps[-1][2]
    assert trace.final_auc == trace.steps[-1][3]
    aucs = [s[3] for s in trace.steps]
    assert all(a < b for a, b in zip(aucs, aucs[1:]))


def test_fit_logistic_out_of_iterations_raises_no_convergence():
    rng = np.random.default_rng(3)
    X, y = logistic_data(rng, 200, np.array([1.0, -0.5]), 0.3)
    fit_logistic(X, y)          # converges given its full budget
    with pytest.raises(NoConvergence, match="after 1 iters") as err:
        fit_logistic(X, y, max_iter=1)
    assert err.value.best is None
