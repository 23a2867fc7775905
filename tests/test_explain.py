import itertools
import math

import numpy as np
import pytest

from matchpulse import explain
from matchpulse.errors import EmptyBackground, TooManyFeatures
from matchpulse.explain import (
    ShapConfig,
    mean_abs_shap,
    shapley_values,
)
from matchpulse.model import MinMaxScaler, NetConfig, TrainedNet, forward


def linear_predict(w, b):
    return lambda X: np.atleast_2d(X) @ w + b


def test_linear_model_closed_form():
    # for a linear model with the marginal-expectation value function,
    # phi_i = w_i * (x_i - mean(background_i))
    rng = np.random.default_rng(0)
    w = np.array([2.0, -1.5, 0.5])
    bg = rng.standard_normal((50, 3))
    x = rng.standard_normal(3)
    report = shapley_values(linear_predict(w, 0.7), x, ShapConfig(bg))
    expected = w * (x - bg.mean(axis=0))
    assert np.allclose(report.phi, expected, atol=1e-10)
    assert report.base_value == pytest.approx(float(bg.mean(axis=0) @ w + 0.7))


def brute_force_shapley(predict, x, bg):
    """Permutation-average marginal contributions; independent oracle."""
    F = len(x)
    phi = np.zeros(F)

    def value(subset):
        rows = bg.copy()
        for j in subset:
            rows[:, j] = x[j]
        return float(np.mean(predict(rows)))

    for perm in itertools.permutations(range(F)):
        have = []
        for i in perm:
            before = value(tuple(have))
            have.append(i)
            phi[i] += value(tuple(have)) - before
    return phi / math.factorial(F)


def test_matches_permutation_oracle_nonlinear():
    rng = np.random.default_rng(1)
    bg = rng.standard_normal((12, 3))

    def predict(X):
        X = np.atleast_2d(X)
        return np.tanh(X[:, 0] * X[:, 1]) + X[:, 2] ** 2

    for _ in range(5):
        x = rng.standard_normal(3)
        report = shapley_values(predict, x, ShapConfig(bg))
        assert np.allclose(report.phi, brute_force_shapley(predict, x, bg),
                           atol=1e-12)


def test_efficiency_property():
    rng = np.random.default_rng(2)
    bg = rng.standard_normal((20, 4))

    def predict(X):
        X = np.atleast_2d(X)
        return 1 / (1 + np.exp(-(X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.2)))

    for _ in range(10):
        x = rng.standard_normal(4)
        report = shapley_values(predict, x, ShapConfig(bg))
        assert report.phi.sum() == pytest.approx(
            report.prediction - report.base_value, abs=1e-8)


def test_irrelevant_feature_gets_zero():
    rng = np.random.default_rng(3)
    bg = rng.standard_normal((15, 3))
    predict = lambda X: np.atleast_2d(X)[:, 0] * 3.0
    report = shapley_values(predict, np.array([1.0, 5.0, -2.0]), ShapConfig(bg))
    assert report.phi[1] == pytest.approx(0.0, abs=1e-12)
    assert report.phi[2] == pytest.approx(0.0, abs=1e-12)


def test_symmetry_property():
    # two features entering identically share credit equally
    bg = np.zeros((10, 2))
    predict = lambda X: np.atleast_2d(X)[:, 0] + np.atleast_2d(X)[:, 1]
    report = shapley_values(predict, np.array([3.0, 3.0]), ShapConfig(bg))
    assert report.phi[0] == pytest.approx(report.phi[1], abs=1e-12)


def test_single_background_row():
    predict = lambda X: np.atleast_2d(X)[:, 0] ** 2
    report = shapley_values(predict, np.array([2.0]),
                            ShapConfig(np.array([[0.0]])))
    assert report.phi[0] == pytest.approx(4.0)
    assert report.base_value == 0.0


def test_too_many_features_raises():
    bg = np.zeros((2, 16))
    with pytest.raises(TooManyFeatures):
        shapley_values(lambda X: np.atleast_2d(X)[:, 0], np.zeros(16),
                       ShapConfig(bg))
    with pytest.raises(TooManyFeatures):
        shapley_values(lambda X: np.atleast_2d(X)[:, 0], np.zeros(3),
                       ShapConfig(np.zeros((2, 3)), max_features=2))


def test_empty_background_raises():
    with pytest.raises(EmptyBackground):
        ShapConfig(np.empty((0, 3)))


def test_background_instance_mismatch():
    with pytest.raises(ValueError):
        shapley_values(lambda X: np.atleast_2d(X)[:, 0], np.zeros(2),
                       ShapConfig(np.zeros((4, 3))))


def test_mean_abs_ranking_and_ties():
    reports = []
    for phi in ([1.0, -3.0, 1.0], [-1.0, 3.0, 1.0]):
        reports.append(
            shapley_values(  # build real reports via a linear stand-in
                linear_predict(np.array(phi), 0.0),
                np.ones(3), ShapConfig(np.zeros((5, 3))),
                feature_ids=["a", "b", "c"]))
    ranking = mean_abs_shap(reports)
    assert ranking[0][0] == "b"
    assert ranking[0][1] == pytest.approx(3.0)
    # |phi| ties between a and c break toward the lower index
    assert [f for f, _ in ranking[1:]] == ["a", "c"]


def test_mean_abs_empty_raises():
    with pytest.raises(ValueError):
        mean_abs_shap([])


def reference_shapley(predict, x, bg):
    """One `predict` call per coalition: the loop that blocked scoring
    replaced, kept as a bit-for-bit oracle. Returns (phi, base, prediction)."""
    F = len(x)
    values = {}
    for size in range(F + 1):
        for subset in itertools.combinations(range(F), size):
            rows = bg.copy()
            for j in subset:
                rows[:, j] = x[j]
            values[subset] = float(np.mean(predict(rows)))
    fact = [math.factorial(k) for k in range(F + 1)]
    phi = np.zeros(F)
    for i in range(F):
        rest = [j for j in range(F) if j != i]
        for size in range(F):
            weight = fact[size] * fact[F - size - 1] / fact[F]
            for subset in itertools.combinations(rest, size):
                with_i = tuple(sorted(subset + (i,)))
                phi[i] += weight * (values[with_i] - values[subset])
    return phi, values[()], values[tuple(range(F))]


@pytest.mark.parametrize("F, B", [(9, 100), (4, 12), (4, 7),
                                  (3, explain.BLOCK_ROWS + 1)])
def test_blocked_scoring_equals_per_coalition_loop(F, B):
    # (9, 100): 512 coalitions in blocks of 20, and 100 does not divide
    # BLOCK_ROWS; (3, BLOCK_ROWS + 1): one coalition per block.
    # OpenBLAS's dgemv, which scores the output layer, takes rows in groups
    # of four and the leftover rows through another kernel, so a row's
    # score can move in the last bit with its offset in the call. When B is
    # a multiple of four, or a block holds one coalition, every row keeps
    # its offset and the result is bit for bit the loop's; otherwise the
    # values may differ by an ulp.
    exact = B % 4 == 0 or B > explain.BLOCK_ROWS // 2
    rng = np.random.default_rng(F * 1000 + B)
    cfg = NetConfig(F, (8,))
    X = rng.standard_normal((B + 5, F)) * 3.0
    net = TrainedNet(cfg, rng.standard_normal(cfg.n_params()),
                     MinMaxScaler.fit(X))
    calls = []

    def predict(rows):
        calls.append(len(rows))
        return net.predict_proba(rows)

    for x in X[B:B + 2]:
        calls.clear()
        report = shapley_values(predict, x, ShapConfig(X[:B]))
        phi, base, prediction = reference_shapley(net.predict_proba, x, X[:B])
        if exact:
            assert np.array_equal(report.phi, phi)
            assert report.base_value == base and report.prediction == prediction
        else:
            assert np.allclose(report.phi, phi, rtol=0, atol=1e-15)
            assert report.base_value == pytest.approx(base, rel=1e-15)
            assert report.prediction == pytest.approx(prediction, rel=1e-15)
        assert sum(calls) == 2 ** F * B
        per_block = max(1, explain.BLOCK_ROWS // B)
        assert len(calls) == -(-2 ** F // per_block)


def test_prescaled_attribution_equals_rescaled():
    # `shap` scales the background and the instance once and scores the
    # coalitions with `forward`. The scaler works cell by cell, so this is
    # bit for bit what re-scaling every stacked row in `predict_proba`
    # gives, with a constant training column (span 0) and with cells
    # outside the training range (clipped) in the instance and background.
    rng = np.random.default_rng(31)
    cfg = NetConfig(4, (8,))
    X = rng.standard_normal((160, 4)) * 3.0
    X[:, 2] = 7.0
    net = TrainedNet(cfg, rng.standard_normal(cfg.n_params()),
                     MinMaxScaler.fit(X[100:] / 4))
    assert net.scaler.maxs[2] == net.scaler.mins[2]
    bg = X[:100]
    instance = np.array([50.0, -40.0, 9.0, 0.5])
    scaled_instance = net.scaler.transform(instance)[0]
    assert scaled_instance[0] == 1.5 and scaled_instance[1] == -0.5
    z = net.scaler.transform(bg, clip=False)
    assert ((z < -0.5) | (z > 1.5)).any()

    rescaled = shapley_values(net.predict_proba, instance, ShapConfig(bg))
    prescaled = shapley_values(lambda rows: forward(cfg, net.params, rows),
                               scaled_instance,
                               ShapConfig(net.scaler.transform(bg)))
    assert np.array_equal(prescaled.phi, rescaled.phi)
    assert prescaled.base_value == rescaled.base_value
    assert prescaled.prediction == rescaled.prediction
