import io
import json

import numpy as np
import pytest

from matchpulse.errors import BadModel, DimMismatch, SingleClass
from matchpulse.model import (
    BpConfig,
    MinMaxScaler,
    NetConfig,
    PsoConfig,
    TrainedNet,
    bce_loss,
    forward,
    gradient,
    pso_optimize,
    scenario_matrix,
    stratified_split,
    train_bp_pso,
)

TINY_PSO = PsoConfig(swarm=8, iterations=15)
TINY_BP = BpConfig(learning_rate=0.1, epochs=50)


def test_param_count():
    cfg = NetConfig(4, (8,))
    assert cfg.n_params() == 4 * 8 + 8 + 8 * 1 + 1


def test_forward_hand_computed():
    # one input, one hidden unit: p = sigmoid(w2*tanh(w1*x + b1) + b2)
    cfg = NetConfig(1, (1,))
    params = np.array([0.5, -0.25, 2.0, 0.1])  # w1, b1, w2, b2
    x = 0.8
    h = np.tanh(0.5 * x - 0.25)
    expected = 1 / (1 + np.exp(-(2.0 * h + 0.1)))
    assert forward(cfg, params, [x]) == pytest.approx(expected, abs=1e-12)


def test_forward_vector_and_single_agree():
    cfg = NetConfig(3, (4,))
    rng = np.random.default_rng(0)
    params = rng.standard_normal(cfg.n_params())
    X = rng.standard_normal((5, 3))
    batch = forward(cfg, params, X)
    assert batch.shape == (5,)
    for i in range(5):
        assert forward(cfg, params, X[i]) == pytest.approx(batch[i])


def test_forward_dim_mismatch():
    cfg = NetConfig(2, (3,))
    with pytest.raises(DimMismatch):
        forward(cfg, np.zeros(cfg.n_params()), np.ones((4, 5)))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = NetConfig(int(rng.integers(1, 5)),
                        tuple(rng.integers(1, 6, size=rng.integers(1, 3))))
        params = rng.standard_normal(cfg.n_params())
        X = rng.standard_normal((int(rng.integers(2, 12)), cfg.input_dim))
        y = rng.integers(0, 2, size=X.shape[0]).astype(float)
        g = gradient(cfg, params, X, y)
        eps = 1e-6
        for j in rng.choice(cfg.n_params(), size=min(8, cfg.n_params()),
                            replace=False):
            up, dn = params.copy(), params.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (bce_loss(cfg, up, X, y) - bce_loss(cfg, dn, X, y)) / (2 * eps)
            assert g[j] == pytest.approx(fd, abs=1e-6, rel=1e-4)


def test_gradient_zero_at_interpolating_optimum():
    # when the model output already equals the labels the gradient vanishes
    cfg = NetConfig(1, (1,))
    X = np.array([[0.0]])
    y = np.array([1.0])
    params = np.array([0.0, 0.0, 1.0, 500.0])  # output saturates at ~1
    g = gradient(cfg, params, X, y)
    assert np.max(np.abs(g)) < 1e-10


def test_scaler_maps_train_to_unit_box():
    rng = np.random.default_rng(2)
    X = rng.uniform(-5, 10, size=(40, 3))
    scaler = MinMaxScaler.fit(X)
    Z = scaler.transform(X, clip=False)
    assert np.allclose(Z.min(axis=0), 0)
    assert np.allclose(Z.max(axis=0), 1)


def test_scaler_clips_out_of_range_rows():
    scaler = MinMaxScaler.fit(np.array([[0.0], [1.0]]))
    z = scaler.transform(np.array([[-10.0], [0.25], [10.0]]))
    assert z[:, 0].tolist() == [-0.5, 0.25, 1.5]


def test_scaler_constant_column_maps_to_zero():
    scaler = MinMaxScaler.fit(np.array([[3.0, 1.0], [3.0, 2.0]]))
    z = scaler.transform(np.array([[3.0, 1.5], [99.0, 2.0]]))
    assert z[0, 0] == 0.0 and z[1, 0] == 0.0
    assert z[0, 1] == pytest.approx(0.5)


def sphere(x):
    return float(np.sum(x ** 2))


def test_pso_solves_sphere():
    best, val, _ = pso_optimize(sphere, 5, PsoConfig(iterations=200, seed=0))
    assert val < 1e-3
    assert np.allclose(best, 0, atol=0.05)


def test_pso_trace_monotone_nonincreasing():
    for seed in range(5):
        _, _, trace = pso_optimize(sphere, 4, PsoConfig(iterations=50, seed=seed))
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert len(trace) == 51


def test_pso_deterministic_per_seed():
    a = pso_optimize(sphere, 3, PsoConfig(iterations=30, seed=9))
    b = pso_optimize(sphere, 3, PsoConfig(iterations=30, seed=9))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_pso_respects_bounds():
    cfg = PsoConfig(iterations=20, bound=0.7, seed=1)
    best, _, _ = pso_optimize(lambda x: -float(np.sum(x)), 3, cfg)
    assert np.all(np.abs(best) <= 0.7 + 1e-12)


def test_pso_objective_failures_become_inf():
    def sometimes_bad(x):
        if x[0] > 0:
            raise RuntimeError("boom")
        return sphere(x)
    best, val, _ = pso_optimize(sometimes_bad, 2, PsoConfig(iterations=30, seed=2))
    assert np.isfinite(val)
    assert best[0] <= 0


def xor_data():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0, 1, 1, 0], dtype=float)
    return np.tile(X, (10, 1)), np.tile(y, 10)


def test_train_learns_xor():
    X, y = xor_data()
    net = train_bp_pso(X, y, NetConfig(2, (6,)),
                       PsoConfig(swarm=20, iterations=60, seed=3),
                       BpConfig(learning_rate=0.5, epochs=300), seed=3)
    pred = (net.predict_proba(X) >= 0.5).astype(int)
    assert np.array_equal(pred, y.astype(int))


def test_train_final_loss_not_worse_than_pso():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3))
    y = (X[:, 0] > 0).astype(float)
    net = train_bp_pso(X, y, NetConfig(3, (4,)), TINY_PSO, TINY_BP, seed=4)
    assert net.history["final_loss"] <= net.history["pso_best"][-1] + 1e-12


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 2))
    y = (X.sum(axis=1) > 0).astype(float)
    n1 = train_bp_pso(X, y, NetConfig(2, (3,)), TINY_PSO, TINY_BP, seed=5)
    n2 = train_bp_pso(X, y, NetConfig(2, (3,)), TINY_PSO, TINY_BP, seed=5)
    assert np.array_equal(n1.params, n2.params)


def test_train_single_class_raises():
    with pytest.raises(SingleClass):
        train_bp_pso(np.ones((10, 1)), np.ones(10))


def test_save_load_roundtrip():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 2))
    y = (X[:, 0] > 0).astype(float)
    net = train_bp_pso(X, y, NetConfig(2, (3,)), TINY_PSO, TINY_BP, seed=6)
    buf = io.StringIO()
    net.save(buf)
    buf.seek(0)
    loaded = TrainedNet.load(buf)
    assert np.array_equal(loaded.params, net.params)
    probe = rng.standard_normal((7, 2))
    assert np.allclose(loaded.predict_proba(probe), net.predict_proba(probe))


def _broken(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("params"),
    lambda d: d["scaler"].pop("maxs"),
    lambda d: d.pop("config"),
    lambda d: d.__setitem__("params", d["params"][:-3]),
    lambda d: d.__setitem__("params", "abc"),
    lambda d: d["scaler"].__setitem__("mins", d["scaler"]["mins"][:-1]),
    lambda d: d["config"].__setitem__("hidden", ["3"]),
    lambda d: d["config"].__setitem__("input_dim", 2.5),
], ids=["no-params", "no-maxs", "no-config", "params-short", "params-text",
        "mins-short", "hidden-text", "input-dim-float"])
def test_from_json_rejects_models_that_do_not_fit(edit):
    net = TrainedNet(NetConfig(2, (3,)), np.zeros(NetConfig(2, (3,)).n_params()),
                     MinMaxScaler(np.zeros(2), np.ones(2)))
    TrainedNet.from_json(net.to_json())
    with pytest.raises(BadModel):
        TrainedNet.from_json(_broken(net.to_json(), edit))


def test_stratified_split_preserves_balance():
    y = np.array([0] * 80 + [1] * 20)
    train, test = stratified_split(y, 0.8, seed=0)
    assert len(train) == 80 and len(test) == 20
    assert (y[train] == 1).sum() == 16 and (y[test] == 1).sum() == 4
    assert sorted(np.concatenate([train, test])) == list(range(100))


def test_stratified_split_deterministic_and_varies_by_seed():
    y = np.tile([0, 1], 50)
    a = stratified_split(y, 0.8, seed=1)
    b = stratified_split(y, 0.8, seed=1)
    c = stratified_split(y, 0.8, seed=2)
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


def test_scenario_matrix_shares_splits():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((120, 3))
    y = (X[:, 2] + 0.3 * rng.standard_normal(120) > 0).astype(int)
    cols = {"weak": [0, 1], "strong": [0, 1, 2]}
    table, per_seed = scenario_matrix(X, y, cols, seeds=(0, 1),
                                      pso_cfg=TINY_PSO, bp_cfg=TINY_BP)
    assert set(table) == {"weak", "strong"}
    assert len(per_seed["weak"]) == 2
    # the informative column should clearly help
    assert table["strong"].auc > table["weak"].auc
    # confusion totals cover the same test rows for both scenarios
    for sid in cols:
        r = table[sid]
        assert r.tp + r.fp + r.tn + r.fn == 2 * 24


def test_gradient_empty_batch_raises():
    cfg = NetConfig(2, (2,))
    with pytest.raises(ValueError):
        gradient(cfg, np.zeros(cfg.n_params()), np.empty((0, 2)), np.empty(0))
