import dataclasses
import json
import warnings

import numpy as np
import pytest

from matchpulse.errors import BadModel, DimMismatch, NonFiniteLoss, SingleClass
from matchpulse.model import (
    BpConfig,
    MinMaxScaler,
    NetConfig,
    PsoConfig,
    TrainedNet,
    _train_nets,
    bce_loss,
    forward,
    gradient,
    loss_and_gradient,
    pso_optimize,
    scenario_matrix,
    stratified_split,
    train_bp_pso,
)
from matchpulse.stats import classification_metrics

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
    # a stacked (k, n, d) batch is checked on d, not on its row count n
    P = np.zeros((3, cfg.n_params()))
    with pytest.raises(DimMismatch):
        forward(cfg, P, np.ones((3, 2, 5)))
    assert forward(cfg, P, np.ones((3, 5, 2))).shape == (3, 5)


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


def sphere(P):
    return np.sum(P ** 2, axis=1)


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
    best, _, _ = pso_optimize(lambda P: -np.sum(P, axis=1), 3, cfg)
    assert np.all(np.abs(best) <= 0.7 + 1e-12)


def test_pso_objective_failures_become_inf():
    def sometimes_bad(P):
        return np.where(P[:, 0] > 0, np.nan, sphere(P))
    best, val, _ = pso_optimize(sometimes_bad, 2, PsoConfig(iterations=30, seed=2))
    assert np.isfinite(val)
    assert best[0] <= 0


def test_pso_objective_exception_propagates():
    def broken(P):
        raise RuntimeError("boom")
    with pytest.raises(RuntimeError, match="boom"):
        pso_optimize(broken, 2, PsoConfig(iterations=3, seed=0))


def test_pso_scores_whole_swarm_once_per_iteration():
    shapes = []

    def record(P):
        shapes.append(P.shape)
        return sphere(P)
    pso_optimize(record, 4, PsoConfig(swarm=7, iterations=5, seed=0))
    assert shapes == [(7, 4)] * 6
    with pytest.raises(ValueError):
        pso_optimize(lambda P: sphere(P)[:-1], 4, PsoConfig(swarm=7, seed=0))


# ------------------------------------------- per-particle reference loops
# The model scores a whole swarm, and a backprop epoch, with one forward
# pass. These are the loops it replaced, kept as bit-for-bit oracles.

def reference_layers(config, params):
    dims = config.layer_dims()
    layers, pos = [], 0
    for i in range(len(dims) - 1):
        w = params[pos:pos + dims[i] * dims[i + 1]].reshape(dims[i], dims[i + 1])
        pos += dims[i] * dims[i + 1]
        layers.append((w, params[pos:pos + dims[i + 1]]))
        pos += dims[i + 1]
    return layers


def reference_forward(config, params, X):
    a = X
    layers = reference_layers(config, params)
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
    w, b = layers[-1]
    return (1.0 / (1.0 + np.exp(-np.clip(a @ w + b, -500, 500))))[:, 0]


def reference_bce_loss(config, params, X, y):
    p = np.clip(reference_forward(config, params, X), 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def reference_gradient(config, params, X, y):
    layers = reference_layers(config, params)
    activations = [X]
    a = X
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
        activations.append(a)
    w, b = layers[-1]
    p = 1.0 / (1.0 + np.exp(-np.clip(a @ w + b, -500, 500)))
    delta = (p - y[:, None]) / X.shape[0]
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        grads.append((activations[i].T @ delta, delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ w.T) * (1.0 - activations[i] ** 2)
    grads.reverse()
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def reference_pso(objective, dim, cfg):
    """One scalar objective call per particle; failures count as +inf."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = -cfg.bound, cfg.bound
    pos = rng.uniform(lo, hi, size=(cfg.swarm, dim))
    vel = rng.uniform(-cfg.velocity_clamp, cfg.velocity_clamp, size=(cfg.swarm, dim))

    def safe_eval(x):
        try:
            v = objective(x)
            return v if np.isfinite(v) else np.inf
        except Exception:
            return np.inf

    fitness = np.array([safe_eval(p) for p in pos])
    p_best, p_best_val = pos.copy(), fitness.copy()
    g_idx = int(np.argmin(fitness))
    g_best, g_best_val = pos[g_idx].copy(), float(fitness[g_idx])
    trace = [g_best_val]
    for _ in range(cfg.iterations):
        r1 = rng.random((cfg.swarm, dim))
        r2 = rng.random((cfg.swarm, dim))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (p_best - pos)
               + cfg.social * r2 * (g_best - pos))
        vel = np.clip(vel, -cfg.velocity_clamp, cfg.velocity_clamp)
        pos = np.clip(pos + vel, lo, hi)
        fitness = np.array([safe_eval(p) for p in pos])
        better = fitness < p_best_val
        p_best[better] = pos[better]
        p_best_val[better] = fitness[better]
        i = int(np.argmin(p_best_val))
        if p_best_val[i] < g_best_val:
            g_best_val = float(p_best_val[i])
            g_best = p_best[i].copy()
        trace.append(g_best_val)
    return g_best, g_best_val, trace


def reference_train(X, y, net_cfg, pso_cfg, bp_cfg):
    """Per-particle PSO, then two calls (gradient, loss) per epoch."""
    Z = MinMaxScaler.fit(X).transform(X, clip=False)
    best, best_val, pso_trace = reference_pso(
        lambda p: reference_bce_loss(net_cfg, p, Z, y), net_cfg.n_params(),
        pso_cfg)
    params = best.copy()
    best_params, best_loss = params.copy(), best_val
    bp_trace = []
    for _ in range(bp_cfg.epochs):
        params = params - bp_cfg.learning_rate * reference_gradient(
            net_cfg, params, Z, y)
        loss = reference_bce_loss(net_cfg, params, Z, y)
        bp_trace.append(loss)
        if loss < best_loss:
            best_loss, best_params = loss, params.copy()
    return best_params, pso_trace, bp_trace, best_loss


@pytest.mark.parametrize("hidden", [(8,), (4, 3)])
def test_train_equals_per_particle_reference(hidden):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((90, 5)) * [1.0, 3.0, 0.1, 10.0, 1.0]
    y = (X[:, 0] + 0.2 * X[:, 3] + rng.standard_normal(90) > 0).astype(float)
    net_cfg = NetConfig(5, hidden)
    pso_cfg = PsoConfig(swarm=12, iterations=25, seed=12)
    bp_cfg = BpConfig(learning_rate=0.2, epochs=40)
    net = train_bp_pso(X, y, net_cfg, pso_cfg, bp_cfg, seed=12)
    params, pso_trace, bp_trace, final_loss = reference_train(
        X, y, net_cfg, pso_cfg, bp_cfg)
    assert np.array_equal(net.params, params)
    assert net.history["pso_best"] == pso_trace
    assert net.history["bp_loss"] == bp_trace
    assert net.history["final_loss"] == final_loss


@pytest.mark.parametrize("hidden", [(8,), (4, 3), (1,)])
def test_forward_stacked_params_equal_row_by_row(hidden):
    rng = np.random.default_rng(13)
    cfg = NetConfig(4, hidden)
    P = rng.standard_normal((6, cfg.n_params()))
    X = rng.standard_normal((50, 4))
    y = rng.integers(0, 2, size=50).astype(float)
    stacked = forward(cfg, P, X)
    assert stacked.shape == (6, 50)
    for k in range(6):
        assert np.array_equal(stacked[k], forward(cfg, P[k], X))
        assert np.array_equal(stacked[k], reference_forward(cfg, P[k], X))
    losses = bce_loss(cfg, P, X, y)
    assert losses.tolist() == [bce_loss(cfg, p, X, y) for p in P]
    assert forward(cfg, P, X[0]).tolist() == [forward(cfg, p, X[0]) for p in P]


def test_loss_and_gradient_equal_separate_calls():
    rng = np.random.default_rng(14)
    for hidden in [(8,), (4, 3)]:
        cfg = NetConfig(3, hidden)
        params = rng.standard_normal(cfg.n_params())
        X = rng.standard_normal((40, 3))
        y = rng.integers(0, 2, size=40).astype(float)
        loss, grad = loss_and_gradient(cfg, params, X, y)
        assert loss == bce_loss(cfg, params, X, y)
        assert loss == reference_bce_loss(cfg, params, X, y)
        assert np.array_equal(grad, reference_gradient(cfg, params, X, y))
        # stacked (k, P) params, each with its own (n, d) batch
        P = rng.standard_normal((4, cfg.n_params()))
        Xs = rng.standard_normal((4, 40, 3))
        ys = rng.integers(0, 2, size=(4, 40)).astype(float)
        losses, grads = loss_and_gradient(cfg, P, Xs, ys)
        assert losses.shape == (4,) and grads.shape == P.shape
        for k in range(4):
            loss, grad = loss_and_gradient(cfg, P[k], Xs[k], ys[k])
            assert losses[k] == loss
            assert np.array_equal(grads[k], grad)


def train_sets(rng, k, n, d):
    Xs = [rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
          for _ in range(k)]
    ys = [(X[:, 0] / X[:, 0].std() + rng.standard_normal(n) > 0).astype(float)
          for X in Xs]
    return Xs, ys


@pytest.mark.parametrize("hidden", [(8,), (4, 3)])
def test_lockstep_nets_equal_per_net_reference(hidden):
    rng = np.random.default_rng(16)
    Xs, ys = train_sets(rng, 3, 70, 4)
    net_cfg = NetConfig(4, hidden)
    pso_cfgs = [PsoConfig(swarm=10, iterations=20, seed=s) for s in (21, 22, 23)]
    bp_cfg = BpConfig(learning_rate=1.0, epochs=40)
    nets = _train_nets(Xs, ys, net_cfg, pso_cfgs, bp_cfg)
    assert len(nets) == 3
    # the step is large enough that in some epoch one net's loss improves on
    # its best and another's does not, so the best points are tracked per net
    losses = np.array([[n.history["pso_best"][-1]] + n.history["bp_loss"]
                       for n in nets])
    improved = losses[:, 1:] < np.minimum.accumulate(losses, axis=1)[:, :-1]
    assert (improved.any(axis=0) & ~improved.all(axis=0)).any()
    for net, X, y, pso_cfg in zip(nets, Xs, ys, pso_cfgs):
        params, pso_trace, bp_trace, final_loss = reference_train(
            X, y, net_cfg, pso_cfg, bp_cfg)
        assert np.array_equal(net.params, params)
        assert net.history["pso_best"] == pso_trace
        assert net.history["bp_loss"] == bp_trace
        assert net.history["final_loss"] == final_loss
        assert net.seed == pso_cfg.seed


def test_lockstep_divergence_of_one_net_raises():
    # at this learning rate the second dataset's descent overflows, while
    # the other two stay finite on their own (their own limits are about
    # 7.0e307 and 9e307; the second's is 6.7e307)
    rng = np.random.default_rng(17)
    Xs, ys = train_sets(rng, 3, 60, 3)
    net_cfg = NetConfig(3, (4,))
    pso_cfgs = [PsoConfig(swarm=8, iterations=5, seed=s) for s in range(3)]
    bp_cfg = BpConfig(learning_rate=6.9e307, epochs=50)
    with np.errstate(all="ignore"):
        _train_nets([Xs[0], Xs[2]], [ys[0], ys[2]], net_cfg,
                    [pso_cfgs[0], pso_cfgs[2]], bp_cfg)
        with pytest.raises(NonFiniteLoss, match="diverged"):
            train_bp_pso(Xs[1], ys[1], net_cfg, pso_cfgs[1], bp_cfg)
        with pytest.raises(NonFiniteLoss, match="diverged"):
            _train_nets(Xs, ys, net_cfg, pso_cfgs, bp_cfg)


def test_overflowing_descent_raises_non_finite_loss():
    # the clipped output keeps this loss finite while the params overflow
    rng = np.random.default_rng(17)
    Xs, ys = train_sets(rng, 1, 60, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLoss, match="diverged"):
            train_bp_pso(Xs[0], ys[0], NetConfig(3, (4,)), TINY_PSO,
                         BpConfig(learning_rate=1.7e308, epochs=50))


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


def test_train_without_epochs_keeps_pso_best():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 2))
    y = (X[:, 0] > 0).astype(float)
    net = train_bp_pso(X, y, NetConfig(2, (3,)), TINY_PSO,
                       BpConfig(epochs=0), seed=8)
    assert net.history["bp_loss"] == []
    assert net.history["final_loss"] == net.history["pso_best"][-1]


def test_train_single_class_raises():
    with pytest.raises(SingleClass):
        train_bp_pso(np.ones((10, 1)), np.ones(10))


def test_save_load_roundtrip():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 2))
    y = (X[:, 0] > 0).astype(float)
    net = train_bp_pso(X, y, NetConfig(2, (3,)), TINY_PSO, TINY_BP, seed=6)
    loaded = TrainedNet.from_json(json.loads(json.dumps(net.to_json())))
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


def reference_scenario_reports(X, y, scenario_columns, split_ratio, seeds,
                               net_cfg_builder, pso_cfg, bp_cfg):
    """One `train_bp_pso` call per seed and scenario: the loop that lockstep
    training replaced, kept as an oracle for the per-seed reports."""
    results = {sid: [] for sid in scenario_columns}
    for seed in seeds:
        train_idx, test_idx = stratified_split(y, split_ratio, seed)
        for sid, cols in scenario_columns.items():
            net = train_bp_pso(X[np.ix_(train_idx, cols)], y[train_idx],
                               net_cfg_builder(len(cols)),
                               dataclasses.replace(pso_cfg, seed=seed), bp_cfg,
                               seed=seed)
            scores = net.predict_proba(X[np.ix_(test_idx, cols)])
            results[sid].append(classification_metrics(scores, y[test_idx]))
    return results


@pytest.mark.parametrize("hidden", [(8,), (4, 3)])
def test_scenario_matrix_equals_per_net_loop(hidden):
    rng = np.random.default_rng(15)
    X = rng.standard_normal((110, 4)) * [1.0, 5.0, 0.2, 1.0]
    y = (X[:, 0] + X[:, 3] + rng.standard_normal(110) > 0).astype(int)
    cols = {"two": [0, 1], "four": [0, 1, 2, 3]}
    builder = lambda d: NetConfig(d, hidden)
    _, per_seed = scenario_matrix(X, y, cols, 0.8, (3, 4, 5), builder,
                                  TINY_PSO, TINY_BP)
    assert per_seed == reference_scenario_reports(
        X, y, cols, 0.8, (3, 4, 5), builder, TINY_PSO, TINY_BP)


def test_gradient_empty_batch_raises():
    cfg = NetConfig(2, (2,))
    with pytest.raises(ValueError):
        gradient(cfg, np.zeros(cfg.n_params()), np.empty((0, 2)), np.empty(0))
