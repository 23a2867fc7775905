"""Feed-forward point-outcome model trained by PSO-seeded backpropagation.

A small tanh network with a logistic output is trained on binary
cross-entropy. PSO searches the flattened parameter space first; its
global best seeds full-batch gradient descent. Scenario evaluation
compares the four input layers (Base, +M, +CP, +V) over shared splits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import BadModel, DimMismatch, NonFiniteLoss, SingleClass
from .stats import MetricsReport, classification_metrics

SCENARIO_ORDER = ["base", "base_m", "base_m_cp", "base_m_cp_v"]


@dataclass
class NetConfig:
    input_dim: int
    hidden: tuple = (8,)

    def layer_dims(self):
        return [self.input_dim] + list(self.hidden) + [1]

    def n_params(self):
        dims = self.layer_dims()
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class PsoConfig:
    swarm: int = 30
    iterations: int = 100
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    bound: float = 3.0
    velocity_clamp: float = 1.0
    seed: int = 0


@dataclass
class BpConfig:
    learning_rate: float = 0.05
    epochs: int = 500


@dataclass
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X):
        X = np.atleast_2d(X)
        return cls(X.min(axis=0), X.max(axis=0))

    def transform(self, X, clip=True):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        z = (X - self.mins) / safe
        z[:, span == 0] = 0.0
        if clip:
            z = np.clip(z, -0.5, 1.5)
        return z


@dataclass
class TrainedNet:
    config: NetConfig
    params: np.ndarray
    scaler: MinMaxScaler
    history: dict = field(default_factory=dict)
    seed: int = 0

    def predict_proba(self, X):
        return forward(self.config, self.params, self.scaler.transform(X))

    def to_json(self):
        return {
            "schema_version": 1,
            "config": {"input_dim": self.config.input_dim,
                       "hidden": list(self.config.hidden)},
            "params": self.params.tolist(),
            "scaler": {"mins": self.scaler.mins.tolist(),
                       "maxs": self.scaler.maxs.tolist()},
            "history": self.history,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc):
        """Rebuild a net from `to_json` output; BadModel if it does not fit."""
        try:
            cfg = NetConfig(doc["config"]["input_dim"],
                            tuple(doc["config"]["hidden"]))
            params = np.array(doc["params"], dtype=float)
            mins = np.array(doc["scaler"]["mins"], dtype=float)
            maxs = np.array(doc["scaler"]["maxs"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadModel(f"malformed model: {exc!r}") from None
        dims = cfg.layer_dims()
        if not all(type(d) is int and d > 0 for d in dims):
            raise BadModel(f"layer sizes must be positive integers: {dims}")
        if params.shape != (cfg.n_params(),):
            raise BadModel(f"model has {params.size} params, its "
                           f"layers {dims} need {cfg.n_params()}")
        if mins.shape != (cfg.input_dim,) or maxs.shape != (cfg.input_dim,):
            raise BadModel(f"scaler sizes {mins.size}/{maxs.size} do not "
                           f"match input_dim {cfg.input_dim}")
        return cls(cfg, params, MinMaxScaler(mins, maxs),
                   doc.get("history", {}), doc.get("seed", 0))


def _unflatten(config: NetConfig, params):
    """Per-layer (w, b) views of flat params: `(d_in, d_out)` weights and
    `(1, d_out)` biases.

    Stacked `(k, P)` params give `(k, d_in, d_out)` weights and
    `(k, 1, d_out)` biases, which broadcast over a `(k, n, d_in)` batch.
    The views share memory with C-contiguous params, so writing into them
    writes the flat vector.
    """
    dims = config.layer_dims()
    lead = params.shape[:-1]
    layers = []
    pos = 0
    for d_in, d_out in zip(dims, dims[1:]):
        w = params[..., pos:pos + d_in * d_out].reshape(lead + (d_in, d_out))
        pos += d_in * d_out
        b = params[..., pos:pos + d_out].reshape(lead + (1, d_out))
        pos += d_out
        layers.append((w, b))
    return layers


def _rows(config: NetConfig, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-1] != config.input_dim:
        raise DimMismatch(f"expected {config.input_dim} inputs, got {X.shape[-1]}")
    return X


def _layer_outputs(layers, X):
    """([X, hidden activations...], output probabilities) of one forward
    pass through `_unflatten` layers.

    Each layer is one broadcast `matmul`, so stacked params score every
    parameter vector in one call, bit for bit as `k` separate calls would.
    """
    activations = [X]
    a = X
    for w, b in layers[:-1]:
        a = a @ w
        a += b
        np.tanh(a, out=a)
        activations.append(a)
    w, b = layers[-1]
    z = a @ w
    z += b
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500, out=z)))
    return activations, p[..., 0]


def forward(config: NetConfig, params, X):
    """Network output probability for each row of X (or a single vector).

    `(k, P)` params give a `(k, n)` result, one row per parameter vector.
    """
    single = np.ndim(X) == 1
    layers = _unflatten(config, np.asarray(params, dtype=float))
    out = _layer_outputs(layers, _rows(config, X))[1]
    if single:
        out = out[..., 0]
        return float(out) if out.ndim == 0 else out
    return out


def _bce(p, y):
    p = np.clip(p, 1e-12, 1 - 1e-12)
    # the sum over n, then / n: what np.mean does, without its wrapper
    loss = -(y * np.log(p) + (1 - y) * np.log(1 - p)).sum(axis=-1) / p.shape[-1]
    return float(loss) if loss.ndim == 0 else loss


def bce_loss(config, params, X, y):
    """Mean binary cross-entropy; `(k, P)` params give `k` losses."""
    return _bce(forward(config, params, np.atleast_2d(X)), y)


def _backprop(layers, grad_layers, X, y):
    """BCE of one forward pass through `layers`; its gradient is written
    into `grad_layers`, the `_unflatten` views of a gradient buffer."""
    activations, p = _layer_outputs(layers, X)
    # BCE with sigmoid output: delta at the output pre-activation is (p - y)/n
    delta = (p - y)[..., None] / X.shape[-2]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=gw)
        delta.sum(axis=-2, keepdims=True, out=gb)
        if i > 0:
            delta = ((delta @ layers[i][0].swapaxes(-1, -2))
                     * (1.0 - activations[i] ** 2))
    return _bce(p, y)


def loss_and_gradient(config: NetConfig, params, X, y):
    """Mean binary cross-entropy and its exact gradient w.r.t. flat params,
    both from one forward pass.

    Stacked `(k, P)` params with `(k, n, d)` rows and `(k, n)` labels give
    `k` losses and a `(k, P)` gradient, bit for bit as `k` separate calls
    would.
    """
    X = _rows(config, X)
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    params = np.asarray(params, dtype=float)
    grad = np.empty(params.shape)
    loss = _backprop(_unflatten(config, params), _unflatten(config, grad), X,
                     np.asarray(y, dtype=float))
    return loss, grad


def gradient(config: NetConfig, params, X, y):
    """Exact gradient of mean binary cross-entropy w.r.t. flat params."""
    return loss_and_gradient(config, params, X, y)[1]


def pso_optimize(objective, dim, cfg: PsoConfig):
    """Global-best PSO over a box; returns (best position, value, trace).

    `objective` maps the `(swarm, dim)` positions to `swarm` scores and is
    called once per iteration; a non-finite score counts as +inf fitness.
    Fresh uniform r1/r2 are drawn per particle, iteration, and dimension;
    positions clip to the box and velocities to the clamp. Deterministic
    per seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    lo, hi = -cfg.bound, cfg.bound
    pos = rng.uniform(lo, hi, size=(cfg.swarm, dim))
    vel = rng.uniform(-cfg.velocity_clamp, cfg.velocity_clamp, size=(cfg.swarm, dim))

    def score(positions):
        fitness = np.asarray(objective(positions), dtype=float)
        if fitness.shape != (cfg.swarm,):
            raise ValueError(f"objective returned shape {fitness.shape}, "
                             f"expected ({cfg.swarm},)")
        return np.where(np.isfinite(fitness), fitness, np.inf)

    fitness = score(pos)
    p_best = pos.copy()
    p_best_val = fitness.copy()
    g_idx = int(np.argmin(fitness))
    g_best = pos[g_idx].copy()
    g_best_val = float(fitness[g_idx])
    trace = [g_best_val]

    for _ in range(cfg.iterations):
        r1 = rng.random((cfg.swarm, dim))
        r2 = rng.random((cfg.swarm, dim))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (p_best - pos)
               + cfg.social * r2 * (g_best - pos))
        vel = np.clip(vel, -cfg.velocity_clamp, cfg.velocity_clamp)
        pos = np.clip(pos + vel, lo, hi)
        fitness = score(pos)
        better = fitness < p_best_val
        p_best[better] = pos[better]
        p_best_val[better] = fitness[better]
        i = int(np.argmin(p_best_val))
        if p_best_val[i] < g_best_val:
            g_best_val = float(p_best_val[i])
            g_best = p_best[i].copy()
        trace.append(g_best_val)
    return g_best, g_best_val, trace


def _pso_start(X, y, net_cfg: NetConfig, pso_cfg: PsoConfig):
    """(scaler, scaled rows, labels, PSO best, its loss, PSO trace) of one net."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise SingleClass("training rows need both classes")
    scaler = MinMaxScaler.fit(X)
    Z = scaler.transform(X, clip=False)

    def objective(swarm):
        return bce_loss(net_cfg, swarm, Z, y)

    best, best_val, trace = pso_optimize(objective, net_cfg.n_params(), pso_cfg)
    if not np.isfinite(best_val):
        raise NonFiniteLoss("PSO found no finite-loss parameters")
    return scaler, Z, y, best, best_val, trace


def _train_nets(Xs, ys, net_cfg: NetConfig, pso_cfgs, bp_cfg: BpConfig):
    """Train one net per (X, y, PSO config), the gradient descents in lockstep.

    Each net fits its own scaler on its own rows and runs its own PSO. The
    k descents then share one forward and backward pass per epoch on the
    stacked `(k, n, d)` batch, with the params and the gradient updated in
    place through fixed per-layer views; each net gets bit for bit what a
    descent of its own would give. Every X must have the same shape.
    NonFiniteLoss if any net diverges.
    """
    scalers, Zs, ys, starts, start_losses, pso_traces = zip(*[
        _pso_start(X, y, net_cfg, pso_cfg)
        for X, y, pso_cfg in zip(Xs, ys, pso_cfgs)])
    Z, Y = np.stack(Zs), np.stack(ys)
    params = np.stack(starts)
    best_params = params.copy()
    best_loss = np.array(start_losses)
    losses = np.empty((bp_cfg.epochs, len(params)))
    grad = np.empty_like(params)
    # per-layer views, valid for the whole descent: params change in place
    layers, grad_layers = _unflatten(net_cfg, params), _unflatten(net_cfg, grad)
    # any overflow is divergence, though the clipped output keeps losses finite
    try:
        with np.errstate(over="raise"):
            if bp_cfg.epochs:
                _backprop(layers, grad_layers, Z, Y)
            for epoch in range(bp_cfg.epochs):
                params -= bp_cfg.learning_rate * grad
                # the loss of this step's params, and the next step's gradient
                loss = _backprop(layers, grad_layers, Z, Y)
                if not np.isfinite(loss).all():
                    raise NonFiniteLoss("gradient descent diverged")
                losses[epoch] = loss
                better = loss < best_loss
                np.copyto(best_loss, loss, where=better)
                np.copyto(best_params, params, where=better[:, None])
    except FloatingPointError:
        raise NonFiniteLoss("gradient descent diverged") from None

    return [
        TrainedNet(net_cfg, best_params[i], scalers[i],
                   {"pso_best": pso_traces[i], "bp_loss": losses[:, i].tolist(),
                    "final_loss": float(best_loss[i])},
                   pso_cfg.seed)
        for i, pso_cfg in enumerate(pso_cfgs)
    ]


def train_bp_pso(X, y, net_cfg: NetConfig = None, pso_cfg: PsoConfig = None,
                 bp_cfg: BpConfig = None, seed=0) -> TrainedNet:
    """Train on (X, y): PSO finds initial weights, gradient descent refines.

    The input scaler is fitted on the given (training) rows only. The
    returned parameters are the best-loss point seen across both phases,
    so the final training loss never exceeds the PSO-phase best.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    net, = _train_nets([X], [y], net_cfg or NetConfig(X.shape[1]),
                       [pso_cfg or PsoConfig(seed=seed)], bp_cfg or BpConfig())
    net.seed = seed
    return net


def stratified_split(y, ratio=0.8, seed=0):
    """Index split keeping the class balance; returns (train_idx, test_idx)."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(y):
        idx = np.where(y == cls)[0]
        rng.shuffle(idx)
        cut = int(round(ratio * len(idx)))
        train.extend(idx[:cut])
        test.extend(idx[cut:])
    return np.sort(np.array(train)), np.sort(np.array(test))


def scenario_matrix(X, y, scenario_columns, split_ratio=0.8, seeds=(0, 1, 2, 3, 4),
                    net_cfg_builder=None, pso_cfg=None, bp_cfg=None):
    """Mean test metrics per scenario over shared stratified splits.

    `scenario_columns` maps scenario id -> list of column indices into X.
    Each seed produces one split reused by every scenario so scenarios
    differ only in their input columns. A scenario's nets, one per seed,
    train in lockstep: every split has the same training size.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y)
    splits = [stratified_split(y, split_ratio, seed) for seed in seeds]
    if any(len(np.unique(y[test_idx])) < 2 for _, test_idx in splits):
        raise SingleClass("test split lost a class")
    pso_cfgs = [dataclasses.replace(pso_cfg or PsoConfig(), seed=seed)
                for seed in seeds]
    results = {}
    for sid, cols in scenario_columns.items():
        cols = list(cols)
        net_cfg = (net_cfg_builder(len(cols)) if net_cfg_builder
                   else NetConfig(len(cols)))
        nets = _train_nets([X[np.ix_(train_idx, cols)] for train_idx, _ in splits],
                           [y[train_idx] for train_idx, _ in splits],
                           net_cfg, pso_cfgs, bp_cfg or BpConfig())
        results[sid] = [
            classification_metrics(net.predict_proba(X[np.ix_(test_idx, cols)]),
                                   y[test_idx])
            for net, (_, test_idx) in zip(nets, splits)]
    table = {}
    for sid, reports in results.items():
        table[sid] = MetricsReport(
            precision=float(np.mean([r.precision for r in reports])),
            recall=float(np.mean([r.recall for r in reports])),
            f1=float(np.mean([r.f1 for r in reports])),
            auc=float(np.mean([r.auc for r in reports])),
            threshold=0.5,
            tp=sum(r.tp for r in reports), fp=sum(r.fp for r in reports),
            tn=sum(r.tn for r in reports), fn=sum(r.fn for r in reports),
        )
    return table, results
