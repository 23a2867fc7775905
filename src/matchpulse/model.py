"""Feed-forward point-outcome model trained by PSO-seeded backpropagation.

A small tanh network with a logistic output is trained on binary
cross-entropy. PSO searches the flattened parameter space first; its
global best seeds full-batch gradient descent. Scenario evaluation
compares the four input layers (Base, +M, +CP, +V) over shared splits.
"""

from __future__ import annotations

import json
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

    def save(self, stream):
        json.dump(self.to_json(), stream, indent=1)

    @classmethod
    def load(cls, stream):
        return cls.from_json(json.load(stream))


def _unflatten(config: NetConfig, params):
    dims = config.layer_dims()
    layers = []
    pos = 0
    for i in range(len(dims) - 1):
        w = params[pos:pos + dims[i] * dims[i + 1]].reshape(dims[i], dims[i + 1])
        pos += dims[i] * dims[i + 1]
        b = params[pos:pos + dims[i + 1]]
        pos += dims[i + 1]
        layers.append((w, b))
    return layers


def forward(config: NetConfig, params, X):
    """Network output probability for each row of X (or a single vector)."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    a = np.atleast_2d(X)
    if a.shape[1] != config.input_dim:
        raise DimMismatch(f"expected {config.input_dim} inputs, got {a.shape[1]}")
    layers = _unflatten(config, np.asarray(params, dtype=float))
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
    w, b = layers[-1]
    out = 1.0 / (1.0 + np.exp(-np.clip(a @ w + b, -500, 500)))
    out = out[:, 0]
    return float(out[0]) if single else out


def bce_loss(config, params, X, y):
    p = np.clip(forward(config, params, np.atleast_2d(X)), 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def gradient(config: NetConfig, params, X, y):
    """Exact gradient of mean binary cross-entropy w.r.t. flat params."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if X.shape[1] != config.input_dim:
        raise DimMismatch(f"expected {config.input_dim} inputs, got {X.shape[1]}")
    y = np.asarray(y, dtype=float)
    layers = _unflatten(config, np.asarray(params, dtype=float))
    n = X.shape[0]

    activations = [X]
    a = X
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
        activations.append(a)
    w, b = layers[-1]
    p = 1.0 / (1.0 + np.exp(-np.clip(a @ w + b, -500, 500)))

    # BCE with sigmoid output: delta at the output pre-activation is (p - y)/n
    delta = (p - y[:, None]) / n
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        gw = activations[i].T @ delta
        gb = delta.sum(axis=0)
        grads.append((gw, gb))
        if i > 0:
            delta = (delta @ w.T) * (1.0 - activations[i] ** 2)
    grads.reverse()
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def pso_optimize(objective, dim, cfg: PsoConfig):
    """Global-best PSO over a box; returns (best position, value, trace).

    Fresh uniform r1/r2 are drawn per particle, iteration, and dimension;
    positions clip to the box and velocities to the clamp. Objective
    failures count as +inf fitness. Deterministic per seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
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


def train_bp_pso(X, y, net_cfg: NetConfig = None, pso_cfg: PsoConfig = None,
                 bp_cfg: BpConfig = None, seed=0) -> TrainedNet:
    """Train on (X, y): PSO finds initial weights, gradient descent refines.

    The input scaler is fitted on the given (training) rows only. The
    returned parameters are the best-loss point seen across both phases,
    so the final training loss never exceeds the PSO-phase best.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise SingleClass("training rows need both classes")
    net_cfg = net_cfg or NetConfig(X.shape[1])
    pso_cfg = pso_cfg or PsoConfig(seed=seed)
    bp_cfg = bp_cfg or BpConfig()

    scaler = MinMaxScaler.fit(X)
    Z = scaler.transform(X, clip=False)

    def objective(params):
        return bce_loss(net_cfg, params, Z, y)

    best, best_val, pso_trace = pso_optimize(objective, net_cfg.n_params(), pso_cfg)
    if not np.isfinite(best_val):
        raise NonFiniteLoss("PSO found no finite-loss parameters")

    params = best.copy()
    best_params, best_loss = params.copy(), best_val
    bp_trace = []
    for _ in range(bp_cfg.epochs):
        params = params - bp_cfg.learning_rate * gradient(net_cfg, params, Z, y)
        loss = bce_loss(net_cfg, params, Z, y)
        if not np.isfinite(loss):
            raise NonFiniteLoss("gradient descent diverged")
        bp_trace.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_params = params.copy()

    return TrainedNet(
        net_cfg, best_params, scaler,
        {"pso_best": pso_trace, "bp_loss": bp_trace, "final_loss": best_loss},
        seed,
    )


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
    differ only in their input columns.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y)
    results = {sid: [] for sid in scenario_columns}
    for seed in seeds:
        train_idx, test_idx = stratified_split(y, split_ratio, seed)
        if len(np.unique(y[test_idx])) < 2:
            raise SingleClass("test split lost a class")
        for sid, cols in scenario_columns.items():
            cols = list(cols)
            net_cfg = (net_cfg_builder(len(cols)) if net_cfg_builder
                       else NetConfig(len(cols)))
            p_cfg = pso_cfg or PsoConfig()
            p_cfg = PsoConfig(p_cfg.swarm, p_cfg.iterations, p_cfg.inertia,
                              p_cfg.cognitive, p_cfg.social, p_cfg.bound,
                              p_cfg.velocity_clamp, seed=seed)
            net = train_bp_pso(X[np.ix_(train_idx, cols)], y[train_idx],
                               net_cfg, p_cfg, bp_cfg, seed=seed)
            scores = net.predict_proba(X[np.ix_(test_idx, cols)])
            results[sid].append(classification_metrics(scores, y[test_idx]))
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
