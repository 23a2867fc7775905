"""Feed-forward point-outcome model trained by PSO-seeded backpropagation.

A small tanh network with a logistic output is trained on binary
cross-entropy. PSO searches the flattened parameter space first, scoring
the swarm in float32; its global best seeds full-batch gradient descent,
which runs in float64. Scenario evaluation compares the four input layers
(Base, +M, +CP, +V) over shared splits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import BadLabels, BadModel, DimMismatch, NonFiniteLoss, SingleClass
from .ingest import MinMaxScaler
from .stats import MetricsReport, classification_metrics, sigmoid, single_class

# global-best PSO: velocity weights, the search box [-BOUND, BOUND] and the
# per-dimension speed limit
INERTIA, COGNITIVE, SOCIAL = 0.7, 1.5, 1.5
BOUND = 3.0
VELOCITY_CLAMP = 1.0
# probabilities are held in [PROB_FLOOR, 1 - PROB_FLOOR] inside the log loss
PROB_FLOOR = 1e-12


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
    seed: int = 0


@dataclass
class BpConfig:
    learning_rate: float = 0.05
    epochs: int = 500


@dataclass
class TrainedNet:
    """A trained net, its input scaler and its training record.

    `history` holds `pso_best`, the PSO global best per iteration as the
    float32 swarm scorer ranked it, and two float64 records: `bp_loss`, the
    training loss after each gradient step, and `final_loss`, the loss of
    `params`.
    """

    config: NetConfig
    params: np.ndarray
    scaler: MinMaxScaler
    history: dict = field(default_factory=dict)
    seed: int = 0

    def predict_proba(self, X):
        return forward(self.config, self.params, self.scaler.transform(X))

    def to_json(self):
        return {
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
        # OverflowError: an integer too large for a float, such as 10**400
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadModel(f"malformed model: {exc!r}") from None
        dims = cfg.layer_dims()
        if not all(type(d) is int and d > 0 for d in dims):
            raise BadModel(f"layer sizes must be positive integers: {dims}")
        if params.ndim != 1:
            raise BadModel(f"params must be a flat list, got shape {params.shape}")
        if params.shape != (cfg.n_params(),):
            raise BadModel(f"model has {params.size} params, its "
                           f"layers {dims} need {cfg.n_params()}")
        if mins.shape != (cfg.input_dim,) or maxs.shape != (cfg.input_dim,):
            raise BadModel(f"scaler sizes {mins.size}/{maxs.size} do not "
                           f"match input_dim {cfg.input_dim}")
        for name, values in (("params", params), ("scaler mins", mins),
                             ("scaler maxs", maxs)):
            if not np.isfinite(values).all():
                raise BadModel(f"{name} must be finite")
        with np.errstate(over="ignore"):
            span = maxs - mins
        if not (np.isfinite(span) & (span >= 0)).all():
            raise BadModel("scaler maxs - mins must be finite and >= 0")
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
    # one output unit: drop its axis first, so the add runs along the rows
    z = (a @ w)[..., 0]
    z += b[..., 0]
    return activations, sigmoid(z)


def forward(config: NetConfig, params, X):
    """Network output probability for each row of X; a 1-D X is one row.

    `(k, P)` params give a `(k, n)` result, one row per parameter vector.
    """
    layers = _unflatten(config, np.asarray(params, dtype=float))
    return _layer_outputs(layers, _rows(config, X))[1]


def _bce(p, y):
    """Mean cross-entropy of probabilities p against 0/1 labels y."""
    q = np.maximum(p, PROB_FLOOR)
    np.minimum(q, 1 - PROB_FLOOR, out=q)
    # one log per point, for 0/1 labels bit for bit y log p + (1 - y) log(1 - p):
    # 1·x = x, 0·x = ±0 and x + ±0 = x
    q = np.where(y == 1, q, 1 - q)
    np.log(q, out=q)
    # the sum over n, then / n: what np.mean does, without its wrapper
    loss = -q.sum(axis=-1) / q.shape[-1]
    return float(loss) if loss.ndim == 0 else loss


def bce_loss(config, params, X, y):
    """Mean binary cross-entropy against 0/1 labels y; `(k, P)` params
    give `k` losses."""
    return _bce(forward(config, params, X), y)


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
    It gets a read-only view of one positions array that is updated in
    place between iterations, so it must copy any rows it keeps.
    Fresh uniform r1/r2 are drawn per particle, iteration, and dimension;
    positions clip to [-BOUND, BOUND] and velocities to VELOCITY_CLAMP.
    Deterministic per seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    pos = rng.uniform(-BOUND, BOUND, size=(cfg.swarm, dim))
    vel = rng.uniform(-VELOCITY_CLAMP, VELOCITY_CLAMP, size=(cfg.swarm, dim))
    view = pos.view()
    view.flags.writeable = False

    def score():
        fitness = np.asarray(objective(view), dtype=float)
        if fitness.shape != (cfg.swarm,):
            raise ValueError(f"objective returned shape {fitness.shape}, "
                             f"expected ({cfg.swarm},)")
        return np.where(np.isfinite(fitness), fitness, np.inf)

    fitness = score()
    p_best = pos.copy()
    p_best_val = fitness.copy()
    g_idx = int(np.argmin(fitness))
    g_best = pos[g_idx].copy()
    g_best_val = float(fitness[g_idx])
    trace = [g_best_val]
    r1, r2, gap = np.empty((3, cfg.swarm, dim))

    for _ in range(cfg.iterations):
        rng.random(out=r1)
        rng.random(out=r2)
        # vel = (inertia·vel + (c1·r1)·(p_best − pos)) + (c2·r2)·(g_best − pos)
        vel *= INERTIA
        r1 *= COGNITIVE
        r1 *= np.subtract(p_best, pos, out=gap)
        vel += r1
        r2 *= SOCIAL
        r2 *= np.subtract(g_best, pos, out=gap)
        vel += r2
        np.maximum(vel, -VELOCITY_CLAMP, out=vel)
        np.minimum(vel, VELOCITY_CLAMP, out=vel)
        pos += vel
        np.maximum(pos, -BOUND, out=pos)
        np.minimum(pos, BOUND, out=pos)
        fitness = score()
        better = fitness < p_best_val
        np.copyto(p_best, pos, where=better[:, None])
        np.copyto(p_best_val, fitness, where=better)
        i = int(np.argmin(p_best_val))
        if p_best_val[i] < g_best_val:
            g_best_val = float(p_best_val[i])
            g_best = p_best[i].copy()
        trace.append(g_best_val)
    return g_best, g_best_val, trace


def _swarm_scorer(config: NetConfig, Z, y):
    """Mean cross-entropy of each `(swarm, P)` parameter vector on scaled
    rows Z and 0/1 labels y, computed in float32 and summed in float64.

    The first layer is one broadcast `[Z, 1] @ [w; b]` per particle: the
    flat params store a layer's weight rows and then its bias, so `[w; b]`
    is a reshape of the float32 swarm. A particle's score does not depend
    on the rest of the swarm. The loss is log(1 + exp(u)) of the signed
    logit u = (1 − 2y)·z, capped at −log(PROB_FLOOR) as `bce_loss` caps it.
    """
    n, d = Z.shape
    width = config.layer_dims()[1]
    folded = (d + 1) * width
    Z1 = np.ones((n, d + 1), dtype=np.float32)
    Z1[:, :d] = Z
    sign = (1.0 - 2.0 * y).astype(np.float32)
    cap = np.float32(-np.log(PROB_FLOOR))

    def score(swarm):
        P = swarm.astype(np.float32)
        a = Z1 @ P[:, :folded].reshape(len(P), d + 1, width)
        for w, b in _unflatten(config, P)[1:]:
            np.tanh(a, out=a)
            a = a @ w
            a += b
        u = a[..., 0]
        u *= sign
        # exp(80) is finite in float32, and log1p(exp(80)) is above the cap
        np.maximum(u, -80, out=u)
        np.minimum(u, 80, out=u)
        np.exp(u, out=u)
        np.log1p(u, out=u)
        np.minimum(u, cap, out=u)
        return u.sum(axis=-1, dtype=np.float64) / n

    return score


def _pso_start(X, y, net_cfg: NetConfig, pso_cfg: PsoConfig):
    """(scaler, scaled rows, labels, PSO best, its loss, PSO trace) of one net.

    PSO ranks the swarm with the float32 `_swarm_scorer`, and the trace
    holds those scores. The best position's loss is `bce_loss` in float64,
    as is every loss gradient descent compares. BadLabels unless y is 0/1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    other = y[(y != 0) & (y != 1)]
    if other.size:
        raise BadLabels(f"training labels must be 0 or 1, got {other[0]:g}")
    if single_class(y):
        raise SingleClass("training rows need both classes")
    scaler = MinMaxScaler.fit(X)
    # the training rows lie in [0, 1], so the clip moves no bit
    Z = scaler.transform(X)
    best, _, trace = pso_optimize(_swarm_scorer(net_cfg, Z, y),
                                  net_cfg.n_params(), pso_cfg)
    best_val = bce_loss(net_cfg, best, Z, y)
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
    grad, step = np.empty_like(params), np.empty_like(params)
    # per-layer views, valid for the whole descent: params change in place
    layers, grad_layers = _unflatten(net_cfg, params), _unflatten(net_cfg, grad)
    # any overflow is divergence, though the clipped output keeps losses finite
    try:
        with np.errstate(over="raise"):
            if bp_cfg.epochs:
                _backprop(layers, grad_layers, Z, Y)
            for epoch in range(bp_cfg.epochs):
                params -= np.multiply(grad, bp_cfg.learning_rate, out=step)
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
                 bp_cfg: BpConfig = None) -> TrainedNet:
    """Train on (X, y): PSO finds initial weights, gradient descent refines.

    The input scaler is fitted on the given (training) rows only. The
    returned parameters are the best-loss point seen across both phases,
    so the final training loss never exceeds the PSO-phase best. The net
    records the seed its PSO ran with, `pso_cfg.seed`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _train_nets([X], [y], net_cfg or NetConfig(X.shape[1]),
                       [pso_cfg or PsoConfig()], bp_cfg or BpConfig())[0]


def stratified_split(y, ratio=0.8, seed=0):
    """Index split keeping the class balance; returns (train_idx, test_idx)."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in sorted(set(y.tolist())):
        idx = np.where(y == cls)[0]
        rng.shuffle(idx)
        cut = int(round(ratio * len(idx)))
        train.extend(idx[:cut])
        test.extend(idx[cut:])
    # dtype: an empty side must still index arrays
    return np.sort(np.array(train, dtype=int)), np.sort(np.array(test, dtype=int))


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
    if any(single_class(y[test_idx]) for _, test_idx in splits):
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
