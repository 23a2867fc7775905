"""Logistic regression, ROC/AUC, classification metrics, stepwise selection.

AUC is computed as the Mann-Whitney statistic with ties counted half.
Stepwise selection adds the candidate maximizing in-sample AUC of the
refit logistic model, then removes any included feature whose removal
increases AUC, until neither move helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDesign, MatchPulseError, NoConvergence, SingleClass

SEPARATION_COEF_CAP = 30.0
STEPWISE_EPS = 1e-9         # an AUC gain counts only above this


def sigmoid(z):
    """The logistic link 1 / (1 + exp(-z)), with z clipped to [-500, 500]."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


@dataclass
class LogisticModel:
    coefficients: np.ndarray     # slopes, one per feature
    intercept: float
    iterations: int
    gradient_norm: float
    separation_flag: bool = False

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return sigmoid(X @ self.coefficients + self.intercept)


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    auc: float
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_json(self):
        return {
            "precision": self.precision, "recall": self.recall,
            "f1": self.f1, "auc": self.auc, "threshold": self.threshold,
            "confusion": {"tp": self.tp, "fp": self.fp,
                          "tn": self.tn, "fn": self.fn},
        }


@dataclass
class SelectionTrace:
    steps: list = field(default_factory=list)  # (action, feature, set, auc)
    final_features: list = field(default_factory=list)
    final_auc: float = 0.0

    def to_json(self):
        return {
            "steps": [
                {"action": a, "feature": f, "features": list(s), "auc": auc}
                for a, f, s, auc in self.steps
            ],
            "final_features": list(self.final_features),
            "final_auc": self.final_auc,
        }


def single_class(y):
    """True when the array y holds fewer than two distinct labels.

    min/max instead of plain np.unique (no return_inverse or axis), whose
    first call imports numpy.ma.
    """
    return not len(y) or y.min() == y.max()


def _check_two_classes(y):
    y = np.asarray(y)
    if single_class(y):
        raise SingleClass("need both classes present")
    return y


def fit_logistic(X, y, tol=1e-8, max_iter=100) -> LogisticModel:
    """Maximum-likelihood logistic fit via damped Newton iterations.

    Separable data is capped at an L-inf coefficient norm of 30 and
    flagged instead of failing; sparse binary features separate small
    samples routinely.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = _check_two_classes(y).astype(float)
    n, m = X.shape
    if n < m + 1:
        raise DegenerateDesign(f"{n} rows for {m} features")
    # constant columns and duplicated columns make the Hessian singular
    if m and (X.std(axis=0) == 0).any():
        raise DegenerateDesign("constant feature column")
    if m > 1:
        for i in range(m):
            for j in range(i + 1, m):
                if np.array_equal(X[:, i], X[:, j]):
                    raise DegenerateDesign(f"duplicate columns {i} and {j}")

    Xd = np.hstack([X, np.ones((n, 1))])
    beta = np.zeros(m + 1)

    def linear(b):
        return np.clip(Xd @ b, -500, 500)

    def nll(eta):
        return float(np.sum(np.log1p(np.exp(eta)) - y * eta))

    eta = linear(beta)
    current = nll(eta)
    grad_norm = np.inf
    separated = False
    for it in range(1, max_iter + 1):
        p = sigmoid(eta)
        grad = Xd.T @ (p - y)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            break
        w = np.maximum(p * (1 - p), 1e-10)
        H = (Xd * w[:, None]).T @ Xd
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            raise DegenerateDesign("singular Hessian") from None
        # backtracking line search; an accepted point keeps its eta and nll
        lam = 1.0
        for _ in range(30):
            cand = beta - lam * step
            cand_eta = linear(cand)
            cand_nll = nll(cand_eta)
            if cand_nll <= current:
                beta, eta, current = cand, cand_eta, cand_nll
                break
            lam *= 0.5
        else:
            beta = beta - lam * step
            eta = linear(beta)
            current = nll(eta)
        if np.abs(beta).max() > SEPARATION_COEF_CAP:
            beta = np.clip(beta, -SEPARATION_COEF_CAP, SEPARATION_COEF_CAP)
            separated = True
            p = sigmoid(Xd @ beta)
            grad_norm = float(np.linalg.norm(Xd.T @ (p - y)))
            break
    else:
        raise NoConvergence(f"gradient norm {grad_norm:.3g} after {max_iter} iters")
    return LogisticModel(beta[:m], float(beta[m]), it, grad_norm, separated)


def average_ranks(values):
    """1-based ranks of `values`, tied entries sharing their mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)     # the order within a tie changes no rank
    xs = values[order]
    bounds = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def auc_score(scores, labels):
    """AUC as the Mann-Whitney statistic, ties counted half (Hanley &
    McNeil 1982): the rank sum of the positives, without the ROC curve.
    NaN scores have no rank and are refused; infinite ones rank."""
    scores = np.asarray(scores, dtype=float)
    pos = _check_two_classes(labels).astype(int) == 1
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise MatchPulseError(f"cannot rank scores: {n_nan} of {len(scores)} "
                              "are NaN")
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def roc_auc(scores, labels):
    """(AUC, ROC points). The AUC is `auc_score`'s."""
    auc = auc_score(scores, labels)
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels)
    fps = np.cumsum(1 - sorted_labels)
    distinct = np.where(np.diff(sorted_scores))[0]
    idx = np.concatenate([distinct, [len(scores) - 1]])
    curve = [(0.0, 0.0)] + [
        (fps[i] / n_neg, tps[i] / n_pos) for i in idx
    ]
    return auc, curve


def classification_metrics(scores, labels, threshold=0.5) -> MetricsReport:
    scores = np.asarray(scores, dtype=float)
    labels = _check_two_classes(labels).astype(int)
    pred = (scores >= threshold).astype(int)
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    tn = int(np.sum((pred == 0) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    auc = auc_score(scores, labels)
    return MetricsReport(precision, recall, f1, auc, threshold, tp, fp, tn, fn)


def _auc_of_subset(X, y, subset, cache):
    key = tuple(subset)
    if key in cache:
        return cache[key]
    try:
        model = fit_logistic(X[:, list(subset)], y)
        auc = auc_score(model.predict_proba(X[:, list(subset)]), y)
    except DegenerateDesign:
        auc = None
    cache[key] = auc
    return auc


def stepwise_select(X, y, feature_ids=None) -> SelectionTrace:
    """Forward-backward stepwise selection under the in-sample AUC criterion.

    Every column of X is a candidate; `feature_ids` optionally names them
    in the trace. Ties break toward the lower feature index; degenerate
    candidate fits are skipped.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = _check_two_classes(y)
    n_cols = X.shape[1]
    if not n_cols:
        raise ValueError("need at least one candidate feature")
    names = feature_ids or [str(i) for i in range(n_cols)]

    cache = {}
    selected = []
    current_auc = 0.5  # empty model scores everyone equally
    trace = SelectionTrace()
    while True:
        moved = False
        # forward: best addition by AUC, lower index wins ties
        best = None
        for c in (c for c in range(n_cols) if c not in selected):
            auc = _auc_of_subset(X, y, sorted(selected + [c]), cache)
            if auc is None:
                continue
            if best is None or auc > best[0] + STEPWISE_EPS:
                best = (auc, c)
        if best and best[0] > current_auc + STEPWISE_EPS:
            selected = sorted(selected + [best[1]])
            current_auc = best[0]
            trace.steps.append(("add", names[best[1]],
                                [names[i] for i in selected], current_auc))
            moved = True
            # backward: drop anything whose removal increases AUC
            improved = True
            while improved and len(selected) > 1:
                improved = False
                for c in list(selected):
                    reduced = [s for s in selected if s != c]
                    auc = _auc_of_subset(X, y, reduced, cache)
                    if auc is not None and auc > current_auc + STEPWISE_EPS:
                        selected = reduced
                        current_auc = auc
                        trace.steps.append(("remove", names[c],
                                            [names[i] for i in selected],
                                            current_auc))
                        improved = True
                        break
        if not moved:
            break
    trace.final_features = [names[i] for i in selected]
    trace.final_auc = current_auc
    return trace
