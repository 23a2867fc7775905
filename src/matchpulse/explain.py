"""Exact Shapley attribution of a predictor over a small feature set.

The value function is the marginal expectation: f(S) is the mean
prediction over background rows with the instance's values substituted
on S. All 2^|F| subsets are enumerated, so the feature count is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import EmptyBackground, TooManyFeatures

MAX_FEATURES = 15
BLOCK_ROWS = 2048       # stacked rows per `predict` call


@dataclass
class ShapConfig:
    background: np.ndarray      # rows sampled from the training data
    max_features: int = MAX_FEATURES

    def __post_init__(self):
        self.background = np.atleast_2d(np.asarray(self.background, dtype=float))
        if self.background.shape[0] == 0:
            raise EmptyBackground("background sample is empty")


@dataclass
class ShapReport:
    phi: np.ndarray             # per-feature Shapley values for one instance
    base_value: float
    prediction: float
    feature_ids: list = field(default_factory=list)

    def to_json(self):
        return {
            "phi": self.phi.tolist(),
            "base_value": self.base_value,
            "prediction": self.prediction,
            "feature_ids": self.feature_ids,
        }


def _subset_values(predict, instance, cfg: ShapConfig):
    """Mean prediction for every subset of features held at instance values.

    Coalitions are scored in blocks of about BLOCK_ROWS stacked rows, one
    `predict` call per block.
    """
    bg = cfg.background
    n_features = len(instance)
    subsets = [subset for size in range(n_features + 1)
               for subset in combinations(range(n_features), size)]
    mask = np.zeros((len(subsets), n_features), dtype=bool)
    for row, subset in enumerate(subsets):
        mask[row, list(subset)] = True
    per_block = max(1, BLOCK_ROWS // len(bg))
    values = {}
    for start in range(0, len(subsets), per_block):
        block = mask[start:start + per_block]
        rows = np.where(block[:, None, :], instance, bg)
        preds = np.asarray(predict(rows.reshape(-1, n_features)))
        means = preds.reshape(len(block), len(bg)).mean(axis=1)
        values.update(zip(subsets[start:start + per_block], means.tolist()))
    return values


def shapley_values(predict, instance, cfg: ShapConfig,
                   feature_ids=None) -> ShapReport:
    """Exact Shapley values of `predict` at `instance`.

    `predict` maps a 2-D array of rows to a vector of outputs. The
    combinatorial weight of subset S is |S|! (|F|-|S|-1)! / |F|!.
    """
    instance = np.asarray(instance, dtype=float)
    F = len(instance)
    if F > min(cfg.max_features, MAX_FEATURES):
        raise TooManyFeatures(F, min(cfg.max_features, MAX_FEATURES))
    if cfg.background.shape[1] != F:
        raise ValueError("background and instance disagree on feature count")

    values = _subset_values(predict, instance, cfg)
    fact = [math.factorial(k) for k in range(F + 1)]
    phi = np.zeros(F)
    others = list(range(F))
    for i in range(F):
        rest = [j for j in others if j != i]
        for size in range(F):
            weight = fact[size] * fact[F - size - 1] / fact[F]
            for subset in combinations(rest, size):
                with_i = tuple(sorted(subset + (i,)))
                phi[i] += weight * (values[with_i] - values[subset])
    base = values[()]
    full = values[tuple(range(F))]
    return ShapReport(phi, base, full, list(feature_ids or []))


def mean_abs_shap(reports):
    """Features ranked by mean |phi| descending; ties by feature index."""
    if not reports:
        raise ValueError("need at least one report")
    phis = np.vstack([r.phi for r in reports])
    mean_abs = np.abs(phis).mean(axis=0)
    ids = reports[0].feature_ids or [str(i) for i in range(phis.shape[1])]
    order = sorted(range(len(mean_abs)), key=lambda i: (-mean_abs[i], i))
    return [(ids[i], float(mean_abs[i])) for i in order]
