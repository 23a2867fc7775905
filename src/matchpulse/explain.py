"""Exact Shapley attribution of a predictor over a small feature set.

The value function is the marginal expectation: f(S) is the mean
prediction over background rows with the instance's values substituted
on S. All 2^|F| subsets are enumerated, so the feature count is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import EmptyBackground, TooManyFeatures

MAX_FEATURES = 15
BLOCK_ROWS = 2048       # stacked rows per `predict` call


@dataclass
class ShapReport:
    phi: np.ndarray             # per-feature Shapley values for one instance
    base_value: float
    prediction: float


@dataclass(frozen=True)
class _Plan:
    """Coalitions of F features, and the terms of every phi in sum order."""
    mask: np.ndarray            # (2^F, F): row r holds subset r's features
    with_rows: np.ndarray       # (F, 2^(F-1)): rows of S ∪ {i}, per feature i
    without_rows: np.ndarray    # (F, 2^(F-1)): rows of S
    weights: np.ndarray         # (F, 2^(F-1)): |S|! (F-|S|-1)! / F!


@lru_cache(maxsize=None)
def _plan(F) -> _Plan:
    subsets = [subset for size in range(F + 1)
               for subset in combinations(range(F), size)]
    row = {subset: r for r, subset in enumerate(subsets)}
    mask = np.zeros((len(subsets), F), dtype=bool)
    for r, subset in enumerate(subsets):
        mask[r, list(subset)] = True
    fact = [math.factorial(k) for k in range(F + 1)]
    with_rows, without_rows, weights = [], [], []
    for i in range(F):
        rest = [j for j in range(F) if j != i]
        terms = [(row[tuple(sorted(subset + (i,)))], row[subset],
                  fact[size] * fact[F - size - 1] / fact[F])
                 for size in range(F) for subset in combinations(rest, size)]
        w_row, wo_row, weight = zip(*terms)
        with_rows.append(w_row)
        without_rows.append(wo_row)
        weights.append(weight)
    shape = (F, len(subsets) // 2)
    plan = _Plan(mask, np.array(with_rows, dtype=np.intp).reshape(shape),
                 np.array(without_rows, dtype=np.intp).reshape(shape),
                 np.array(weights, dtype=float).reshape(shape))
    for array in vars(plan).values():   # shared by every later call
        array.flags.writeable = False
    return plan


def _subset_values(predict, instance, bg, mask):
    """Mean prediction over the background rows `bg` for every subset (row
    of `mask`) of features held at instance values.

    Coalitions are scored in blocks of about BLOCK_ROWS stacked rows, one
    `predict` call per block.
    """
    n_features = len(instance)
    per_block = max(1, BLOCK_ROWS // len(bg))
    values = np.empty(len(mask))
    stack = np.empty((min(per_block, len(mask)), *bg.shape))
    for start in range(0, len(mask), per_block):
        block = mask[start:start + per_block]
        rows = stack[:len(block)]
        rows[...] = bg
        # the held cells by index: a three-operand np.where broadcast over
        # (block, bg, F) takes about four times as long
        held, feature = np.nonzero(block)
        rows[held, :, feature] = instance[feature, None]
        preds = np.asarray(predict(rows.reshape(-1, n_features)))
        values[start:start + len(block)] = (
            preds.reshape(len(block), len(bg)).mean(axis=1))
    return values


def shapley_values(predict, instance, background) -> ShapReport:
    """Exact Shapley values of `predict` at `instance`, against the
    `background` rows sampled from the training data.

    `predict` maps a 2-D array of rows to a vector of outputs. The
    combinatorial weight of subset S is |S|! (|F|-|S|-1)! / |F|!.
    """
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[0] == 0:
        raise EmptyBackground("background sample is empty")
    instance = np.asarray(instance, dtype=float)
    F = len(instance)
    if F > MAX_FEATURES:
        raise TooManyFeatures(F, MAX_FEATURES)
    if background.shape[1] != F:
        raise ValueError("background and instance disagree on feature count")

    plan = _plan(F)
    values = _subset_values(predict, instance, background, plan.mask)
    terms = plan.weights * (values[plan.with_rows] - values[plan.without_rows])
    # phi_i = 0.0 + term_1 + term_2 + ..., added left to right as a loop
    # would: cumsum accumulates in order, and the leading +0.0 makes an
    # all-zero sum +0.0
    phi = np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)[:, -1]
    return ShapReport(phi, float(values[0]), float(values[-1]))


def mean_abs_shap(reports, feature_ids=None):
    """(feature id, mean |phi|) ranked descending; ties by feature index."""
    if not reports:
        raise ValueError("need at least one report")
    phis = np.vstack([r.phi for r in reports])
    mean_abs = np.abs(phis).mean(axis=0)
    ids = feature_ids or [str(i) for i in range(phis.shape[1])]
    order = sorted(range(len(mean_abs)), key=lambda i: (-mean_abs[i], i))
    return [(ids[i], float(mean_abs[i])) for i in order]
