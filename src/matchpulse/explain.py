"""Exact Shapley attribution of a predictor over a small feature set.

The value function is the marginal expectation: f(S) is the mean
prediction over background rows with the instance's values substituted
on S. All 2^|F| subsets are enumerated, in a plan built once per feature
count from their feature bitmasks, so the count is capped and at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyBackground, TooManyFeatures

MAX_FEATURES = 15
BLOCK_ROWS = 2048       # stacked rows per `predict` call


@dataclass
class ShapReport:
    phi: np.ndarray             # per-feature Shapley values for one instance
    base_value: float
    prediction: float


@lru_cache(maxsize=None)
def _plan(F):
    """(mask, with_rows, without_rows, weights) of F >= 1 features, read-only
    and shared by every later call. Row r of the (2^F, F) `mask` holds
    coalition r's features, in `combinations` order; row i of the three
    (F, 2^(F-1)) arrays holds, in row order, the rows S that lack feature i,
    the rows of S + {i}, and the weights |S|! (F-|S|-1)! / F!."""
    # row c holds the bits of coalition code c: bit j stands for feature j
    bits = np.arange(1 << F)[:, None] >> np.arange(F) & 1
    # rows by size, then by descending code read with feature 0 as the highest bit
    order = np.lexsort((-bits @ (1 << np.arange(F)[::-1]), bits.sum(axis=1)))
    row = np.argsort(order)                 # code -> row, as order is row -> code
    mask = bits[order] == 1
    # flat index i * 2^F + r of each row r that lacks feature i
    without_rows = np.flatnonzero(~mask.T).reshape(F, -1) % len(row)
    with_rows = row[order[without_rows] | 1 << np.arange(F)[:, None]]
    # float64 factorials are exact, and for F <= 15 so is each product
    # k! (F-1-k)! <= 14! < 2^53: each weight rounds once, as int / int does
    fact = np.cumprod(np.arange(F + 1.0).clip(1))
    size = mask.sum(axis=1)[without_rows]
    plan = mask, with_rows, without_rows, fact[size] * fact[F - 1 - size] / fact[F]
    for array in plan:
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
    if not F:
        raise ValueError("instance has no features to attribute")
    if F > MAX_FEATURES:
        raise TooManyFeatures(F, MAX_FEATURES)
    if background.shape[1] != F:
        raise ValueError("background and instance disagree on feature count")

    mask, with_rows, without_rows, weights = _plan(F)
    values = _subset_values(predict, instance, background, mask)
    terms = weights * (values[with_rows] - values[without_rows])
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
