"""Entropy weighting of standardized features and the momentum series.

Weight computation: p_it = z_it / sum_t z_it, e_i = -(1/ln T) * sum_t
p_it ln(p_it + eps), w_i = (1 - e_i) / sum_j (1 - e_j). The momentum at
point t is the weighted sum of the standardized feature row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DEFAULT_EPSILON
from .errors import AllColumnsUninformative, ColumnMismatch, EmptySeries
from .ingest import StandardizedFrame


@dataclass
class WeightVector:
    column_ids: list
    weights: np.ndarray
    entropies: np.ndarray
    epsilon: float

    def to_json(self):
        return {
            "columns": self.column_ids,
            "weights": self.weights.tolist(),
            "entropies": self.entropies.tolist(),
            "epsilon": self.epsilon,
        }


def entropy_weights(z: StandardizedFrame, epsilon=DEFAULT_EPSILON) -> WeightVector:
    """Entropy weights for the columns of a standardized frame.

    An all-zero column carries no discriminating information and gets
    entropy 1 (weight 0). Entropies are clamped to [0,1] so the epsilon
    perturbation cannot produce negative 1-e terms.
    """
    if z.T < 2:
        raise EmptySeries("need at least 2 points to compute entropy weights")
    T, m = z.z.shape
    e = np.ones(m)
    for j in range(m):
        col_sum = z.z[:, j].sum()
        if col_sum <= 0:
            continue  # uninformative column, e stays 1
        p = z.z[:, j] / col_sum
        e[j] = -(1.0 / np.log(T)) * float(np.sum(p * np.log(p + epsilon)))
    e = np.clip(e, 0.0, 1.0)
    denom = float(np.sum(1.0 - e))
    if denom <= 0:
        raise AllColumnsUninformative("all entropies are 1 after clamping")
    w = (1.0 - e) / denom
    return WeightVector(list(z.column_ids), w, e, epsilon)


def momentum_series(z: StandardizedFrame, w: WeightVector) -> np.ndarray:
    """M_t = sum_i w_i z_it over the weight vector's columns."""
    missing = [c for c in w.column_ids if c not in z.column_ids]
    if missing:
        raise ColumnMismatch(f"weight columns absent from frame: {missing}")
    idx = [z.column_ids.index(c) for c in w.column_ids]
    return z.z[:, idx] @ w.weights


def pooled_entropy_weights(frames, epsilon=DEFAULT_EPSILON) -> WeightVector:
    """Weights from standardized frames of several matches stacked in time."""
    if not frames:
        raise ValueError("no frames")
    cols = frames[0].column_ids
    for f in frames[1:]:
        if f.column_ids != cols:
            raise ColumnMismatch("frames disagree on columns")
    return entropy_weights(
        StandardizedFrame(np.vstack([f.z for f in frames]), cols), epsilon)
