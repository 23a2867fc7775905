"""Shift-intensity series V_t from a set of detected change points.

Anchor values are CP_{t_i} * (D_max / D_i) where D_i is the duration of
the interval ending at t_i; interior points interpolate linearly between
anchors, the initial phase ramps from 0 to the first anchor, and the
terminal phase decays linearly back to 0 at T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .changepoint import ChangePointSet
from .errors import TimeOutOfRange


@dataclass
class ShiftSeries:
    values: np.ndarray          # V_t at integer points 1..T
    d_max: int
    anchors: list               # (time, value)
    T: int

    def at(self, t):
        """Evaluate V at a possibly fractional time in [0, T]."""
        if t < 0 or t > self.T:
            raise TimeOutOfRange(f"t={t} outside [0, {self.T}]")
        return float(np.interp(t, *_knots(self.anchors, self.T)))

    def to_json(self):
        return {
            "T": self.T,
            "d_max": self.d_max,
            "anchors": [[t, v] for t, v in self.anchors],
            "values": self.values.tolist(),
        }


def _knots(anchors, T):
    """(times, values) of V's knots: 0 at t = 0, the anchors, 0 at T."""
    xs = [0.0] + [float(a) for a, _ in anchors]
    ys = [0.0] + [v for _, v in anchors]
    if not anchors or anchors[-1][0] < T:
        xs.append(float(T))
        ys.append(0.0)
    return xs, ys


def relative_distance(cp: ChangePointSet) -> ShiftSeries:
    """Build the V_t series over the cp.T points of one match."""
    T = cp.T
    if cp.times and (min(cp.times) < 1 or max(cp.times) > T):
        raise TimeOutOfRange("change-point times outside [1, T]")
    if cp.n == 0:
        return ShiftSeries(np.zeros(T), 0, [], T)
    durations = cp.durations()
    d_max = int(durations.max())
    anchors = [
        (t, s * (d_max / d))
        for t, s, d in zip(cp.times, cp.signs, durations)
    ]
    # the terminal anchor at t_N = T keeps its anchor value (no decay span)
    values = np.interp(np.arange(1, T + 1), *_knots(anchors, T))
    return ShiftSeries(values, d_max, anchors, T)
