"""Two-sided CUSUM change-point detection on momentum series.

Upper and lower cumulative sums are kept separately and clamped at zero:
c_pos_t = max(0, c_pos_{t-1} + (M_t - mu) - d) and c_neg_t = min(0,
c_neg_{t-1} + (M_t - mu) + d). Crossing +h marks a positive change point
(CP_t = +1), crossing -h a negative one (CP_t = -1); both accumulators
reset after a detection so the count reflects distinct shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, NoConvergence

DEFAULT_DRIFT_STD_FRACTION = 0.05
TUNE_TOLERANCE = 0.01      # tune_threshold's relative count tolerance


@dataclass
class CusumParams:
    d: float                   # drift, same units as M
    h: float | None = None     # threshold; may be tuned
    mu: float | None = None    # None -> match mean of M_t


def default_params(values) -> CusumParams:
    """Drift 0.05·σ and fixed threshold max(1e-6, 2·σ), σ the stdev of values."""
    std = float(np.std(values))
    return CusumParams(d=DEFAULT_DRIFT_STD_FRACTION * std, h=max(1e-6, 2.0 * std))


@dataclass
class CusumTrace:
    c_pos: np.ndarray
    c_neg: np.ndarray


@dataclass
class ChangePointSet:
    times: list                 # 1-based indices, strictly increasing
    signs: list                 # +1 / -1 per time
    T: int

    @property
    def n(self):
        return len(self.times)

    def labels(self) -> np.ndarray:
        """Per-point CP_t vector: +-1 at detected times, 0 elsewhere."""
        cp = np.zeros(self.T, dtype=int)
        for t, s in zip(self.times, self.signs):
            cp[t - 1] = s
        return cp

    def durations(self) -> np.ndarray:
        """D_1 = t_1, D_i = t_i - t_{i-1}."""
        times = np.asarray(self.times)
        if len(times) == 0:
            return np.array([], dtype=int)
        return np.diff(np.concatenate([[0], times]))

    def to_json(self):
        return {
            "T": self.T,
            "times": list(self.times),
            "signs": list(self.signs),
            "durations": self.durations().tolist(),
        }


def cusum_detect(m, p: CusumParams):
    """Run the two-sided CUSUM on M_t; returns (CusumTrace, ChangePointSet)."""
    values = np.asarray(m, dtype=float)
    if len(values) < 2:
        raise EmptySeries("need at least 2 points")
    if p.h is None or p.h <= 0:
        raise ValueError("threshold h must be positive")
    mu = float(np.mean(values)) if p.mu is None else p.mu
    T = len(values)
    c_pos = np.zeros(T)
    c_neg = np.zeros(T)
    times, signs = [], []
    up = dn = 0.0
    for t in range(T):
        dev = values[t] - mu
        up = max(0.0, up + dev - p.d)
        dn = min(0.0, dn + dev + p.d)
        c_pos[t] = up
        c_neg[t] = dn
        hit = 0
        if up > p.h:
            hit = 1
        elif dn < -p.h:
            hit = -1
        if hit:
            times.append(t + 1)
            signs.append(hit)
            up = dn = 0.0
    return CusumTrace(c_pos, c_neg), ChangePointSet(times, signs, T)


@dataclass
class TunedResult:
    h: float
    change_points: ChangePointSet
    trace: CusumTrace
    converged: bool
    iterations: int


def tune_threshold(m, target_n, p: CusumParams, h0,
                   max_iter=200) -> TunedResult:
    """Adjust h by +-10% until the detected count is within tolerance.

    Too many detections raise h by 10%, too few lower it by 10%; the loop
    stops when |count - target| <= max(1, TUNE_TOLERANCE * target). After
    max_iter steps without that, NoConvergence carries the h with the
    closest count (ties favor the larger h).
    """
    if target_n < 1:
        raise ValueError("target_n must be >= 1")
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    tolerance = max(1.0, TUNE_TOLERANCE * target_n)
    h = float(h0)
    best = None  # closest count so far, ties -> larger h
    for it in range(1, max_iter + 1):
        params = CusumParams(d=p.d, h=h, mu=p.mu)
        trace, cps = cusum_detect(m, params)
        count = cps.n
        gap = abs(count - target_n)
        if best is None or gap < best[0] or (gap == best[0] and h > best[1]):
            best = (gap, h, cps, trace, it)
        if gap <= tolerance:
            return TunedResult(h, cps, trace, True, it)
        h = h * 1.1 if count > target_n else h * 0.9
    _, h_best, cps, trace, it = best
    raise NoConvergence(
        f"threshold tuner did not converge in {max_iter} iterations",
        TunedResult(h_best, cps, trace, False, it))
