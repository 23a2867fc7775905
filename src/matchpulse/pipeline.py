"""Glue between the analysis stages, shared by the CLI and tests.

Builds, for one match: standardized features, entropy weights, the
momentum series, CUSUM change points, the shift series, and the model
input matrix for the four scenario input layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import changepoint, ewm, ingest, shift
from .errors import MatchPulseError

# the selected feature set used as the base input layer
DEFAULT_BASE_FEATURES = ["x3", "x4", "x6", "x7", "x9", "x10"]

SCENARIOS = {
    "base": [],
    "base_m": ["M"],
    "base_m_cp": ["M", "CP"],
    "base_m_cp_v": ["M", "CP", "V"],
}


def pick_match(matches, match_id=None):
    if match_id is None:
        return matches[0]
    for m in matches:
        if m.match_id == match_id:
            return m
    raise MatchPulseError(f"match id not found: {match_id!r}")


@dataclass
class MatchAnalysis:
    frame: ingest.FeatureFrame
    standardized: ingest.StandardizedFrame
    weights: ewm.WeightVector
    momentum: ewm.MomentumSeries
    params: changepoint.CusumParams | None = None
    trace: changepoint.CusumTrace | None = None
    change_points: changepoint.ChangePointSet | None = None
    shift_series: shift.ShiftSeries | None = None
    tuned_h: float | None = None
    tuner_converged: bool | None = None


def analyze_momentum(frame: ingest.FeatureFrame, features=None,
                     epsilon=ewm.DEFAULT_EPSILON, weights=None) -> MatchAnalysis:
    """Entropy weights and M_t of one match's derived features."""
    if features is None:
        features = DEFAULT_BASE_FEATURES
    z = ingest.standardize(frame, features)
    w = weights or ewm.entropy_weights(z, epsilon)
    series = ewm.momentum_series(z, w, frame.match_id)
    return MatchAnalysis(frame, z, w, series)


def detect_changepoints(analysis: MatchAnalysis, drift=None, threshold=None,
                        target=None) -> MatchAnalysis:
    """Fill in CUSUM results: fixed threshold, or tuned toward a target."""
    values = analysis.momentum.values
    base = changepoint.default_params(values)
    d = base.d if drift is None else drift
    if target is not None:
        h0 = threshold if threshold is not None else max(
            1e-6, float(np.std(values)))
        tuned = changepoint.tune_threshold(
            analysis.momentum, target, changepoint.CusumParams(d=d), h0)
        analysis.params = changepoint.CusumParams(d=d, h=tuned.h)
        analysis.trace = tuned.trace
        analysis.change_points = tuned.change_points
        analysis.tuned_h = tuned.h
        analysis.tuner_converged = tuned.converged
    else:
        h = threshold if threshold is not None else max(
            1e-6, 2.0 * float(np.std(values)))
        analysis.params = changepoint.CusumParams(d=d, h=h)
        analysis.trace, analysis.change_points = changepoint.cusum_detect(
            analysis.momentum, analysis.params)
    analysis.shift_series = shift.relative_distance(analysis.change_points)
    return analysis


def scenario_inputs(analysis: MatchAnalysis, base_features=None):
    """(X, column names, y) with columns base..., M, CP, V."""
    if base_features is None:
        base_features = DEFAULT_BASE_FEATURES
    if analysis.change_points is None:
        raise MatchPulseError("run detect_changepoints first")
    cols = [analysis.frame.column(f) for f in base_features]
    names = list(base_features) + ["M", "CP", "V"]
    cols.append(analysis.momentum.values)
    cols.append(analysis.change_points.labels().astype(float))
    cols.append(analysis.shift_series.values)
    return np.column_stack(cols), names, analysis.frame.outcome.copy()


def scenario_column_map(names, base_features=None):
    if base_features is None:
        base_features = DEFAULT_BASE_FEATURES
    out = {}
    for sid, extras in SCENARIOS.items():
        out[sid] = [names.index(f) for f in base_features + extras]
    return out
