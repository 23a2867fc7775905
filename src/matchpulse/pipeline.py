"""Glue between the analysis stages, shared by the CLI and tests.

Builds, for one match: standardized features, entropy weights, the
momentum series, CUSUM change points, the shift series, and the model
input matrix for the four scenario input layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DEFAULT_BASE_FEATURES, SCENARIOS, changepoint, ewm, ingest, shift
from .errors import MatchPulseError


@dataclass
class MatchAnalysis:
    frame: ingest.FeatureFrame
    weights: ewm.WeightVector
    momentum: np.ndarray                # M_t
    params: changepoint.CusumParams | None = None
    trace: changepoint.CusumTrace | None = None
    change_points: changepoint.ChangePointSet | None = None
    shift_series: shift.ShiftSeries | None = None
    tuned: changepoint.TunedResult | None = None


def analyze_momentum(frame: ingest.FeatureFrame, features=None,
                     epsilon=ewm.DEFAULT_EPSILON, weights=None) -> MatchAnalysis:
    """Entropy weights and M_t of one match's derived features."""
    if features is None:
        features = DEFAULT_BASE_FEATURES
    z = ingest.standardize(frame, features)
    w = weights or ewm.entropy_weights(z, epsilon)
    series = ewm.momentum_series(z, w)
    return MatchAnalysis(frame, w, series)


def detect_changepoints(analysis: MatchAnalysis, drift=None, threshold=None,
                        target=None) -> MatchAnalysis:
    """Fill in CUSUM results: `changepoint.default_params` with the given
    drift and threshold, or h tuned toward a target from `threshold`."""
    m = analysis.momentum
    params = changepoint.default_params(m)
    if drift is not None:
        params.d = drift
    if target is not None:
        h0 = threshold if threshold is not None else max(
            1e-6, float(np.std(m)))
        tuned = analysis.tuned = changepoint.tune_threshold(m, target, params, h0)
        params.h = tuned.h
        analysis.trace = tuned.trace
        analysis.change_points = tuned.change_points
    else:
        if threshold is not None:
            params.h = threshold
        analysis.trace, analysis.change_points = changepoint.cusum_detect(
            m, params)
    analysis.params = params
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
    cols.append(analysis.momentum)
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
