"""Momentum analysis for point-by-point racket-sport data.

Its modules cover ingestion and feature engineering, streak existence
tests, entropy-weight momentum, CUSUM change points, shift intensity,
logistic/stepwise statistics, the PSO-seeded neural model, exact Shapley
attribution, synthetic generators, and a CLI front end.

The defaults below live here, not in the modules that use them, so the
CLI can build its parser without running those modules.
"""

__version__ = "0.1.0"

# the selected feature set used as the base input layer (pipeline)
DEFAULT_BASE_FEATURES = ["x3", "x4", "x6", "x7", "x9", "x10"]

# model input layers: the base features plus these columns (pipeline)
SCENARIOS = {
    "base": [],
    "base_m": ["M"],
    "base_m_cp": ["M", "CP"],
    "base_m_cp_v": ["M", "CP", "V"],
}

DEFAULT_EPSILON = 1e-12  # entropy log offset (ewm)

DEFAULT_CAP = 7  # streak lengths >= cap pooled into one row, e.g. W7+ (streaks)
