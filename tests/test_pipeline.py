import pytest

from matchpulse import ingest, pipeline
from matchpulse.errors import AllColumnsUninformative


@pytest.fixture(scope="module")
def analysis(synthetic_match):
    frame = ingest.derive_features(synthetic_match)
    return pipeline.detect_changepoints(pipeline.analyze_momentum(frame))


def test_analyze_momentum_empty_features_is_not_the_default(synthetic_match):
    # an empty list is no composite at all, not a request for the defaults
    frame = ingest.derive_features(synthetic_match)
    with pytest.raises(AllColumnsUninformative):
        pipeline.analyze_momentum(frame, [])


def test_scenario_inputs_empty_base_features(analysis):
    X, names, _ = pipeline.scenario_inputs(analysis, [])
    assert names == ["M", "CP", "V"]
    assert X.shape == (analysis.frame.T, 3)
    X_default, default_names, _ = pipeline.scenario_inputs(analysis)
    assert default_names == pipeline.DEFAULT_BASE_FEATURES + ["M", "CP", "V"]
    assert X_default.shape == (analysis.frame.T, 9)


def test_scenario_column_map_empty_base_features():
    assert pipeline.scenario_column_map(["M", "CP", "V"], []) == {
        "base": [], "base_m": [0], "base_m_cp": [0, 1],
        "base_m_cp_v": [0, 1, 2]}
