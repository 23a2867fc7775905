import io

import numpy as np
import pytest

from conftest import build_match, corpus_csv
from matchpulse import ingest
from matchpulse.errors import (
    BadToken,
    EmptyInput,
    MissingColumn,
    PointOrder,
    UnknownColumn,
)
from matchpulse.ingest import (
    FeatureFrame,
    derive_features,
    parse_csv,
    standardize,
    write_points_csv,
)

MINIMAL_HEADER = "match_id,point_no,point_victor\n"


def test_parse_minimal_csv():
    matches = parse_csv(MINIMAL_HEADER + "m1,1,1\nm1,2,2\nm2,1,1\n")
    assert [m.match_id for m in matches] == ["m1", "m2"]
    assert [p.point_victor for p in matches[0].points] == [1, 2]


def test_parse_ad_token():
    text = ("match_id,point_no,point_victor,p1_score,p2_score\n"
            "m1,1,1,AD,40\n")
    match = parse_csv(text)[0]
    assert match.points[0].p1_score_token == "AD"
    assert match.points[0].p2_score_token == "40"


def test_empty_file_raises():
    with pytest.raises(EmptyInput):
        parse_csv("")
    with pytest.raises(EmptyInput):
        parse_csv(MINIMAL_HEADER)


def test_bad_point_victor():
    with pytest.raises(BadToken):
        parse_csv(MINIMAL_HEADER + "m1,1,3\n")


def test_bad_score_token():
    with pytest.raises(BadToken):
        parse_csv("match_id,point_no,point_victor,p1_score\nm1,1,1,45\n")


def test_missing_required_column():
    with pytest.raises(MissingColumn):
        parse_csv("match_id,point_no\nm1,1\n")


def test_missing_cells_become_none_not_zero():
    text = ("match_id,point_no,point_victor,ball_speed\n"
            "m1,1,1,\nm1,2,2,181.5\nm1,3,1,nan\n")
    match = parse_csv(text)[0]
    assert match.points[0].ball_speed is None
    assert match.points[1].ball_speed == 181.5
    assert match.points[2].ball_speed is None


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999"])
def test_infinite_number_is_bad_token(token):
    text = ("match_id,point_no,point_victor,ball_speed\n"
            f"m1,1,1,181.5\nm1,2,2,{token}\n")
    with pytest.raises(BadToken) as exc:
        parse_csv(text)
    assert (exc.value.row, exc.value.column) == (3, "ball_speed")


@pytest.mark.parametrize("rows", ["m1,2,1\nm1,1,1\n", "m1,1,1\nm1,1,2\n"])
def test_point_no_must_strictly_increase(rows):
    with pytest.raises(PointOrder, match="at row 3"):
        parse_csv(MINIMAL_HEADER + rows)


def test_point_order_is_per_match():
    matches = parse_csv(MINIMAL_HEADER + "m1,1,1\nm2,1,2\nm1,2,2\nm2,5,1\n")
    assert [[p.point_no for p in m.points] for m in matches] == [[1, 2], [1, 5]]


def test_derive_score_difference_and_lead(synthetic_match):
    frame = derive_features(synthetic_match)
    for t, p in enumerate(synthetic_match.points):
        s1 = ingest.SCORE_ORDINALS[p.p1_score_token]
        s2 = ingest.SCORE_ORDINALS[p.p2_score_token]
        assert frame.features[t, 1] == s1 - s2
        assert frame.features[t, 3] == (1 if s1 >= s2 else 0)


def test_derive_40_30_fixture():
    m = build_match([1, 1, 1, 1], seed=1)
    # after winning 3 points in a game the tokens are 40 vs 0
    frame = derive_features(m)
    assert frame.features[3, 1] == 3   # x2 = 3 - 0
    assert frame.features[3, 3] == 1   # x4 lead flag


def test_net_ratio_starts_at_zero():
    m = build_match([1, 0, 1], seed=2)
    for p in m.points:
        p.flags["p1_net_pt"] = 0
        p.flags["p1_net_pt_won"] = 0
    frame = derive_features(m)
    assert np.all(frame.column("x10") == 0.0)


def test_winner_flag_maps_to_x7(synthetic_match):
    frame = derive_features(synthetic_match)
    winners = np.array([p.flags["p1_winner"] for p in synthetic_match.points])
    assert np.array_equal(frame.column("x7"), winners)


def test_outcome_matches_point_victor(synthetic_match):
    frame = derive_features(synthetic_match)
    expected = np.array(
        [1 if p.point_victor == 1 else 0 for p in synthetic_match.points])
    assert np.array_equal(frame.outcome, expected)


def test_median_imputation_flagged():
    m = build_match([1, 0, 1, 0, 1], seed=3)
    m.points[2].ball_speed = None
    frame = derive_features(m)
    speeds = [p.ball_speed for p in m.points if p.ball_speed is not None]
    assert frame.column("x15")[2] == np.median(speeds)
    assert frame.imputed["x15"] == [2]


def _frame(cols, orientation=None):
    X = np.zeros((len(next(iter(cols.values()))), 16))
    ids = list(ingest.FEATURE_IDS)
    for cid, values in cols.items():
        X[:, ids.index(cid)] = values
    orient = {f: "positive" for f in ids}
    orient.update(orientation or {})
    return FeatureFrame("m", X, np.zeros(len(X), dtype=int), ids, orient)


def test_standardize_positive():
    z = standardize(_frame({"x1": [2, 4, 6]}), ["x1"])
    assert np.allclose(z.z[:, 0], [0, 0.5, 1])


def test_standardize_negative():
    z = standardize(_frame({"x1": [2, 4, 6]}, {"x1": "negative"}), ["x1"])
    assert np.allclose(z.z[:, 0], [1, 0.5, 0])


def test_standardize_constant_column_is_zero():
    z = standardize(_frame({"x1": [5, 5, 5]}), ["x1"])
    assert np.all(z.z == 0)


def test_standardize_unknown_column():
    with pytest.raises(UnknownColumn):
        standardize(_frame({"x1": [1, 2]}), ["nope"])


def test_standardize_idempotent_on_unit_interval():
    vals = np.array([0.0, 0.25, 0.75, 1.0])
    z1 = standardize(_frame({"x1": vals}), ["x1"])
    z2 = standardize(_frame({"x1": z1.z[:, 0]}), ["x1"])
    assert np.allclose(z1.z, z2.z)


def test_negative_is_one_minus_positive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = rng.normal(size=10)
        if vals.max() == vals.min():
            continue
        pos = standardize(_frame({"x1": vals}), ["x1"]).z[:, 0]
        neg = standardize(_frame({"x1": vals}, {"x1": "negative"}), ["x1"]).z[:, 0]
        assert np.allclose(neg, 1 - pos)


def test_roundtrip_preserves_features(synthetic_corpus):
    frames = [derive_features(m) for m in synthetic_corpus]
    buf = io.StringIO()
    write_points_csv(synthetic_corpus, buf)
    reparsed = parse_csv(buf.getvalue())
    frames2 = [derive_features(m) for m in reparsed]
    for f1, f2 in zip(frames, frames2):
        assert f1.match_id == f2.match_id
        assert np.array_equal(f1.features, f2.features)
        assert np.array_equal(f1.outcome, f2.outcome)
