import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_match, corpus_csv
from matchpulse import ingest
from matchpulse.errors import (
    BadToken,
    EmptyInput,
    MatchPulseError,
    MissingColumn,
    MissingRequired,
    PointOrder,
    UnknownColumn,
)
from matchpulse.ingest import (
    FeatureFrame,
    derive_features,
    parse_csv,
    standardize,
    write_csv_rows,
    write_points_csv,
)

MINIMAL_HEADER = "match_id,point_no,point_victor\n"


def parse(text):
    return parse_csv(io.StringIO(text))


def test_parse_minimal_csv():
    matches = parse(MINIMAL_HEADER + "m1,1,1\nm1,2,2\nm2,1,1\n")
    assert [m.match_id for m in matches] == ["m1", "m2"]
    assert matches[0].points["point_victor"].tolist() == [1, 2]
    assert [len(m.points) for m in matches] == [2, 1]


def test_parse_ad_token():
    text = ("match_id,point_no,point_victor,p1_score,p2_score\n"
            "m1,1,1,AD,40\n")
    match = parse(text)[0]
    assert match.points["p1_score_token"][0] == ingest.SCORE_ORDINALS["AD"]
    assert match.points["p2_score_token"][0] == ingest.SCORE_ORDINALS["40"]


def test_empty_file_raises():
    with pytest.raises(EmptyInput):
        parse("")
    with pytest.raises(EmptyInput):
        parse(MINIMAL_HEADER)


def test_bad_point_victor():
    with pytest.raises(BadToken):
        parse(MINIMAL_HEADER + "m1,1,3\n")


def test_bad_score_token():
    with pytest.raises(BadToken):
        parse("match_id,point_no,point_victor,p1_score\nm1,1,1,45\n")


def test_missing_required_column():
    with pytest.raises(MissingColumn):
        parse("match_id,point_no\nm1,1\n")


def test_missing_cells_become_none_not_zero():
    text = ("match_id,point_no,point_victor,ball_speed,serve_depth\n"
            "m1,1,1,,\nm1,2,2,181.5,CTL\nm1,3,1,nan,\n")
    points = parse(text)[0].points
    speed = points["ball_speed"]
    assert np.isnan(speed[0]) and np.isnan(speed[2])
    assert speed[1] == 181.5
    assert points["serve_depth"].tolist() == [None, "CTL", None]
    assert np.isnan(points["rally_length"]).all()   # absent column


@pytest.mark.parametrize("rows, column", [
    ("m1,1,\n", "point_victor"),
    ("m1,1\n", "point_victor"),        # short row
    ("m1,,1\n", "point_no"),
    ("m1\n", "point_victor"),          # the victor is checked first
    (",1,1\n", "match_id"),
    (" ,1,1\n", "match_id"),
])
def test_empty_required_cell_is_bad_token(rows, column):
    with pytest.raises(BadToken) as exc:
        parse(MINIMAL_HEADER + "m1,1,1\n" + rows.replace("m1,1", "m1,2", 1))
    assert (exc.value.row, exc.value.column, exc.value.value) == (3, column, "")


def test_integer_beyond_float_precision_is_bad_token():
    with pytest.raises(BadToken) as exc:
        parse(MINIMAL_HEADER + "m1,1,1\nm1,9007199254740993,1\n")
    assert (exc.value.row, exc.value.column) == (3, "point_no")
    big = parse(MINIMAL_HEADER + "m1,9007199254740992,1\n")[0]
    assert big.points["point_no"][0] == 2 ** 53


FULL_HEADER = "match_id,point_no,point_victor,p1_score,p1_ace,ball_speed\n"


@pytest.mark.parametrize("rows, error, row, column", [
    # a bad float in row 5 and a bad token in row 3: the earlier row wins
    ("m1,1,1,0,0,1.5\nm1,2,1,45,0,1.5\nm1,3,1,0,0,1.5\nm1,4,1,0,0,fast\n",
     BadToken, 3, "p1_score"),
    # two faults in one row: the check order decides (token, flag, float)
    ("m1,1,1,0,0,1.5\nm1,2,1,45,2,fast\n", BadToken, 3, "p1_score"),
    ("m1,1,1,0,0,1.5\nm1,2,1,0,2,fast\n", BadToken, 3, "p1_ace"),
    ("m1,1,1,0,0,1.5\nm1,2,3,45,2,fast\n", BadToken, 3, "point_victor"),
    # point order is checked last within a row, but an earlier row wins
    ("m1,2,1,0,0,1.5\nm1,1,1,0,0,fast\n", BadToken, 3, "ball_speed"),
    ("m1,2,1,0,0,1.5\nm1,1,1,0,0,1.5\nm1,3,1,0,0,fast\n", PointOrder, 3, None),
    ("m1,1,1,0,0,fast\nm1,1,1,0,0,1.5\n", BadToken, 2, "ball_speed"),
])
def test_earliest_fault_is_reported(rows, error, row, column):
    with pytest.raises(error) as exc:
        parse(FULL_HEADER + rows)
    assert exc.value.row == row
    assert getattr(exc.value, "column", None) == column


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999"])
def test_infinite_number_is_bad_token(token):
    text = ("match_id,point_no,point_victor,ball_speed\n"
            f"m1,1,1,181.5\nm1,2,2,{token}\n")
    with pytest.raises(BadToken) as exc:
        parse(text)
    assert (exc.value.row, exc.value.column) == (3, "ball_speed")


@pytest.mark.parametrize("rows", ["m1,2,1\nm1,1,1\n", "m1,1,1\nm1,1,2\n"])
def test_point_no_must_strictly_increase(rows):
    with pytest.raises(PointOrder, match="at row 3"):
        parse(MINIMAL_HEADER + rows)


def test_point_order_is_per_match():
    matches = parse(MINIMAL_HEADER + "m1,1,1\nm2,1,2\nm1,2,2\nm2,5,1\n")
    assert [m.points["point_no"].tolist() for m in matches] == [[1, 2], [1, 5]]


def test_point_order_error_names_the_earliest_row():
    text = MINIMAL_HEADER + "m1,5,1\nm2,3,1\nm2,2,1\nm1,4,1\n"
    with pytest.raises(PointOrder) as exc:
        parse(text)
    assert (exc.value.row, exc.value.match_id) == (4, "m2")
    assert "point_no 2 at row 4 does not follow point_no 3" in str(exc.value)


def test_derive_score_difference_and_lead(synthetic_match):
    frame = derive_features(synthetic_match)
    s1 = synthetic_match.points["p1_score_token"]
    s2 = synthetic_match.points["p2_score_token"]
    assert np.array_equal(frame.column("x2"), s1 - s2)
    assert np.array_equal(frame.column("x4"), s1 >= s2)


def test_derive_40_30_fixture():
    m = build_match([1, 1, 1, 1], seed=1)
    # after winning 3 points in a game the tokens are 40 vs 0
    frame = derive_features(m)
    assert frame.features[3, 1] == 3   # x2 = 3 - 0
    assert frame.features[3, 3] == 1   # x4 lead flag


def test_net_ratio_starts_at_zero():
    m = build_match([1, 0, 1], seed=2)
    m.points["p1_net_pt"] = 0
    m.points["p1_net_pt_won"] = 0
    frame = derive_features(m)
    assert np.all(frame.column("x10") == 0.0)


def test_winner_flag_maps_to_x7(synthetic_match):
    frame = derive_features(synthetic_match)
    assert np.array_equal(frame.column("x7"),
                          synthetic_match.points["p1_winner"])


def test_outcome_matches_point_victor(synthetic_match):
    frame = derive_features(synthetic_match)
    expected = synthetic_match.points["point_victor"] == 1
    assert np.array_equal(frame.outcome, expected)
    assert np.array_equal(synthetic_match.outcomes(), expected)


def test_median_imputation_flagged():
    m = build_match([1, 0, 1, 0, 1], seed=3)
    m.points["ball_speed"][2] = np.nan
    frame = derive_features(m)
    speeds = np.delete(m.points["ball_speed"], 2)
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
    buf.seek(0)
    reparsed = parse_csv(buf)
    frames2 = [derive_features(m) for m in reparsed]
    for f1, f2 in zip(frames, frames2):
        assert f1.match_id == f2.match_id
        assert np.array_equal(f1.features, f2.features)
        assert np.array_equal(f1.outcome, f2.outcome)


def reference_features(m):
    """The per-point loop derive_features once was, kept as an oracle:
    (features, outcome, imputed indices), or MissingRequired."""
    pts = m.points
    T = len(pts)
    X = np.zeros((T, 16))
    outcome = np.zeros(T, dtype=int)

    def imputed_series(values):
        arr = np.array(values, dtype=float)
        missing = np.where(np.isnan(arr))[0]
        if len(missing) == len(arr):
            return np.zeros(len(arr)), list(missing)
        if len(missing):
            arr[missing] = np.nanmedian(arr)
        return arr, list(missing)

    imputed = {}
    speed, sp_idx = imputed_series([p["ball_speed"] for p in pts])
    dist, d_idx = imputed_series([p["p1_distance_run"] for p in pts])
    if sp_idx:
        imputed["x15"] = imputed["x16"] = sp_idx
    if d_idx:
        imputed["x12"] = imputed["x13"] = imputed["x14"] = d_idx

    sets_p1 = sets_p2 = 0
    net_pt = net_won = 0
    bp = bp_won = 0
    cum_dist = 0.0
    for t, p in enumerate(pts):
        outcome[t] = 1 if p["point_victor"] == 1 else 0
        for fld, feat in (("p1_games", "x1"), ("p1_score_token", "x2"),
                          ("p2_score_token", "x2"), ("serve_no", "x3")):
            if np.isnan(p[fld]):
                raise MissingRequired(feat, t + 1)
        for fld in ("p1_ace", "p1_winner", "p1_double_fault", "p1_unf_err",
                    "p1_net_pt", "p1_net_pt_won", "p1_break_pt", "p1_break_pt_won"):
            if np.isnan(p[fld]):
                raise MissingRequired(fld, t + 1)
        flag = {f: int(p[f]) for f in ingest.FLAG_FIELDS}
        s1, s2 = int(p["p1_score_token"]), int(p["p2_score_token"])
        X[t, 0] = p["p1_games"]
        X[t, 1] = s1 - s2
        X[t, 2] = 1 if p["serve_no"] == 1 else 0
        X[t, 3] = 1 if s1 >= s2 else 0
        X[t, 4] = sets_p1 - sets_p2
        X[t, 5] = flag["p1_ace"]
        X[t, 6] = flag["p1_winner"]
        X[t, 7] = flag["p1_double_fault"]
        X[t, 8] = flag["p1_unf_err"]
        net_pt += flag["p1_net_pt"]
        net_won += flag["p1_net_pt_won"]
        X[t, 9] = net_won / net_pt if net_pt else 0.0
        bp += flag["p1_break_pt"]
        bp_won += flag["p1_break_pt_won"]
        X[t, 10] = bp_won / bp if bp else 0.0
        cum_dist += dist[t]
        X[t, 11] = cum_dist
        X[t, 12] = dist[max(0, t - 2):t + 1].sum()
        X[t, 13] = dist[t]
        X[t, 14] = speed[t]
        X[t, 15] = speed[t] * int(p["serve_no"])
        if p["set_victor"] == 1:
            sets_p1 += 1
        elif p["set_victor"] == 2:
            sets_p2 += 1
    return X, outcome, imputed


def assert_matches_reference(m):
    frame = derive_features(m)
    X, outcome, imputed = reference_features(m)
    assert np.array_equal(frame.features, X)
    assert frame.features.tobytes() == X.tobytes()     # signed zeros too
    assert np.array_equal(frame.outcome, outcome)
    assert frame.imputed == imputed


def test_derive_equals_reference_loop(synthetic_corpus):
    for m in synthetic_corpus:
        assert_matches_reference(m)


def test_derive_equals_reference_loop_with_imputed_cells():
    m = build_match([1, 0, 0, 1, 1, 1, 0, 1, 0, 0], seed=5)
    m.points["ball_speed"][[0, 4, 9]] = np.nan
    m.points["p1_distance_run"][[1, 2]] = np.nan
    assert_matches_reference(m)
    m.points["p1_distance_run"][[0, 3, 4, 5]] = -0.0
    assert_matches_reference(m)
    m.points["p1_distance_run"] = np.nan
    assert_matches_reference(m)
    assert derive_features(m).imputed["x12"] == list(range(10))


def test_derive_equals_reference_loop_without_net_or_break_points():
    m = build_match([1, 1, 0, 1, 0, 0, 1, 1], seed=6)
    for f in ("p1_net_pt", "p1_net_pt_won", "p1_break_pt", "p1_break_pt_won"):
        m.points[f] = 0
    assert_matches_reference(m)
    assert np.all(derive_features(m).features[:, 9:11] == 0.0)


@pytest.mark.parametrize("gaps", [
    {"p1_ace": [3], "p1_games": [5]},
    {"p1_ace": [3], "serve_no": [3]},
    {"p2_score_token": [4], "p1_score_token": [4]},
])
def test_missing_required_matches_reference_loop(gaps):
    m = build_match([1, 0, 1, 1, 0, 1, 0], seed=7)
    for f, idx in gaps.items():
        m.points[f][idx] = np.nan
    with pytest.raises(MissingRequired) as ours:
        derive_features(m)
    with pytest.raises(MissingRequired) as ref:
        reference_features(m)
    assert str(ours.value) == str(ref.value)


FUZZ_ROWS = list(csv.reader(io.StringIO(
    corpus_csv([build_match([1, 0, 1, 1, 0, 0, 1, 0], seed=4)]))))
FUZZ_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-1", "0", "1", "2", "3", "AD",
                     "45", "1e999", "1.5", "x", "9007199254740993"]),
    st.text(max_size=8))
FUZZ_EDITS = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 8), st.integers(0, 40), FUZZ_CELLS),
    st.tuples(st.just("truncate"), st.integers(0, 8), st.integers(0, 41)),
    st.tuples(st.just("drop"), st.integers(0, 40)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FUZZ_EDITS, min_size=1, max_size=6))
def test_parse_and_derive_raise_only_domain_errors(edits):
    rows = [list(r) for r in FUZZ_ROWS]
    for op, *args in edits:
        if op == "cell":
            i, j, value = args
            if j < len(rows[i]):
                rows[i][j] = value
        elif op == "truncate":
            i, n = args
            rows[i] = rows[i][:n]
        else:
            rows = [r[:args[0]] + r[args[0] + 1:] for r in rows]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    buf.seek(0)
    try:
        for m in parse_csv(buf):
            derive_features(m)
    except MatchPulseError:
        pass


def test_write_csv_rows_writes_floats_as_float_repr():
    buf = io.StringIO()
    write_csv_rows(buf, [[np.float64(0.1), np.float32(0.5), 2.0, np.int64(3),
                          4, "x9"], [np.float64(1) / 3]])
    assert buf.getvalue() == f"0.1,0.5,2.0,3,4,x9\n{1 / 3!r}\n"
    assert float(buf.getvalue().split()[1]) == 1 / 3
