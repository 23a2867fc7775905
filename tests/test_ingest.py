import csv
import io
import tracemalloc
import warnings

import corpus
import numpy as np
import pytest
from conftest import build_match, examples, match_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchpulse import ingest
from matchpulse.errors import (
    BadToken,
    EmptyInput,
    MatchPulseError,
    MissingColumn,
    MissingRequired,
    NonFiniteFeature,
    PointOrder,
    UnknownColumn,
)
from matchpulse.ingest import (
    FeatureFrame,
    derive_features,
    parse_csv,
    standardize,
    write_csv_rows,
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
    assert match.points["p1_score"][0] == ingest.SCORE_ORDINALS["AD"]
    assert match.points["p2_score"][0] == ingest.SCORE_ORDINALS["40"]


def test_point_fields_are_named_by_csv_column():
    points = parse(corpus.corpus_csv(1, 40, 0.1, 1))[0].points
    assert points.dtype.names == tuple(ingest.SCHEMA)
    assert set(corpus.HEADER) == set(ingest.SCHEMA)


def test_empty_file_raises():
    with pytest.raises(EmptyInput):
        parse("")
    with pytest.raises(EmptyInput):
        parse(MINIMAL_HEADER)


def test_bad_point_victor():
    with pytest.raises(BadToken):
        parse(MINIMAL_HEADER + "m1,1,3\n")


def test_bad_score_cell():
    with pytest.raises(BadToken):
        parse("match_id,point_no,point_victor,p1_score\nm1,1,1,45\n")


def test_missing_required_column():
    with pytest.raises(MissingColumn):
        parse("match_id,point_no\nm1,1\n")


def test_byte_order_mark_is_not_part_of_the_header(synthetic_csv, tmp_path):
    # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + synthetic_csv.encode())
    want = parse(synthetic_csv)
    assert_same_matches(parse_csv(path), want)
    assert_same_matches(parse("\ufeff" + synthetic_csv), want)


def test_schema_column_named_twice_is_refused():
    with pytest.raises(MatchPulseError, match="'point_victor'"):
        parse("match_id,point_no,point_victor,point_victor\nm1,1,1,2\n")
    # a column outside the schema may repeat: it is never read
    assert len(parse("match_id,note,point_no,note,point_victor\n"
                     "m1,a,1,b,1\n")[0].points) == 1


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
    s1 = synthetic_match.points["p1_score"]
    s2 = synthetic_match.points["p2_score"]
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


@pytest.mark.parametrize("field, points, feature, point", [
    ("p1_distance_run", [3, 4], "x12", 5),   # the running sum overflows
    ("ball_speed", [6], "x16", 7),           # speed * serve_no overflows
])
def test_overflowing_feature_is_a_domain_error(field, points, feature, point):
    m = build_match([1, 0] * 30, seed=4)
    m.points[field][points] = 1.7e308
    m.points["serve_no"][points] = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFeature) as exc:
            derive_features(m)
    assert (exc.value.feature, exc.value.point) == (feature, point)
    assert f"{feature} is not finite at point {point}" in str(exc.value)


def _frame(cols):
    X = np.zeros((len(next(iter(cols.values()))), 16))
    ids = list(ingest.FEATURE_IDS)
    for cid, values in cols.items():
        X[:, ids.index(cid)] = values
    return FeatureFrame("m", X, np.zeros(len(X), dtype=int))


def test_standardize_positive():
    z = standardize(_frame({"x1": [2, 4, 6]}), ["x1"])
    assert np.allclose(z.z[:, 0], [0, 0.5, 1])


def test_standardize_negative():
    # x9 (unforced error) is a negative feature
    z = standardize(_frame({"x9": [2, 4, 6]}), ["x9"])
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
        neg = standardize(_frame({"x9": vals}), ["x9"]).z[:, 0]
        assert np.allclose(neg, 1 - pos)


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
        for fld, feat in (("p1_games", "x1"), ("p1_score", "x2"),
                          ("p2_score", "x2"), ("serve_no", "x3"),
                          ("p1_ace", "x6"), ("p1_winner", "x7"),
                          ("p1_double_fault", "x8"), ("p1_unf_err", "x9"),
                          ("p1_net_pt", "x10"), ("p1_net_pt_won", "x10"),
                          ("p1_break_pt", "x11"), ("p1_break_pt_won", "x11")):
            if np.isnan(p[fld]):
                raise MissingRequired(m.match_id, fld, feat, t + 1)
        flag = {f: int(p[f]) for f in ingest.FLAG_FIELDS}
        s1, s2 = int(p["p1_score"]), int(p["p2_score"])
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
    {"p2_score": [4], "p1_score": [4]},
    {"p1_break_pt_won": [2], "p1_net_pt_won": [2]},
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


def test_missing_required_names_the_match_and_the_column():
    # the 3-column minimal layout has no p1_games, the source of x1
    m = parse(MINIMAL_HEADER + "m1,1,1\nm1,2,2\n")[0]
    with pytest.raises(MissingRequired) as exc:
        derive_features(m)
    assert str(exc.value) == "match 'm1': p1_games (source of x1) is missing at point 1"
    assert (exc.value.match_id, exc.value.column) == ("m1", "p1_games")


FUZZ_ROWS = list(csv.reader(io.StringIO(
    match_csv([1, 0, 1, 1, 0, 0, 1, 0], seed=4))))
FUZZ_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-1", "0", "1", "2", "3", "AD",
                     "45", "1e999", "1.5", "x", "9007199254740993"]),
    st.text(max_size=8))
FUZZ_EDITS = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 8), st.integers(0, 40), FUZZ_CELLS),
    st.tuples(st.just("truncate"), st.integers(0, 8), st.integers(0, 41)),
    st.tuples(st.just("drop"), st.integers(0, 40)),
)


def edited_csv(edits):
    """FUZZ_ROWS as a CSV stream after the edits: set a cell, truncate a
    row, drop a column, insert a blank row or set a row's match id."""
    rows = [list(r) for r in FUZZ_ROWS]
    for op, *args in edits:
        if op == "cell":
            i, j, value = args
            if j < len(rows[i]):
                rows[i][j] = value
        elif op == "truncate":
            i, n = args
            rows[i] = rows[i][:n]
        elif op == "drop":
            rows = [r[:args[0]] + r[args[0] + 1:] for r in rows]
        elif op == "blank":
            i, cells = args
            rows.insert(min(i, len(rows)), cells)
        else:
            i, match_id = args
            if rows[i]:
                rows[i][0] = match_id
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    buf.seek(0)
    return buf


@settings(max_examples=examples(300), deadline=None)
@given(st.lists(FUZZ_EDITS, min_size=1, max_size=6))
def test_parse_and_derive_raise_only_domain_errors(edits):
    try:
        for m in parse_csv(edited_csv(edits)):
            derive_features(m)
    except MatchPulseError:
        pass


def _reference_read(stream):
    """Read the header and the non-blank rows: (schema column -> its
    index, row numbers, cells column by column)."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise EmptyInput("no header row")
    header = [h.strip() for h in header]
    index = {f: header.index(f) for f in ingest.SCHEMA if f in header}
    for f in ingest.REQUIRED_FIELDS:
        if f not in index:
            raise MissingColumn(f)
    width = max(index.values()) + 1
    row_nos, rows = [], []
    for row_no, row in enumerate(reader, start=2):
        if "".join(row).strip():
            if len(row) < width:
                row += [""] * (width - len(row))
            row_nos.append(row_no)
            rows.append(row)
    if not rows:
        raise EmptyInput("no data rows")
    return index, row_nos, list(zip(*rows))


def reference_convert(cells, field, required):
    """`field`'s values of `cells`, and the index of the first bad cell (or
    None), one cell at a time: a stripped cell is missing when empty (bad
    if `required`), else its SCHEMA converter's value, or missing and bad
    if the converter refuses it."""
    convert = ingest.SCHEMA[field]
    missing = None if convert is str else np.nan
    values, first = [], None
    for i, raw in enumerate(cells):
        v = raw.strip()
        try:
            if not v and required:
                raise ValueError(v)
            values.append(convert(v) if v else missing)
        except ValueError:
            values.append(missing)
            first = i if first is None else first
    return np.array(values, dtype=ingest.POINT_DTYPE[field]), first


CONVERT_CELLS = st.sampled_from([
    "", " ", "\t", "-0", "nan", "inf", "1e400", "1_0", "\u0663", "\xa0", "AD",
    "15", "0", "1", "2", "3", "9", " 1", "2 ", "x", "-", "1.5", "40", "10",
    "9007199254740993"])
CONVERT_COLUMNS = st.one_of(
    st.lists(CONVERT_CELLS, min_size=1, max_size=20),
    # every cell one character, as the one-character decode reads them
    st.lists(st.one_of(st.sampled_from(["0", "1", "2", " ", "\t", "x"]),
                       st.characters(max_codepoint=0x7f), st.characters()),
             min_size=1, max_size=20),
    # cells float() may accept whole, as the real-column decode reads them
    st.lists(st.one_of(st.sampled_from(["-0", "nan", "1e400", "1_0", "\u0663",
                                        " 2.5\xa0", "", "x"]),
                       st.floats().map(repr)),
             min_size=1, max_size=20),
    st.lists(st.text(max_size=4), min_size=1, max_size=20),
)
CONVERT_FIELDS = st.one_of(
    st.sampled_from(list(ingest.SCHEMA)),
    st.sampled_from([f for f, c in ingest.SCHEMA.items() if c is ingest._real]))


@settings(max_examples=examples(500), deadline=None)
@given(CONVERT_FIELDS, st.booleans(), CONVERT_COLUMNS)
@example("p1_games", False, ["", "10", "5"])
@example("ball_speed", False, ["1.5", "inf", "nan"])
@example("point_victor", True, ["1", " ", "2"])
def test_convert_equals_per_cell_reference(field, required, cells):
    want, want_bad = reference_convert(cells, field, required)
    got, got_bad = ingest._convert(tuple(cells), ingest.SCHEMA[field],
                                   required, ingest.POINT_DTYPE[field])
    assert got_bad == want_bad
    assert got.dtype == want.dtype
    if want.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def reference_parse_csv(stream):
    """The whole-file parse parse_csv once was, kept as an oracle: every
    cell of the file is read as a string before any column is converted,
    each column cell by cell by `reference_convert`."""
    try:
        index, row_nos, cells = _reference_read(stream)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise MatchPulseError(f"cannot read input: {exc}") from None

    columns, faults = {}, []
    for rank, f in enumerate(ingest.SCHEMA):
        if f in index:
            col = cells[index[f]]
            columns[f], bad = reference_convert(
                col, f, f in ingest.REQUIRED_FIELDS)
            if bad is not None:
                faults.append((bad, rank, BadToken(
                    row_nos[bad], f, col[bad].strip())))

    ids = columns["match_id"]
    code_of = {}
    codes = np.array([code_of.setdefault(m, len(code_of)) for m in ids])
    order = np.argsort(codes, kind="stable")
    point_no = columns["point_no"][order]
    same_match = codes[order][1:] == codes[order][:-1]
    steps = np.flatnonzero(same_match & (np.diff(point_no) <= 0))
    if len(steps):
        j = steps[np.argmin(order[steps + 1])]
        i = order[j + 1]
        faults.append((i, len(ingest.SCHEMA), PointOrder(
            row_nos[i], ids[i], int(point_no[j + 1]), int(point_no[j]))))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]

    table = np.zeros(len(ids), ingest.POINT_DTYPE)
    for f in ingest.SCHEMA:
        table[f] = columns.get(
            f, None if ingest.POINT_DTYPE[f] == object else np.nan)
    table = table[order]
    bounds = np.cumsum(np.bincount(codes))[:-1]
    return [ingest.MatchData(m, points)
            for m, points in zip(code_of, np.split(table, bounds))]


DEFAULT_CHUNK_ROWS = ingest.CHUNK_ROWS


def _outcome(parse, text):
    """(matches, None) of a parse, or (None, (error class, message))."""
    try:
        return parse(io.StringIO(text)), None
    except MatchPulseError as exc:
        return None, (type(exc), str(exc))


def assert_same_matches(got, want):
    """Same match ids, and every field bit for bit (object fields by value)."""
    assert [m.match_id for m in got] == [m.match_id for m in want]
    for ours, ref in zip(got, want):
        assert ours.points.dtype == ref.points.dtype
        for f in ingest.SCHEMA:
            if ingest.POINT_DTYPE[f] == object:
                assert ours.points[f].tolist() == ref.points[f].tolist(), f
            else:
                assert ours.points[f].tobytes() == ref.points[f].tobytes(), f


def assert_same_parse(text):
    """parse_csv at several block sizes against the whole-file oracle:
    every field bit for bit (object fields by value), or the same error."""
    want, want_error = _outcome(reference_parse_csv, text)
    for size in (1, 2, 7, DEFAULT_CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "CHUNK_ROWS", size)
            got, got_error = _outcome(parse_csv, text)
        assert got_error == want_error, size
        if want is not None:
            assert_same_matches(got, want)


DIFF_EDITS = st.one_of(
    FUZZ_EDITS,
    st.tuples(st.just("blank"), st.integers(1, 9),
              st.sampled_from([[], [""], [" "], ["", "", ""], [" ", "\t"]])),
    st.tuples(st.just("match"), st.integers(1, 8),
              st.sampled_from(["synthetic-0001", "m2", " m2", "m3"])),
)


@settings(max_examples=examples(300), deadline=None)
@given(st.lists(DIFF_EDITS, min_size=1, max_size=8))
def test_chunked_parse_equals_whole_file_parse(edits):
    assert_same_parse(edited_csv(edits).getvalue())


@pytest.mark.parametrize("tail", [
    "",
    "m1,500,x\n",                        # a bad victor after 300 good rows
    "m1,300,1\nm1,301,x\n",              # a repeated point_no comes first
    "m2,1,1\n\n,\nm1,301,2\nm2,2,1\n",   # interleaved, with blank rows
])
def test_chunked_parse_equals_whole_file_parse_across_blocks(tail):
    rows = [f"m1,{t},{1 + t % 2}\n" for t in range(1, 301)]
    assert_same_parse(MINIMAL_HEADER + "".join(rows) + tail)


def test_parse_peak_memory_is_a_small_multiple_of_the_point_table(tmp_path):
    # the bench tournament's size: a parse that held every cell as a
    # Python string would peak at over 4x the tables it returns
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(31, 300, None, 1))
    tracemalloc.start()
    try:
        matches = parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = sum(m.points.nbytes for m in matches)
    assert peak <= 3 * table_bytes, peak / table_bytes


def test_write_csv_rows_writes_floats_as_float_repr():
    buf = io.StringIO()
    write_csv_rows(buf, [[np.float64(0.1), np.float32(0.5), 2.0, np.int64(3),
                          4, "x9"], [np.float64(1) / 3]])
    assert buf.getvalue() == f"0.1,0.5,2.0,3,4,x9\n{1 / 3!r}\n"
    assert float(buf.getvalue().split()[1]) == 1 / 3


FEATURE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.7e308,
                     -1.7e308, 1.0, 2.0, -3.0, 300.0, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=examples(300), deadline=None)
@given(st.text(st.one_of(st.sampled_from(',"\n\r é☃'), st.characters()),
               max_size=8),
       st.lists(st.tuples(st.lists(FEATURE_CELLS, min_size=16, max_size=16),
                          st.integers(0, 1)), max_size=6))
def test_feature_frame_to_csv_equals_write_csv_rows(match_id, rows):
    X = np.array([x for x, _ in rows], dtype=float).reshape(len(rows), 16)
    outcome = np.array([y for _, y in rows], dtype=int)
    ours, ref = io.StringIO(), io.StringIO()
    FeatureFrame(match_id, X, outcome).to_csv(ours)
    write_csv_rows(ref, ([match_id, t, *x, y] for t, (x, y) in
                         enumerate(rows, start=1)))
    assert ours.getvalue() == ref.getvalue()
