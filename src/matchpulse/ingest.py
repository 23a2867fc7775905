"""Parsing of point-by-point match CSVs and engineered feature derivation.

The input follows the published point-by-point format (score tokens
0/15/30/40/AD, per-player flags, ball speed, distance run), which `SCHEMA`
describes once: each CSV column with its cell converter. Each match is
kept as columns: a numpy structured array with one field per `SCHEMA`
column, named by its header, and one row per point. From each match we
derive 16 per-point features x1..x16 and the binary point outcome for
Player 1, then min-max standardize selected columns.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadToken,
    EmptyInput,
    MatchPulseError,
    MissingColumn,
    MissingRequired,
    NonFiniteFeature,
    PointOrder,
    UnknownColumn,
)

SCORE_ORDINALS = {"0": 0, "15": 1, "30": 2, "40": 3, "AD": 4}

FEATURE_IDS = [f"x{i}" for i in range(1, 17)]

# x8 (double fault) and x9 (unforced error) hurt Player 1; everything else
# is treated as the-more-the-better for standardization purposes.
NEGATIVE_FEATURES = {"x8", "x9"}
ORIENTATION = {fid: ("negative" if fid in NEGATIVE_FEATURES else "positive")
               for fid in FEATURE_IDS}

FLAG_FIELDS = [
    "p1_ace", "p2_ace", "p1_winner", "p2_winner",
    "p1_double_fault", "p2_double_fault", "p1_unf_err", "p2_unf_err",
    "p1_net_pt", "p2_net_pt", "p1_net_pt_won", "p2_net_pt_won",
    "p1_break_pt", "p2_break_pt", "p1_break_pt_won", "p2_break_pt_won",
    "p1_force_err", "p2_force_err",
]

# columns every file must resolve, with non-empty cells; the rest may be absent
REQUIRED_FIELDS = ("match_id", "point_no", "point_victor")

# larger integers would not survive float64 storage
_INT_LIMIT = 2 ** 53


def _integer(allowed=None):
    def convert(v):
        i = int(v)
        if abs(i) > _INT_LIMIT or (allowed and i not in allowed):
            raise ValueError(v)
        return i
    return convert


def _real(v):
    x = float(v)               # "nan" stays NaN, i.e. missing
    if math.isinf(x):
        raise ValueError(v)
    return x


def _token(v):
    if v not in SCORE_ORDINALS:
        raise ValueError(v)
    return SCORE_ORDINALS[v]


# CSV column -> cell converter: the accepted columns, each a field of the
# point table under its own name. A text column (converter str) is stored as
# objects, None when missing; every other one as float64, NaN when missing,
# score tokens as their ordinals. The order decides which of several faults
# in one row is reported.
SCHEMA = {
    "match_id": str,
    "point_victor": _integer((1, 2)),
    "point_no": _integer(),
    **{f: _integer() for f in ("set_no", "game_no", "p1_games", "p2_games",
                               "p1_points_won", "p2_points_won", "rally_length")},
    "server": _integer((1, 2)),
    "serve_no": _integer((1, 2)),
    "game_victor": _integer((0, 1, 2)),
    "set_victor": _integer((0, 1, 2)),
    "p1_score": _token,
    "p2_score": _token,
    **{f: _integer((0, 1)) for f in FLAG_FIELDS},
    **{f: _real for f in ("ball_speed", "ball_spin", "game_time",
                          "p1_distance_run", "p2_distance_run")},
    **{f: str for f in ("serve_direction", "serve_depth", "return_depth")},
}
POINT_DTYPE = np.dtype([(f, object if convert is str else float)
                        for f, convert in SCHEMA.items()])


CSV_HEADER = ["match_id", "point", *FEATURE_IDS, "outcome"]


def write_csv_rows(stream, rows):
    """Write rows as CSV: any float, numpy's included, as repr(float(v)),
    which float() reads back bit for bit; anything else as str(v)."""
    writer = csv.writer(stream, lineterminator="\n")
    # csv.writer itself writes an exact float as repr(v), an int or str as
    # str(v): leaving those cells to it saves a Python call per cell
    writer.writerows([v if type(v) in (float, int, str)
                      else repr(float(v)) if isinstance(v, (float, np.floating))
                      else str(v) for v in row] for row in rows)


@dataclass
class MatchData:
    match_id: str
    points: np.ndarray              # POINT_DTYPE, one row per point

    def outcomes(self) -> np.ndarray:
        """Binary vector, 1 where Player 1 won the point."""
        return (self.points["point_victor"] == 1).astype(int)


@dataclass
class FeatureFrame:
    match_id: str
    features: np.ndarray            # T x 16
    outcome: np.ndarray             # length T, {0,1}
    imputed: dict = field(default_factory=dict)   # feature id -> point indices

    @property
    def T(self):
        return self.features.shape[0]

    def column(self, feature_id) -> np.ndarray:
        if feature_id not in FEATURE_IDS:
            raise UnknownColumn(feature_id)
        return self.features[:, FEATURE_IDS.index(feature_id)]

    def to_csv(self, stream):
        """Write one CSV row per point, in CSV_HEADER's columns (no header),
        as `write_csv_rows` writes them, formatting each distinct value once."""
        head = io.StringIO()
        # csv.writer quotes the id; the empty cell after it keeps an empty
        # id unquoted, as it is in a full row
        csv.writer(head, lineterminator="\n").writerow([self.match_id, ""])
        prefix = head.getvalue()[:-1]
        features = np.asarray(self.features, dtype=float)
        # keyed on the bits, not the value, so that -0.0 keeps its sign
        bits, inverse = np.unique(features.view(np.int64), return_inverse=True)
        reprs = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        rows = map(",".join, reprs[inverse].reshape(features.shape).tolist())
        stream.writelines(f"{prefix}{t},{cells},{y}\n" for t, (cells, y) in
                          enumerate(zip(rows, self.outcome.tolist()), start=1))

    def to_json(self):
        """Per-match metadata; the values themselves go to `to_csv`."""
        return {
            "match_id": self.match_id,
            "feature_ids": FEATURE_IDS,
            "T": self.T,
            "orientation": ORIENTATION,
            "imputed": {k: list(v) for k, v in self.imputed.items()},
        }


@dataclass
class StandardizedFrame:
    z: np.ndarray                   # T x m, entries in [0,1]
    column_ids: list
    mins: np.ndarray
    maxs: np.ndarray

    @property
    def T(self):
        return self.z.shape[0]


# non-blank rows read and converted at a time: one block of cell strings is
# alive at once, beside the values converted so far
CHUNK_ROWS = 1024


def _header(reader):
    """Schema column -> its index in the header row."""
    header = next(reader, None)
    if header is None:
        raise EmptyInput("no header row")
    if header:      # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    index = {}
    for f in SCHEMA:
        if header.count(f) > 1:
            raise MatchPulseError(f"column {f!r} is named more than once "
                                  "in the header")
        if f in header:
            index[f] = header.index(f)
    for f in REQUIRED_FIELDS:
        if f not in index:
            raise MissingColumn(f)
    return index


def _blocks(reader, width):
    """The non-blank rows, CHUNK_ROWS at a time: (row numbers, rows), each
    row padded to `width` cells."""
    row_nos, rows = [], []
    for row_no, row in enumerate(reader, start=2):
        # the join is needed only when the first cell is blank
        if (row and row[0].strip()) or "".join(row).strip():
            if len(row) < width:
                row += [""] * (width - len(row))
            row_nos.append(row_no)
            rows.append(row)
            if len(rows) == CHUNK_ROWS:
                yield row_nos, rows
                row_nos, rows = [], []
    if rows:
        yield row_nos, rows


def _convert(cells, convert, required, dtype):
    """Values of one column, and the index of its first bad cell (or None).

    Each distinct cell is stripped and converted once. An empty cell is
    missing (NaN, or None in text), or bad in a required column; so is a
    cell `convert` rejects. Two cases decode the column in array steps:
    a real column goes through one `float` pass, which strips the same
    whitespace as str.strip, unless a cell is refused or infinite; a
    numeric column whose distinct cells are each one ASCII character reads
    its bytes as indices into a table of those characters' values.
    """
    if convert is _real:
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
            if not np.isinf(values).any():
                return values, None
        except ValueError:
            pass
    missing = None if dtype == object else np.nan
    values, bad = {}, set()
    for raw in set(cells):
        v = raw.strip()
        try:
            if v == "" and required:
                raise ValueError(v)
            values[raw] = convert(v) if v else missing
        except ValueError:
            values[raw] = missing
            bad.add(raw)
    if (dtype != object and all(len(c) == 1 for c in values)
            and "".join(values).isascii()):
        table, is_bad = np.full(128, np.nan), np.zeros(128, bool)
        for c, x in values.items():
            table[ord(c)], is_bad[ord(c)] = x, c in bad
        codes = np.frombuffer("".join(cells).encode("ascii"), np.uint8)
        return table[codes], int(is_bad[codes].argmax()) if bad else None
    first = next((i for i, c in enumerate(cells) if c in bad), None) if bad else None
    return np.fromiter(map(values.__getitem__, cells), dtype, len(cells)), first


def _read(stream):
    """(point table in file order, row number of each point, faults).

    A fault is (point index, check rank, error), for the first bad cell
    of each column in each block.
    """
    reader = csv.reader(stream)
    index = _header(reader)
    checks = [(rank, f, convert, f in REQUIRED_FIELDS)
              for rank, (f, convert) in enumerate(SCHEMA.items()) if f in index]
    parts = {f: [] for f in index}
    row_nos, faults = [], []
    for block_nos, rows in _blocks(reader, width=max(index.values()) + 1):
        cells = list(zip(*rows))
        start = sum(map(len, row_nos))
        for rank, f, convert, required in checks:
            col = cells[index[f]]
            part, bad = _convert(col, convert, required, POINT_DTYPE[f])
            parts[f].append(part)
            if bad is not None:
                faults.append((start + bad, rank, BadToken(
                    block_nos[bad], f, col[bad].strip())))
        row_nos.append(np.array(block_nos))
        del rows, cells, col    # before the next block is read
    if not row_nos:
        raise EmptyInput("no data rows")
    row_nos = np.concatenate(row_nos)

    # np.zeros: np.empty is much slower to set up object fields
    table = np.zeros(len(row_nos), POINT_DTYPE)
    for f in SCHEMA:
        if f in parts:
            np.concatenate(parts.pop(f), out=table[f])
        else:
            table[f] = None if POINT_DTYPE[f] == object else np.nan
    return table, row_nos, faults


def parse_csv(source) -> list:
    """Parse a point-by-point CSV into one MatchData per distinct match_id.

    `source` is a path or a text stream. Missing cells (empty strings, or
    entirely absent optional columns) become NaN, or None in text columns,
    never zero; "nan" is missing too, while an infinite number is a bad
    token. The match_id, point_no and point_victor cells must not be
    empty. Within a match, point_no must strictly increase from row to
    row. Of several faults, the one in the earliest row is raised; a read
    error anywhere in the file comes before all of them.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, newline="", encoding="utf-8") as stream:
                table, row_nos, faults = _read(stream)
        else:
            table, row_nos, faults = _read(source)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise MatchPulseError(f"cannot read input: {exc}") from None

    # group rows by match in order of first appearance, file order within
    ids = table["match_id"]
    code_of = {}
    codes = np.array([code_of.setdefault(m, len(code_of)) for m in ids])
    order = np.argsort(codes, kind="stable")
    point_no = table["point_no"][order]
    same_match = codes[order][1:] == codes[order][:-1]
    steps = np.flatnonzero(same_match & (np.diff(point_no) <= 0))
    if len(steps):
        j = steps[np.argmin(order[steps + 1])]
        i = order[j + 1]
        faults.append((i, len(SCHEMA), PointOrder(
            int(row_nos[i]), ids[i], int(point_no[j + 1]), int(point_no[j]))))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]

    if (np.diff(codes) < 0).any():
        table = table[order]
    bounds = np.cumsum(np.bincount(codes))[:-1]
    return [MatchData(m, points)
            for m, points in zip(code_of, np.split(table, bounds))]


def _imputed_series(values):
    """Median-impute missing (NaN) entries; returns (array, imputed indices)."""
    arr = np.array(values, dtype=float)
    missing = np.flatnonzero(np.isnan(arr))
    if len(missing) == len(arr):
        return np.zeros(len(arr)), missing.tolist()
    if len(missing):
        arr[missing] = np.nanmedian(arr)
    return arr, missing.tolist()


def _running_ratio(won, tried):
    """Running total of `won` over that of `tried`, with 0/0 = 0."""
    won, tried = np.cumsum(won), np.cumsum(tried)
    return np.divide(won, tried, out=np.zeros(len(tried)), where=tried != 0)


# (point field, feature) pairs that cannot be imputed, in the order checked
_NON_IMPUTABLE = [("p1_games", "x1"), ("p1_score", "x2"), ("p2_score", "x2"),
                  ("serve_no", "x3"), ("p1_ace", "x6"), ("p1_winner", "x7"),
                  ("p1_double_fault", "x8"), ("p1_unf_err", "x9"),
                  ("p1_net_pt", "x10"), ("p1_net_pt_won", "x10"),
                  ("p1_break_pt", "x11"), ("p1_break_pt_won", "x11")]


@np.errstate(over="ignore", invalid="ignore")  # huge cells: X is checked
def derive_features(m: MatchData) -> FeatureFrame:
    """Derive the 16 engineered features for every point of one match.

    Score tokens map to ordinals 0/15/30/40/AD -> 0/1/2/3/4 before
    differencing. Cumulative ratios (x10, x11) use running totals up to
    and including the current point, with 0/0 defined as 0. Ball speed
    and distance gaps are imputed with the match median and flagged.
    Finite cells whose sums or products overflow raise NonFiniteFeature.
    """
    p = m.points
    missing = np.isnan([p[f] for f, _ in _NON_IMPUTABLE])
    if missing.any():
        t = int(missing.any(axis=0).argmax())
        column, feature = _NON_IMPUTABLE[missing[:, t].argmax()]
        raise MissingRequired(m.match_id, column, feature, t + 1)

    imputed = {}
    speed, sp_idx = _imputed_series(p["ball_speed"])
    dist, d_idx = _imputed_series(p["p1_distance_run"])
    if sp_idx:
        imputed["x15"] = sp_idx
        imputed["x16"] = sp_idx
    if d_idx:
        for k in ("x12", "x13", "x14"):
            imputed[k] = d_idx

    s1, s2 = p["p1_score"], p["p2_score"]
    set_won = (p["set_victor"] == 1).astype(int) - (p["set_victor"] == 2)
    # two leading zeros: the running and 3-point sums then add in the same
    # order, from +0.0, as a Python running total and np.sum of a slice
    padded = np.concatenate(([0.0, 0.0], dist))
    X = np.column_stack([
        p["p1_games"],                                          # x1
        s1 - s2,                                                # x2
        p["serve_no"] == 1,                                     # x3
        s1 >= s2,                                               # x4
        np.cumsum(set_won) - set_won,                           # x5: sets before t
        p["p1_ace"], p["p1_winner"],                            # x6, x7
        p["p1_double_fault"], p["p1_unf_err"],                  # x8, x9
        _running_ratio(p["p1_net_pt_won"], p["p1_net_pt"]),     # x10
        _running_ratio(p["p1_break_pt_won"], p["p1_break_pt"]), # x11
        np.cumsum(padded)[2:],                                  # x12
        0.0 + padded[:-2] + padded[1:-1] + padded[2:],          # x13
        dist, speed, speed * p["serve_no"],                     # x14..x16
    ])
    bad = ~np.isfinite(X)
    if bad.any():
        t = int(bad.any(axis=1).argmax())
        raise NonFiniteFeature(FEATURE_IDS[int(bad[t].argmax())], t + 1)
    return FeatureFrame(m.match_id, X, m.outcomes(), imputed)


def standardize(frame: FeatureFrame, columns) -> StandardizedFrame:
    """Min-max standardize the requested columns into [0,1].

    Positive columns map via (x-min)/(max-min), negative columns
    (NEGATIVE_FEATURES) via (max-x)/(max-min). Constant columns map to
    all-zeros. UnknownColumn names the first id that is not a feature.
    """
    columns = list(columns)
    T = frame.T
    z = np.zeros((T, len(columns)))
    mins = np.zeros(len(columns))
    maxs = np.zeros(len(columns))
    for j, c in enumerate(columns):
        x = frame.column(c)
        lo, hi = x.min(), x.max()
        mins[j], maxs[j] = lo, hi
        if hi > lo:
            if c in NEGATIVE_FEATURES:
                z[:, j] = (hi - x) / (hi - lo)
            else:
                z[:, j] = (x - lo) / (hi - lo)
    return StandardizedFrame(z, columns, mins, maxs)
