"""Parsing of point-by-point match CSVs and engineered feature derivation.

The input schema follows the published 37-column point-by-point format
(score tokens 0/15/30/40/AD, per-player flags, ball speed, distance run).
Each match is kept as columns: a numpy structured array with one field
per schema field and one row per point. From each match we derive 16
per-point features x1..x16 and the binary point outcome for Player 1,
then min-max standardize selected columns.
"""

from __future__ import annotations

import csv
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
    PointOrder,
    UnknownColumn,
)

SCORE_ORDINALS = {"0": 0, "15": 1, "30": 2, "40": 3, "AD": 4}
SCORE_TOKENS = list(SCORE_ORDINALS)

FEATURE_IDS = [f"x{i}" for i in range(1, 17)]

# x8 (double fault) and x9 (unforced error) hurt Player 1; everything else
# is treated as the-more-the-better for standardization purposes.
NEGATIVE_FEATURES = {"x8", "x9"}

FLAG_FIELDS = [
    "p1_ace", "p2_ace", "p1_winner", "p2_winner",
    "p1_double_fault", "p2_double_fault", "p1_unf_err", "p2_unf_err",
    "p1_net_pt", "p2_net_pt", "p1_net_pt_won", "p2_net_pt_won",
    "p1_break_pt", "p2_break_pt", "p1_break_pt_won", "p2_break_pt_won",
    "p1_force_err", "p2_force_err",
]

# internal field -> CSV header name
DEFAULT_SCHEMA = {
    "match_id": "match_id",
    "set_no": "set_no",
    "game_no": "game_no",
    "point_no": "point_no",
    "p1_games": "p1_games",
    "p2_games": "p2_games",
    "p1_score_token": "p1_score",
    "p2_score_token": "p2_score",
    "server": "server",
    "serve_no": "serve_no",
    "point_victor": "point_victor",
    "p1_points_won": "p1_points_won",
    "p2_points_won": "p2_points_won",
    "game_victor": "game_victor",
    "set_victor": "set_victor",
    **{f: f for f in FLAG_FIELDS},
    "ball_speed": "ball_speed",
    "ball_spin": "ball_spin",
    "rally_length": "rally_length",
    "game_time": "game_time",
    "serve_direction": "serve_direction",
    "serve_depth": "serve_depth",
    "return_depth": "return_depth",
    "p1_distance_run": "p1_distance_run",
    "p2_distance_run": "p2_distance_run",
}

# columns every file must resolve, with non-empty cells; the rest may be absent
REQUIRED_FIELDS = ("match_id", "point_no", "point_victor")

# Text fields are stored as objects (None when missing); every other field is
# a float64 column with NaN when missing, score tokens as their ordinals.
TEXT_FIELDS = ("match_id", "serve_direction", "serve_depth", "return_depth")
REAL_FIELDS = ("ball_speed", "ball_spin", "game_time",
               "p1_distance_run", "p2_distance_run")
TOKEN_FIELDS = ("p1_score_token", "p2_score_token")
POINT_DTYPE = np.dtype([(f, object if f in TEXT_FIELDS else float)
                        for f in DEFAULT_SCHEMA])

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


# field -> cell converter, in the order that decides which of several faults
# in one row is reported
_CHECKS = {
    "match_id": str,
    "point_victor": _integer((1, 2)),
    "point_no": _integer(),
    **{f: _integer() for f in ("set_no", "game_no", "p1_games", "p2_games",
                               "p1_points_won", "p2_points_won", "rally_length")},
    "server": _integer((1, 2)),
    "serve_no": _integer((1, 2)),
    "game_victor": _integer((0, 1, 2)),
    "set_victor": _integer((0, 1, 2)),
    **{f: _token for f in TOKEN_FIELDS},
    **{f: _integer((0, 1)) for f in FLAG_FIELDS},
    **{f: _real for f in REAL_FIELDS},
    **{f: str for f in ("serve_direction", "serve_depth", "return_depth")},
}


def point_table(columns):
    """Structured array of points from field -> values; absent fields are missing."""
    # np.zeros: np.empty is much slower to set up object fields
    table = np.zeros(len(columns["point_no"]), POINT_DTYPE)
    for f in DEFAULT_SCHEMA:
        table[f] = columns.get(f, None if f in TEXT_FIELDS else np.nan)
    return table


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
    feature_ids: list = field(default_factory=lambda: list(FEATURE_IDS))
    orientation: dict = field(default_factory=dict)
    imputed: dict = field(default_factory=dict)   # feature id -> point indices

    @property
    def T(self):
        return self.features.shape[0]

    def column(self, feature_id) -> np.ndarray:
        if feature_id not in self.feature_ids:
            raise UnknownColumn(feature_id)
        return self.features[:, self.feature_ids.index(feature_id)]

    def to_csv(self, stream):
        """Write one CSV row per point, in CSV_HEADER's columns (no header)."""
        write_csv_rows(stream, (
            [self.match_id, t, *x, y] for t, (x, y) in enumerate(
                zip(self.features.tolist(), self.outcome.tolist()), start=1)))

    def to_json(self):
        """Per-match metadata; the values themselves go to `to_csv`."""
        return {
            "match_id": self.match_id,
            "feature_ids": self.feature_ids,
            "T": self.T,
            "orientation": self.orientation,
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


def _read(stream):
    """Read the header and the non-blank rows: (schema field -> column
    index, row numbers, cells column by column)."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise EmptyInput("no header row")
    header = [h.strip() for h in header]
    index = {f: header.index(name) for f, name in DEFAULT_SCHEMA.items()
             if name in header}
    for f in REQUIRED_FIELDS:
        if f not in index:
            raise MissingColumn(DEFAULT_SCHEMA[f])
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


def _convert(cells, convert, required, dtype):
    """Values of one column, and the index of its first bad cell (or None).

    Each distinct cell is stripped and converted once. An empty cell is
    missing (NaN, or None in text), or bad in a required column; so is a
    cell `convert` rejects.
    """
    missing = None if dtype is object else np.nan
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
    first = next((i for i, c in enumerate(cells) if c in bad), None) if bad else None
    return np.fromiter(map(values.__getitem__, cells), dtype, len(cells)), first


def parse_csv(source) -> list:
    """Parse a point-by-point CSV into one MatchData per distinct match_id.

    `source` is a path or a text stream. Missing cells (empty strings, or
    entirely absent optional columns) become NaN, or None in text columns,
    never zero; "nan" is missing too, while an infinite number is a bad
    token. The match_id, point_no and point_victor cells must not be
    empty. Within a match, point_no must strictly increase from row to
    row. Of several faults, the one in the earliest row is raised.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, newline="", encoding="utf-8") as stream:
                index, row_nos, cells = _read(stream)
        else:
            index, row_nos, cells = _read(source)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise MatchPulseError(f"cannot read input: {exc}") from None

    columns, faults = {}, []
    for rank, (f, convert) in enumerate(_CHECKS.items()):
        if f in index:
            col = cells[index[f]]
            columns[f], bad = _convert(col, convert, f in REQUIRED_FIELDS,
                                       object if f in TEXT_FIELDS else float)
            if bad is not None:
                faults.append((bad, rank, BadToken(
                    row_nos[bad], DEFAULT_SCHEMA[f], col[bad].strip())))
    del cells, col      # the cell strings: most of the memory a parse takes

    # group rows by match in order of first appearance, file order within
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
        faults.append((i, len(_CHECKS), PointOrder(
            row_nos[i], ids[i], int(point_no[j + 1]), int(point_no[j]))))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]

    table = point_table(columns)[order]
    bounds = np.cumsum(np.bincount(codes))[:-1]
    return [MatchData(m, points)
            for m, points in zip(code_of, np.split(table, bounds))]


def write_points_csv(matches, stream):
    """Serialize MatchData back to the input CSV layout (round-trip safe)."""
    def cells(f, values):
        if f in TEXT_FIELDS:
            return values                   # csv writes None as ""
        if f in REAL_FIELDS:
            return ["" if v != v else repr(v) for v in values]
        if f in TOKEN_FIELDS:
            return ["" if v != v else SCORE_TOKENS[int(v)] for v in values]
        return ["" if v != v else int(v) for v in values]

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DEFAULT_SCHEMA.values())
    for m in matches:
        writer.writerows(zip(*(cells(f, m.points[f].tolist())
                               for f in DEFAULT_SCHEMA)))


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
_NON_IMPUTABLE = [("p1_games", "x1"), ("p1_score_token", "x2"),
                  ("p2_score_token", "x2"), ("serve_no", "x3")] + [
    (f, f) for f in ("p1_ace", "p1_winner", "p1_double_fault", "p1_unf_err",
                     "p1_net_pt", "p1_net_pt_won", "p1_break_pt",
                     "p1_break_pt_won")]


def derive_features(m: MatchData) -> FeatureFrame:
    """Derive the 16 engineered features for every point of one match.

    Score tokens map to ordinals 0/15/30/40/AD -> 0/1/2/3/4 before
    differencing. Cumulative ratios (x10, x11) use running totals up to
    and including the current point, with 0/0 defined as 0. Ball speed
    and distance gaps are imputed with the match median and flagged.
    """
    p = m.points
    missing = np.isnan([p[f] for f, _ in _NON_IMPUTABLE])
    if missing.any():
        t = int(missing.any(axis=0).argmax())
        raise MissingRequired(_NON_IMPUTABLE[missing[:, t].argmax()][1], t + 1)

    imputed = {}
    speed, sp_idx = _imputed_series(p["ball_speed"])
    dist, d_idx = _imputed_series(p["p1_distance_run"])
    if sp_idx:
        imputed["x15"] = sp_idx
        imputed["x16"] = sp_idx
    if d_idx:
        for k in ("x12", "x13", "x14"):
            imputed[k] = d_idx

    s1, s2 = p["p1_score_token"], p["p2_score_token"]
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
    outcome = (p["point_victor"] == 1).astype(int)

    orientation = {
        fid: ("negative" if fid in NEGATIVE_FEATURES else "positive")
        for fid in FEATURE_IDS
    }
    return FeatureFrame(m.match_id, X, outcome, list(FEATURE_IDS), orientation, imputed)


def standardize(frame: FeatureFrame, columns) -> StandardizedFrame:
    """Min-max standardize the requested columns into [0,1].

    Positive columns map via (x-min)/(max-min), negative columns via
    (max-x)/(max-min). Constant columns map to all-zeros.
    """
    columns = list(columns)
    for c in columns:
        if c not in frame.feature_ids:
            raise UnknownColumn(c)
    T = frame.T
    z = np.zeros((T, len(columns)))
    mins = np.zeros(len(columns))
    maxs = np.zeros(len(columns))
    for j, c in enumerate(columns):
        x = frame.column(c)
        lo, hi = x.min(), x.max()
        mins[j], maxs[j] = lo, hi
        if hi > lo:
            if frame.orientation.get(c, "positive") == "negative":
                z[:, j] = (hi - x) / (hi - lo)
            else:
                z[:, j] = (x - lo) / (hi - lo)
    return StandardizedFrame(z, columns, mins, maxs)
