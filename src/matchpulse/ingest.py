"""Parsing of point-by-point match CSVs and engineered feature derivation.

The input schema follows the published 37-column point-by-point format
(score tokens 0/15/30/40/AD, per-player flags, ball speed, distance run).
From each match we derive 16 per-point features x1..x16 and the binary
point outcome for Player 1, then min-max standardize selected columns.
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
    MissingColumn,
    MissingRequired,
    UnknownColumn,
)

SCORE_ORDINALS = {"0": 0, "15": 1, "30": 2, "40": 3, "AD": 4}

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

# internal field -> CSV header name; callers may override any entry
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

# columns every file must resolve; everything else may be absent
REQUIRED_FIELDS = ("match_id", "point_no", "point_victor")


@dataclass
class PointRecord:
    match_id: str
    point_no: int
    point_victor: int
    set_no: int | None = None
    game_no: int | None = None
    p1_games: int | None = None
    p2_games: int | None = None
    p1_score_token: str | None = None
    p2_score_token: str | None = None
    server: int | None = None
    serve_no: int | None = None
    p1_points_won: int | None = None
    p2_points_won: int | None = None
    game_victor: int | None = None
    set_victor: int | None = None
    flags: dict = field(default_factory=dict)
    ball_speed: float | None = None
    ball_spin: float | None = None
    rally_length: int | None = None
    game_time: float | None = None
    serve_direction: str | None = None
    serve_depth: str | None = None
    return_depth: str | None = None
    p1_distance_run: float | None = None
    p2_distance_run: float | None = None


@dataclass
class MatchData:
    match_id: str
    points: list

    def outcomes(self) -> np.ndarray:
        """Binary vector, 1 where Player 1 won the point."""
        return np.array([1 if p.point_victor == 1 else 0 for p in self.points])


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
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["match_id", "point"] + self.feature_ids + ["outcome"])
        for t in range(self.T):
            writer.writerow(
                [self.match_id, t + 1]
                + [repr(v) for v in self.features[t]]
                + [int(self.outcome[t])]
            )

    def to_json(self):
        return {
            "match_id": self.match_id,
            "feature_ids": self.feature_ids,
            "features": self.features.tolist(),
            "outcome": self.outcome.tolist(),
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


def _to_int(value, row_no, column):
    try:
        return int(value)
    except ValueError:
        raise BadToken(row_no, column, value) from None


def _to_float(value, row_no, column):
    try:
        v = float(value)
    except ValueError:
        raise BadToken(row_no, column, value) from None
    if math.isnan(v):
        return None
    return v


def parse_csv(source, schema=None) -> list:
    """Parse a point-by-point CSV into one MatchData per distinct match_id.

    `source` may be a path, a text stream, or a byte stream (UTF-8).
    Missing cells (empty strings, or entirely absent optional columns)
    become None, never zero.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    close = False
    if isinstance(source, str) and "\n" not in source and os.path.exists(source):
        stream = open(source, newline="", encoding="utf-8")
        close = True
    elif isinstance(source, bytes):
        stream = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        stream = io.StringIO(source)
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        stream = io.StringIO(data)
    else:
        raise TypeError(f"unsupported source: {type(source)!r}")

    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput("no header row") from None
        header = [h.strip() for h in header]
        col_index = {}
        for fld, col_name in schema.items():
            if col_name in header:
                col_index[fld] = header.index(col_name)
        for fld in REQUIRED_FIELDS:
            if fld not in col_index:
                raise MissingColumn(schema[fld])

        matches: dict[str, MatchData] = {}
        n_rows = 0
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            n_rows += 1

            def cell(fld):
                idx = col_index.get(fld)
                if idx is None or idx >= len(row):
                    return None
                v = row[idx].strip()
                return v if v != "" else None

            match_id = cell("match_id")
            victor = _to_int(cell("point_victor"), row_no, schema["point_victor"])
            if victor not in (1, 2):
                raise BadToken(row_no, schema["point_victor"], cell("point_victor"))

            rec = PointRecord(
                match_id=match_id,
                point_no=_to_int(cell("point_no"), row_no, schema["point_no"]),
                point_victor=victor,
            )
            for fld in ("set_no", "game_no", "p1_games", "p2_games",
                        "p1_points_won", "p2_points_won", "rally_length"):
                v = cell(fld)
                if v is not None:
                    setattr(rec, fld, _to_int(v, row_no, schema[fld]))
            for fld, allowed in (("server", (1, 2)), ("serve_no", (1, 2)),
                                 ("game_victor", (0, 1, 2)), ("set_victor", (0, 1, 2))):
                v = cell(fld)
                if v is not None:
                    iv = _to_int(v, row_no, schema[fld])
                    if iv not in allowed:
                        raise BadToken(row_no, schema[fld], v)
                    setattr(rec, fld, iv)
            for fld in ("p1_score_token", "p2_score_token"):
                v = cell(fld)
                if v is not None:
                    if v not in SCORE_ORDINALS:
                        raise BadToken(row_no, schema[fld], v)
                    setattr(rec, fld, v)
            for fld in FLAG_FIELDS:
                v = cell(fld)
                if v is not None:
                    iv = _to_int(v, row_no, schema[fld])
                    if iv not in (0, 1):
                        raise BadToken(row_no, schema[fld], v)
                    rec.flags[fld] = iv
            for fld in ("ball_speed", "ball_spin", "game_time",
                        "p1_distance_run", "p2_distance_run"):
                v = cell(fld)
                if v is not None:
                    setattr(rec, fld, _to_float(v, row_no, schema[fld]))
            for fld in ("serve_direction", "serve_depth", "return_depth"):
                v = cell(fld)
                if v is not None:
                    setattr(rec, fld, v)

            if match_id not in matches:
                matches[match_id] = MatchData(match_id, [])
            matches[match_id].points.append(rec)

        if n_rows == 0:
            raise EmptyInput("no data rows")
        return list(matches.values())
    finally:
        if close:
            stream.close()


def write_points_csv(matches, stream, schema=None):
    """Serialize MatchData back to the input CSV layout (round-trip safe)."""
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    fields = list(schema.keys())
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([schema[f] for f in fields])
    for m in matches:
        for p in m.points:
            row = []
            for f in fields:
                v = p.flags.get(f) if f in FLAG_FIELDS else getattr(p, f)
                if v is None:
                    row.append("")
                elif isinstance(v, float):
                    row.append(repr(v))
                else:
                    row.append(v)
            writer.writerow(row)


def _imputed_series(values):
    """Median-impute missing entries; returns (array, imputed indices)."""
    arr = np.array([np.nan if v is None else float(v) for v in values])
    missing = np.where(np.isnan(arr))[0]
    if len(missing) == len(arr):
        return np.zeros(len(arr)), list(missing)
    if len(missing):
        arr[missing] = np.nanmedian(arr)
    return arr, list(missing)


def derive_features(m: MatchData) -> FeatureFrame:
    """Derive the 16 engineered features for every point of one match.

    Score tokens map to ordinals 0/15/30/40/AD -> 0/1/2/3/4 before
    differencing. Cumulative ratios (x10, x11) use running totals up to
    and including the current point, with 0/0 defined as 0. Ball speed
    and distance gaps are imputed with the match median and flagged.
    """
    pts = m.points
    T = len(pts)
    X = np.zeros((T, 16))
    outcome = np.zeros(T, dtype=int)
    imputed = {}

    speed, sp_idx = _imputed_series([p.ball_speed for p in pts])
    dist, d_idx = _imputed_series([p.p1_distance_run for p in pts])
    if sp_idx:
        imputed["x15"] = sp_idx
        imputed["x16"] = sp_idx
    if d_idx:
        for k in ("x12", "x13", "x14"):
            imputed[k] = d_idx

    sets_p1 = sets_p2 = 0
    net_pt = net_won = 0
    bp = bp_won = 0
    cum_dist = 0.0
    for t, p in enumerate(pts):
        outcome[t] = 1 if p.point_victor == 1 else 0
        for fld, feat in (("p1_games", "x1"), ("p1_score_token", "x2"),
                          ("p2_score_token", "x2"), ("serve_no", "x3")):
            if getattr(p, fld) is None:
                raise MissingRequired(feat, t + 1)
        for fld in ("p1_ace", "p1_winner", "p1_double_fault", "p1_unf_err",
                    "p1_net_pt", "p1_net_pt_won", "p1_break_pt", "p1_break_pt_won"):
            if fld not in p.flags:
                raise MissingRequired(fld, t + 1)

        s1 = SCORE_ORDINALS[p.p1_score_token]
        s2 = SCORE_ORDINALS[p.p2_score_token]
        X[t, 0] = p.p1_games
        X[t, 1] = s1 - s2
        X[t, 2] = 1 if p.serve_no == 1 else 0
        X[t, 3] = 1 if s1 >= s2 else 0
        X[t, 4] = sets_p1 - sets_p2
        X[t, 5] = p.flags["p1_ace"]
        X[t, 6] = p.flags["p1_winner"]
        X[t, 7] = p.flags["p1_double_fault"]
        X[t, 8] = p.flags["p1_unf_err"]
        net_pt += p.flags["p1_net_pt"]
        net_won += p.flags["p1_net_pt_won"]
        X[t, 9] = net_won / net_pt if net_pt else 0.0
        bp += p.flags["p1_break_pt"]
        bp_won += p.flags["p1_break_pt_won"]
        X[t, 10] = bp_won / bp if bp else 0.0
        cum_dist += dist[t]
        X[t, 11] = cum_dist
        X[t, 12] = dist[max(0, t - 2):t + 1].sum()
        X[t, 13] = dist[t]
        X[t, 14] = speed[t]
        X[t, 15] = speed[t] * p.serve_no

        if p.set_victor == 1:
            sets_p1 += 1
        elif p.set_victor == 2:
            sets_p2 += 1

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
