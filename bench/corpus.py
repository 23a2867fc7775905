"""Seeded full-schema corpus generator owned by the benchmark.

Writes the same point-by-point CSV layout, with the same random draws, as
the full-schema match builder in the test suite: point outcomes come from
a streak-boosted process, score tokens follow real scoring rules, and the
per-point flags are drawn conditionally on the point winner. It imports
nothing from the package or the tests, so a change to the program cannot
change the benchmark's inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

TOKENS = ["0", "15", "30", "40", "AD"]

FLAG_FIELDS = [
    "p1_ace", "p2_ace", "p1_winner", "p2_winner",
    "p1_double_fault", "p2_double_fault", "p1_unf_err", "p2_unf_err",
    "p1_net_pt", "p2_net_pt", "p1_net_pt_won", "p2_net_pt_won",
    "p1_break_pt", "p2_break_pt", "p1_break_pt_won", "p2_break_pt_won",
    "p1_force_err", "p2_force_err",
]

HEADER = [
    "match_id", "set_no", "game_no", "point_no", "p1_games", "p2_games",
    "p1_score", "p2_score", "server", "serve_no", "point_victor",
    "p1_points_won", "p2_points_won", "game_victor", "set_victor",
    *FLAG_FIELDS,
    "ball_speed", "ball_spin", "rally_length", "game_time",
    "serve_direction", "serve_depth", "return_depth",
    "p1_distance_run", "p2_distance_run",
]

PROB_FLOOR, PROB_CEIL = 0.01, 0.99


def outcome_sequences(matches, points, boost, seed, p=0.5):
    """Binary point sequences; k is the signed streak entering a point."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(matches):
        u = rng.random(points)
        if not boost:
            out.append((u < p).astype(int))
            continue
        seq = np.zeros(points, dtype=int)
        k = 0
        for t in range(points):
            delta = boost if k >= 1 else (-boost if k <= -1 else 0.0)
            win = u[t] < min(PROB_CEIL, max(PROB_FLOOR, p + delta))
            seq[t] = 1 if win else 0
            if win:
                k = k + 1 if k > 0 else 1
            else:
                k = k - 1 if k < 0 else -1
        out.append(seq)
    return out


def _score_tokens(p1_pts, p2_pts):
    if p1_pts >= 3 and p2_pts >= 3:
        if p1_pts == p2_pts:
            return "40", "40"
        return ("AD", "40") if p1_pts > p2_pts else ("40", "AD")
    return TOKENS[min(p1_pts, 3)], TOKENS[min(p2_pts, 3)]


def match_rows(outcomes, match_id, seed, flag_strength=0.30, flag_noise=0.05):
    """CSV rows for one match. The order of random draws is part of the
    format: it keeps a seed's corpus identical to the test suite's."""
    rng = np.random.default_rng(seed)
    rows = []
    p1_pts = p2_pts = 0
    p1_games = p2_games = 0
    set_no = game_no = 1
    total1 = total2 = 0

    def flag(active_if):
        return int(rng.random() < (flag_strength if active_if else flag_noise))

    for t, won in enumerate(outcomes, start=1):
        won = int(won) == 1
        tok1, tok2 = _score_tokens(p1_pts, p2_pts)
        server = 1 if game_no % 2 == 1 else 2
        serve_no = 1 if rng.random() < 0.65 else 2
        p1_winner = flag(won)
        p1_ace = flag(won and server == 1 and rng.random() < 0.3)
        p1_unf = flag(not won)
        p1_df = int((not won) and server == 1 and serve_no == 2
                    and rng.random() < 0.15)
        p1_net = int(rng.random() < 0.25)
        p1_net_won = int(p1_net and won)
        p1_bp = int(server == 2 and p1_pts >= 3 and p1_pts > p2_pts)

        if won:
            p1_pts += 1
            total1 += 1
        else:
            p2_pts += 1
            total2 += 1
        game_over = ((p1_pts >= 4 and p1_pts - p2_pts >= 2)
                     or (p2_pts >= 4 and p2_pts - p1_pts >= 2))
        game_victor = set_victor = 0
        p1_bp_won = int(p1_bp and won and game_over)
        if game_over:
            game_victor = 1 if p1_pts > p2_pts else 2
            if game_victor == 1:
                p1_games += 1
            else:
                p2_games += 1
            p1_pts = p2_pts = 0
            game_no += 1
            if max(p1_games, p2_games) >= 6 and abs(p1_games - p2_games) >= 2:
                set_victor = 1 if p1_games > p2_games else 2
                p1_games = p2_games = 0
                set_no += 1
                game_no = 1

        speed = float(np.round(rng.uniform(150, 220) - 40 * (serve_no - 1), 1))
        dist1 = float(np.round(rng.gamma(3.0, 5.0), 2))
        p2_winner = flag(not won)
        p2_unf = flag(won)
        spin = float(np.round(rng.uniform(1000, 4000)))
        rally = int(rng.integers(1, 12))
        game_time = float(np.round(rng.uniform(40, 300)))
        dist2 = float(np.round(rng.gamma(3.0, 5.0), 2))
        flags = {
            "p1_ace": p1_ace, "p2_ace": 0,
            "p1_winner": p1_winner, "p2_winner": p2_winner,
            "p1_double_fault": p1_df, "p2_double_fault": 0,
            "p1_unf_err": p1_unf, "p2_unf_err": p2_unf,
            "p1_net_pt": p1_net, "p2_net_pt": 0,
            "p1_net_pt_won": p1_net_won, "p2_net_pt_won": 0,
            "p1_break_pt": p1_bp, "p2_break_pt": 0,
            "p1_break_pt_won": p1_bp_won, "p2_break_pt_won": 0,
            "p1_force_err": 0, "p2_force_err": 0,
        }
        rows.append([
            match_id, set_no, game_no, t, p1_games, p2_games, tok1, tok2,
            server, serve_no, 1 if won else 2, total1, total2,
            game_victor, set_victor, *(flags[f] for f in FLAG_FIELDS),
            repr(speed), repr(spin), rally, repr(game_time), "", "", "",
            repr(dist1), repr(dist2),
        ])
    return rows


def corpus_csv(matches, points, boost, seed):
    """CSV text of `matches` full-schema matches of `points` points each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    seqs = outcome_sequences(matches, points, boost, seed)
    for i, seq in enumerate(seqs, start=1):
        writer.writerows(match_rows(seq, f"synthetic-{i:04d}", seed * 1000 + i))
    return buf.getvalue()


def write_corpus(path, matches, points, boost, seed):
    """Write the corpus to `path`; returns its description for the result."""
    data = corpus_csv(matches, points, boost, seed).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return {
        "matches": matches, "points_per_match": points,
        "rows": matches * points, "streak_boost": boost, "seed": seed,
        "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
    }
