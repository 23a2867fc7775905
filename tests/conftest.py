"""Shared fixtures: a full-schema synthetic match builder.

Real tournament data is not redistributed, so tests that need the whole
37-column layout synthesize matches: point outcomes come from a
streak-boosted process, in-game score tokens follow real scoring rules
(15/30/40/AD, deuce), and the per-point flags are drawn conditionally on
the point winner so the engineered features carry genuine signal.
"""

import io

import numpy as np
import pytest

from matchpulse.ingest import (
    DEFAULT_SCHEMA,
    SCORE_ORDINALS,
    MatchData,
    point_table,
    write_points_csv,
)
from matchpulse.synth import GeneratorConfig, gen_momentum

TOKENS = ["0", "15", "30", "40", "AD"]


def _score_tokens(p1_pts, p2_pts):
    if p1_pts >= 3 and p2_pts >= 3:
        if p1_pts == p2_pts:
            return "40", "40"
        if p1_pts > p2_pts:
            return "AD", "40"
        return "40", "AD"
    return TOKENS[min(p1_pts, 3)], TOKENS[min(p2_pts, 3)]


def build_match(outcomes, match_id="synthetic-0001", seed=0,
                flag_strength=0.30, flag_noise=0.05):
    """MatchData with realistic scoring state driven by `outcomes`.

    Flags for Player 1 (winner, unforced error, ace, net points) are
    drawn conditionally on who won the point, with probability
    `flag_strength` when consistent and `flag_noise` otherwise.
    """
    rng = np.random.default_rng(seed)
    points = []
    p1_pts = p2_pts = 0           # within current game
    p1_games = p2_games = 0       # within current set
    set_no = game_no = 1
    sets1 = sets2 = 0
    total1 = total2 = 0
    for t, won in enumerate(outcomes, start=1):
        won = int(won) == 1
        tok1, tok2 = _score_tokens(p1_pts, p2_pts)
        server = 1 if (game_no % 2 == 1) else 2
        serve_no = 1 if rng.random() < 0.65 else 2

        def flag(active_if):
            p = flag_strength if active_if else flag_noise
            return int(rng.random() < p)

        p1_winner = flag(won)
        p1_ace = flag(won and server == 1 and rng.random() < 0.3)
        p1_unf = flag(not won)
        p1_df = int((not won) and server == 1 and serve_no == 2
                    and rng.random() < 0.15)
        p1_net = int(rng.random() < 0.25)
        p1_net_won = int(p1_net and won)
        p2_serving = server == 2
        p1_bp = int(p2_serving and p1_pts >= 3 and p1_pts > p2_pts)

        # resolve the game after this point
        if won:
            p1_pts += 1
            total1 += 1
        else:
            p2_pts += 1
            total2 += 1
        game_over = (p1_pts >= 4 and p1_pts - p2_pts >= 2) or \
                    (p2_pts >= 4 and p2_pts - p1_pts >= 2)
        game_victor = 0
        set_victor = 0
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
                if set_victor == 1:
                    sets1 += 1
                else:
                    sets2 += 1
                p1_games = p2_games = 0
                set_no += 1
                game_no = 1

        speed = float(np.round(rng.uniform(150, 220)
                               - 40 * (serve_no - 1), 1))
        dist1 = float(np.round(rng.gamma(3.0, 5.0), 2))
        points.append(dict(
            match_id=match_id, point_no=t, point_victor=1 if won else 2,
            set_no=set_no, game_no=game_no,
            p1_games=p1_games, p2_games=p2_games,
            p1_score_token=SCORE_ORDINALS[tok1],
            p2_score_token=SCORE_ORDINALS[tok2],
            server=server, serve_no=serve_no,
            p1_points_won=total1, p2_points_won=total2,
            game_victor=game_victor, set_victor=set_victor,
            **{
                "p1_ace": p1_ace, "p2_ace": 0,
                "p1_winner": p1_winner, "p2_winner": flag(not won),
                "p1_double_fault": p1_df, "p2_double_fault": 0,
                "p1_unf_err": p1_unf, "p2_unf_err": flag(won),
                "p1_net_pt": p1_net, "p2_net_pt": 0,
                "p1_net_pt_won": p1_net_won, "p2_net_pt_won": 0,
                "p1_break_pt": p1_bp, "p2_break_pt": 0,
                "p1_break_pt_won": p1_bp_won, "p2_break_pt_won": 0,
                "p1_force_err": 0, "p2_force_err": 0,
            },
            ball_speed=speed, ball_spin=float(np.round(rng.uniform(1000, 4000))),
            rally_length=int(rng.integers(1, 12)),
            game_time=float(np.round(rng.uniform(40, 300))),
            p1_distance_run=dist1,
            p2_distance_run=float(np.round(rng.gamma(3.0, 5.0), 2)),
        ))
    return MatchData(match_id, point_table(
        {f: [p.get(f) for p in points] for f in DEFAULT_SCHEMA}))


def build_corpus(n_matches=4, T=220, p=0.5, boost=None, seed=0):
    """Several synthetic full-schema matches with shared config."""
    seqs = gen_momentum(GeneratorConfig(p=p, T=T, matches=n_matches,
                                        seed=seed, boost=boost))
    return [
        build_match(seq, match_id=f"synthetic-{i:04d}", seed=seed * 1000 + i)
        for i, seq in enumerate(seqs, start=1)
    ]


def corpus_csv(matches):
    buf = io.StringIO()
    write_points_csv(matches, buf)
    return buf.getvalue()


@pytest.fixture(scope="session")
def synthetic_match():
    boost = lambda k: 0.18 if k >= 1 else (-0.18 if k <= -1 else 0.0)
    seq = gen_momentum(GeneratorConfig(p=0.5, T=320, matches=1, seed=7,
                                       boost=boost))[0]
    return build_match(seq, match_id="synthetic-final", seed=7)


@pytest.fixture(scope="session")
def synthetic_corpus():
    boost = lambda k: 0.12 if k >= 1 else (-0.12 if k <= -1 else 0.0)
    return build_corpus(n_matches=6, T=220, boost=boost, seed=11)


@pytest.fixture(scope="session")
def synthetic_csv(synthetic_corpus):
    return corpus_csv(synthetic_corpus)
