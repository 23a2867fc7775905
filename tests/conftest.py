"""Shared fixtures: full-schema synthetic matches read from CSV.

Real tournament data is not redistributed, so tests that need the whole
42-column layout take the benchmark's seeded generator, `bench/corpus.py`
(streak-boosted point outcomes, score tokens that follow real scoring
rules, per-point flags drawn conditionally on the point winner), and read
its CSV with `parse_csv`, the way the CLI reads an input file.
"""

import csv
import io

import corpus
import pytest
from hypothesis import settings

from matchpulse.ingest import parse_csv

# `pytest --hypothesis-profile ci` draws 5x the examples: tests that set
# their own count scale it with `examples`
settings.register_profile("ci", max_examples=500)


def examples(n):
    """`n` under the default profile, scaled as the loaded profile scales
    hypothesis's default of 100."""
    return n * settings().max_examples // 100


def match_csv(outcomes, match_id="synthetic-0001", seed=0):
    """CSV text, header included, of one match driven by `outcomes`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [corpus.HEADER, *corpus.match_rows(outcomes, match_id, seed)])
    return buf.getvalue()


def build_match(outcomes, match_id="synthetic-0001", seed=0):
    """MatchData of one match driven by `outcomes`."""
    return parse_csv(io.StringIO(match_csv(outcomes, match_id, seed)))[0]


def build_corpus(n_matches=4, T=220, boost=None, seed=0):
    """MatchData of `n_matches` matches of `T` points each."""
    return parse_csv(io.StringIO(corpus.corpus_csv(n_matches, T, boost, seed)))


@pytest.fixture(scope="session")
def synthetic_match():
    seq = corpus.outcome_sequences(1, 320, 0.18, 7)[0]
    return build_match(seq, match_id="synthetic-final", seed=7)


@pytest.fixture(scope="session")
def synthetic_corpus():
    return build_corpus(n_matches=6, T=220, boost=0.12, seed=11)


@pytest.fixture(scope="session")
def synthetic_csv():
    return corpus.corpus_csv(6, 220, 0.12, 11)
