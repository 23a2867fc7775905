import io
import itertools
import math
import tracemalloc

import corpus
import numpy as np
import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc
from scipy.stats import fisher_exact

from matchpulse import streaks
from matchpulse.errors import DegenerateMargins, EmptyStreaks
from matchpulse.ingest import parse_csv
from matchpulse.streaks import (
    EXTENSION,
    TERMINATION,
    ContingencyTable,
    build_contingency,
    chi2_sf,
    chi_squared_test,
    conditional_win_probs,
    contingency_from_sequences,
    enumerate_exact_p,
    exact_test,
    extract_streaks,
    transition_probs,
)

# the 14-point worked sequence
SAMPLE_14 = [1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1]

# published 31-match winning-streak contingency counts (cap 7)
COUNTS_31 = np.array([
    [936, 765], [485, 351], [298, 221], [137, 161],
    [55, 85], [22, 33], [25, 21],
])


def test_worked_example_counts():
    table = build_contingency(extract_streaks(SAMPLE_14), cap=3)
    assert table.counts.tolist() == [[4, 1], [1, 3], [0, 1]]
    assert table.row_margins.tolist() == [5, 4, 1]


def test_worked_example_transition_probs():
    table = build_contingency(extract_streaks(SAMPLE_14), cap=3)
    assert transition_probs(table) == [0.8, 0.25, 0.0]


def test_all_losses_no_records():
    assert extract_streaks([0, 0, 0]) == []


def test_truncation_terminates_final_run():
    records = extract_streaks([1, 1])
    assert records == [(1, EXTENSION), (2, TERMINATION)]


def test_streaks_match_run_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        seq = rng.integers(0, 2, size=rng.integers(1, 60))
        records = extract_streaks(seq)
        # total records = total points won
        assert len(records) == int(seq.sum())
        # a fresh scan with an explicit loop must agree
        expected = []
        run = 0
        for t, o in enumerate(seq):
            if o == 1:
                run += 1
                if t == len(seq) - 1 or seq[t + 1] == 0:
                    expected += [(i, EXTENSION) for i in range(1, run)]
                    expected.append((run, TERMINATION))
                    run = 0
            else:
                run = 0
        assert records == expected


def test_contingency_31_match_fixture():
    table = ContingencyTable(COUNTS_31.copy(), cap=7)
    assert table.row_margins[0] == 1701
    assert table.n == 3595
    # the published termination margin (1641) disagrees with its own cells;
    # the cells sum to 1637 and 1958 + 1637 = 3595 matches the printed total
    assert table.col_margins.tolist() == [1958, 1637]


def test_contingency_pooling():
    records = [(1, TERMINATION)]
    table = build_contingency(records, cap=3)
    assert table.counts.tolist() == [[0, 1], [0, 0], [0, 0]]


def test_contingency_empty_raises():
    with pytest.raises(EmptyStreaks):
        build_contingency([], cap=3)


def test_contingency_from_sequences_matches_records():
    rng = np.random.default_rng(9)
    seqs = [rng.integers(0, 2, size=80) for _ in range(5)]
    records = [r for s in seqs for r in extract_streaks(s)]
    fast = contingency_from_sequences(seqs, cap=4)
    slow = build_contingency(records, cap=4)
    assert np.array_equal(fast.counts, slow.counts)


# matches of 0/1 points, empty matches included, in the dtypes callers pass
binary_matches = st.lists(st.lists(st.integers(0, 1), max_size=40), max_size=6)
outcome_dtypes = st.sampled_from([int, np.uint8, bool, float])


@settings(max_examples=examples(300), deadline=None)
@given(binary_matches, st.integers(2, 10), outcome_dtypes)
def test_contingency_from_sequences_equals_pooled_records(matches, cap, dtype):
    seqs = [np.array(m, dtype=dtype) for m in matches]
    records = [r for s in seqs for r in extract_streaks(s)]
    if not records:     # no matches, only empty matches, or all losses
        with pytest.raises(EmptyStreaks):
            contingency_from_sequences(seqs, cap=cap)
        return
    fast = contingency_from_sequences(seqs, cap=cap)
    slow = build_contingency(records, cap=cap)
    assert fast.counts.dtype == slow.counts.dtype
    assert np.array_equal(fast.counts, slow.counts)


def test_contingency_from_sequences_all_losses_raise():
    with pytest.raises(EmptyStreaks):
        contingency_from_sequences([[0, 0, 0], [], [0]])
    with pytest.raises(EmptyStreaks):
        contingency_from_sequences([])


def test_transition_prob_certain_row():
    table = ContingencyTable(np.array([[10, 0], [5, 5]]), cap=2)
    assert transition_probs(table)[0] == 1.0


def test_transition_prob_w5_fixture():
    table = ContingencyTable(COUNTS_31.copy(), cap=7)
    assert transition_probs(table)[4] == pytest.approx(55 / 140)


def test_chi2_sf_matches_incomplete_gamma():
    xs = np.concatenate([[1e-6, 1e-3], np.geomspace(0.01, 1600.0, 120)])
    for df in range(1, 61):
        for x in xs:
            ref = float(gammaincc(df / 2.0, x / 2.0))
            if ref < 1e-300:
                continue
            assert chi2_sf(x, df) == pytest.approx(ref, rel=1e-12), (df, x)
        assert chi2_sf(0.0, df) == 1.0


def test_chi2_identical_proportions():
    table = ContingencyTable(np.array([[20, 10]] * 3), cap=3)
    result = chi_squared_test(table)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_chi2_2x2_hand_value():
    # expected counts are all 5; each cell contributes (10-5)^2/5 or (0-5)^2/5
    table = ContingencyTable(np.array([[10, 0], [0, 10]]), cap=2)
    result = chi_squared_test(table)
    assert result.statistic == pytest.approx(20.0)
    assert result.df == 1
    assert 0 < result.p_value < 1e-4


def test_chi2_degenerate_margins():
    with pytest.raises(DegenerateMargins):
        chi_squared_test(ContingencyTable(np.array([[3, 0], [5, 0]]), cap=2))


@pytest.mark.parametrize("test", [chi_squared_test, exact_test, enumerate_exact_p])
@pytest.mark.parametrize("counts", [
    [[3, 1], [0, 0], [0, 0]],       # one populated row
    [[3, 0], [2, 0], [0, 0]],       # an empty termination column
])
def test_degenerate_tables_are_refused(test, counts):
    with pytest.raises(DegenerateMargins):
        test(ContingencyTable(np.array(counts), cap=3))


def test_chi2_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        counts = rng.integers(1, 40, size=(rng.integers(2, 6), 2))
        assert chi_squared_test(ContingencyTable(counts, len(counts))).statistic >= 0


def test_exact_identical_proportions():
    table = ContingencyTable(np.array([[20, 10]] * 3), cap=3)
    result = exact_test(table, replicates=20_000, seed=0)
    assert result.p_value > 1 - 3 * max(result.mc_standard_error, 1e-3)


def test_exact_2x2_diagonal():
    table = ContingencyTable(np.array([[5, 0], [0, 5]]), cap=2)
    expected = 2 / math.comb(10, 5)
    result = exact_test(table, replicates=100_000, seed=0)
    assert abs(result.p_value - expected) <= 3 * result.mc_standard_error
    assert enumerate_exact_p(table) == pytest.approx(expected)


def test_exact_mc_matches_enumeration_small_tables():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 8:
        counts = rng.integers(0, 7, size=(3, 2))
        if (counts.sum(axis=1) == 0).any() or (counts.sum(axis=0) == 0).any():
            continue
        table = ContingencyTable(counts, cap=3)
        exact = enumerate_exact_p(table)
        mc = exact_test(table, replicates=50_000, seed=checked)
        assert abs(mc.p_value - exact) <= 3 * max(mc.mc_standard_error, 1e-4)
        checked += 1


def test_enumeration_equals_fisher_on_every_small_2x2_table():
    checked = 0
    for cells in itertools.product(range(7), repeat=4):
        t = np.array(cells).reshape(2, 2)
        if (t.sum(axis=0) == 0).any() or (t.sum(axis=1) == 0).any():
            continue
        expected = fisher_exact(t, alternative="two-sided")[1]
        p = enumerate_exact_p(ContingencyTable(t, cap=2))
        assert p == pytest.approx(expected, rel=1e-9), cells
        checked += 1
    assert checked == 2232


def test_exact_mc_p_is_unchanged_for_fixed_seed():
    # recorded from the scipy.special.gammaln version of the sampler
    table = ContingencyTable(np.array([[12, 5], [7, 9], [3, 8], [2, 6]]), cap=4)
    result = exact_test(table, replicates=20_000, seed=7)
    assert result.p_value == 0.074


def whole_array_exact_p(table, replicates, seed):
    """The exact test's p-value drawn as exact_test once drew it: each row's
    hypergeometric counts for every replicate in one call, kept as an oracle.
    It computes the observed table's bound itself, not through `streaks`."""
    counts = table.counts[table.row_margins > 0]
    rows = counts.sum(axis=1)
    lfm = sum(math.lgamma(r + 1) for r in rows) + sum(
        math.lgamma(c + 1) for c in counts.sum(axis=0))
    lfn = math.lgamma(counts.sum() + 1)
    obs_lp = lfm - lfn - sum(math.lgamma(c + 1) for c in counts.flat)
    tol = 1e-9 * abs(obs_lp) + 1e-9
    rng = np.random.default_rng(seed)
    n = int(counts.sum())
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    remaining_pop = n
    remaining_col = np.full(replicates, int(counts[:, 0].sum()))
    lp = np.full(replicates, lfm - lfn)
    for i, r in enumerate(rows.tolist()):
        if i == len(rows) - 1:
            x = remaining_col
        else:
            x = rng.hypergeometric(r, remaining_pop - r, remaining_col)
        t = log_fact[x]
        t += log_fact[r - x]
        lp -= t
        remaining_col -= x
        remaining_pop -= r
    return int(np.sum(lp <= obs_lp + tol)) / replicates


def random_tables(count, seed):
    """Tables of 2-8 rows with both columns populated; some rows empty."""
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < count:
        k = int(rng.integers(2, 9))
        counts = rng.integers(0, 60, size=(k, 2)) * (rng.random((k, 1)) > 0.15)
        if (counts.sum(axis=1) > 0).sum() >= 2 and counts.sum(axis=0).min() > 0:
            tables.append(ContingencyTable(counts, k))
    return tables


@pytest.mark.parametrize("replicates, slice_size", [
    (1_000, None), (4_097, None), (20_000, None), (100_000, None),
    (4_097, 7), (4_097, 999),
])
def test_exact_p_equals_whole_array_draw(replicates, slice_size, monkeypatch):
    if slice_size:
        monkeypatch.setattr(streaks, "EXACT_SLICE", slice_size)
    for seed, table in enumerate(random_tables(4, replicates)):
        p = exact_test(table, replicates=replicates, seed=seed).p_value
        assert p == whole_array_exact_p(table, replicates, seed)


def test_exact_test_memory_is_bounded():
    # the 31x300 bench table at the default 100k replicates: with numpy 2.4
    # the whole-array draw traces 4.8 MB, the sliced one 1.8 MB
    matches = parse_csv(io.StringIO(corpus.corpus_csv(31, 300, 0.1, 1)))
    table = contingency_from_sequences([m.outcomes() for m in matches])
    tracemalloc.start()
    try:
        result = exact_test(table, replicates=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.replicates == 100_000
    assert peak < 3e6, peak


def test_exact_requires_replicates():
    with pytest.raises(ValueError):
        exact_test(ContingencyTable(np.array([[5, 5], [5, 5]]), 2), replicates=10)


def test_conditional_probs_alternating():
    table = conditional_win_probs([[1, 0, 1, 0, 1, 0]], cap=3)
    assert table.win_given_win[1][0] == 0.0
    assert table.win_given_loss[1][0] == 1.0


def test_conditional_probs_www():
    table = conditional_win_probs([[1, 1, 1]], cap=3)
    assert table.win_given_win[1] == (1.0, 1, 1)
    assert table.win_given_win[2] == (1.0, 1, 1)
    assert table.win_given_win[3][0] is None   # no next point after W3


def test_conditional_probs_never_cross_matches():
    # last point of match 1 must not look into match 2
    table = conditional_win_probs([[1], [0]], cap=2)
    assert table.win_given_win[1][1] == 0     # zero support, flagged
    assert table.win_given_win[1][0] is None


def test_conditional_probs_brute_force_oracle():
    rng = np.random.default_rng(17)
    seqs = [rng.integers(0, 2, size=rng.integers(5, 50)) for _ in range(6)]
    cap = 4
    table = conditional_win_probs(seqs, cap=cap)
    for side, result in ((1, table.win_given_win), (0, table.win_given_loss)):
        support = {k: 0 for k in range(1, cap + 1)}
        wins = {k: 0 for k in range(1, cap + 1)}
        for seq in seqs:
            for t in range(len(seq) - 1):
                k = 0
                for back in range(t, -1, -1):
                    if seq[back] == side:
                        k += 1
                    else:
                        break
                if k:
                    b = min(k, cap)
                    support[b] += 1
                    wins[b] += int(seq[t + 1] == 1)
        for k in range(1, cap + 1):
            prob, s, w = result[k]
            assert s == support[k] and w == wins[k]
            if s:
                assert prob == pytest.approx(w / s)


def reference_conditional_win_probs(sequences, cap):
    """The per-point loop that `conditional_win_probs` replaced."""
    out = {}
    for side in (1, 0):
        support = np.zeros(cap, dtype=int)
        wins = np.zeros(cap, dtype=int)
        for seq in sequences:
            seq = np.asarray(seq)
            run = 0
            for t in range(len(seq)):
                run = run + 1 if seq[t] == side else 0
                if run and t + 1 < len(seq):
                    b = min(run, cap) - 1
                    support[b] += 1
                    wins[b] += int(seq[t + 1] == 1)
        out[side] = {k: (int(wins[k - 1]) / int(support[k - 1])
                         if support[k - 1] else None,
                         int(support[k - 1]), int(wins[k - 1]))
                     for k in range(1, cap + 1)}
    return out


@settings(max_examples=examples(300), deadline=None)
@given(binary_matches, st.integers(2, 10), outcome_dtypes)
def test_conditional_probs_equal_per_point_loop(matches, cap, dtype):
    seqs = [np.array(m, dtype=dtype) for m in matches]
    table = conditional_win_probs(seqs, cap=cap)
    ref = reference_conditional_win_probs(seqs, cap)
    assert table.win_given_win == ref[1]
    assert table.win_given_loss == ref[0]


def test_margin_consistency_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        seq = rng.integers(0, 2, size=100)
        records = extract_streaks(seq)
        if not records:
            continue
        table = build_contingency(records, cap=5)
        assert table.n == len(records)
        assert np.array_equal(table.row_margins,
                              table.counts[:, 0] + table.counts[:, 1])
