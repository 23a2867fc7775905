import math

import numpy as np
import pytest
from scipy.special import gammaincc

from matchpulse import streaks
from matchpulse.errors import DegenerateMargins, EmptyStreaks
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


def test_exact_enumeration_path():
    table = ContingencyTable(np.array([[4, 2], [1, 3], [2, 2]]), cap=3)
    result = exact_test(table, replicates=1000, enumerate_limit=10**6)
    assert result.method == "exact_enum"
    assert result.p_value == pytest.approx(enumerate_exact_p(table))


def test_exact_mc_p_is_unchanged_for_fixed_seed():
    # recorded from the scipy.special.gammaln version of the sampler
    table = ContingencyTable(np.array([[12, 5], [7, 9], [3, 8], [2, 6]]), cap=4)
    result = exact_test(table, replicates=20_000, seed=7)
    assert result.p_value == 0.074


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
