"""Streak extraction, contingency tables, and momentum existence tests.

A winning run of length L contributes one record per prefix length
i = 1..L: the prefix is an "extension" when the run continues past i and
a "termination" otherwise (next point lost, or the sequence ends).
Streaks never cross match boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMargins, EmptyStreaks

EXTENSION = "extension"
TERMINATION = "termination"

DEFAULT_CAP = 7  # lengths >= cap pooled into one row (e.g. W7+)


@dataclass
class ContingencyTable:
    counts: np.ndarray        # k x 2 ints: column 0 extensions, column 1 terminations
    cap: int

    @property
    def k(self):
        return self.counts.shape[0]

    @property
    def row_margins(self):
        return self.counts.sum(axis=1)

    @property
    def col_margins(self):
        return self.counts.sum(axis=0)

    @property
    def n(self):
        return int(self.counts.sum())

    def row_labels(self):
        labels = [f"W_{i}" for i in range(1, self.cap)]
        labels.append(f"W_{self.cap}+")
        return labels

    def to_json(self):
        return {
            "cap": self.cap,
            "rows": self.row_labels(),
            "extension": self.counts[:, 0].tolist(),
            "termination": self.counts[:, 1].tolist(),
            "row_margins": self.row_margins.tolist(),
            "col_margins": self.col_margins.tolist(),
            "n": self.n,
        }

    def format(self):
        lines = [f"{'Streak':>8} {'Extension':>10} {'Termination':>12} {'n_i.':>8}"]
        for lab, (e, t) in zip(self.row_labels(), self.counts):
            lines.append(f"{lab:>8} {e:>10d} {t:>12d} {e + t:>8d}")
        c = self.col_margins
        lines.append(f"{'n_.j':>8} {c[0]:>10d} {c[1]:>12d} {self.n:>8d}")
        return "\n".join(lines)


@dataclass
class TestResult:
    method: str               # "pearson_chi2" or "exact_mc"
    statistic: float | None
    df: int | None
    p_value: float
    validity: bool
    replicates: int | None = None
    mc_standard_error: float | None = None

    def to_json(self):
        return {
            "method": self.method,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "validity": self.validity,
            "replicates": self.replicates,
            "mc_standard_error": self.mc_standard_error,
        }


@dataclass
class ConditionalProbTable:
    cap: int
    win_given_win: dict = field(default_factory=dict)   # k -> (prob or None, n_after, n_wins)
    win_given_loss: dict = field(default_factory=dict)

    def to_json(self):
        def enc(d):
            return {
                str(k): {"prob": p, "support": s, "wins": w}
                for k, (p, s, w) in d.items()
            }
        return {
            "cap": self.cap,
            "win_given_win": enc(self.win_given_win),
            "win_given_loss": enc(self.win_given_loss),
        }


def run_lengths(outcomes) -> np.ndarray:
    """Lengths of the maximal winning runs in sequence order."""
    padded = np.concatenate([[0], np.asarray(outcomes), [0]])
    changes = np.diff(padded)
    starts = np.where(changes == 1)[0]
    ends = np.where(changes == -1)[0]
    return ends - starts


def extract_streaks(outcomes) -> list:
    """List of (prefix_length, EXTENSION | TERMINATION) records for win runs.

    A run of length L yields extension records for prefix lengths 1..L-1
    and one termination record at L (ended by a loss or by truncation).
    """
    records = []
    for L in run_lengths(outcomes):
        records.extend((i, EXTENSION) for i in range(1, L))
        records.append((int(L), TERMINATION))
    return records


def build_contingency(records, cap=DEFAULT_CAP) -> ContingencyTable:
    if cap < 2:
        raise ValueError("cap must be >= 2")
    if not records:
        raise EmptyStreaks("no streak records")
    counts = np.zeros((cap, 2), dtype=int)
    for length, kind in records:
        row = min(length, cap) - 1
        counts[row, 0 if kind == EXTENSION else 1] += 1
    return ContingencyTable(counts, cap)


def contingency_from_sequences(sequences, cap=DEFAULT_CAP) -> ContingencyTable:
    """Pooled contingency table over several matches, without materializing
    per-prefix records (equivalent to build_contingency on the concatenated
    extract_streaks output, but fast enough for calibration loops)."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    all_lengths = np.concatenate(
        [run_lengths(seq) for seq in sequences] or [np.array([], dtype=int)]
    )
    if len(all_lengths) == 0:
        raise EmptyStreaks("no winning runs in any sequence")
    max_len = int(all_lengths.max())
    hist = np.bincount(all_lengths, minlength=max_len + 1)
    counts = np.zeros((cap, 2), dtype=int)
    for i in range(1, max_len + 1):
        row = min(i, cap) - 1
        counts[row, 0] += int(hist[i + 1:].sum())   # runs continuing past i
        counts[row, 1] += int(hist[i])              # runs ending exactly at i
    return ContingencyTable(counts, cap)


def transition_probs(table: ContingencyTable):
    """Per-row extension probability n_i1 / n_i.; zero-support rows -> None."""
    probs = []
    for e, t in table.counts:
        total = e + t
        probs.append(e / total if total > 0 else None)
    return probs


def _nonzero_rows(table):
    mask = table.row_margins > 0
    return table.counts[mask].astype(float)


def chi2_sf(x, df):
    """Upper tail P(X > x) of the chi-squared distribution, integer df >= 1.

    Closed form of the regularized upper incomplete gamma Q(df/2, x/2):
    with h = x/2, even df sums e^-h h^k / k! for k < df/2, odd df adds
    e^-h h^(j-1/2) / Gamma(j+1/2) for j = 1..(df-1)/2 to erfc(sqrt h).
    Each term is exp(k log h - h - lgamma(k+1)), so deep tails do not
    underflow early; all terms are positive, so nothing cancels.
    """
    h = x / 2.0
    if h <= 0:
        return 1.0
    log_h = math.log(h)
    if df % 2 == 0:
        return math.fsum(math.exp(k * log_h - h - math.lgamma(k + 1))
                         for k in range(df // 2))
    return math.erfc(math.sqrt(h)) + math.fsum(
        math.exp((j - 0.5) * log_h - h - math.lgamma(j + 0.5))
        for j in range(1, (df + 1) // 2))


def chi_squared_test(table: ContingencyTable) -> TestResult:
    """Pearson chi-squared independence test on the k x 2 table.

    Rows with zero margin are dropped (df shrinks accordingly). The tail
    probability is the closed-form chi-squared upper tail for the integer
    df (`chi2_sf`).
    """
    counts = _nonzero_rows(table)
    k = counts.shape[0]
    col = counts.sum(axis=0)
    if k < 2 or col.min() <= 0:
        raise DegenerateMargins("need >= 2 populated rows and both columns > 0")
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), col) / n
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = k - 1
    p = chi2_sf(stat, df)
    validity = bool(expected.min() >= 5 and n >= 50)
    return TestResult("pearson_chi2", stat, df, p, validity)


def _log_table_prob(counts, log_fact_margins, log_fact_n):
    # multivariate hypergeometric probability of a table given its margins
    return log_fact_margins - log_fact_n - sum(
        math.lgamma(c + 1) for c in counts.flat
    )


def _margin_log_consts(counts):
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    lfm = sum(math.lgamma(r + 1) for r in rows) + sum(
        math.lgamma(c + 1) for c in cols
    )
    return lfm, math.lgamma(counts.sum() + 1)


def enumerate_exact_p(table: ContingencyTable) -> float:
    """Full-enumeration Fisher-style p-value over all tables with the margins."""
    counts = _nonzero_rows(table).astype(int)
    rows = counts.sum(axis=1)
    col1 = int(counts[:, 0].sum())
    lfm, lfn = _margin_log_consts(counts)
    obs_lp = _log_table_prob(counts, lfm, lfn)
    tol = 1e-9 * abs(obs_lp) + 1e-9

    total_p = 0.0

    def rec(i, remaining, partial_lp):
        nonlocal total_p
        if i == len(rows) - 1:
            if 0 <= remaining <= rows[i]:
                lp = (
                    partial_lp + lfm - lfn
                    - math.lgamma(remaining + 1)
                    - math.lgamma(rows[i] - remaining + 1)
                )
                if lp <= obs_lp + tol:
                    total_p += math.exp(lp)
            return
        lo = max(0, remaining - int(rows[i + 1:].sum()))
        hi = min(rows[i], remaining)
        for x in range(lo, hi + 1):
            rec(
                i + 1,
                remaining - x,
                partial_lp - math.lgamma(x + 1) - math.lgamma(rows[i] - x + 1),
            )

    rec(0, col1, 0.0)
    return min(total_p, 1.0)


def exact_test(table: ContingencyTable, replicates=100_000, seed=0,
               enumerate_limit=0) -> TestResult:
    """Monte-Carlo Fisher-Freeman-Halton style exact test.

    Tables are sampled from the multivariate hypergeometric null via
    sequential hypergeometric column allocation; the p-value is the
    probability mass of tables no more likely than the observed one.
    With `enumerate_limit` > 0 and a small table, falls back to full
    enumeration (replicates/SE then reported as None/0).
    """
    if replicates < 1000:
        raise ValueError("replicates must be >= 1000")
    counts = _nonzero_rows(table).astype(int)
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    if counts.shape[0] < 2 or cols.min() <= 0:
        raise DegenerateMargins("need >= 2 populated rows and both columns > 0")

    if enumerate_limit and _table_space_bound(rows, cols) <= enumerate_limit:
        p = enumerate_exact_p(table)
        return TestResult("exact_enum", None, None, p, True, None, 0.0)

    lfm, lfn = _margin_log_consts(counts)
    obs_lp = _log_table_prob(counts, lfm, lfn)
    tol = 1e-9 * abs(obs_lp) + 1e-9

    rng = np.random.default_rng(seed)
    col1 = int(cols[0])
    n = int(counts.sum())
    k = len(rows)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    # vectorized over replicates: allocate column-1 mass row by row
    remaining_pop = np.full(replicates, n)
    remaining_col = np.full(replicates, col1)
    lp = np.full(replicates, lfm - lfn)
    for i in range(k):
        r = int(rows[i])
        if i == k - 1:
            x = remaining_col
        else:
            x = rng.hypergeometric(r, remaining_pop - r, remaining_col)
        lp -= log_fact[x] + log_fact[r - x]
        remaining_col = remaining_col - x
        remaining_pop = remaining_pop - r
    hits = int(np.sum(lp <= obs_lp + tol))
    p = hits / replicates
    se = math.sqrt(max(p * (1 - p), 1.0 / replicates) / replicates)
    return TestResult("exact_mc", None, None, p, True, replicates, se)


def _table_space_bound(rows, cols):
    # loose upper bound on the number of k x 2 tables with these margins
    bound = 1
    c1 = int(cols[0])
    for r in rows:
        bound *= min(int(r), c1) + 1
        if bound > 10**12:
            break
    return bound


def conditional_win_probs(sequences, cap=DEFAULT_CAP) -> ConditionalProbTable:
    """P(next point won | current run of exactly k wins/losses), per match.

    The run length k counts backward from point t; the looked-up next
    point is t+1 of the same match only. Lengths >= cap pool into one
    bucket. Zero-support entries are flagged as None.
    """
    out = ConditionalProbTable(cap)
    for side, d in ((1, out.win_given_win), (0, out.win_given_loss)):
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
        for k in range(1, cap + 1):
            s, w = int(support[k - 1]), int(wins[k - 1])
            d[k] = (w / s if s else None, s, w)
    return out
