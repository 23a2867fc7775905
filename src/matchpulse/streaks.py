"""Streak extraction, contingency tables, and momentum existence tests.

A winning run of length L contributes one record per prefix length
i = 1..L: the prefix is an "extension" when the run continues past i and
a "termination" otherwise (next point lost, or the sequence ends).
Streaks never cross match boundaries.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import DEFAULT_CAP
from .errors import DegenerateMargins, EmptyStreaks

EXTENSION = "extension"
TERMINATION = "termination"

# replicates drawn and scored at a time in `exact_test`: only the log
# probability and the remaining column mass span every replicate
EXACT_SLICE = 4096


@dataclass
class ContingencyTable:
    counts: np.ndarray        # k x 2 ints: column 0 extensions, column 1 terminations
    cap: int

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
        return dataclasses.asdict(self)


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


def _joined(sequences, sep):
    """The sequences end to end, `sep` before the first, between each pair
    and after the last; an int separator keeps unsigned input from wrapping."""
    sep = np.array([sep])
    parts = [sep]
    for seq in sequences:
        parts += [np.asarray(seq), sep]
    return np.concatenate(parts)


def contingency_from_sequences(sequences, cap=DEFAULT_CAP) -> ContingencyTable:
    """Pooled contingency table over several matches, without materializing
    per-prefix records (equivalent to build_contingency on the concatenated
    extract_streaks output, but fast enough for calibration loops).

    A 0 between matches ends every run at its match's last point, so one
    `run_lengths` over the joined sequences gives all run lengths. A run
    of length L extends at every prefix i < L and terminates at L, so row
    i holds the runs longer than i and the runs of exactly i.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    lengths = run_lengths(_joined(sequences, 0))
    if len(lengths) == 0:
        raise EmptyStreaks("no winning runs in any sequence")
    hist = np.bincount(lengths)                  # hist[i]: runs of exactly i
    longer = np.cumsum(hist[::-1])[::-1] - hist  # longer[i]: runs past i
    counts = np.zeros((cap, 2), dtype=int)
    direct = min(cap, len(hist)) - 1             # rows 1..cap-1 are unpooled
    counts[:direct, 0] = longer[1:direct + 1]
    counts[:direct, 1] = hist[1:direct + 1]
    counts[cap - 1] = longer[cap:].sum(), hist[cap:].sum()
    return ContingencyTable(counts, cap)


def transition_probs(table: ContingencyTable):
    """Per-row extension probability n_i1 / n_i.; zero-support rows -> None."""
    probs = []
    for e, t in table.counts:
        total = e + t
        probs.append(e / total if total > 0 else None)
    return probs


def _populated_rows(table):
    """The nonzero-margin rows of a table the chi-squared and exact tests
    can run on, by Monte Carlo or by enumeration: at least two such rows,
    and mass in both columns; else DegenerateMargins."""
    counts = table.counts[table.row_margins > 0].astype(float)
    if counts.shape[0] < 2 or counts.sum(axis=0).min() <= 0:
        raise DegenerateMargins("need >= 2 populated rows and both columns > 0")
    return counts


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
    counts = _populated_rows(table)
    k = counts.shape[0]
    col = counts.sum(axis=0)
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), col) / n
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = k - 1
    p = chi2_sf(stat, df)
    validity = bool(expected.min() >= 5 and n >= 50)
    return TestResult("pearson_chi2", stat, df, p, validity)


def _observed_bound(counts):
    """(log of the margins' factorials over n!, log probability bound).

    Given its margins, a table's multivariate hypergeometric log
    probability is the first value minus the log factorial of each cell. A
    table counts toward the p-value when its log probability is at most
    the observed table's, within a relative and absolute tolerance of 1e-9.
    """
    lfm = sum(math.lgamma(r + 1) for r in counts.sum(axis=1)) + sum(
        math.lgamma(c + 1) for c in counts.sum(axis=0))
    lfn = math.lgamma(counts.sum() + 1)
    obs_lp = lfm - lfn - sum(math.lgamma(c + 1) for c in counts.flat)
    return lfm - lfn, obs_lp + (1e-9 * abs(obs_lp) + 1e-9)


def enumerate_exact_p(table: ContingencyTable) -> float:
    """Full-enumeration Fisher-style p-value over all tables with the
    margins; DegenerateMargins where `exact_test` raises it.

    Every split of the extension column's mass over the rows is scored:
    the first k - 1 rows take any count up to their size, the last row the
    rest. The cost grows with the product of the row sizes, so this is for
    small tables.
    """
    counts = _populated_rows(table).astype(int)
    rows = counts.sum(axis=1).tolist()
    col1 = int(counts[:, 0].sum())
    base, bound = _observed_bound(counts)
    # log(x! (r - x)!) for each row's every extension count x
    terms = [[math.lgamma(x + 1) + math.lgamma(r - x + 1) for x in range(r + 1)]
             for r in rows]
    last = terms.pop()
    total_p = 0.0
    for xs in itertools.product(*(range(r + 1) for r in rows[:-1])):
        rest = col1 - sum(xs)
        if 0 <= rest <= rows[-1]:
            lp = base - sum(t[x] for t, x in zip(terms, xs)) - last[rest]
            if lp <= bound:
                total_p += math.exp(lp)
    return min(total_p, 1.0)


def exact_test(table: ContingencyTable, replicates=100_000, seed=0) -> TestResult:
    """Monte-Carlo Fisher-Freeman-Halton style exact test.

    Tables are sampled from the multivariate hypergeometric null via
    sequential hypergeometric column allocation; the p-value is the
    probability mass of tables no more likely than the observed one.
    `enumerate_exact_p` computes this p-value exactly, for small tables.
    """
    if replicates < 1000:
        raise ValueError("replicates must be >= 1000")
    counts = _populated_rows(table).astype(int)
    rows = counts.sum(axis=1)
    base, bound = _observed_bound(counts)

    rng = np.random.default_rng(seed)
    col1 = int(counts[:, 0].sum())
    n = int(counts.sum())
    k = len(rows)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    # allocate column-1 mass row by row; the remaining population is the
    # same for every replicate. Each row is drawn in slices of replicates,
    # in order: numpy takes the stream one element at a time, so the draws
    # are those of one whole-array call, without its temporaries
    remaining_pop = n
    remaining_col = np.full(replicates, col1)
    lp = np.full(replicates, base)
    for i in range(k):
        r = int(rows[i])
        for start in range(0, replicates, EXACT_SLICE):
            part = slice(start, start + EXACT_SLICE)
            rest = remaining_col[part]
            if i == k - 1:
                x = rest
            else:
                x = rng.hypergeometric(r, remaining_pop - r, rest)
            t = log_fact[x]
            t += log_fact[r - x]
            lp[part] -= t
            rest -= x
        remaining_pop -= r
    hits = int(np.sum(lp <= bound))
    p = hits / replicates
    se = math.sqrt(max(p * (1 - p), 1.0 / replicates) / replicates)
    return TestResult("exact_mc", None, None, p, True, replicates, se)


def conditional_win_probs(sequences, cap=DEFAULT_CAP) -> ConditionalProbTable:
    """P(next point won | current run of exactly k wins/losses), per match.

    The run length k counts backward from point t; the looked-up next
    point is t+1 of the same match only. Lengths >= cap pool into one
    bucket. Zero-support entries are flagged as None.
    """
    out = ConditionalProbTable(cap)
    # a -1 between matches ends every run and is no point's successor
    seq = _joined(sequences, -1)
    index = np.arange(len(seq))
    has_next = np.append(seq[1:] != -1, False)
    next_won = np.append(seq[1:] == 1, False)
    for side, d in ((1, out.win_given_win), (0, out.win_given_loss)):
        on_side = seq == side
        # run length at t: t minus the last index <= t that is off this side
        run = index - np.maximum.accumulate(np.where(on_side, -1, index))
        counted = on_side & has_next
        bucket = np.minimum(run[counted], cap) - 1
        support = np.bincount(bucket, minlength=cap)
        wins = np.bincount(bucket[next_won[counted]], minlength=cap)
        for k in range(1, cap + 1):
            s, w = int(support[k - 1]), int(wins[k - 1])
            d[k] = (w / s if s else None, s, w)
    return out
