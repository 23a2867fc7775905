"""Synthetic point-sequence generators for calibration and power checks.

The null process (no boost) draws i.i.d. Bernoulli(p) points. The
momentum process adds a boost beta(k) to the win probability, where k is
the signed current streak length entering the point (positive after
wins, negative after losses). With beta identically zero the two
processes consume randomness identically and produce bit-identical
output per seed.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

PROB_FLOOR, PROB_CEIL = 0.01, 0.99


@dataclass
class GeneratorConfig:
    p: float = 0.5
    T: int = 235
    matches: int = 31
    seed: int = 0
    boost: object = None       # callable k -> probability delta, or None


def _draw_match(u, p, boost):
    T = len(u)
    seq = np.zeros(T, dtype=int)
    k = 0
    for t in range(T):
        prob = min(PROB_CEIL, max(PROB_FLOOR, p + boost(k)))
        win = u[t] < prob
        seq[t] = 1 if win else 0
        if win:
            k = k + 1 if k > 0 else 1
        else:
            k = k - 1 if k < 0 else -1
    return seq


def gen_momentum(cfg: GeneratorConfig):
    """List of binary sequences under the streak-boosted win process.

    One (matches, T) uniform draw: its rows are the draws that one
    `rng.random(T)` call per match would give, bit for bit.
    """
    if not 0 < cfg.p < 1:
        raise ValueError("p must be in (0,1)")
    u = np.random.default_rng(cfg.seed).random((cfg.matches, cfg.T))
    if cfg.boost is None:
        return list((u < cfg.p).astype(int))
    return [_draw_match(row, cfg.p, cfg.boost) for row in u]


def sequences_to_csv(sequences, stream):
    """Minimal pipeline-ingestible CSV: match_id, point_no, point_victor,
    with match ids synth-0001, synth-0002, ..."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["match_id", "point_no", "point_victor"])
    for i, seq in enumerate(sequences, start=1):
        mid = f"synth-{i:04d}"
        for t, o in enumerate(seq, start=1):
            writer.writerow([mid, t, 1 if o == 1 else 2])


def calibrate(test, alpha, datasets, cfg: GeneratorConfig):
    """Empirical rejection rate of `test` over generated corpora.

    `test` maps a list of binary sequences to an object with a p_value
    attribute. Per-dataset seeds come from a spawned SeedSequence so
    corpora are independent and reproducible. Returns (rate, (lo, hi))
    with a 95% binomial confidence interval.
    """
    if datasets < 500:
        raise ValueError("need at least 500 datasets for calibration")
    children = np.random.SeedSequence(cfg.seed).spawn(datasets)
    rejections = 0
    for child in children:
        seed = int(child.generate_state(1)[0])
        seqs = gen_momentum(dataclasses.replace(cfg, seed=seed))
        if test(seqs).p_value < alpha:
            rejections += 1
    rate = rejections / datasets
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 1.0 / datasets) / datasets)
    return rate, (max(0.0, rate - half), min(1.0, rate + half))
