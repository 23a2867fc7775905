import io
from dataclasses import dataclass

import numpy as np
import pytest

from matchpulse.ingest import parse_csv
from matchpulse.streaks import chi_squared_test, contingency_from_sequences
from matchpulse.synth import (
    GeneratorConfig,
    calibrate,
    gen_momentum,
    gen_null,
    sequences_to_csv,
)


def step_boost(delta):
    return lambda k: delta if k >= 1 else (-delta if k <= -1 else 0.0)


def test_null_shapes_and_determinism():
    seqs = gen_null(p=0.5, T=100, matches=5, seed=3)
    assert len(seqs) == 5
    assert all(len(s) == 100 for s in seqs)
    assert all(set(np.unique(s)) <= {0, 1} for s in seqs)
    again = gen_null(p=0.5, T=100, matches=5, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(seqs, again))
    other = gen_null(p=0.5, T=100, matches=5, seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(seqs, other))


def test_null_equals_zero_boost_bitwise():
    cfg_zero = GeneratorConfig(p=0.4, T=150, matches=4, seed=9,
                               boost=lambda k: 0.0)
    with_boost = gen_momentum(cfg_zero)
    without = gen_null(p=0.4, T=150, matches=4, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(with_boost, without))


def test_null_marginal_rate():
    seqs = gen_null(p=0.3, T=2000, matches=10, seed=0)
    rate = np.concatenate(seqs).mean()
    assert rate == pytest.approx(0.3, abs=0.02)


def test_boost_inflates_streaks():
    null = gen_null(T=400, matches=20, seed=5)
    boosted = gen_momentum(GeneratorConfig(T=400, matches=20, seed=5,
                                           boost=step_boost(0.25)))
    def mean_run(seqs):
        runs = []
        for s in seqs:
            n = 0
            for o in s:
                if o:
                    n += 1
                elif n:
                    runs.append(n)
                    n = 0
            if n:
                runs.append(n)
        return np.mean(runs)
    assert mean_run(boosted) > mean_run(null) + 0.3


def test_boost_rejected_by_chi_squared():
    # extension probability must vary with streak length, so use a boost
    # that grows with the streak rather than a flat step
    boosted = gen_momentum(GeneratorConfig(T=300, matches=31, seed=1,
                                           boost=lambda k: 0.06 * max(k, 0)))
    result = chi_squared_test(contingency_from_sequences(boosted, cap=7))
    assert result.p_value < 1e-6


def test_extreme_boost_is_clamped():
    # a +/-10 boost would leave (0,1) without the clamp; output stays binary
    seqs = gen_momentum(GeneratorConfig(T=200, matches=2, seed=2,
                                        boost=step_boost(10.0)))
    flat = np.concatenate(seqs)
    assert set(np.unique(flat)) <= {0, 1}
    # clamp floor keeps both outcomes possible
    assert 0 < flat.mean() < 1


def test_invalid_p_raises():
    with pytest.raises(ValueError):
        gen_null(p=0.0)
    with pytest.raises(ValueError):
        gen_null(p=1.0)


def test_csv_roundtrip_through_parser():
    seqs = gen_null(T=30, matches=3, seed=6)
    buf = io.StringIO()
    sequences_to_csv(seqs, buf, match_prefix="m")
    buf.seek(0)
    matches = parse_csv(buf)
    assert [m.match_id for m in matches] == ["m-0001", "m-0002", "m-0003"]
    for m, seq in zip(matches, seqs):
        assert np.array_equal(m.outcomes(), seq)


@dataclass
class FakeResult:
    p_value: float


def test_calibrate_counts_rejections():
    # deterministic fake test: reject iff the corpus' first point is a win
    def test_fn(seqs):
        return FakeResult(0.0 if seqs[0][0] == 1 else 1.0)
    cfg = GeneratorConfig(p=0.5, T=5, matches=2, seed=0)
    rate, (lo, hi) = calibrate(test_fn, 0.05, 600, cfg)
    assert 0.4 < rate < 0.6
    assert lo <= rate <= hi
    # reproducible
    assert calibrate(test_fn, 0.05, 600, cfg)[0] == rate


def test_calibrate_requires_enough_datasets():
    with pytest.raises(ValueError):
        calibrate(lambda s: FakeResult(1.0), 0.05, 100, GeneratorConfig())


def test_calibrate_corpora_are_independent():
    seen = []
    def capture(seqs):
        seen.append(tuple(seqs[0][:20]))
        return FakeResult(1.0)
    calibrate(capture, 0.05, 500, GeneratorConfig(p=0.5, T=20, matches=1, seed=1))
    assert len(set(seen)) > 450
