import dataclasses
import io
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchpulse import synth
from matchpulse.ingest import parse_csv
from matchpulse.streaks import chi_squared_test, contingency_from_sequences
from matchpulse.synth import (
    GeneratorConfig,
    _draw_match,
    calibrate,
    gen_momentum,
    sequences_to_csv,
)


def step_boost(delta):
    return lambda k: delta if k >= 1 else (-delta if k <= -1 else 0.0)


def test_null_shapes_and_determinism():
    seqs = gen_momentum(GeneratorConfig(p=0.5, T=100, matches=5, seed=3))
    assert len(seqs) == 5
    assert all(len(s) == 100 for s in seqs)
    assert all(set(np.unique(s)) <= {0, 1} for s in seqs)
    again = gen_momentum(GeneratorConfig(p=0.5, T=100, matches=5, seed=3))
    assert all(np.array_equal(a, b) for a, b in zip(seqs, again))
    other = gen_momentum(GeneratorConfig(p=0.5, T=100, matches=5, seed=4))
    assert any(not np.array_equal(a, b) for a, b in zip(seqs, other))


def test_null_equals_zero_boost_bitwise():
    cfg_zero = GeneratorConfig(p=0.4, T=150, matches=4, seed=9,
                               boost=lambda k: 0.0)
    with_boost = gen_momentum(cfg_zero)
    without = gen_momentum(GeneratorConfig(p=0.4, T=150, matches=4, seed=9))
    assert all(np.array_equal(a, b) for a, b in zip(with_boost, without))


def reference_gen_momentum(cfg):
    """The per-match draws that `gen_momentum`'s single draw replaced."""
    rng = np.random.default_rng(cfg.seed)
    out = []
    for _ in range(cfg.matches):
        u = rng.random(cfg.T)
        out.append((u < cfg.p).astype(int) if cfg.boost is None
                   else _draw_match(u, cfg.p, cfg.boost))
    return out


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.99), st.integers(0, 40), st.integers(0, 5),
       st.integers(0, 2**32 - 1), st.sampled_from([None, 0.0, 0.1, 0.3]))
def test_gen_momentum_equals_per_match_draws(p, T, matches, seed, delta):
    cfg = GeneratorConfig(p=p, T=T, matches=matches, seed=seed,
                          boost=None if delta is None else step_boost(delta))
    got, ref = gen_momentum(cfg), reference_gen_momentum(cfg)
    assert len(got) == len(ref) == matches
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_null_marginal_rate():
    seqs = gen_momentum(GeneratorConfig(p=0.3, T=2000, matches=10, seed=0))
    rate = np.concatenate(seqs).mean()
    assert rate == pytest.approx(0.3, abs=0.02)


def test_boost_inflates_streaks():
    null = gen_momentum(GeneratorConfig(T=400, matches=20, seed=5))
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
        gen_momentum(GeneratorConfig(p=0.0))
    with pytest.raises(ValueError):
        gen_momentum(GeneratorConfig(p=1.0))


def test_csv_roundtrip_through_parser():
    seqs = gen_momentum(GeneratorConfig(T=30, matches=3, seed=6))
    buf = io.StringIO()
    sequences_to_csv(seqs, buf)
    buf.seek(0)
    matches = parse_csv(buf)
    assert [m.match_id for m in matches] == ["synth-0001", "synth-0002",
                                             "synth-0003"]
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


def test_calibrate_chi_squared_rate_is_unchanged():
    # the bench tournament's calibration call at seed 1
    def test_fn(seqs):
        return chi_squared_test(contingency_from_sequences(seqs))
    cfg = GeneratorConfig(p=0.5, T=300, matches=31, seed=1)
    assert calibrate(test_fn, 0.05, 500, cfg) == (
        0.044, (0.02602262185968154, 0.06197737814031845))


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


def test_calibrate_passes_every_config_field_but_the_seed(monkeypatch):
    seen = []
    def spy(cfg):
        seen.append(cfg)
        return gen_momentum(cfg)
    monkeypatch.setattr(synth, "gen_momentum", spy)
    boost = step_boost(0.05)
    cfg = GeneratorConfig(p=0.4, T=12, matches=3, seed=9, boost=boost)
    calibrate(lambda s: FakeResult(1.0), 0.05, 500, cfg)
    assert len(seen) == 500
    kept = [f.name for f in dataclasses.fields(GeneratorConfig) if f.name != "seed"]
    for got in seen:
        assert [getattr(got, f) for f in kept] == [getattr(cfg, f) for f in kept]
        assert type(got.seed) is int
    assert len({got.seed for got in seen}) == 500
