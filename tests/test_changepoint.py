import numpy as np
import pytest

from matchpulse.changepoint import (
    ChangePointSet,
    CusumParams,
    cusum_detect,
    default_params,
    tune_threshold,
)
from matchpulse.errors import EmptySeries, NoConvergence


def series(values):
    return np.asarray(values, dtype=float)


@pytest.mark.parametrize("values", [[0.1, 0.5, 0.2, 0.9], [3e-7, 0.0, 3e-7],
                                    [0.4] * 6])
def test_default_params_drift_and_threshold(values):
    sigma = float(np.std(values))
    p = default_params(values)
    assert p.d == 0.05 * sigma
    assert p.h == max(1e-6, 2.0 * sigma)
    assert p.mu is None


def test_default_threshold_floor_when_sigma_is_zero():
    values = [0.25] * 8
    assert np.std(values) == 0.0
    p = default_params(values)
    assert p.d == 0.0 and p.h == 1e-6


def test_constant_series_no_changepoints():
    m = series([0.4] * 50)
    trace, cps = cusum_detect(m, CusumParams(d=0.0, h=0.5, mu=0.4))
    assert cps.n == 0
    assert np.all(trace.c_pos == 0) and np.all(trace.c_neg == 0)
    # with the match-mean reference only float noise may remain
    trace, cps = cusum_detect(m, CusumParams(d=0.0, h=0.5))
    assert cps.n == 0
    assert np.allclose(trace.c_pos, 0, atol=1e-10)
    assert np.allclose(trace.c_neg, 0, atol=1e-10)


def test_step_fixture_positive_at_t5():
    m = series([0, 0, 0, 1, 1, 1])
    trace, cps = cusum_detect(m, CusumParams(d=0.0, h=0.9, mu=0.5))
    positives = [t for t, s in zip(cps.times, cps.signs) if s > 0]
    assert positives[0] == 5
    assert trace.c_pos[3] == pytest.approx(0.5)
    assert trace.c_pos[4] == pytest.approx(1.0)


def test_hand_rolled_recursion_oracle():
    rng = np.random.default_rng(0)
    values = rng.random(60)
    params = CusumParams(d=0.03, h=0.4, mu=0.5)
    trace, cps = cusum_detect(series(values), params)
    # explicit scalar re-run of the recursion
    up = dn = 0.0
    times = []
    for t, v in enumerate(values):
        up = max(0.0, up + (v - 0.5) - 0.03)
        dn = min(0.0, dn + (v - 0.5) + 0.03)
        assert trace.c_pos[t] == pytest.approx(up)
        assert trace.c_neg[t] == pytest.approx(dn)
        if up > 0.4:
            times.append((t + 1, 1))
            up = dn = 0.0
        elif dn < -0.4:
            times.append((t + 1, -1))
            up = dn = 0.0
    assert list(zip(cps.times, cps.signs)) == times


def test_no_detection_within_threshold():
    rng = np.random.default_rng(1)
    values = 0.5 + 0.01 * rng.standard_normal(100)
    trace, cps = cusum_detect(series(values), CusumParams(d=0.0, h=5.0, mu=0.5))
    assert cps.n == 0
    assert np.max(np.abs(trace.c_pos)) <= 5.0
    assert np.max(np.abs(trace.c_neg)) <= 5.0


def test_scale_invariance():
    rng = np.random.default_rng(2)
    values = rng.random(80)
    mu = float(values.mean())
    base = cusum_detect(series(values), CusumParams(d=0.02, h=0.3, mu=mu))[1]
    lam = 7.5
    scaled = cusum_detect(series(mu + lam * (values - mu)),
                          CusumParams(d=lam * 0.02, h=lam * 0.3, mu=mu))[1]
    assert base.times == scaled.times
    assert base.signs == scaled.signs


def test_count_monotone_in_threshold():
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.standard_normal(200)) * 0.05 + 0.5
    m = series(values)
    counts = []
    for h in np.linspace(0.05, 2.0, 25):
        counts.append(cusum_detect(m, CusumParams(d=0.01, h=h))[1].n)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_empty_series_raises():
    with pytest.raises(EmptySeries):
        cusum_detect(series([0.5]), CusumParams(d=0.0, h=1.0))


def test_labels_and_durations():
    cps = ChangePointSet([4, 9, 15], [1, -1, 1], 20)
    labels = cps.labels()
    assert labels[3] == 1 and labels[8] == -1 and labels[14] == 1
    assert labels.sum() == 1
    assert cps.durations().tolist() == [4, 5, 6]


def test_tuner_fixed_point():
    m = series([0, 0, 0, 1, 1, 1])
    count_at_h0 = cusum_detect(m, CusumParams(d=0.0, h=0.9, mu=0.5))[1].n
    result = tune_threshold(m, count_at_h0, CusumParams(d=0.0, mu=0.5), h0=0.9)
    assert result.converged
    assert result.h == 0.9
    assert result.iterations == 1


def test_tuner_monotone_step_target_one():
    values = np.concatenate([np.full(5, 0.2), np.full(5, 0.9)])
    m = series(values)
    result = tune_threshold(m, 1, CusumParams(d=0.0, mu=0.5), h0=0.05,
                            max_iter=200)
    assert result.converged
    assert abs(result.change_points.n - 1) <= 1
    assert result.change_points.n >= 1


def test_tuner_reaches_targets_on_random_walk():
    rng = np.random.default_rng(4)
    values = 0.5 + 0.2 * np.sin(np.arange(300) / 8) + 0.05 * rng.standard_normal(300)
    m = series(values)
    for target in (2, 5, 10, 20):
        result = tune_threshold(m, target, default_params(values), h0=1.0,
                                max_iter=200)
        assert result.converged
        assert abs(result.change_points.n - target) <= max(1, 0.01 * target)


def test_tuner_nonconvergence_carries_best():
    # constant series: no threshold can produce any change point
    m = series([0.5] * 40)
    with pytest.raises(NoConvergence) as err:
        tune_threshold(m, 10, CusumParams(d=0.0, mu=0.5), h0=1.0, max_iter=25)
    assert err.value.best is not None
    assert err.value.best.change_points.n == 0
    assert not err.value.best.converged
