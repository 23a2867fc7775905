import numpy as np
import pytest

from matchpulse.changepoint import ChangePointSet
from matchpulse.errors import TimeOutOfRange
from matchpulse.shift import relative_distance


def test_no_changepoints_all_zero():
    ss = relative_distance(ChangePointSet([], [], 12))
    assert np.all(ss.values == 0)
    assert ss.d_max == 0


def test_single_changepoint_fixture():
    ss = relative_distance(ChangePointSet([5], [1], 10))
    assert ss.d_max == 5
    assert ss.at(5) == pytest.approx(1.0, abs=1e-12)
    assert ss.at(2) == pytest.approx(0.4, abs=1e-12)
    assert ss.at(8) == pytest.approx(0.4, abs=1e-12)
    assert ss.at(10) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ss.values,
                       [0.2, 0.4, 0.6, 0.8, 1.0, 0.8, 0.6, 0.4, 0.2, 0.0],
                       atol=1e-12)


def test_two_changepoint_fixture():
    ss = relative_distance(ChangePointSet([4, 6], [1, -1], 12))
    assert ss.d_max == 4
    assert ss.at(4) == pytest.approx(1.0, abs=1e-12)
    assert ss.at(6) == pytest.approx(-2.0, abs=1e-12)
    assert ss.at(5) == pytest.approx(-0.5, abs=1e-12)
    # initial ramp and terminal decay branches
    assert ss.at(2) == pytest.approx(0.5, abs=1e-12)
    assert ss.at(9) == pytest.approx(-1.0, abs=1e-12)
    assert ss.at(12) == pytest.approx(0.0, abs=1e-12)


def test_terminal_anchor_at_T_keeps_value():
    ss = relative_distance(ChangePointSet([3, 8], [1, 1], 8))
    assert ss.at(8) == pytest.approx(ss.anchors[-1][1])
    assert ss.values[-1] == pytest.approx(ss.anchors[-1][1])


def test_out_of_range_times():
    with pytest.raises(TimeOutOfRange):
        relative_distance(ChangePointSet([15], [1], 10))
    ss = relative_distance(ChangePointSet([5], [1], 10))
    with pytest.raises(TimeOutOfRange):
        ss.at(11)


def _random_cps(rng):
    T = int(rng.integers(5, 120))
    n = int(rng.integers(0, min(T, 12) + 1))
    times = sorted(rng.choice(np.arange(1, T + 1), size=n, replace=False))
    signs = [int(s) for s in rng.choice([-1, 1], size=n)]
    return ChangePointSet([int(t) for t in times], signs, T)


def test_random_sets_invariants():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        cps = _random_cps(rng)
        ss = relative_distance(cps)
        durations = cps.durations()
        if cps.n == 0:
            assert np.all(ss.values == 0)
            continue
        d_max = durations.max()
        for (t, v), d, sign in zip(ss.anchors, durations, cps.signs):
            # anchor magnitude and sign
            assert abs(v) == pytest.approx(d_max / d)
            assert abs(v) >= 1.0 - 1e-12
            assert np.sign(v) == sign
        # continuity: adjacent integer samples only jump by bounded slope,
        # and both endpoints are pinned
        assert ss.at(0) == pytest.approx(0.0)
        if cps.times[-1] < cps.T:
            assert ss.at(cps.T) == pytest.approx(0.0, abs=1e-12)
        for t in range(1, cps.T + 1):
            left = ss.at(t - 0.5)
            here = ss.at(t)
            right = ss.at(min(cps.T, t + 0.5))
            assert np.isfinite(left) and np.isfinite(here) and np.isfinite(right)
        # strict anti-monotonicity: shorter duration, larger magnitude
        mags = [abs(v) for _, v in ss.anchors]
        for (m1, d1), (m2, d2) in zip(zip(mags, durations), zip(mags[1:], durations[1:])):
            if d1 < d2:
                assert m1 > m2
            elif d1 > d2:
                assert m1 < m2


def test_piecewise_linear_between_anchors():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cps = _random_cps(rng)
        if cps.n < 2:
            continue
        ss = relative_distance(cps)
        # midpoints of each interior segment are the average of endpoints
        pts = [(0, 0.0)] + list(ss.anchors)
        if cps.times[-1] < cps.T:
            pts.append((cps.T, 0.0))
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            mid = (t0 + t1) / 2
            assert ss.at(mid) == pytest.approx((v0 + v1) / 2, abs=1e-9)


@pytest.mark.parametrize("times, signs, T", [
    ([5], [1], 10), ([4, 6], [1, -1], 12), ([3, 8], [1, 1], 8),
    ([7, 19, 20, 41, 77], [-1, 1, 1, -1, 1], 90),
])
def test_values_equal_pointwise_at(times, signs, T):
    ss = relative_distance(ChangePointSet(times, signs, T))
    assert ss.values.tolist() == [ss.at(t) for t in range(1, T + 1)]
