import numpy as np
import pytest

from matchpulse import ewm
from matchpulse.errors import AllColumnsUninformative, ColumnMismatch
from matchpulse.ewm import WeightVector, entropy_weights, momentum_series
from matchpulse.ingest import StandardizedFrame


def frame(z, ids=None):
    z = np.asarray(z, dtype=float)
    ids = ids or [f"c{i}" for i in range(z.shape[1])]
    return StandardizedFrame(z, ids)


def reference_weights(z, eps):
    """Independent step-by-step evaluation used as the oracle."""
    T, m = z.shape
    e = []
    for j in range(m):
        total = sum(z[t, j] for t in range(T))
        if total == 0:
            e.append(1.0)
            continue
        acc = 0.0
        for t in range(T):
            p = z[t, j] / total
            acc += p * np.log(p + eps)
        e.append(min(1.0, max(0.0, -acc / np.log(T))))
    denom = sum(1 - ei for ei in e)
    return [(1 - ei) / denom for ei in e]


def test_permuted_columns_equal_weights():
    z = frame([[0.1, 0.9], [0.9, 0.1], [0.4, 0.4], [0.2, 0.2]])
    w = entropy_weights(z)
    assert np.allclose(w.weights, [0.5, 0.5])


def test_hand_computed_3x2():
    z = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
    w = entropy_weights(frame(z), epsilon=1e-12)
    assert np.allclose(w.weights, reference_weights(z, 1e-12), atol=1e-10)
    assert np.allclose(w.entropies, [0.63092975, 0.63092975], atol=1e-7)


def test_random_frames_match_reference():
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = rng.random((rng.integers(3, 20), rng.integers(1, 5)))
        w = entropy_weights(frame(z))
        assert np.allclose(w.weights, reference_weights(z, w.epsilon), atol=1e-10)


def test_weights_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.random((15, 4))
        w = entropy_weights(frame(z))
        assert abs(w.weights.sum() - 1.0) < 1e-12
        assert np.all(w.weights >= 0)


def test_point_order_invariance():
    rng = np.random.default_rng(12)
    z = rng.random((25, 3))
    w1 = entropy_weights(frame(z))
    w2 = entropy_weights(frame(z[rng.permutation(25)]))
    assert np.allclose(w1.weights, w2.weights)


def test_zero_column_gets_zero_weight():
    z = np.array([[0.0, 0.3], [0.0, 0.9], [0.0, 0.1]])
    w = entropy_weights(frame(z))
    assert w.weights[0] == 0.0
    assert w.entropies[0] == 1.0


def test_all_uninformative_raises():
    z = np.zeros((5, 2))
    with pytest.raises(AllColumnsUninformative):
        entropy_weights(frame(z))


def test_entropy_clamped_to_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.random((10, 3))
        w = entropy_weights(frame(z), epsilon=1e-6)
        assert np.all(w.entropies <= 1.0) and np.all(w.entropies >= 0.0)


def test_momentum_all_ones():
    z = frame(np.ones((6, 3)))
    w = WeightVector(z.column_ids, np.array([0.2, 0.3, 0.5]),
                     np.zeros(3), 1e-12)
    m = momentum_series(z, w)
    assert np.allclose(m, 1.0)


def test_momentum_all_zeros():
    z = frame(np.zeros((4, 2)))
    w = WeightVector(z.column_ids, np.array([0.6, 0.4]), np.zeros(2), 1e-12)
    assert np.allclose(momentum_series(z, w), 0.0)


def test_momentum_inner_product():
    z = frame(np.array([[0.5, 1.0]]))
    w = WeightVector(z.column_ids, np.array([0.6, 0.4]), np.zeros(2), 1e-12)
    assert momentum_series(z, w)[0] == pytest.approx(0.7)


def test_momentum_column_mismatch():
    z = frame(np.ones((3, 2)), ids=["a", "b"])
    w = WeightVector(["a", "zzz"], np.array([0.5, 0.5]), np.zeros(2), 1e-12)
    with pytest.raises(ColumnMismatch):
        momentum_series(z, w)


def test_momentum_linearity():
    rng = np.random.default_rng(6)
    z1 = rng.random((12, 3))
    z2 = rng.random((12, 3))
    w = WeightVector([f"c{i}" for i in range(3)],
                     np.array([0.2, 0.5, 0.3]), np.zeros(3), 1e-12)
    for alpha in (0.0, 0.3, 1.0):
        mixed = momentum_series(frame(alpha * z1 + (1 - alpha) * z2), w)
        m1 = momentum_series(frame(z1), w)
        m2 = momentum_series(frame(z2), w)
        assert np.allclose(mixed, alpha * m1 + (1 - alpha) * m2)


def test_momentum_in_unit_interval():
    rng = np.random.default_rng(2)
    z = rng.random((30, 4))
    w = entropy_weights(frame(z))
    m = momentum_series(frame(z), w)
    assert np.all(m >= 0) and np.all(m <= 1)


def test_pooled_weights_stack():
    rng = np.random.default_rng(7)
    frames = [frame(rng.random((10, 2)), ids=["a", "b"]) for _ in range(3)]
    pooled = ewm.pooled_entropy_weights(frames)
    stacked = frame(np.vstack([f.z for f in frames]), ids=["a", "b"])
    assert np.allclose(pooled.weights, entropy_weights(stacked).weights)
