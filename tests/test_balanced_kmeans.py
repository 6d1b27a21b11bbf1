import numpy as np
import pytest

from flowgate.balanced_kmeans import _assign_balanced, cluster


def random_bits(rng, n, d):
    return (rng.random((n, d)) < 0.5).astype(np.uint8)


def test_single_cluster():
    rng = np.random.default_rng(0)
    points = random_bits(rng, 12, 6)
    out = cluster(points, 1, seed=0)
    assert np.all(out.assignments == 0)


def test_perfectly_separated_groups():
    points = np.array([[0, 0, 0, 0]] * 4 + [[1, 1, 1, 1]] * 4, dtype=np.uint8)
    out = cluster(points, 2, seed=3)
    first, second = out.assignments[:4], out.assignments[4:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert first[0] != second[0]


def test_capacity_arithmetic():
    rng = np.random.default_rng(1)
    out = cluster(random_bits(rng, 10, 5), 3, seed=1)
    sizes = sorted(np.bincount(out.assignments, minlength=3))
    assert sizes == [3, 3, 4]


def test_greedy_order_and_capacity_closing():
    centroids = np.array([[0.0], [10.0]])
    # N=5, K=2: the first cluster to reach 3 takes the one extra slot, so
    # the other closes at 2. Taken in order: p0 and p4 (distance 0), p1 (1)
    # and p2 (4) to c0, which closes at 3; then p3 (25 to c0) goes to c1.
    points = np.array([[0.0], [1.0], [2.0], [5.0], [10.0]])
    assert list(_assign_balanced(points, centroids)) == [0, 0, 0, 1, 1]
    # N=4, K=2, capacity 2 each: p2 and p3 (distance 0) first; p0 and p1
    # are 25 from both, the tie gives p0 to c0, which then closes, so p1
    # goes to c1
    points = np.array([[5.0], [5.0], [0.0], [10.0]])
    assert list(_assign_balanced(points, centroids)) == [0, 1, 0, 1]


def test_errors():
    points = np.zeros((3, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        cluster(points, 0, seed=0)
    with pytest.raises(ValueError):
        cluster(points, 4, seed=0)


def test_every_point_assigned_once():
    rng = np.random.default_rng(5)
    points = random_bits(rng, 23, 8)
    out = cluster(points, 4, seed=5)
    assert out.assignments.shape == (23,)
    assert np.all((out.assignments >= 0) & (out.assignments < 4))


def test_balance_and_determinism_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 64))
        k = int(rng.integers(1, min(n, 8) + 1))
        d = int(rng.integers(2, 20))
        seed = int(rng.integers(1 << 31))
        points = random_bits(rng, n, d)
        out = cluster(points, k, seed=seed)
        sizes = np.bincount(out.assignments, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        again = cluster(points, k, seed=seed)
        assert np.array_equal(out.assignments, again.assignments)
        assert np.array_equal(out.centroids, again.centroids)
