"""Capacity-constrained K-means over bit-string positions.

Partitions N points into K subgroups whose sizes differ by at most one.
Points are 0/1 vectors, so squared Euclidean distance to another bit vector
equals Hamming distance; centroids are real-valued coordinate means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ROUNDS = 100


@dataclass
class ClusterAssignment:
    assignments: np.ndarray  # (N,) subgroup index in [0, K)
    centroids: np.ndarray    # (K, d)

    @property
    def n_clusters(self):
        return self.centroids.shape[0]

    def members(self, k):
        return np.flatnonzero(self.assignments == k)


def _init_centroids(points, k, rng):
    # k-means++-style farthest-point seeding: random first pick, then the
    # point farthest from its nearest chosen centroid (ties -> lowest index).
    n = points.shape[0]
    first = int(rng.integers(n))
    chosen = [first]
    dist = np.sum((points - points[first]) ** 2, axis=1).astype(np.float64)
    for _ in range(1, k):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].astype(np.float64)


def _assign_balanced(points, centroids):
    """Greedy capacity-constrained assignment.

    Points are assigned in ascending order of distance to their nearest
    still-open centroid; a centroid closes once it reaches its capacity.
    Exactly (N mod K) subgroups end up with ceil(N/K) members.

    One scan over the (distance, point, cluster) triples in ascending order
    gives that greedy order: a triple is taken when its point is unassigned
    and its cluster open, and an assigned point or a closed cluster never
    becomes available again.
    """
    n, k = points.shape[0], centroids.shape[0]
    base, extra = divmod(n, k)
    counts = np.zeros(k, dtype=np.int64)
    assignments = np.full(n, -1, dtype=np.int64)
    # pairwise squared distances, (N, K); a stable sort of the row-major
    # flattening breaks distance ties by point, then cluster
    dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    for flat in np.argsort(dist.ravel(), kind="stable").tolist():
        i, c = divmod(flat, k)
        if assignments[i] >= 0 or counts[c] >= base + (extra > 0):
            continue
        assignments[i] = c
        counts[c] += 1
        if counts[c] == base + 1:
            extra -= 1
    return assignments


def cluster(points, k: int, seed: int) -> ClusterAssignment:
    """Partition bit-string points into K equal-size (±1) subgroups.

    Iterates balanced assignment and centroid recomputation until the
    assignment stabilizes or MAX_ROUNDS passes; deterministic under seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array of bit vectors")
    n = points.shape[0]
    if k <= 0:
        raise ValueError("K must be >= 1")
    if k > n:
        raise ValueError(f"K={k} exceeds number of points N={n}")
    rng = np.random.default_rng(seed)
    centroids = _init_centroids(points, k, rng)
    assignments = None
    for _ in range(MAX_ROUNDS):
        new_assignments = _assign_balanced(points, centroids)
        if assignments is not None and np.array_equal(new_assignments,
                                                      assignments):
            break
        assignments = new_assignments
        for c in range(k):
            members = points[assignments == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    return ClusterAssignment(assignments=assignments, centroids=centroids)
