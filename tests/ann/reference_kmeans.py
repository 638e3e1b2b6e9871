"""The seed's k-means, kept verbatim as the identity oracle.

``kmeans_pp_init`` and ``kmeans`` below are the bodies
``src/repro/ann/kmeans.py`` had before the array rewrite: the data
norms recomputed by ``pairwise`` for every k-means++ seed and every
Lloyd step, and one masked ``members.mean(axis=0)`` per cluster.
``tests/ann/test_kmeans_identity.py`` requires the shipped k-means to
reproduce their centroids and assignments bit for bit;
``benchmarks/bench_kernels.py`` times the two against each other.  Do
not optimise this file.
"""

from __future__ import annotations

import numpy as np

from repro.ann.distance import pairwise
from repro.errors import AnnIndexError


def kmeans_pp_init(X: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float32)
    centroids[0] = X[rng.integers(n)]
    closest = pairwise(X, centroids[:1], "l2").ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[i:] = X[rng.integers(n, size=k - i)]
            break
        probs = closest / total
        centroids[i] = X[rng.choice(n, p=probs)]
        dist_new = pairwise(X, centroids[i:i + 1], "l2").ravel()
        np.minimum(closest, dist_new, out=closest)
    return centroids


def kmeans(X: np.ndarray, k: int, max_iters: int = 20,
           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of *X* into *k* groups.

    Returns ``(centroids, assignments)``.  Empty clusters are re-seeded
    from the points farthest from their current centroid, so exactly *k*
    centroids always come back.
    """
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[0] == 0:
        raise AnnIndexError(f"kmeans needs a non-empty 2D array: {X.shape}")
    n = X.shape[0]
    if k <= 0:
        raise AnnIndexError(f"k must be positive: {k}")
    if k >= n:
        # Degenerate but legal: each point is its own centroid; surplus
        # centroids repeat the last point.
        centroids = np.vstack([X, np.repeat(X[-1:], k - n, axis=0)])
        return centroids.astype(np.float32), np.arange(n, dtype=np.int64)

    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(X, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    for _iteration in range(max_iters):
        dists = pairwise(X, centroids, "l2")
        new_assignments = dists.argmin(axis=1)
        if np.array_equal(new_assignments, assignments) and _iteration > 0:
            break
        assignments = new_assignments
        for j in range(k):
            members = X[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                farthest = dists.min(axis=1).argmax()
                centroids[j] = X[farthest]
    return centroids, assignments
