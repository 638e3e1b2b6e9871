"""Lloyd's k-means with k-means++ seeding.

Used by the IVF index (coarse centroids, paper Section II-B), by the
product quantizer (per-subspace codebooks) and by SPANN's postings.

The arithmetic is that of the textbook loop — ``pairwise(X, C, "l2")``
per step and ``X[assignments == j].mean(axis=0)`` per cluster — bit for
bit (``tests/ann/test_kmeans_identity.py`` holds it to the loop, kept in
``tests/ann/reference_kmeans.py``); only the bookkeeping is array-wide:

* the data norms are computed once, not per seed and per step;
* a step's distance matrix is written into n x k scratch reused across
  steps, by the same whole GEMM and the same ``x_sq + c_sq - 2 G``,
  clamp-at-0 sequence of float32 operations;
* the centroid update is one grouped pass (DESIGN.md §7f): numpy sums
  a cluster's ``(m, d)`` member block row after row, from +0.0, so
  adding row ``r`` of every cluster in one step gives the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnnIndexError


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _seed(X: np.ndarray, x_sq: np.ndarray, k: int,
          rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float32)

    def dists_to(i: int) -> np.ndarray:
        # pairwise(X, centroids[i:i + 1], "l2").ravel(), norms hoisted.
        c = centroids[i:i + 1]
        out = x_sq + _sq_norms(c) - 2.0 * (X @ c.T).ravel()
        return np.maximum(out, 0.0, out=out)

    centroids[0] = X[rng.integers(n)]
    closest = dists_to(0)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[i:] = X[rng.integers(n, size=k - i)]
            break
        probs = closest / total
        centroids[i] = X[rng.choice(n, p=probs)]
        np.minimum(closest, dists_to(i), out=closest)
    return centroids


def kmeans_pp_init(X: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    return _seed(X, _sq_norms(X), k, rng)


def _update(X: np.ndarray, assignments: np.ndarray, k: int,
            dists: np.ndarray, centroids: np.ndarray) -> None:
    """Move each centroid to its members' mean, in place.

    Equals ``centroids[j] = X[assignments == j].mean(axis=0)`` for every
    non-empty ``j``; every empty cluster takes the point farthest from
    its nearest centroid under the pre-update *dists*.
    """
    counts = np.bincount(assignments, minlength=k)
    members = X[np.argsort(assignments, kind="stable")]
    starts = np.cumsum(counts) - counts
    # Largest clusters first, so the clusters still summing at row r
    # are a prefix of this order.
    by_size = np.argsort(-counts, kind="stable")
    sizes = counts[by_size]
    live = int(np.count_nonzero(sizes))
    if X.shape[1] == 1:
        # numpy sums an (m, 1) block pairwise, not row after row.
        for j in by_size[:live]:
            centroids[j] = members[starts[j]:starts[j] + counts[j]].mean(
                axis=0)
    else:
        sums = np.zeros((live, X.shape[1]), dtype=np.float32)
        heads = starts[by_size[:live]]
        # widths[r]: how many clusters have more than r members.
        widths = np.searchsorted(-sizes[:live], -np.arange(sizes[0]))
        for r, width in enumerate(widths.tolist()):
            sums[:width] += members[heads[:width] + r]
        # How ndarray.mean divides its float32 sum by an integer count.
        np.true_divide(sums, sizes[:live, None], out=sums, casting="unsafe")
        centroids[by_size[:live]] = sums
    if live < k:
        centroids[by_size[live:]] = X[dists.min(axis=1).argmax()]


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
    x_sq = _sq_norms(X)[:, None]
    centroids = _seed(X, x_sq[:, 0], k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float32)
    gram = np.empty((n, k), dtype=np.float32)
    for _iteration in range(max_iters):
        np.add(x_sq, _sq_norms(centroids)[None, :], out=dists)
        np.matmul(X, centroids.T, out=gram)
        gram *= 2.0
        dists -= gram
        np.maximum(dists, 0.0, out=dists)
        new_assignments = dists.argmin(axis=1)
        if np.array_equal(new_assignments, assignments) and _iteration > 0:
            break
        assignments = new_assignments
        _update(X, assignments, k, dists, centroids)
    return centroids, assignments
