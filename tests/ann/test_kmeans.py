"""Unit tests for k-means clustering."""

import numpy as np
import pytest

from repro.ann.kmeans import kmeans
from repro.errors import AnnIndexError


def blobs(k=4, per=50, dim=5, seed=0, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)) * 5
    X = np.vstack([c + rng.standard_normal((per, dim)) * spread
                   for c in centers])
    return X.astype(np.float32), centers


def test_recovers_well_separated_blobs():
    X, _centers = blobs()
    centroids, assignments = kmeans(X, 4, seed=1)
    # Each true blob maps to exactly one cluster.
    for blob in range(4):
        labels = assignments[blob * 50:(blob + 1) * 50]
        assert len(set(labels.tolist())) == 1
    assert len(set(assignments.tolist())) == 4


def test_returns_exactly_k_centroids():
    X, _ = blobs()
    centroids, _ = kmeans(X, 7, seed=0)
    assert centroids.shape == (7, 5)


def test_assignments_in_range():
    X, _ = blobs()
    _, assignments = kmeans(X, 4)
    assert assignments.min() >= 0
    assert assignments.max() < 4


def test_k_equal_n_degenerate():
    X = np.eye(3, dtype=np.float32)
    centroids, assignments = kmeans(X, 3)
    assert assignments.tolist() == [0, 1, 2]
    assert np.allclose(centroids, X)


def test_k_greater_than_n_pads():
    X = np.eye(2, dtype=np.float32)
    centroids, assignments = kmeans(X, 5)
    assert centroids.shape == (5, 2)
    assert assignments.tolist() == [0, 1]


def test_deterministic_for_fixed_seed():
    X, _ = blobs(seed=3)
    c1, a1 = kmeans(X, 4, seed=42)
    c2, a2 = kmeans(X, 4, seed=42)
    assert np.array_equal(a1, a2)
    assert np.allclose(c1, c2)


def test_invalid_k_raises():
    X, _ = blobs()
    with pytest.raises(AnnIndexError):
        kmeans(X, 0)


def test_empty_data_raises():
    with pytest.raises(AnnIndexError):
        kmeans(np.empty((0, 4), dtype=np.float32), 2)


def test_duplicate_points_do_not_crash():
    X = np.ones((20, 3), dtype=np.float32)
    centroids, assignments = kmeans(X, 3)
    assert centroids.shape == (3, 3)
    assert np.isfinite(centroids).all()


def test_centroids_reduce_inertia_vs_random():
    X, _ = blobs(spread=1.0)
    centroids, assignments = kmeans(X, 4, seed=0)
    inertia = sum(((X[assignments == j] - centroids[j]) ** 2).sum()
                  for j in range(4))
    rng = np.random.default_rng(0)
    random_centroids = X[rng.choice(len(X), 4, replace=False)]
    from repro.ann.distance import pairwise
    random_inertia = pairwise(X, random_centroids, "l2").min(axis=1).sum()
    assert inertia < random_inertia
