"""Unit tests for distance kernels and preparation."""

import numpy as np
import pytest

from repro.ann.distance import (distances, make_kernel, normalize, pairwise,
                                prepare, prepare_query, top_k)
from repro.errors import AnnIndexError


def test_l2_matches_manual():
    Y = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
    d = distances(np.array([0.0, 0.0]), Y, "l2")
    assert d == pytest.approx([0.0, 25.0])


def test_ip_is_negated_similarity():
    Y = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    d = distances(np.array([2.0, 0.0]), Y, "ip")
    assert d == pytest.approx([-2.0, 0.0])


def test_cosine_ignores_magnitude():
    Y = np.array([[10.0, 0.0], [0.0, 3.0]], dtype=np.float32)
    d = distances(np.array([1.0, 0.0]), Y, "cosine")
    assert d == pytest.approx([-1.0, 0.0])


def test_unknown_metric_raises():
    with pytest.raises(AnnIndexError):
        distances(np.zeros(2), np.zeros((1, 2)), "hamming")


def test_dimension_mismatch_raises():
    with pytest.raises(AnnIndexError):
        distances(np.zeros(3), np.zeros((2, 2)), "l2")
    with pytest.raises(AnnIndexError):
        pairwise(np.zeros((2, 3)), np.zeros((2, 2)), "l2")


def test_pairwise_l2_nonnegative_and_symmetric():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 5)).astype(np.float32)
    D = pairwise(X, X, "l2")
    assert (D >= 0).all()
    assert np.allclose(D, D.T, atol=1e-4)
    assert np.allclose(np.diag(D), 0.0, atol=1e-4)


def test_pairwise_agrees_with_single_query():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 6)).astype(np.float32)
    Y = rng.standard_normal((7, 6)).astype(np.float32)
    for metric in ("l2", "ip", "cosine"):
        D = pairwise(X, Y, metric)
        for i in range(4):
            assert np.allclose(D[i], distances(X[i], Y, metric), atol=1e-4)


def test_normalize_unit_rows():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 8)).astype(np.float32) * 7
    N = normalize(X)
    assert np.allclose(np.linalg.norm(N, axis=1), 1.0, atol=1e-5)


def test_normalize_zero_row_survives():
    X = np.zeros((1, 4), dtype=np.float32)
    assert np.isfinite(normalize(X)).all()


def test_top_k_sorted_ascending():
    d = np.array([5.0, 1.0, 3.0, 0.5])
    assert top_k(d, 3).tolist() == [3, 1, 2]


def test_top_k_breaks_ties_by_ascending_id():
    # Regression: argpartition alone leaves tied ids in arbitrary order
    # (and arbitrary *membership* when the tie straddles k).
    d = np.array([2.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert top_k(d, 4).tolist() == [1, 3, 5, 2]
    assert top_k(np.zeros(6), 3).tolist() == [0, 1, 2]


def test_duplicated_vectors_return_lowest_ids_first():
    """Duplicate rows produce exactly tied distances; the searched index
    must surface the duplicates in ascending-id order, deterministically.
    """
    from repro.ann.flat import FlatIndex
    rng = np.random.default_rng(6)
    base = rng.standard_normal((5, 8)).astype(np.float32)
    X = np.vstack([base, base, base])  # ids i, i+5, i+10 are identical
    for metric in ("l2", "cosine"):
        flat = FlatIndex(metric=metric).build(X)
        ids = flat.search(base[2], 3).ids
        assert ids.tolist() == [2, 7, 12]


def test_top_k_clamps_to_length():
    assert len(top_k(np.array([1.0, 2.0]), 10)) == 2
    assert len(top_k(np.array([1.0]), 0)) == 0


def test_prepare_cosine_becomes_l2n():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 4)).astype(np.float32) * 3
    prepared, metric = prepare(X, "cosine")
    assert metric == "l2n"
    assert np.allclose(np.linalg.norm(prepared, axis=1), 1.0, atol=1e-5)


def test_prepare_l2_passthrough():
    X = np.ones((2, 3), dtype=np.float32)
    prepared, metric = prepare(X, "l2")
    assert metric == "l2"
    assert np.array_equal(prepared, X)


def test_l2n_kernel_is_nonnegative_and_rank_equivalent_to_cosine():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 8)).astype(np.float32)
    prepared, metric = prepare(X, "cosine")
    kernel = make_kernel(prepared, metric)
    q = prepare_query(rng.standard_normal(8), "cosine")
    kern_d = kernel(q, slice(None))
    cos_d = distances(q, X, "cosine")
    assert (kern_d >= -1e-5).all()
    assert np.array_equal(np.argsort(kern_d), np.argsort(cos_d))


def test_kernels_match_reference_distances():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 6)).astype(np.float32)
    q = rng.standard_normal(6).astype(np.float32)
    for metric in ("l2", "ip"):
        kernel = make_kernel(X, metric)
        assert np.allclose(kernel(q, list(range(20))),
                           distances(q, X, metric), atol=1e-4)


def test_make_kernel_rejects_unknown():
    with pytest.raises(AnnIndexError):
        make_kernel(np.zeros((1, 2), dtype=np.float32), "cosine")


def test_prepare_query_normalizes_only_for_cosine():
    q = np.array([3.0, 4.0], dtype=np.float32)
    assert np.linalg.norm(prepare_query(q, "cosine")) == pytest.approx(1.0)
    assert np.array_equal(prepare_query(q, "l2"), q)


def test_distances_casts_integer_inputs():
    # Regression: without the float32 cast, int32 arithmetic overflows
    # (60000**2 > 2**31) and l2 came back negative.
    Y = np.array([[0]], dtype=np.int32)
    q = np.array([60_000], dtype=np.int32)
    d = distances(q, Y, "l2")
    assert d.dtype == np.float32
    assert d[0] == pytest.approx(3.6e9)


def test_distances_casts_float64_to_float32():
    rng = np.random.default_rng(7)
    Y64 = rng.standard_normal((6, 4))
    q64 = rng.standard_normal(4)
    for metric in ("l2", "ip", "cosine"):
        d = distances(q64, Y64, metric)
        assert d.dtype == np.float32
        expected = distances(q64.astype(np.float32),
                             Y64.astype(np.float32), metric)
        assert np.array_equal(d, expected)
