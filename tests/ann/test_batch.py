"""Batched search is bit-identical to sequential search.

The vectorized hot path (``make_batch_kernel``, ``top_k_batch``, the
batched ADC, and every index's ``search_batch``) promises *bitwise*
equality with the per-query code, not mere closeness: scoring always
runs through the same fixed-width GEMM blocks, so a query's distances
do not depend on its batchmates.  These tests pin that contract down
at every layer — kernel, top-k, PQ, and all six index kinds under both
metrics.
"""

import numpy as np
import pytest

from repro.ann import (DiskANNIndex, FlatIndex, HNSWIndex, IVFIndex,
                       ProductQuantizer, SPANNIndex)
from repro.ann.distance import (make_batch_kernel, prepare, prepare_queries,
                                prepare_query, top_k, top_k_batch)
from repro.errors import AnnIndexError


# -- kernel layer ---------------------------------------------------------

@pytest.mark.parametrize("metric", ["l2", "ip", "l2n"])
def test_batch_kernel_columns_independent_of_batch(metric):
    """Query j's distances are bitwise equal in any batch containing it."""
    rng = np.random.default_rng(10)
    X = rng.standard_normal((200, 24)).astype(np.float32)
    Q = rng.standard_normal((37, 24)).astype(np.float32)  # not a W multiple
    kernel = make_batch_kernel(X, metric)
    whole = kernel(Q, slice(None))
    for j in (0, 15, 16, 36):
        alone = kernel(Q[j:j + 1], slice(None))
        assert np.array_equal(whole[j], alone[0])
    subset = kernel(Q[5:20], slice(None))
    assert np.array_equal(whole[5:20], subset)


@pytest.mark.parametrize("metric", ["l2", "ip"])
def test_batch_kernel_id_subsets(metric):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((100, 16)).astype(np.float32)
    Q = rng.standard_normal((9, 16)).astype(np.float32)
    ids = np.array([3, 14, 15, 92, 65], dtype=np.int64)
    kernel = make_batch_kernel(X, metric)
    assert np.array_equal(kernel(Q, ids),
                          kernel(Q, slice(None))[:, ids])


def test_batch_kernel_l2_accepts_precomputed_norms():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((64, 8)).astype(np.float32)
    Q = rng.standard_normal((5, 8)).astype(np.float32)
    x_sq = np.einsum("ij,ij->i", X, X)
    assert np.array_equal(make_batch_kernel(X, "l2", x_sq=x_sq)(Q, slice(None)),
                          make_batch_kernel(X, "l2")(Q, slice(None)))


def test_batch_kernel_unknown_metric_raises():
    with pytest.raises(AnnIndexError):
        make_batch_kernel(np.zeros((1, 2), dtype=np.float32), "cosine")


def test_prepare_queries_rows_match_prepare_query():
    rng = np.random.default_rng(13)
    Q = rng.standard_normal((12, 6)) * 5
    for metric in ("l2", "ip", "cosine"):
        batch = prepare_queries(Q, metric)
        assert batch.dtype == np.float32
        for row in range(12):
            assert np.array_equal(batch[row],
                                  prepare_query(Q[row], metric))


def test_prepare_queries_rejects_1d():
    with pytest.raises(AnnIndexError):
        prepare_queries(np.zeros(4), "l2")


# -- top_k_batch ----------------------------------------------------------

def test_top_k_batch_matches_rowwise_random():
    rng = np.random.default_rng(14)
    dists = rng.standard_normal((40, 120)).astype(np.float32)
    for k in (1, 7, 119, 120, 500):
        batch = top_k_batch(dists, k)
        for row in range(40):
            assert np.array_equal(batch[row], top_k(dists[row], k))


def test_top_k_batch_ambiguous_ties_at_kth_place():
    """Rows where ties straddle the k-th slot must fall back exactly."""
    rng = np.random.default_rng(15)
    # Few distinct values => many rows tie across the partition boundary.
    dists = rng.integers(0, 4, size=(64, 50)).astype(np.float32)
    batch = top_k_batch(dists, 10)
    for row in range(64):
        assert np.array_equal(batch[row], top_k(dists[row], 10))


def test_top_k_batch_shapes_and_errors():
    assert top_k_batch(np.zeros((3, 5)), 0).shape == (3, 0)
    assert top_k_batch(np.zeros((2, 4)), 9).shape == (2, 4)
    with pytest.raises(AnnIndexError):
        top_k_batch(np.zeros(5), 2)


# -- batched PQ ADC -------------------------------------------------------

@pytest.fixture(scope="module")
def pq_setup():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((300, 16)).astype(np.float32)
    Q = rng.standard_normal((11, 16)).astype(np.float32)
    pq = ProductQuantizer(dim=16, m=4).train(X)
    return pq, pq.encode(X), Q


def test_adc_tables_rows_match_adc_table(pq_setup):
    pq, _, Q = pq_setup
    tables = pq.adc_tables(Q)
    assert tables.shape == (11, pq.m, pq.ksub_effective)
    for b in range(11):
        assert np.array_equal(tables[b], pq.adc_table(Q[b]))


def test_adc_distances_batch_rows_match_scalar(pq_setup):
    pq, codes, Q = pq_setup
    tables = pq.adc_tables(Q)
    batch = ProductQuantizer.adc_distances_batch(tables, codes)
    for b in range(11):
        assert np.array_equal(
            batch[b], ProductQuantizer.adc_distances(tables[b], codes))


def test_adc_distances_batch_on_table_subset(pq_setup):
    """Fancy-indexed table subsets (the IVF per-cell path) stay exact."""
    pq, codes, Q = pq_setup
    tables = pq.adc_tables(Q)
    rows = [9, 2, 5]
    batch = ProductQuantizer.adc_distances_batch(tables[rows], codes)
    for pos, b in enumerate(rows):
        assert np.array_equal(
            batch[pos], ProductQuantizer.adc_distances(tables[b], codes))


# -- the index-level property --------------------------------------------

def _index_cases(dim):
    return [
        ("flat", lambda metric: FlatIndex(metric=metric), {}),
        ("ivf", lambda metric: IVFIndex(metric=metric, nlist=16),
         {"nprobe": 4}),
        ("ivf-pq", lambda metric: IVFIndex(
            metric=metric, nlist=16, on_disk=True,
            quantizer=ProductQuantizer(dim, m=dim // 4)),
         {"nprobe": 4}),
        ("hnsw", lambda metric: HNSWIndex(metric=metric, M=8,
                                          ef_construction=40),
         {"ef_search": 24}),
        ("diskann", lambda metric: DiskANNIndex(
            metric=metric, R=8, L_build=16, storage_dim=96,
            cache_bytes=1 << 16, lru_bytes=1 << 16),
         {"search_list": 16}),
        ("spann", lambda metric: SPANNIndex(
            metric=metric, n_postings=12, storage_dim=96,
            list_cache_bytes=1 << 14),
         {"nprobe": 4}),
    ]


@pytest.mark.parametrize("name,factory,params",
                         _index_cases(24), ids=lambda c: str(c)[:12])
@pytest.mark.parametrize("metric", ["cosine", "l2"])
def test_search_batch_bit_identical_to_sequential(
        name, factory, params, metric, small_data, small_queries):
    index = factory(metric).build(small_data)
    queries = small_queries[:17]  # not a multiple of the GEMM width

    def run(batched):
        # Stateful dynamic caches (DiskANN nodes, SPANN lists) must
        # start each pass from the same cold state.
        getattr(index, "reset_dynamic_cache", lambda: None)()
        if batched:
            return index.search_batch(queries, 5, **params)
        return [index.search(q, 5, **params) for q in queries]

    sequential = run(batched=False)
    batch = run(batched=True)
    assert len(batch) == len(sequential)
    for seq_r, bat_r in zip(sequential, batch):
        assert np.array_equal(seq_r.ids, bat_r.ids)
        assert np.array_equal(seq_r.dists, bat_r.dists)
        assert bat_r.dists.dtype == np.float32
        assert seq_r.work.steps == bat_r.work.steps


def test_search_batch_default_validates_input(small_data):
    index = FlatIndex(metric="l2").build(small_data)
    with pytest.raises(AnnIndexError):
        index.search_batch(np.zeros(24), 3)


def test_search_batch_empty_batch(small_data):
    index = FlatIndex(metric="l2").build(small_data)
    assert index.search_batch(
        np.zeros((0, 24), dtype=np.float32), 3) == []
