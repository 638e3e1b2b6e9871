"""Behavioural tests for Flat, IVF, HNSW: recall, work accounting, errors."""

import numpy as np
import pytest

from repro.ann import (FlatIndex, HNSWIndex, IVFIndex, ProductQuantizer,
                       default_nlist)
from repro.data.groundtruth import recall_at_k
from repro.errors import AnnIndexError


def run_queries(index, queries, k=10, **params):
    results = [index.search(q, k, **params) for q in queries]
    return [r.ids for r in results], results


class TestFlat:
    def test_exact_self_query(self, small_data):
        flat = FlatIndex(metric="cosine").build(small_data)
        result = flat.search(small_data[42], 1)
        assert result.ids[0] == 42

    def test_counts_full_scan(self, small_data):
        flat = FlatIndex(metric="cosine").build(small_data)
        result = flat.search(small_data[0], 5)
        assert result.work.full_evals == len(small_data)
        assert result.work.io_requests == 0

    def test_search_before_build_raises(self):
        with pytest.raises(AnnIndexError):
            FlatIndex().search(np.zeros(4), 1)

    def test_rejects_search_params(self, small_data):
        flat = FlatIndex(metric="cosine").build(small_data)
        with pytest.raises(AnnIndexError):
            flat.search(small_data[0], 1, nprobe=4)

    def test_memory_is_data_size(self, small_data):
        flat = FlatIndex(metric="cosine").build(small_data)
        assert flat.memory_bytes() == small_data.nbytes


class TestIVF:
    def test_default_nlist_rule(self):
        assert default_nlist(1_000_000) == 4_000
        assert default_nlist(10_000_000) == 12_649

    def test_recall_grows_with_nprobe(self, small_data, small_queries,
                                      small_truth):
        ivf = IVFIndex(metric="cosine", nlist=30).build(small_data)
        recalls = []
        for nprobe in (1, 4, 30):
            ids, _ = run_queries(ivf, small_queries, nprobe=nprobe)
            recalls.append(recall_at_k(small_truth, ids, 10))
        assert recalls[0] < recalls[2]
        assert recalls[2] > 0.99  # nprobe == nlist scans everything

    def test_full_probe_is_exhaustive(self, small_data, small_queries,
                                      small_truth):
        ivf = IVFIndex(metric="cosine", nlist=10).build(small_data)
        ids, _ = run_queries(ivf, small_queries, nprobe=10)
        assert recall_at_k(small_truth, ids, 10) == pytest.approx(1.0)

    def test_every_vector_lands_in_exactly_one_list(self, small_data):
        ivf = IVFIndex(metric="cosine", nlist=16).build(small_data)
        assert ivf.list_sizes().sum() == len(small_data)

    def test_work_counts_centroids_plus_scanned(self, small_data):
        ivf = IVFIndex(metric="cosine", nlist=16).build(small_data)
        result = ivf.search(small_data[0], 5, nprobe=2)
        assert result.work.full_evals > 16  # centroids + cell scans
        assert result.work.io_requests == 0  # memory-based by default

    def test_on_disk_probes_generate_reads(self, small_data):
        ivf = IVFIndex(metric="cosine", nlist=16, on_disk=True,
                       ).build(small_data)
        result = ivf.search(small_data[0], 5, nprobe=3)
        assert result.work.io_requests == 3
        assert result.work.io_bytes >= 3 * 4096
        assert ivf.disk_bytes() > 0

    def test_pq_variant_loses_recall(self, small_data, small_queries,
                                     small_truth):
        raw = IVFIndex(metric="cosine", nlist=16).build(small_data)
        pq = ProductQuantizer(small_data.shape[1], m=4)
        quantized = IVFIndex(metric="cosine", nlist=16,
                             quantizer=pq).build(small_data)
        ids_raw, _ = run_queries(raw, small_queries, nprobe=8)
        ids_pq, results = run_queries(quantized, small_queries, nprobe=8)
        assert (recall_at_k(small_truth, ids_pq, 10)
                < recall_at_k(small_truth, ids_raw, 10))
        assert results[0].work.pq_evals > 0
        assert results[0].work.table_builds == 1

    def test_nlist_larger_than_n_raises(self, small_data):
        with pytest.raises(AnnIndexError):
            IVFIndex(metric="cosine", nlist=10_000).build(small_data)

    def test_bad_nprobe_raises(self, small_data):
        ivf = IVFIndex(metric="cosine", nlist=8).build(small_data)
        with pytest.raises(AnnIndexError):
            ivf.search(small_data[0], 5, nprobe=0)


class TestHNSW:
    @pytest.fixture(scope="class")
    def hnsw(self, small_data):
        return HNSWIndex(metric="cosine", M=8,
                         ef_construction=60).build(small_data)

    def test_high_ef_reaches_high_recall(self, hnsw, small_queries,
                                         small_truth):
        ids, _ = run_queries(hnsw, small_queries, ef_search=80)
        assert recall_at_k(small_truth, ids, 10) > 0.95

    def test_recall_monotone_in_ef(self, hnsw, small_queries, small_truth):
        recalls = []
        for ef in (2, 10, 80):
            ids, _ = run_queries(hnsw, small_queries, ef_search=ef)
            recalls.append(recall_at_k(small_truth, ids, 10))
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_work_grows_with_ef(self, hnsw, small_queries):
        _, low = run_queries(hnsw, small_queries, ef_search=4)
        _, high = run_queries(hnsw, small_queries, ef_search=64)
        assert (sum(r.work.full_evals for r in high)
                > sum(r.work.full_evals for r in low))

    def test_no_io_for_memory_index(self, hnsw, small_queries):
        _, results = run_queries(hnsw, small_queries, ef_search=16)
        assert all(r.work.io_requests == 0 for r in results)

    def test_returns_k_results(self, hnsw, small_data):
        assert len(hnsw.search(small_data[0], 7, ef_search=20).ids) == 7

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_raises(self, hnsw, small_data, k):
        """``k=-1`` used to slice ``[:k]`` and return all but one id."""
        with pytest.raises(AnnIndexError, match="k must be >= 1"):
            hnsw.search(small_data[0], k, ef_search=20)

    def test_degree_bounded_by_two_m(self, hnsw):
        _mean, max_degree = hnsw.graph_degree_stats()
        assert max_degree <= 2 * hnsw.M

    def test_self_query_finds_self(self, hnsw, small_data):
        found = hnsw.search(small_data[3], 10, ef_search=40).ids
        assert 3 in found

    def test_bad_m_raises(self):
        with pytest.raises(AnnIndexError):
            HNSWIndex(M=1)

    def test_bad_ef_raises(self, hnsw, small_data):
        with pytest.raises(AnnIndexError):
            hnsw.search(small_data[0], 5, ef_search=0)

    def test_single_point_dataset(self):
        X = np.ones((1, 4), dtype=np.float32)
        hnsw = HNSWIndex(metric="l2").build(X)
        assert hnsw.search(X[0], 1).ids.tolist() == [0]

    def test_memory_accounts_links(self, hnsw, small_data):
        assert hnsw.memory_bytes() > small_data.nbytes
