"""Behavioural tests for Vamana and DiskANN: graph shape, beam search,
I/O accounting, caches, and the on-disk layout geometry."""

import numpy as np
import pytest

from repro.ann import DiskANNIndex, build_vamana, greedy_search, robust_prune
from repro.ann.diskann import DiskLayout
from repro.ann.distance import make_kernel, prepare, prepare_query
from repro.data.groundtruth import recall_at_k
from repro.errors import AnnIndexError


@pytest.fixture(scope="module")
def graph(small_data):
    return build_vamana(small_data, "cosine", R=16, L_build=32, seed=0)


@pytest.fixture(scope="module")
def diskann(small_data):
    return DiskANNIndex(metric="cosine", R=16, L_build=32,
                        storage_dim=768).build(small_data)


class TestVamana:
    def test_degrees_bounded_by_r(self, graph):
        _mean, max_degree = graph.degree_stats()
        assert max_degree <= 16

    def test_graph_reasonably_dense(self, graph):
        mean, _max = graph.degree_stats()
        assert mean > 4.0

    def test_medoid_is_a_valid_node(self, graph):
        assert 0 <= graph.medoid < graph.n

    def test_greedy_search_finds_self(self, graph, small_data):
        prepared, metric = prepare(small_data, "cosine")
        kernel = make_kernel(prepared, metric)
        top, visited = greedy_search(graph.neighbors, kernel, graph.medoid,
                                     prepared[17], L=16)
        assert top[0][1] == 17
        assert len(visited) >= 1

    def test_robust_prune_respects_r(self, graph, small_data):
        prepared, metric = prepare(small_data, "cosine")
        kernel = make_kernel(prepared, metric)
        candidates = [(float(d), i) for i, d in
                      enumerate(kernel(prepared[0], slice(None)))]
        kept = robust_prune(prepared, kernel, 0, candidates, alpha=1.2, R=8)
        assert len(kept) <= 8
        assert 0 not in kept  # never links to itself

    def test_prune_keeps_nearest(self, graph, small_data):
        prepared, metric = prepare(small_data, "cosine")
        kernel = make_kernel(prepared, metric)
        dists = kernel(prepared[0], slice(None))
        candidates = [(float(d), i) for i, d in enumerate(dists) if i != 0]
        kept = robust_prune(prepared, kernel, 0, candidates, alpha=1.2, R=8)
        nearest = int(np.argsort(dists)[1])  # 0 itself excluded
        assert kept[0] == nearest

    def test_ip_metric_rejected(self, small_data):
        with pytest.raises(AnnIndexError):
            build_vamana(small_data, "ip", R=8)

    def test_alpha_below_one_rejected(self, small_data):
        with pytest.raises(AnnIndexError):
            build_vamana(small_data, "l2", alpha=0.5)

    @pytest.mark.parametrize("params", [{"R": 0}, {"R": -3},
                                        {"L_build": 0}])
    def test_degenerate_build_params_rejected(self, small_data, params):
        with pytest.raises(AnnIndexError, match="R >= 1 and L_build >= 1"):
            build_vamana(small_data, "cosine", **params)
        with pytest.raises(AnnIndexError, match="R >= 1 and L_build >= 1"):
            DiskANNIndex(metric="cosine", **params).build(small_data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_naming_the_first(self, small_data,
                                                       bad):
        data = small_data.copy()
        data[40, 2] = data[300, 0] = bad
        with pytest.raises(AnnIndexError, match="row 40 "):
            build_vamana(data, "cosine", R=8)

    def test_high_degree_nodes_rank_by_in_plus_out_degree(self, graph):
        degree = np.zeros(graph.n, dtype=np.int64)
        for node, nbrs in enumerate(graph.neighbors):
            degree[node] += len(nbrs)
            degree[nbrs] += 1
        expected = np.lexsort((np.arange(graph.n), -degree))
        for count in (0, 1, 7, graph.n, graph.n + 5):
            got = graph.high_degree_nodes(count)
            assert got == [int(nid) for nid in expected[:count]]
            assert all(type(nid) is int for nid in got)


class TestDiskLayout:
    def test_768d_node_fits_one_sector(self):
        layout = DiskLayout(storage_dim=768, R=32)
        assert layout.node_bytes <= 4096
        assert layout.nodes_per_sector == 1
        assert layout.node_requests(5) == ((5 * 4096, 4096),)

    def test_1536d_node_spans_two_sectors(self):
        layout = DiskLayout(storage_dim=1536, R=32)
        assert layout.sectors_per_node == 2
        requests = layout.node_requests(3)
        assert len(requests) == 2
        assert all(size == 4096 for _off, size in requests)
        # contiguous sectors
        assert requests[1][0] == requests[0][0] + 4096

    def test_small_nodes_pack_per_sector(self):
        layout = DiskLayout(storage_dim=64, R=8)
        assert layout.nodes_per_sector > 1
        a = layout.node_requests(0)
        b = layout.node_requests(1)
        assert a == b  # same sector

    def test_total_bytes_alignment(self):
        layout = DiskLayout(storage_dim=768, R=32)
        assert layout.total_bytes(100) % 4096 == 0
        assert layout.total_bytes(100) >= 100 * layout.node_bytes // 2


class TestDiskANN:
    def test_recall_reaches_090_at_modest_search_list(
            self, diskann, small_queries, small_truth):
        ids = [diskann.search(q, 10, search_list=20).ids
               for q in small_queries]
        assert recall_at_k(small_truth, ids, 10) > 0.9

    def test_recall_monotone_in_search_list(self, diskann, small_queries,
                                            small_truth):
        recalls = []
        for L in (10, 30, 100):
            ids = [diskann.search(q, 10, search_list=L).ids
                   for q in small_queries]
            recalls.append(recall_at_k(small_truth, ids, 10))
        assert recalls[0] <= recalls[2]
        assert recalls[2] > 0.95

    def test_all_requests_are_4k(self, diskann, small_queries):
        result = diskann.search(small_queries[0], 10, search_list=20)
        sizes = {size for step in result.work.steps
                 if hasattr(step, "requests") for _o, size in step.requests}
        assert sizes == {4096}

    def test_io_grows_with_search_list(self, diskann, small_queries):
        small = sum(diskann.search(q, 10, search_list=10).work.io_bytes
                    for q in small_queries)
        large = sum(diskann.search(q, 10, search_list=100).work.io_bytes
                    for q in small_queries)
        assert large > 2 * small

    def test_wider_beam_fewer_rounds(self, diskann, small_queries):
        narrow = [diskann.search(q, 10, search_list=30, beam_width=1)
                  for q in small_queries]
        wide = [diskann.search(q, 10, search_list=30, beam_width=8)
                for q in small_queries]
        assert (sum(r.work.io_rounds for r in wide)
                < sum(r.work.io_rounds for r in narrow))

    def test_beam_width_one_is_best_first(self, diskann, small_queries):
        result = diskann.search(small_queries[0], 10, search_list=20,
                                beam_width=1)
        io_steps = [s for s in result.work.steps if hasattr(s, "requests")]
        assert all(len(s.requests) + s.cache_hits == 1 for s in io_steps)

    def test_static_cache_cuts_io(self, small_data, small_queries):
        uncached = DiskANNIndex(metric="cosine", R=16, L_build=32,
                                storage_dim=768).build(small_data)
        layout_bytes = uncached.layout.node_bytes
        cached = DiskANNIndex(metric="cosine", R=16, L_build=32,
                              storage_dim=768,
                              cache_bytes=100 * layout_bytes,
                              ).build(small_data)
        io_uncached = sum(uncached.search(q, 10).work.io_requests
                          for q in small_queries)
        io_cached = sum(cached.search(q, 10).work.io_requests
                        for q in small_queries)
        assert io_cached < io_uncached
        hits = sum(cached.search(q, 10).work.cache_hits
                   for q in small_queries)
        assert hits > 0

    def test_results_identical_with_and_without_cache(self, small_data,
                                                      small_queries):
        plain = DiskANNIndex(metric="cosine", R=16, L_build=32,
                             storage_dim=768).build(small_data)
        cached = DiskANNIndex(metric="cosine", R=16, L_build=32,
                              storage_dim=768, cache_bytes=1 << 20,
                              ).build(small_data)
        for q in small_queries[:8]:
            assert np.array_equal(plain.search(q, 10).ids,
                                  cached.search(q, 10).ids)

    def test_lru_cache_warms_on_repeats(self, small_data, small_queries):
        index = DiskANNIndex(metric="cosine", R=16, L_build=32,
                             storage_dim=768, lru_bytes=1 << 22,
                             ).build(small_data)
        cold = index.search(small_queries[0], 10).work
        warm = index.search(small_queries[0], 10).work
        assert warm.io_requests < cold.io_requests
        index.reset_dynamic_cache()
        recold = index.search(small_queries[0], 10).work
        assert recold.io_requests == cold.io_requests

    def test_search_before_build_raises(self):
        with pytest.raises(AnnIndexError):
            DiskANNIndex().search(np.zeros(4), 1)

    def test_bad_params_raise(self, diskann, small_queries):
        with pytest.raises(AnnIndexError):
            diskann.search(small_queries[0], 10, search_list=0)
        with pytest.raises(AnnIndexError):
            diskann.search(small_queries[0], 10, beam_width=0)

    def test_memory_much_smaller_than_disk(self, diskann):
        # The whole point of DiskANN: RAM holds PQ codes, disk the graph.
        assert diskann.memory_bytes() < diskann.disk_bytes()

    def test_io_interleaves_with_cpu(self, diskann, small_queries):
        from repro.ann.workprofile import CpuStep, IoStep
        steps = diskann.search(small_queries[0], 10).work.steps
        kinds = [type(s) for s in steps]
        assert CpuStep in kinds and IoStep in kinds


class TestCacheAccounting:
    """Regression: memory_bytes must charge LRU *occupancy*, not capacity."""

    def _index(self, small_data, lru_bytes):
        return DiskANNIndex(metric="cosine", R=16, L_build=32,
                            storage_dim=768, lru_bytes=lru_bytes,
                            ).build(small_data)

    def test_empty_lru_charges_nothing(self, small_data):
        huge = 1 << 30  # far larger than the dataset itself
        index = self._index(small_data, huge)
        baseline = self._index(small_data, 0)
        # Pre-fix this charged the full 1 GiB budget before any search.
        assert index.memory_bytes() == baseline.memory_bytes()
        assert index.lru_capacity_bytes >= huge - index.layout.node_bytes

    def test_memory_grows_with_occupancy_and_resets(self, small_data,
                                                    small_queries):
        index = self._index(small_data, 1 << 22)
        cold = index.memory_bytes()
        for q in small_queries[:4]:
            index.search(q, 10)
        warmed = index.memory_bytes()
        assert warmed > cold
        assert warmed <= cold + index.lru_capacity_bytes
        index.reset_dynamic_cache()
        assert index.memory_bytes() == cold

    def test_cache_stats_count_hits_and_misses(self, small_data,
                                               small_queries):
        index = self._index(small_data, 1 << 22)
        index.search(small_queries[0], 10)
        index.search(small_queries[0], 10)   # warm repeat
        stats = index.cache_stats()
        assert stats["misses"] > 0
        assert stats["lru_hits"] > 0
        assert stats["static_hits"] == 0     # no static cache configured
