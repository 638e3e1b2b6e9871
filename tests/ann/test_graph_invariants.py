"""Structural invariants of the graph indexes (HNSW, Vamana, DiskANN)."""

import hashlib

import numpy as np
import pytest

from repro.ann import DiskANNIndex, HNSWIndex, build_vamana
from repro.data.synthetic import make_vectors


@pytest.fixture(scope="module")
def data():
    return make_vectors(300, 16, n_clusters=8, seed=3, latent_dim=8)


class TestHNSWInvariants:
    @pytest.fixture(scope="class")
    def index(self, data):
        return HNSWIndex(metric="cosine", M=6, ef_construction=30,
                         ).build(data)

    def test_all_nodes_present_on_level_zero(self, index, data):
        assert set(index._layers[0]) == set(range(len(data)))

    def test_upper_levels_shrink(self, index):
        sizes = [len(layer) for layer in index._layers]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_links_reference_valid_nodes(self, index, data):
        n = len(data)
        for layer in index._layers:
            for node, links in layer.items():
                assert all(0 <= nid < n for nid in links)
                assert node not in links  # no self loops

    def test_upper_level_links_exist_on_that_level(self, index):
        for layer in index._layers[1:]:
            members = set(layer)
            for links in layer.values():
                assert set(links) <= members

    def test_entry_point_lives_on_top_level(self, index):
        assert index._entry in index._layers[-1]

    def test_level_zero_is_connected_enough(self, index, data):
        # BFS from the entry reaches nearly every node (graph searches
        # depend on reachability).
        seen = {index._entry}
        frontier = [index._entry]
        while frontier:
            node = frontier.pop()
            for nid in index._layers[0][node]:
                if nid not in seen:
                    seen.add(nid)
                    frontier.append(nid)
        assert len(seen) >= 0.98 * len(data)


#: sha256 over (medoid, then per node: degree, neighbour ids) of the
#: ``TestVamanaInvariants`` fixture graph, as built by the seed.
PINNED = "e715d9a9684b6e978dbc6cf407e2455af30057290c68dd44386f95e21f7ea749"


class TestVamanaInvariants:
    @pytest.fixture(scope="class")
    def graph(self, data):
        return build_vamana(data, "cosine", R=10, L_build=20, seed=1)

    def test_adjacency_is_pinned(self, graph):
        """The exact graph, so a drift fails here without the oracle.

        (``tests/ann/test_vamana_identity.py`` compares against the
        seed implementation; this digest is of what that produced.)
        """
        digest = hashlib.sha256()
        digest.update(np.int64(graph.medoid).tobytes())
        for nbrs in graph.neighbors:
            assert nbrs.dtype == np.int64
            digest.update(np.int64(len(nbrs)).tobytes())
            digest.update(nbrs.tobytes())
        assert digest.hexdigest() == PINNED

    def test_out_degree_bounded(self, graph):
        assert all(len(nbrs) <= 10 for nbrs in graph.neighbors)

    def test_no_self_loops_and_no_duplicates(self, graph):
        for node, nbrs in enumerate(graph.neighbors):
            nbrs = nbrs.tolist()
            assert node not in nbrs
            assert len(set(nbrs)) == len(nbrs)

    def test_reachability_from_medoid(self, graph):
        seen = {graph.medoid}
        frontier = [graph.medoid]
        while frontier:
            node = frontier.pop()
            for nid in graph.neighbors[node]:
                nid = int(nid)
                if nid not in seen:
                    seen.add(nid)
                    frontier.append(nid)
        assert len(seen) >= 0.98 * graph.n


class TestDiskANNInvariants:
    @pytest.fixture(scope="class")
    def index(self, data):
        return DiskANNIndex(metric="cosine", R=10, L_build=20,
                            storage_dim=768, cache_bytes=1 << 17,
                            ).build(data)

    def test_static_cache_is_bfs_prefix(self, index):
        """Cached nodes form a connected region around the medoid."""
        cached = index._static_cache
        assert index.graph.medoid in cached
        # Every cached node (except the medoid) has a cached in-neighbour.
        reachable = {index.graph.medoid}
        changed = True
        while changed:
            changed = False
            for node in list(reachable):
                for nid in index.graph.neighbors[node]:
                    nid = int(nid)
                    if nid in cached and nid not in reachable:
                        reachable.add(nid)
                        changed = True
        assert reachable == set(cached)

    def test_layout_offsets_unique_per_sector_group(self, index):
        offsets = [index.layout.node_requests(node)[0][0]
                   for node in range(index.graph.n)]
        per_sector = index.layout.nodes_per_sector
        # Each sector holds at most nodes_per_sector nodes.
        from collections import Counter
        assert max(Counter(offsets).values()) <= per_sector

    def test_every_node_within_file(self, index):
        total = index.disk_bytes()
        for node in range(index.graph.n):
            for offset, size in index.layout.node_requests(node):
                assert 0 <= offset and offset + size <= total

    def test_search_results_sorted_by_distance(self, index, data):
        result = index.search(data[5], 10, search_list=20)
        assert np.all(np.diff(result.dists) >= -1e-6)
