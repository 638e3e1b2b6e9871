"""The Vamana build's contract: the seed's graph, to the last edge.

``repro.ann.vamana`` scores in blocks and keeps its books in Python
lists; ``tests/ann/reference_vamana.py`` is the seed's per-hop loop.
For every input the two must agree on the medoid, the prepared vectors
and every adjacency array (values, order, dtype) — and, one level down,
on the *bits* of every distance that reaches RobustPrune, so that a
graph which merely happens to come out equal does not pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ann.diskann
from repro.ann import DiskANNIndex, build_vamana, greedy_search, robust_prune
from repro.ann import vamana
from repro.ann.distance import make_kernel, prepare
from repro.data.synthetic import make_vectors
from tests.ann import reference_vamana as reference


def make_data(n: int, dim: int, seed: int, duplicates: bool) -> np.ndarray:
    data = make_vectors(n, dim, n_clusters=max(1, n // 25), seed=seed,
                        latent_dim=min(dim, 8))
    if duplicates and n >= 4:
        # Duplicated rows tie distances exactly, which is where the
        # admission order and the stable pool order decide the graph.
        rng = np.random.default_rng(seed)
        copies = rng.choice(n, size=max(2, n // 8), replace=False)
        data[copies] = data[rng.choice(n, size=len(copies))]
    return data


def assert_same_graph(built, expected) -> None:
    assert built.medoid == expected.medoid
    assert built.R == expected.R
    assert built.internal_metric == expected.internal_metric
    assert built.X.dtype == expected.X.dtype
    assert np.array_equal(built.X, expected.X)
    assert len(built.neighbors) == len(expected.neighbors)
    for node, (got, want) in enumerate(zip(built.neighbors,
                                           expected.neighbors)):
        assert got.dtype == want.dtype == np.int64, node
        assert got.shape == want.shape, node
        assert np.array_equal(got, want), node


# dim 96 and 100 matter: from there up a one-row gather (gemv) and a
# many-row gather (gemm) round the same pair differently on OpenBLAS.
@given(n=st.integers(1, 400), dim=st.sampled_from([3, 16, 24, 96, 100]),
       R=st.integers(1, 24), L_build=st.integers(1, 48),
       alpha=st.sampled_from([1.0, 1.2, 1.3]), seed=st.integers(0, 10_000),
       metric=st.sampled_from(["cosine", "l2"]), duplicates=st.booleans())
@settings(max_examples=20, deadline=None)
def test_build_matches_the_reference(n, dim, R, L_build, alpha, seed,
                                     metric, duplicates):
    data = make_data(n, dim, seed, duplicates)
    args = (data, metric, R, L_build, alpha, seed)
    assert_same_graph(build_vamana(*args), reference.build_vamana(*args))


@pytest.mark.parametrize("metric", ["cosine", "l2"])
@pytest.mark.parametrize("n", [1, 2, 3, 9, 17])
def test_fewer_rows_than_the_degree_bound(n, metric):
    data = make_data(n, 96, seed=n, duplicates=n > 8)
    args = (data, metric, 16, 32, 1.2, 0)
    assert_same_graph(build_vamana(*args), reference.build_vamana(*args))


@pytest.mark.parametrize("metric", ["cosine", "l2"])
def test_pruning_is_fed_the_same_distance_bits(metric, monkeypatch):
    """Every ``robust_prune`` call sees the reference's candidates.

    Same node, same ids in the same order, and distances equal as
    *bytes* — the norm-expansion ``l2`` of ``make_batch_kernel``, or a
    one-row gather read out of a many-row product, would fail here
    long before it moved an edge.
    """
    def recording(module, calls):
        prune = module.robust_prune

        def record(X, kernel, node, candidates, alpha, R):
            candidates = list(candidates)
            calls.append((
                int(node), alpha,
                [int(nid) for _d, nid in candidates],
                np.array([d for d, _nid in candidates],
                         dtype=np.float64).tobytes()))
            return prune(X, kernel, node, candidates, alpha, R)
        monkeypatch.setattr(module, "robust_prune", record)

    got, want = [], []
    recording(vamana, got)
    recording(reference, want)
    data = make_data(300, 96, seed=5, duplicates=True)
    args = (data, metric, 12, 24, 1.3, 2)
    assert_same_graph(build_vamana(*args), reference.build_vamana(*args))
    assert len(got) == len(want) > 600
    assert got == want


def random_graph(rng, n: int, degree: int) -> list[np.ndarray]:
    return [rng.choice(n, size=rng.integers(0, min(degree, n) + 1),
                       replace=False).astype(np.int64) for _ in range(n)]


@given(seed=st.integers(0, 10_000), n=st.integers(2, 120),
       dim=st.sampled_from([8, 96]), L=st.integers(1, 40),
       metric=st.sampled_from(["cosine", "l2"]), as_lists=st.booleans())
@settings(max_examples=40, deadline=None)
def test_greedy_search_matches_the_reference(seed, n, dim, L, metric,
                                             as_lists):
    """On arbitrary graphs and queries that are no dataset row."""
    rng = np.random.default_rng(seed)
    X, internal = prepare(make_data(n, dim, seed, duplicates=True), metric)
    kernel = make_kernel(X, internal)
    graph = random_graph(rng, n, degree=10)
    query = rng.standard_normal(dim).astype(np.float32)
    start = int(rng.integers(n))
    want = reference.greedy_search(graph, kernel, start, query, L)
    if as_lists:
        graph = [nbrs.tolist() for nbrs in graph]
    assert greedy_search(graph, kernel, start, query, L) == want


@given(seed=st.integers(0, 10_000), n=st.integers(2, 120),
       dim=st.sampled_from([8, 96]), R=st.integers(1, 40),
       alpha=st.sampled_from([1.0, 1.2, 1.3]),
       metric=st.sampled_from(["cosine", "l2"]))
@settings(max_examples=40, deadline=None)
def test_robust_prune_matches_the_reference(seed, n, dim, R, alpha, metric):
    """Pools with repeated ids, the node itself and stale distances."""
    rng = np.random.default_rng(seed)
    X, internal = prepare(make_data(n, dim, seed, duplicates=True), metric)
    kernel = make_kernel(X, internal)
    node = int(rng.integers(n))
    ids = rng.integers(0, n, size=rng.integers(0, 3 * n))
    dists = kernel(X[node], ids)
    # First occurrence wins, so a repeated id may carry any distance.
    dists[rng.random(len(ids)) < 0.2] *= 1.5
    candidates = [(float(d), int(nid)) for d, nid in zip(dists, ids)]
    want = reference.robust_prune(X, kernel, node, candidates, alpha, R)
    got = robust_prune(X, kernel, node, candidates, alpha, R)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_robust_prune_takes_a_plain_one_query_kernel():
    """A kernel without ``block_width`` is called one query at a time."""
    X, internal = prepare(make_data(80, 96, seed=1, duplicates=True),
                          "cosine")
    kernel = make_kernel(X, internal)
    candidates = [(float(d), nid)
                  for nid, d in enumerate(kernel(X[0], slice(None)))]
    got = robust_prune(X, lambda query, ids: kernel(query, ids), 0,
                       candidates, 1.2, 12)
    want = reference.robust_prune(X, kernel, 0, candidates, 1.2, 12)
    assert np.array_equal(got, want)


def test_diskann_search_is_unchanged(monkeypatch, small_data,
                                     small_queries):
    """Ids, distance bits and work steps, index against index."""
    def build() -> DiskANNIndex:
        return DiskANNIndex(metric="cosine", R=16, L_build=32,
                            storage_dim=768, cache_bytes=1 << 16,
                            lru_bytes=1 << 15).build(small_data)
    built = build()
    monkeypatch.setattr(repro.ann.diskann, "build_vamana",
                        reference.build_vamana)
    expected = build()
    assert_same_graph(built.graph, expected.graph)
    for query in small_queries:
        got = built.search(query, 10, search_list=30, beam_width=4)
        want = expected.search(query, 10, search_list=30, beam_width=4)
        assert np.array_equal(got.ids, want.ids)
        assert got.dists.tobytes() == want.dists.tobytes()
        assert got.work.steps == want.work.steps
