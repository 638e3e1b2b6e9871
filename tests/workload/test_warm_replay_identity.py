"""A compile searches each query once and still gets the warm pass right.

``BenchRunner._compile`` runs its cold and warm functional passes
inside :meth:`~repro.ann.base.VectorIndex.reuse_traversals`: the warm
pass walks the cold pass's DiskANN traversals through the warmed node
caches and prefetcher instead of searching again.  The oracle here is
what the compile replaced — two real ``collection.search_batch``
passes, cold then warm, outside any scope — on a deep copy of the same
engine whose DiskANN indexes search through the seed's body
(``tests/ann/reference_diskann.py``), so an accounting walk that
skipped a ``touch`` or reordered a step would differ from it.  Plans
(cpu-step floats and extents included), found ids and distance bits,
recall and everything the searches leave in the indexes must be equal.
"""

import contextlib
import copy
import dataclasses
import functools
import pickle

import numpy as np
import pytest

from repro.ann.diskann import DiskANNIndex
from repro.data.groundtruth import exact_knn, recall_at_k
from repro.data.synthetic import make_vectors
from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.engines.payload import Filter
from repro.workload import BenchRunner
from tests.ann import reference_diskann as reference

DIM, ROWS, N_QUERIES, K = 16, 420, 16, 10
NODE_BYTES = 4 * 768 + 4 + 4 * 8          # storage_dim 768, R 8


def make_data(growing: int = 0) -> np.ndarray:
    return make_vectors(ROWS + growing, DIM, n_clusters=12, seed=5,
                        latent_dim=6)


def make_engine(metric: str, *, segments: int = 1, growing: int = 0,
                payloads: bool = False) -> VectorEngine:
    """A DiskANN collection with small static and dynamic node caches."""
    profile = dataclasses.replace(
        get_profile("milvus"), diskann_cache_bytes=6 * NODE_BYTES,
        diskann_lru_bytes=12 * NODE_BYTES)
    engine = VectorEngine(profile)
    engine.create_collection("c", DIM,
                             IndexSpec.of("diskann", metric, R=8, L_build=16),
                             storage_dim=768)
    data = make_data(growing)
    tags = [{"bucket": row % 20} for row in range(len(data))]
    engine.insert("c", data[:ROWS], payloads=tags[:ROWS] if payloads
                  else None)
    if segments == 1:
        engine.flush("c")
    else:
        # A flush re-seals a DiskANN collection into one graph; seal
        # the rows as several (each its own index, seed and caches).
        collection = engine.collection("c")
        row_ids, vectors = collection.growing.drain()
        for part in np.array_split(np.arange(ROWS), segments):
            collection._build_segments(row_ids[part], vectors[part])
        collection.mutations += 1
    if growing:
        engine.insert("c", data[ROWS:], payloads=tags[ROWS:] if payloads
                      else None)
    return engine


def make_queries(seed: int = 13) -> np.ndarray:
    data = make_data()
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, ROWS, size=N_QUERIES)
    noise = rng.standard_normal((N_QUERIES, DIM)).astype(np.float32)
    queries = data[rows] + 0.3 * noise
    queries[1] = queries[0]             # a repeated query
    return queries


_ENGINES: dict[tuple, VectorEngine] = {}


def engine_copy(metric: str = "l2", **shape) -> VectorEngine:
    key = (metric, tuple(sorted(shape.items())))
    if key not in _ENGINES:
        _ENGINES[key] = make_engine(metric, **shape)
    return copy.deepcopy(_ENGINES[key])


def diskann_indexes(engine: VectorEngine) -> list[DiskANNIndex]:
    return [segment.index for segment in engine.collection("c").segments]


def searching_the_seed_body(engine: VectorEngine) -> VectorEngine:
    """*engine* with every DiskANN index searching the seed's loop."""
    for index in diskann_indexes(engine):
        index.search = functools.partial(reference.search, index)
    return engine


def index_state(engine: VectorEngine) -> list[tuple]:
    return [((index.static_hits, index.lru_hits, index.cache_misses),
             index.prefetch_stats.as_dict(),
             pickle.dumps(index._node_cache))
            for index in diskann_indexes(engine)]


def assert_compile_matches_two_real_passes(params: dict, *,
                                           metric: str = "l2",
                                           **shape) -> None:
    queries = make_queries()
    truth = exact_knn(make_data(shape.get("growing", 0)), queries, K,
                      metric)
    runner = BenchRunner(engine_copy(metric, **shape), "c", queries,
                         ground_truth=truth, k=K)
    oracle = BenchRunner(searching_the_seed_body(engine_copy(metric,
                                                             **shape)),
                         "c", queries, k=K)

    cold, warm, recall = runner._compile(params)
    found = runner.compiled_results(params)

    oracle._drop_caches()
    want_cold, want_found = oracle._functional_pass(params)
    want_warm, want_warm_found = oracle._functional_pass(params)

    assert cold == want_cold
    assert warm == want_warm
    for (ids, dists), (want_ids, want_dists) in zip(found, want_found):
        assert np.array_equal(ids, want_ids)
        assert dists.tobytes() == want_dists.tobytes()
    for (ids, dists), (want_ids, want_dists) in zip(found, want_warm_found):
        assert np.array_equal(ids, want_ids)
        assert dists.tobytes() == want_dists.tobytes()
    assert recall == recall_at_k(truth, [ids for ids, _ in want_found], K)
    assert index_state(runner.engine) == index_state(oracle.engine)
    for index in diskann_indexes(runner.engine):
        assert "_traversals" not in vars(index)


@pytest.mark.parametrize("cache_policy", ["lru", "hotness"])
@pytest.mark.parametrize("prefetch_depth", [0, 2])
@pytest.mark.parametrize("beam_width", [1, 4, 8])
@pytest.mark.parametrize("search_list", [10, 50, 100])
def test_parameter_grid(search_list, beam_width, prefetch_depth,
                        cache_policy):
    assert_compile_matches_two_real_passes(
        {"search_list": search_list, "beam_width": beam_width,
         "prefetch_depth": prefetch_depth, "cache_policy": cache_policy})


@pytest.mark.parametrize("prefetch_depth", [0, 2])
def test_cosine_metric(prefetch_depth):
    """The grid runs ``l2``; DiskANN's other metric normalises the
    query first, and the memo is keyed by the prepared bytes.  (Vamana
    refuses ``ip``: its distances can be negative.)"""
    assert_compile_matches_two_real_passes(
        {"search_list": 50, "beam_width": 4,
         "prefetch_depth": prefetch_depth}, metric="cosine")


def test_multi_segment_collection_with_a_growing_buffer():
    engine = engine_copy(segments=3, growing=30)
    assert len(engine.collection("c").segments) == 3
    assert len(engine.collection("c").growing) == 30
    assert_compile_matches_two_real_passes(
        {"search_list": 50, "beam_width": 4, "prefetch_depth": 2,
         "cache_policy": "hotness"}, segments=3, growing=30)


def test_tombstones_and_a_filter_escalate_inside_the_scope():
    """Escalation searches one query twice per pass (``need`` rows,
    then every stored row); both passes inside the scope answer and
    account as two passes of the seed's body outside it do."""
    queries = make_queries()
    rare = Filter.where(bucket=4)           # 21 rows, 14 survive
    params = {"search_list": 30, "beam_width": 4, "prefetch_depth": 2}

    def two_passes(engine: VectorEngine, scoped: bool) -> list:
        collection = engine.collection("c")
        collection.delete(range(0, ROWS, 3))
        for index in diskann_indexes(engine):
            index.reset_dynamic_cache()
        out = []
        with scope_over(engine, scoped):
            for _pass in ("cold", "warm"):
                out.append([(result.ids.tolist(), result.dists.tobytes(),
                             [work.steps for work in result.works],
                             [(work.prefetch_issued, work.prefetch_wasted)
                              for work in result.works])
                            for result in collection.search_batch(
                                queries, K, filter_=rare, **params)])
        return out + index_state(engine)

    seed_engine = searching_the_seed_body(engine_copy(payloads=True))
    searches = []
    for index in diskann_indexes(seed_engine):
        seed_search = index.search

        def counted(*args, _search=seed_search, **kwargs):
            searches.append(1)
            return _search(*args, **kwargs)
        index.search = counted
    seed_body = two_passes(seed_engine, scoped=False)
    assert len(searches) > 2 * N_QUERIES        # some queries escalated
    assert two_passes(engine_copy(payloads=True), scoped=True) == seed_body


def scope_over(engine: VectorEngine, scoped: bool) -> contextlib.ExitStack:
    stack = contextlib.ExitStack()
    if scoped:
        for index in diskann_indexes(engine):
            stack.enter_context(index.reuse_traversals())
    return stack


def test_the_warm_pass_does_not_search_again(monkeypatch):
    """The point of the scope: one traversal per distinct query."""
    runner = BenchRunner(engine_copy(), "c", make_queries(), k=K)
    calls = []
    traverse = DiskANNIndex._traverse

    def counting(self, *args):
        calls.append(args[1:])
        return traverse(self, *args)

    monkeypatch.setattr(DiskANNIndex, "_traverse", counting)
    runner._compile({"search_list": 20, "beam_width": 4})
    # N - 1 distinct queries, each traversed once; the repeated one
    # (rows 0 and 1) takes its first traversal back in the cold pass,
    # so the warm pass traverses it once more — N traversals, not 2N.
    assert len(calls) == N_QUERIES


def test_a_search_outside_the_scope_always_traverses(monkeypatch):
    engine = engine_copy()
    index = diskann_indexes(engine)[0]
    calls = []
    traverse = DiskANNIndex._traverse

    def counting(self, *args):
        calls.append(1)
        return traverse(self, *args)

    monkeypatch.setattr(DiskANNIndex, "_traverse", counting)
    query = make_queries()[0]
    for _ in range(3):
        index.search(query, K, search_list=20)
    assert len(calls) == 3
    with index.reuse_traversals():
        with index.reuse_traversals():      # nested: shares the memo
            index.search(query, K, search_list=20)
        assert index._traversals            # outer scope still open
        index.search(query, K, search_list=20)
        assert not index._traversals
    assert len(calls) == 4
    assert "_traversals" not in vars(index)
