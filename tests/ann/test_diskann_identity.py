"""The DiskANN beam search's contract: the seed's search, to the last bit.

``DiskANNIndex.search`` keeps its candidate list in sorted arrays and
scores each round's neighbours in one gather;
``tests/ann/reference_diskann.py`` is the seed's loop over Python
tuples and sets.  On the same built index (one a deep copy of the
other, so cache state evolves independently) the two must agree on the
returned ids and distance *bytes*, on every ``WorkProfile`` step, and
on everything a search leaves behind in the index: hit/miss counters,
prefetch statistics and the dynamic cache's contents.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.ann import DiskANNIndex
from repro.api import open_engine
from repro.data.synthetic import make_vectors
from repro.engines import get_profile
from repro.errors import AnnIndexError
from repro.prefetch import PrefetchStats
from tests.ann import reference_diskann as reference

DIM = 24
N_QUERIES = 12


def make_data(n: int, duplicates: bool) -> np.ndarray:
    data = make_vectors(n, DIM, n_clusters=max(1, n // 25), seed=3,
                        latent_dim=8)
    if duplicates:
        # Duplicated rows tie PQ and exact distances exactly: the
        # (dist, id) order of the list and the stable final sort decide.
        rng = np.random.default_rng(3)
        copies = rng.choice(n, size=n // 4, replace=False)
        data[copies] = data[rng.choice(n, size=len(copies))]
    return data


def make_queries(data: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(11)
    rows = rng.integers(0, data.shape[0], size=N_QUERIES)
    noise = rng.standard_normal((N_QUERIES, DIM)).astype(np.float32)
    queries = data[rows] + 0.2 * noise
    queries[0] = data[rows[0]]          # an exact hit, distance ~0
    return queries


_BUILT: dict[tuple, DiskANNIndex] = {}


def built_index(n: int, metric: str, pq_m: int,
                duplicates: bool) -> DiskANNIndex:
    """A fresh deep copy of the (memoised) built index."""
    key = (n, metric, pq_m, duplicates)
    if key not in _BUILT:
        _BUILT[key] = DiskANNIndex(
            metric=metric, R=12, L_build=24, pq_m=pq_m,
            storage_dim=768).build(make_data(n, duplicates))
    return copy.deepcopy(_BUILT[key])


def dynamic_cache_members(index: DiskANNIndex) -> list[int]:
    return [nid for nid in range(index.graph.n)
            if nid in index._node_cache]


def assert_same_state(got: DiskANNIndex, want: DiskANNIndex) -> None:
    assert got.cache_stats() == want.cache_stats()
    assert ((got.static_hits, got.lru_hits, got.cache_misses)
            == (want.static_hits, want.lru_hits, want.cache_misses))
    assert dynamic_cache_members(got) == dynamic_cache_members(want)
    assert got.memory_bytes() == want.memory_bytes()
    # Order inside the dynamic cache (LRU recency, hotness heap) and
    # the type of its keys (Python ints, as pickled) too.
    assert (pickle.dumps(got._node_cache)
            == pickle.dumps(want._node_cache))
    assert len(pickle.dumps(got)) == len(pickle.dumps(want))


def assert_same_searches(got: DiskANNIndex, want: DiskANNIndex,
                         queries: np.ndarray, k: int, **params) -> None:
    """Every query cold, then every query again warm."""
    for _phase in ("cold", "warm"):
        for query in queries:
            mine = got.search(query, k, **params)
            theirs = reference.search(want, query, k, **params)
            assert mine.ids.dtype == theirs.ids.dtype == np.int64
            assert np.array_equal(mine.ids, theirs.ids)
            assert mine.dists.dtype == theirs.dists.dtype == np.float32
            assert mine.dists.tobytes() == theirs.dists.tobytes()
            assert mine.work.steps == theirs.work.steps
            assert ((mine.work.prefetch_issued, mine.work.prefetch_wasted)
                    == (theirs.work.prefetch_issued,
                        theirs.work.prefetch_wasted))
        assert_same_state(got, want)


def index_pair(n: int = 400, metric: str = "cosine", pq_m: int = DIM,
               duplicates: bool = False, budgets: tuple[int, int] = (0, 0),
               ) -> tuple[DiskANNIndex, DiskANNIndex, np.ndarray]:
    got = built_index(n, metric, pq_m, duplicates)
    want = built_index(n, metric, pq_m, duplicates)
    for index in (got, want):
        index.resize_caches(*budgets)
    return got, want, make_queries(make_data(n, duplicates))


SMALL = (8 * 3124, 6 * 3124)      # 8 static nodes, 6 dynamic (768-d)


@pytest.mark.parametrize("metric", ["cosine", "l2"])
@pytest.mark.parametrize("pq_m", [DIM, DIM // 4])
@pytest.mark.parametrize("search_list", [3, 10, 50, 100])
@pytest.mark.parametrize("beam_width", [1, 4, 8])
def test_traversal_matches_the_reference(metric, pq_m, search_list,
                                         beam_width):
    got, want, queries = index_pair(metric=metric, pq_m=pq_m,
                                    duplicates=True, budgets=SMALL)
    assert_same_searches(got, want, queries, 10, search_list=search_list,
                         beam_width=beam_width)


@pytest.mark.parametrize("budgets", [(0, 0), SMALL])
@pytest.mark.parametrize("cache_policy", ["lru", "hotness"])
@pytest.mark.parametrize("prefetch_depth", [0, 4])
@pytest.mark.parametrize("beam_width", [1, 4])
def test_cache_and_prefetch_accounting_matches(budgets, cache_policy,
                                               prefetch_depth, beam_width):
    got, want, queries = index_pair(budgets=budgets)
    assert_same_searches(got, want, queries, 10, search_list=30,
                         beam_width=beam_width,
                         prefetch_depth=prefetch_depth,
                         cache_policy=cache_policy)


@pytest.mark.parametrize("k", [1, 10, 25])
@pytest.mark.parametrize("search_list", [3, 10, 50])
def test_every_k_matches(k, search_list):
    got, want, queries = index_pair(metric="l2", pq_m=DIM // 4,
                                    duplicates=True, budgets=SMALL)
    assert_same_searches(got, want, queries, k, search_list=search_list,
                         beam_width=4, prefetch_depth=4)


@pytest.mark.parametrize("metric", ["cosine", "l2"])
def test_fewer_codewords_than_256(metric):
    """240 rows train 240 codewords: the table is ``(m, 240)``."""
    got, want, queries = index_pair(n=240, metric=metric, budgets=SMALL)
    assert got.pq.ksub_effective == 240 < got.pq.ksub
    assert_same_searches(got, want, queries, 10, search_list=20,
                         beam_width=4, prefetch_depth=2)


def test_tiny_indexes_match():
    for n in (1, 2, 5):
        data = make_data(40, duplicates=False)[:n]
        got = DiskANNIndex(metric="cosine", R=4, L_build=8,
                           pq_m=DIM // 4).build(data)
        want = copy.deepcopy(got)
        assert_same_searches(got, want, make_queries(data), 3,
                             search_list=2, beam_width=2)


def reset_counters(index: DiskANNIndex) -> None:
    index.static_hits = index.lru_hits = index.cache_misses = 0
    index.prefetch_stats = PrefetchStats()


def test_searching_leaves_the_pickled_index_unchanged():
    """Nothing cached on the index, its quantizer or its graph.

    Segments are pickled whole into the durable store and the index
    cache: an attribute gained by searching would move
    ``durability.store_bytes`` and every simulated number after it.
    """
    index = built_index(400, "cosine", DIM, False)
    parts = (index, index.pq, index.graph)
    attributes = [set(vars(part)) for part in parts]
    size = len(pickle.dumps(index))
    for query in make_queries(make_data(400, False)):
        index.search(query, 10, search_list=50, beam_width=4,
                     prefetch_depth=2)
    assert [set(vars(part)) for part in parts] == attributes
    # The counters are the one thing a search may change (budgets are
    # zero here, so the dynamic cache stays empty).
    reset_counters(index)
    assert len(pickle.dumps(index)) == size


def test_a_compile_leaves_no_trace():
    """A plan compile reuses traversals only inside its own scope.

    After ``compiled_results`` the index pickles to the same bytes, no
    memo attribute remains, and a ``Session.search`` — the benchmark's
    host-latency probe — calls the exact kernel as often as it did
    before the compile: it measures a real search.
    """
    data = make_data(400, False)
    queries = make_queries(data)
    session = open_engine(dataclasses.replace(
        get_profile("milvus"), diskann_cache_bytes=0, diskann_lru_bytes=0))
    session.create("c", dim=DIM, index="diskann", metric="cosine",
                   storage_dim=768, R=12, L_build=24)
    session.insert("c", data, flush=True)
    index = session.engine.collection("c").segments[0].index
    kernel_calls = []
    kernel = index.graph.kernel

    def counting_kernel(*args):
        kernel_calls.append(1)
        return kernel(*args)

    index.graph.kernel = counting_kernel
    params = {"search_list": 50, "beam_width": 4, "prefetch_depth": 2}

    def probe() -> int:
        before = len(kernel_calls)
        session.search("c", queries[0], 10, **params)
        return len(kernel_calls) - before

    reset_counters(index)
    attributes = set(vars(index))
    pickled = pickle.dumps(index)
    probed = probe()
    assert probed > 0
    session.bench_runner("c", queries, k=10).compiled_results(params)
    assert probe() == probed
    assert "_traversals" not in vars(index)
    assert set(vars(index)) == attributes
    reset_counters(index)
    assert pickle.dumps(index) == pickled


def test_no_resident_table_beyond_the_codes():
    """No per-index array proportional to ``n * pq_m`` besides codes."""
    index = built_index(400, "cosine", DIM, False)
    index.search(make_queries(make_data(400, False))[0], 10)
    budget = index.codes.size
    for part in (index, index.pq):
        for name, value in vars(part).items():
            if isinstance(value, np.ndarray) and name != "codes":
                assert value.size < budget, name


@pytest.mark.parametrize("k", [0, -1])
def test_non_positive_k_is_rejected(k):
    index = built_index(400, "cosine", DIM, False)
    with pytest.raises(AnnIndexError, match="k must be >= 1"):
        index.search(np.ones(DIM, dtype=np.float32), k)


@pytest.mark.parametrize("params", [
    {"search_list": 10.5}, {"search_list": float("nan")},
    {"search_list": True}, {"search_list": None}, {"search_list": 0},
    {"beam_width": 2.0}, {"beam_width": None}, {"beam_width": False},
    {"beam_width": 0}, {"prefetch_depth": 1.5}, {"prefetch_depth": -1},
    {"prefetch_depth": True}, {"k": 2.5}, {"k": np.float64(3)},
    {"k": True},
])
def test_malformed_search_parameters_raise_typed_errors(params):
    index = built_index(400, "cosine", DIM, False)
    params = dict(params)
    k = params.pop("k", 10)
    with pytest.raises(AnnIndexError, match="an integer"):
        index.search(np.ones(DIM, dtype=np.float32), k, **params)


def test_malformed_search_parameters_raise_through_a_session():
    session = open_engine("milvus")
    session.create("c", dim=DIM, index="diskann", metric="cosine",
                   R=8, L_build=16)
    session.insert("c", make_data(200, False), flush=True)
    query = np.ones(DIM, dtype=np.float32)
    for params in ({"search_list": float("nan")}, {"prefetch_depth": 1.5},
                   {"search_list": True}):
        with pytest.raises(AnnIndexError, match="an integer"):
            session.search("c", query, 10, **params)


def test_numpy_integer_parameters_are_accepted():
    index = built_index(400, "cosine", DIM, False)
    query = make_queries(make_data(400, False))[0]
    plain = index.search(query, 10, search_list=30, beam_width=4,
                         prefetch_depth=2)
    typed = index.search(query, np.int64(10), search_list=np.int32(30),
                         beam_width=np.int64(4), prefetch_depth=np.int8(2))
    assert np.array_equal(plain.ids, typed.ids)
    assert plain.dists.tobytes() == typed.dists.tobytes()
    assert plain.work.steps == typed.work.steps
