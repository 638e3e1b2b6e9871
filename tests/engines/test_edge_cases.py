"""Edge cases across the engine and runner stack."""

import numpy as np
import pytest

from repro.engines import IndexSpec, VectorEngine
from repro.errors import EngineError
from repro.workload import BenchRunner


@pytest.fixture
def flat_engine(small_data):
    engine = VectorEngine("milvus")
    engine.create_collection("e", small_data.shape[1],
                             IndexSpec.of("flat"))
    return engine


def test_search_empty_collection_returns_nothing(flat_engine, small_data):
    response = flat_engine.search("e", small_data[0], 5)
    assert len(response.ids) == 0
    assert len(response.works) == 0


def test_k_larger_than_collection(flat_engine, small_data):
    flat_engine.insert("e", small_data[:3])
    response = flat_engine.search("e", small_data[0], 10)
    assert len(response.ids) == 3


def test_all_rows_deleted_returns_empty(flat_engine, small_data):
    ids = flat_engine.insert("e", small_data[:5])
    flat_engine.flush("e")
    flat_engine.delete("e", [int(i) for i in ids])
    response = flat_engine.search("e", small_data[0], 5)
    assert len(response.ids) == 0


def test_single_vector_collection(flat_engine, small_data):
    flat_engine.insert("e", small_data[:1])
    response = flat_engine.search("e", small_data[0], 1)
    assert response.ids.tolist() == [0]


def test_insert_after_flush_mixes_tiers(flat_engine, small_data):
    flat_engine.insert("e", small_data[:100])
    flat_engine.flush("e")
    flat_engine.insert("e", small_data[100:110])
    assert flat_engine.collection("e").num_rows == 110
    response = flat_engine.search("e", small_data[105], 1)
    assert response.ids.tolist() == [105]


def test_1d_vector_insert_reshapes(flat_engine, small_data):
    ids = flat_engine.insert("e", small_data[0])
    assert ids.tolist() == [0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_insert_is_rejected_naming_the_row(flat_engine,
                                                      small_data, bad):
    vectors = small_data[:8].copy()
    vectors[5, 3] = bad
    with pytest.raises(EngineError, match="row 5"):
        flat_engine.insert("e", vectors)
    # Nothing of the refused batch was logged or buffered.
    assert flat_engine.collection("e").num_rows == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_rejected(flat_engine, small_data, bad):
    flat_engine.insert("e", small_data[:50])
    flat_engine.flush("e")
    flat_engine.insert("e", small_data[50:60])      # a growing tier too
    query = small_data[0].copy()
    query[2] = bad
    with pytest.raises(EngineError, match="NaN or infinite"):
        flat_engine.search("e", query, 5)
    queries = small_data[:4].copy()
    queries[2] = query
    with pytest.raises(EngineError, match="query 2 has a NaN"):
        flat_engine.search_batch("e", queries, 5)
    flat_engine.delete("e", [3])                    # the escalation path
    with pytest.raises(EngineError, match="query 2 has a NaN"):
        flat_engine.search_batch("e", queries, 5)


def test_collection_seed_isolation(small_data):
    """Two engines building the same data produce identical indexes."""
    results = []
    for _ in range(2):
        engine = VectorEngine("milvus")
        engine.create_collection("e", small_data.shape[1],
                                 IndexSpec.of("hnsw", M=8,
                                              ef_construction=40))
        engine.insert("e", small_data)
        engine.flush("e")
        results.append(engine.search("e", small_data[0], 10,
                                     ef_search=30).ids)
    assert np.array_equal(results[0], results[1])


class TestRunnerRequestSplitting:
    def test_oversized_extents_split_at_cap(self, small_data,
                                            small_queries):
        engine = VectorEngine("milvus")
        engine.create_collection("e", small_data.shape[1],
                                 IndexSpec.of("flat"))
        engine.insert("e", small_data)
        engine.flush("e")
        runner = BenchRunner(engine, "e", small_queries)
        cap = runner.device_spec.max_request_bytes
        split = runner._split_requests([(0, 3 * cap + 4096)])
        assert [size for _off, size in split] == [cap, cap, cap, 4096]
        offsets = [off for off, _size in split]
        assert offsets == [0, cap, 2 * cap, 3 * cap]

    def test_small_requests_pass_through(self, small_data, small_queries):
        engine = VectorEngine("milvus")
        engine.create_collection("e", small_data.shape[1],
                                 IndexSpec.of("flat"))
        engine.insert("e", small_data)
        engine.flush("e")
        runner = BenchRunner(engine, "e", small_queries)
        assert runner._split_requests([(8192, 4096)]) == [(8192, 4096)]


def test_flush_with_only_deletes_keeps_tombstones(flat_engine,
                                                  small_data):
    flat_engine.insert("e", small_data[:10])
    flat_engine.flush("e")
    flat_engine.delete("e", [0, 1])
    flat_engine.flush("e")  # nothing growing; no-op
    assert flat_engine.collection("e").num_rows == 8


def test_engine_insert_checks_memory(small_data):
    import dataclasses
    from repro.engines import get_profile
    tiny = dataclasses.replace(get_profile("lancedb"),
                               memory_budget_bytes=1)
    engine = VectorEngine(tiny)
    engine.create_collection("e", small_data.shape[1],
                             IndexSpec.of("hnsw-sq"))
    from repro.errors import OutOfMemoryError
    with pytest.raises(OutOfMemoryError):
        engine.insert("e", small_data)
