"""Behavioural tests for the repro.api facade."""

import numpy as np
import pytest

from repro import Filter, SearchRequest, open_engine
from repro.api import Session, open_bench
from repro.engines import IndexSpec, VectorEngine


@pytest.fixture(scope="module")
def session(small_data):
    session = open_engine("milvus")
    session.create("docs", small_data.shape[1], index="hnsw", M=8,
                   ef_construction=40)
    payloads = [{"lang": "en" if i % 2 else "de"}
                for i in range(len(small_data))]
    session.insert("docs", small_data, payloads=payloads, flush=True)
    return session


def test_open_engine_accepts_profile_names():
    assert isinstance(open_engine("qdrant"), Session)
    assert open_engine("lancedb").profile.name == "lancedb"


def test_create_insert_search_roundtrip(session, small_queries):
    result = session.search("docs", small_queries[0], k=5, ef_search=32)
    assert len(result.ids) == 5
    assert result.total_work.full_evals > 0


def test_search_accepts_request_objects(session, small_queries):
    request = SearchRequest.of(small_queries[1], k=5, ef_search=32)
    via_request = session.search("docs", request)
    via_kwargs = session.search("docs", small_queries[1], k=5,
                                ef_search=32)
    np.testing.assert_array_equal(via_request.ids, via_kwargs.ids)


def test_filtered_search(session, small_queries):
    result = session.search("docs", small_queries[0], k=5, ef_search=32,
                            filter=Filter.where(lang="de"))
    payloads = session.collection("docs").payloads
    assert all(payloads.get(int(i))["lang"] == "de" for i in result.ids)


def test_insert_rejects_non_finite_vectors(small_data):
    from repro.errors import EngineError
    session = open_engine("milvus")
    session.create("docs", small_data.shape[1], index="diskann",
                   metric="cosine")
    vectors = small_data[:64].copy()
    vectors[17, 0] = np.nan
    with pytest.raises(EngineError, match="row 17"):
        session.insert("docs", vectors, flush=True)


@pytest.mark.parametrize("index", ["diskann", "ivf", "flat", "hnsw"])
def test_wrong_dimension_query_is_an_engine_error(index, small_data):
    """Every index kind used to leak its own numpy ``ValueError``."""
    from repro.errors import EngineError
    session = open_engine("milvus")
    dim = small_data.shape[1]
    session.create("docs", dim, index=index, metric="cosine")
    session.insert("docs", small_data[:128], flush=True)
    short = np.ones(dim // 3, dtype=np.float32)
    with pytest.raises(EngineError, match=rf"\({dim},\).*\({dim // 3},\)"):
        session.search("docs", short, k=5)
    with pytest.raises(EngineError, match=rf"\(B, {dim}\).*\(2, {dim // 3}\)"):
        session.search_batch("docs", np.stack([short, short]), k=5)
    with pytest.raises(EngineError):                 # a batch is not a query
        session.search("docs", small_data[:2], k=5)
    assert len(session.search("docs", small_data[0], k=5).ids) == 5


def test_create_accepts_ready_spec(small_data):
    session = open_engine("milvus")
    session.create("c", small_data.shape[1],
                   IndexSpec.of("hnsw", M=8, ef_construction=40))
    assert session.collections() == ["c"]
    session.drop("c")
    assert session.collections() == []


def test_delete_removes_from_results(session, small_data, small_queries):
    query = small_queries[2]
    before = session.search("docs", query, k=3, ef_search=32)
    victim = int(before.ids[0])
    assert session.delete("docs", [victim]) == 1
    after = session.search("docs", query, k=3, ef_search=32)
    assert victim not in after.ids


def test_run_bench_returns_run_result(session, small_queries, small_truth):
    result = session.run_bench("docs", small_queries,
                               ground_truth=small_truth, concurrency=2,
                               search_params={"ef_search": 16},
                               duration_s=0.3)
    assert result.qps > 0
    assert result.recall is not None


def test_underlying_engine_stays_reachable(session):
    assert isinstance(session.engine, VectorEngine)
    assert session.engine.collection("docs").num_rows > 0


def test_open_bench_builds_a_paper_setup():
    runner = open_bench("milvus-hnsw", "openai-500k")
    assert runner.collection.num_rows > 0
