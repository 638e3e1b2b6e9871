"""The deployment facade contract: one engine and a cluster answer the
same verbs the same way.

:class:`repro.api.Deployment` implements every verb once, against the
store its subclass wraps.  These tests feed :func:`open_engine` and
:func:`open_cluster` the same calls: a one-shard, one-replica cluster
must return bit-identical ids and distances, and both shapes must raise
the same typed errors.
"""

import dataclasses

import numpy as np
import pytest

from repro import ChaosSchedule, Filter, ResiliencePolicy, SearchRequest
from repro.api import (ClusterSession, Deployment, Session, open_cluster,
                       open_engine, open_saved_cluster)
from repro.cluster import ClusterBenchRunner, ClusterTopology
from repro.engines import get_profile
from repro.errors import CollectionNotFoundError, EngineError
from repro.faults import LatencySpike
from repro.mutate import MutationLoad
from repro.serve import PoissonArrivals, ServeConfig, TenantLoad
from repro.workload.runner import BenchRunner

DEPLOYMENTS = {
    "engine": open_engine,
    "cluster": lambda: open_cluster(ClusterTopology(n_shards=2)),
}

_QUERY = np.ones(4, dtype=np.float32)

#: Every verb that names a collection, called on one that does not exist.
ON_MISSING = {
    "drop": lambda d: d.drop("nope"),
    "collection": lambda d: d.collection("nope"),
    "insert": lambda d: d.insert("nope", _QUERY[None]),
    "flush": lambda d: d.flush("nope"),
    "delete": lambda d: d.delete("nope", [0]),
    "compact": lambda d: d.compact("nope"),
    "search": lambda d: d.search("nope", _QUERY),
    "search_request": lambda d: d.search("nope", SearchRequest.of(_QUERY)),
    "search_batch": lambda d: d.search_batch("nope", _QUERY[None]),
    "bench_runner": lambda d: d.bench_runner("nope", _QUERY[None]),
}


@pytest.mark.parametrize("verb", ON_MISSING)
@pytest.mark.parametrize("make", DEPLOYMENTS.values(), ids=DEPLOYMENTS)
def test_missing_collection_is_collection_not_found(make, verb):
    with pytest.raises(CollectionNotFoundError):
        ON_MISSING[verb](make())


@pytest.mark.parametrize("make", DEPLOYMENTS.values(), ids=DEPLOYMENTS)
def test_duplicate_collection_is_engine_error(make):
    deployment = make()
    deployment.create("docs", dim=4, index="flat")
    with pytest.raises(EngineError, match="already exists"):
        deployment.create("docs", dim=4, index="flat")
    assert deployment.collections() == ["docs"]


def _drive(deployment, index, build, params, data, queries):
    """One scripted session; returns everything the verbs answered."""
    payloads = [{"lang": "en" if i % 2 else "de"} for i in range(len(data))]
    answers = [deployment.create("docs", data.shape[1], index=index,
                                 **build).index_spec]
    answers.append(deployment.insert("docs", data[:400], payloads[:400],
                                     flush=True))
    answers.append(deployment.insert("docs", data[400:], payloads[400:]))
    first = deployment.search("docs", queries[0], k=10, **params)
    answers.append(first)
    answers.extend(deployment.search_batch("docs", queries[:8], k=10,
                                           **params))
    answers.append(deployment.search(
        "docs", SearchRequest.of(queries[1], k=5, **params)))
    answers.append(deployment.search("docs", queries[2], k=5,
                                     filter=Filter.where(lang="de"),
                                     **params))
    answers.append(deployment.delete("docs", [*first.ids[:3].tolist(),
                                              10_000]))
    deployment.flush("docs")
    deployment.compact("docs")
    answers.extend(deployment.search_batch("docs", queries[8:16], k=10,
                                           **params))
    answers.append(deployment.collection("docs").dim)
    answers.append(deployment.collections())
    deployment.drop("docs")
    answers.append(deployment.collections())
    return answers


def _same(a, b) -> bool:
    if hasattr(a, "ids"):
        return (np.array_equal(a.ids, b.ids)
                and a.dists.tobytes() == b.dists.tobytes())
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("index,build,params", [
    ("flat", {}, {}),
    ("hnsw", {"M": 8, "ef_construction": 40}, {"ef_search": 32}),
    ("ivf", {"nlist": 8}, {"nprobe": 3}),
], ids=["flat", "hnsw", "ivf"])
def test_one_shard_cluster_is_bit_identical_at_the_facade(
        small_data, small_queries, index, build, params):
    engine = _drive(open_engine(), index, build, params,
                    small_data, small_queries)
    cluster = _drive(open_cluster(ClusterTopology(n_shards=1)), index,
                     build, params, small_data, small_queries)
    assert len(engine) == len(cluster)
    for step, (want, got) in enumerate(zip(engine, cluster)):
        assert _same(want, got), f"answer {step} differs: {want} != {got}"


@pytest.fixture(scope="module")
def two_shards(small_data):
    session = open_cluster(ClusterTopology(n_shards=2, replicas=2))
    session.create("docs", small_data.shape[1], index="flat")
    session.insert("docs", small_data, flush=True)
    return session


def test_both_facades_are_deployments(two_shards):
    assert isinstance(two_shards, Deployment)
    assert isinstance(two_shards, ClusterSession)
    assert isinstance(open_engine(), Deployment)
    assert isinstance(open_engine(), Session)


def test_bench_runner_matches_the_store(two_shards, small_queries):
    assert isinstance(two_shards.bench_runner("docs", small_queries),
                      ClusterBenchRunner)
    session = open_engine()
    session.create("docs", small_queries.shape[1], index="flat")
    session.insert("docs", small_queries, flush=True)
    assert type(session.bench_runner("docs", small_queries)) is BenchRunner


def test_cluster_run_bench_forwards_cluster_options(two_shards,
                                                    small_queries,
                                                    small_truth):
    run = two_shards.run_bench("docs", small_queries,
                               ground_truth=small_truth, concurrency=4,
                               duration_s=0.05, consistency="quorum",
                               chaos=ChaosSchedule())
    assert run.completed > 0
    assert run.recall == pytest.approx(1.0)
    assert run.faults["quorum_waits"] > 0
    with pytest.raises(TypeError):              # an engine-only option
        two_shards.run_bench("docs", small_queries, trace=True)


@pytest.mark.parametrize("shape", ["engine", "cluster"])
def test_run_bench_takes_the_same_fault_arguments(shape, small_data,
                                                  small_queries):
    # Caches off so reads reach node 0's device: the engine itself, or
    # the cluster's first data node.
    profile = dataclasses.replace(get_profile("milvus"),
                                  diskann_cache_bytes=0,
                                  diskann_lru_bytes=0)
    deployment = (open_engine(profile) if shape == "engine" else
                  open_cluster(ClusterTopology(n_shards=2), profile))
    deployment.create("docs", small_data.shape[1], index="diskann")
    deployment.insert("docs", small_data, flush=True)
    chaos = ChaosSchedule(device_faults=(
        (0, LatencySpike(0.0, 1.0, extra_s=0.001)),))
    options = dict(concurrency=2, duration_s=0.05, telemetry=True,
                   resilience=ResiliencePolicy())
    healthy = deployment.run_bench("docs", small_queries, **options)
    faulted = deployment.run_bench("docs", small_queries, chaos=chaos,
                                   **options)
    spikes = faulted.telemetry.counter("fault_injected_latency_spike")
    assert spikes.value > 0
    assert faulted.p99_latency_s > healthy.p99_latency_s


def test_cluster_serve(two_shards, small_queries):
    config = ServeConfig(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=400.0)),),
        duration_s=0.05)
    result = two_shards.serve("docs", small_queries, config)
    assert result.completed > 0 and result.rejected == 0


def _loaded(make, data):
    deployment = make()
    deployment.create("docs", data.shape[1], index="flat")
    deployment.insert("docs", data, flush=True)
    return deployment


@pytest.mark.parametrize("make", DEPLOYMENTS.values(), ids=DEPLOYMENTS)
def test_serve_runs_the_config_mutation_stream(make, small_data,
                                               small_queries):
    config = ServeConfig(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=400.0)),),
        duration_s=0.05, mutation=MutationLoad())
    result = _loaded(make, small_data).serve("docs", small_queries, config)
    assert result.completed > 0
    assert result.mutation.wal_flushes > 0
    windows = result.mutation.compaction_windows
    assert list(windows) == sorted(windows)


def test_cluster_chaos_forwards_replay_options(small_data, small_queries):
    session = _loaded(
        lambda: open_cluster(ClusterTopology(n_shards=2, replicas=2)),
        small_data)
    config = ServeConfig(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=400.0)),),
        duration_s=0.05)
    run = session.chaos("docs", small_queries, config,
                        consistency="quorum")
    assert run.result.completed > 0
    assert run.session.replayer.ccounts["quorum_waits"] > 0


def test_shard_hint_narrows_the_scatter(two_shards, small_queries):
    homes = two_shards.collection("docs").global_to_local
    for shard in (0, 1):
        hits = two_shards.search("docs", small_queries[0], k=10,
                                 shard=shard)
        assert {homes[int(i)][0] for i in hits.ids} == {shard}


def test_save_and_reopen_cluster(two_shards, small_queries, tmp_path):
    two_shards.save(tmp_path / "store")
    reopened = open_saved_cluster(tmp_path / "store")
    assert reopened.collections() == ["docs"]
    assert reopened.topology == two_shards.topology
    for want, got in zip(two_shards.search_batch("docs", small_queries),
                         reopened.search_batch("docs", small_queries)):
        assert _same(want, got)
