"""The callback replay's contract: the generator replay's run, exactly.

:meth:`QueryReplayer.start <repro.workload.runner.QueryReplayer.start>`
replays a query as a cursor whose methods are event callbacks, and
:func:`~repro.workload.replay.closed_loop`'s clients are callbacks over
it.  Every heap push must stay where the generators made it, so on
every configuration below the shipped replay and
``tests/workload/reference_replay.py`` (the generator bodies, verbatim)
must report the same numbers, block trace, resilience and fault
counters and telemetry spans.  The only events that may go are the
closed-loop clients' completion events, which nobody waited on:
exactly ``concurrency`` per closed loop, none per serving run.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster import Cluster, ClusterTopology
from repro.cluster.runner import ClusterBenchRunner
from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.faults import (ChaosSchedule, LatencySpike, ReadError,
                          ResiliencePolicy, Throttle)
from repro.mutate import CompactionPolicy, MutationLoad
from repro.obs.export import render_prometheus
from repro.serve import PoissonArrivals, ServeConfig, Server, TenantLoad
from repro.workload import BenchRunner
from repro.workload.metrics import RunResult

from tests.cluster.conftest import replay_corpus  # noqa: F401 (fixture)
from tests.workload import reference_replay
from tests.workload.test_runner import make_engine

DISKANN = {"search_list": 16}
DURATION = 0.2


def closed_signature(result) -> tuple:
    """Every simulated number of a closed-loop run."""
    return (result.completed, result.elapsed_s, result.qps,
            result.mean_latency_s, result.p50_latency_s,
            result.p95_latency_s, result.p99_latency_s,
            result.cpu_utilization, result.device_utilization,
            result.read_bytes, result.write_bytes, result.recall,
            result.error)


def trace_digest(tracer) -> str | None:
    if tracer is None:
        return None
    return hashlib.sha256(repr(tracer.records).encode()).hexdigest()


def telemetry_view(telem) -> dict | None:
    if telem is None:
        return None
    return {"spans": [repr(span) for span in telem.spans],
            "metrics": render_prometheus(telem)}


def observe(monkeypatch, runner_cls, call, reference: bool):
    """``call()`` (which opens one session of *runner_cls*) through the
    shipped or the reference replay: everything observable, and the
    timeline's event count."""
    sessions = []
    opener = runner_cls.open_replay

    def open_replay(self, *args, **kwargs):
        session = opener(self, *args, **kwargs)
        sessions.append(session)
        return session

    with monkeypatch.context() as patch:
        patch.setattr(runner_cls, "open_replay", open_replay)
        if reference:
            with reference_replay.installed():
                result = call()
        else:
            result = call()
    session, = sessions
    hosts = session.hosts
    assert all(isinstance(host, reference_replay.ReferenceReplayer)
               == reference for host in hosts)
    replayer = session.replayer
    seen = {
        "result": (closed_signature(result)
                   if isinstance(result, RunResult) else repr(result)),
        "trace": trace_digest(getattr(result, "tracer", None)),
        "faults": repr(getattr(result, "faults", None)),
        "mutation": repr(getattr(result, "mutation", None)),
        "rcounts": [dict(host.rcounts) for host in hosts],
        "retry_tokens": [host._retry_token for host in hosts],
        "ccounts": dict(getattr(replayer, "ccounts", {})),
        "outcomes": repr(getattr(replayer, "outcomes", None)),
        "telemetry": telemetry_view(result.telemetry),
        "now": session.env.now,
    }
    return seen, session.env.events_processed


def assert_identical(monkeypatch, call, dropped: int,
                     runner_cls=BenchRunner):
    new, new_events = observe(monkeypatch, runner_cls, call, False)
    old, old_events = observe(monkeypatch, runner_cls, call, True)
    assert new == old
    assert old_events - new_events == dropped
    return new


@pytest.fixture(scope="module")
def diskann_runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data, kind="diskann", R=8, L_build=16)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


@pytest.fixture(scope="module")
def segmented_runner(small_data, small_queries, small_truth):
    """Milvus (intra-query parallel) over several on-disk IVF-PQ
    segments and a growing buffer: parallel segment cursors that read."""
    profile = dataclasses.replace(
        get_profile("milvus"), segment_bytes=400 * 1024,
        supported_indexes=("ivf-pq",))
    engine = VectorEngine(profile)
    engine.create_collection("bench", small_data.shape[1],
                             IndexSpec.of("ivf-pq", nlist=8, pq_m=6),
                             storage_dim=768)
    engine.insert("bench", small_data[:450])
    engine.flush("bench")
    engine.insert("bench", small_data[450:])
    collection = engine.collection("bench")
    assert len(collection.segments) > 1
    assert profile.intra_query_parallelism
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


def heavy_chaos(seed: int = 3) -> ChaosSchedule:
    windows = (ReadError(0.0, DURATION, probability=0.3, stall_s=0.004),
               LatencySpike(0.03, 0.12, extra_s=0.0015),
               Throttle(0.08, 0.16, bandwidth_fraction=0.4))
    return ChaosSchedule(device_faults=tuple((0, w) for w in windows),
                         seed=seed)


HEDGED = ResiliencePolicy(read_timeout_s=0.003, max_retries=2,
                          backoff_base_s=0.0005, hedge_after_s=0.001,
                          query_deadline_s=0.012)


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
@pytest.mark.parametrize("concurrency", [1, 6])
def test_closed_loop_matches_the_generators(monkeypatch, diskann_runner,
                                            telemetry, concurrency):
    assert_identical(monkeypatch, lambda: diskann_runner.run(
        concurrency, DISKANN, duration_s=DURATION, trace=True,
        telemetry=telemetry), dropped=concurrency)


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
def test_prefetch_matches_the_generators(monkeypatch, diskann_runner,
                                         telemetry):
    params = {"search_list": 20, "beam_width": 2, "prefetch_depth": 2,
              "cache_policy": "hotness"}
    seen = assert_identical(
        monkeypatch, lambda: diskann_runner.run(
            3, params, duration_s=DURATION, trace=True,
            telemetry=telemetry), dropped=3)
    if telemetry:
        assert any("'prefetch':" in span
                   for span in seen["telemetry"]["spans"])


@pytest.mark.parametrize("chaos", [False, True], ids=["quiet", "chaos"])
@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
def test_parallel_segments_match_the_generators(
        monkeypatch, segmented_runner, telemetry, chaos):
    options = (dict(chaos=heavy_chaos(), resilience=HEDGED) if chaos
               else {})
    seen = assert_identical(
        monkeypatch, lambda: segmented_runner.run(
            4, {"nprobe": 3}, duration_s=DURATION, trace=True,
            telemetry=telemetry, **options), dropped=4)
    assert seen["result"][0] > 0
    if chaos:
        assert seen["rcounts"][0]["timeouts"] > 0


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
@pytest.mark.parametrize("policy", [
    ResiliencePolicy(read_timeout_s=0.002, max_retries=3,
                     backoff_base_s=0.0005),
    HEDGED,
    ResiliencePolicy(hedge_after_s=0.0008),
    ResiliencePolicy(read_timeout_s=0.0045, max_retries=0),
], ids=["retries", "hedge+deadline", "hedge-only", "no-retry"])
def test_resilient_reads_match_the_generators(monkeypatch, diskann_runner,
                                              policy, telemetry):
    seen = assert_identical(
        monkeypatch, lambda: diskann_runner.run(
            4, DISKANN, duration_s=DURATION, trace=True,
            telemetry=telemetry, chaos=heavy_chaos(), resilience=policy),
        dropped=4)
    counts = seen["rcounts"][0]
    if policy.read_timeout_s is not None:
        assert counts["timeouts"] > 0
    if policy.hedge_after_s is not None:
        assert counts["hedges"] > 0


def test_deadline_abandons_match_the_generators(monkeypatch,
                                                diskann_runner):
    policy = ResiliencePolicy(read_timeout_s=0.002, max_retries=6,
                              backoff_base_s=0.002,
                              query_deadline_s=0.006)
    seen = assert_identical(
        monkeypatch, lambda: diskann_runner.run(
            4, DISKANN, duration_s=DURATION, trace=True, telemetry=True,
            chaos=heavy_chaos(), resilience=policy), dropped=4)
    assert seen["rcounts"][0]["deadline_abandons"] > 0
    assert seen["rcounts"][0]["read_failures"] > 0


def test_degradation_matches_the_generators(monkeypatch, diskann_runner):
    policy = ResiliencePolicy(read_timeout_s=0.002, max_retries=2,
                              backoff_base_s=0.0005, degrade=True,
                              degrade_after=2, recover_after=4,
                              latency_budget_s=0.004)

    def call():
        return diskann_runner.run(
            4, {"search_list": 30}, duration_s=DURATION, trace=True,
            telemetry=True, chaos=heavy_chaos(), resilience=policy)

    call()      # compiles the degraded plans: compile counters hit once
    seen = assert_identical(monkeypatch, call, dropped=4)
    assert "DegradedResult(queries=" in seen["faults"]
    assert "DegradedResult(queries=0," not in seen["faults"]


def test_mutation_load_matches_the_generators(monkeypatch, small_data,
                                              small_queries):
    load = MutationLoad(
        insert_qps=60_000.0, delete_qps=6_000.0, batch_rows=64,
        policy=CompactionPolicy(delta_rows=3_000, tombstone_fraction=0.5),
        write_amplification=2.0)

    def call():
        # Mutation processes allocate device extents: one runner a run.
        runner = BenchRunner(make_engine(small_data, kind="diskann"),
                             "bench", small_queries)
        return runner.run(6, {"search_list": 30}, duration_s=0.25,
                          trace=True, telemetry=True, mutation=load)

    seen = assert_identical(monkeypatch, call, dropped=6)
    assert "compactions=0" not in seen["mutation"]


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
def test_serving_run_matches_the_generators(monkeypatch, diskann_runner,
                                            telemetry):
    config = ServeConfig(
        tenants=(TenantLoad("a", PoissonArrivals(rate_qps=3000.0),
                            weight=2.0),
                 TenantLoad("b", PoissonArrivals(rate_qps=1500.0))),
        duration_s=DURATION, max_inflight=4, policy="wfq",
        search_params=dict(DISKANN))
    assert_identical(monkeypatch, lambda: Server(
        diskann_runner, config, telemetry=telemetry).serve(), dropped=0)


def test_cluster_closed_loop_matches_the_generators(monkeypatch,
                                                    replay_corpus):
    X, queries, truth = replay_corpus
    profile = dataclasses.replace(get_profile("milvus"),
                                  diskann_cache_bytes=0,
                                  diskann_lru_bytes=0)
    cluster = Cluster(ClusterTopology(n_shards=2, replicas=2, seed=1),
                      profile, seed=0)
    cluster.create_collection("c", X.shape[1],
                              IndexSpec.of("diskann", "l2", R=8,
                                           L_build=16))
    cluster.insert("c", X)
    cluster.flush("c")
    runner = ClusterBenchRunner(cluster, "c", queries, ground_truth=truth,
                                k=10)
    seen = assert_identical(monkeypatch, lambda: runner.run(
        6, DISKANN, duration_s=0.1, telemetry=True,
        hedge_after_s=0.0004), dropped=6, runner_cls=ClusterBenchRunner)
    assert seen["ccounts"]["hedges"] > 0
