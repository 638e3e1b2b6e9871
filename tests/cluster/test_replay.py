"""The cluster timing plane: determinism, failover, degraded reads.

Everything here drives :class:`repro.cluster.runner.ClusterBenchRunner`
over small synthetic corpora; the properties under test are the ones
the study asserts at larger scale — same-seed runs replay the same
timeline, seeded node kills are masked by replica failover, quorum
reads engage replica waits, deadlines degrade (never corrupt) results,
and a shard replica can move to a spare while queries keep flowing.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterTopology
from repro.cluster.runner import ClusterBenchRunner
from repro.engines.engine import IndexSpec
from repro.errors import ClusterError, DegradedResult, WorkloadError
from repro.faults import ChaosSchedule
from repro.obs import RunTelemetry
from repro.serve.arrivals import PoissonArrivals
from repro.serve.server import ServeConfig, Server, TenantLoad
from repro.simkernel.network import NetworkSpec


def _cluster(replay_corpus, topology, index="flat", **build):
    X, _queries, _truth = replay_corpus
    cluster = Cluster(topology, "milvus", seed=0)
    cluster.create_collection("c", X.shape[1],
                              IndexSpec.of(index, "l2", **build))
    cluster.insert("c", X)
    cluster.flush("c")
    return cluster


def _runner(replay_corpus, topology, **kwargs):
    X, queries, truth = replay_corpus
    cluster = _cluster(replay_corpus, topology, **kwargs)
    return ClusterBenchRunner(cluster, "c", queries, ground_truth=truth,
                              k=10)


def _seeded_kills(n_nodes, duration_s, outage_s):
    """Four seeded node kills and nothing else."""
    return ChaosSchedule.seeded(n_nodes, duration_s, seed=1, kills=4,
                                outage_s=outage_s, partitions=0, grays=0,
                                device_nodes=0)


def test_same_seed_runs_replay_the_same_timeline(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=2, seed=3)
    first = _runner(replay_corpus, topo).run(8, duration_s=0.1)
    second = _runner(replay_corpus, topo).run(8, duration_s=0.1)
    assert first.completed == second.completed
    assert first.qps == second.qps
    assert first.p99_latency_s == second.p99_latency_s
    assert first.recall == second.recall


def test_failover_masks_seeded_node_kills(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=2, seed=0)
    runner = _runner(replay_corpus, topo)
    duration = 0.2
    kills = _seeded_kills(topo.total_nodes, duration, duration / 8)
    healthy = runner.run(16, duration_s=duration)
    wounded = runner.run(16, duration_s=duration, chaos=kills)
    faults = wounded.faults
    assert faults is not None
    assert faults["failovers"] > 0
    assert faults["failed_queries"] == 0
    # Replicas are bit-identical, so masking a kill never costs recall.
    assert wounded.recall == healthy.recall


def test_single_replica_node_kill_fails_queries_honestly(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=1, seed=0)
    runner = _runner(replay_corpus, topo)
    kills = _seeded_kills(topo.total_nodes, 0.2, 0.05)
    result = runner.run(16, duration_s=0.2, chaos=kills)
    assert result.faults is not None
    assert result.faults["failed_queries"] > 0


def test_quorum_reads_wait_on_replica_majorities(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=3, seed=0)
    runner = _runner(replay_corpus, topo)
    one = runner.run(8, duration_s=0.1)
    quorum = runner.run(8, duration_s=0.1, consistency="quorum")
    faults = quorum.faults
    assert faults is not None
    # Every completed query waits on a majority at every shard.
    assert faults["quorum_waits"] == quorum.completed * topo.n_shards
    # Waiting on two of three replicas can only slow queries down.
    assert quorum.p99_latency_s >= one.p99_latency_s
    assert quorum.recall == one.recall


def test_unknown_consistency_level_is_rejected(replay_corpus):
    runner = _runner(replay_corpus, ClusterTopology(n_shards=1))
    with pytest.raises(ClusterError, match="consistency"):
        runner.open_replay(consistency="most")


def test_hedged_requests_race_replica_copies(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=2, seed=0)
    runner = _runner(replay_corpus, topo)
    base = runner.run(8, duration_s=0.1)
    hedged = runner.run(8, duration_s=0.1,
                        hedge_after_s=0.3 * base.p50_latency_s)
    faults = hedged.faults
    assert faults is not None
    assert faults["hedges"] > 0
    assert faults["failed_queries"] == 0
    assert hedged.recall == base.recall


def test_deadline_degrades_to_partial_results(replay_corpus):
    # A jittery fabric spreads the scatter legs so a deadline between
    # the fastest and slowest leg actually cuts some gathers short;
    # the deadline bounds the gather, not the queue-independent rpc
    # halves, so scan a few fractions of the end-to-end P50 (the same
    # approach the cluster study uses).
    topo = ClusterTopology(
        n_shards=4, seed=0,
        network=NetworkSpec(base_latency_s=50e-6, jitter_s=300e-6))
    runner = _runner(replay_corpus, topo)
    healthy = runner.run(16, duration_s=0.2)
    cut = None
    for factor in (0.9, 0.8, 0.7, 1.0):
        candidate = runner.run(16, duration_s=0.2,
                               deadline_s=factor * healthy.p50_latency_s)
        if (candidate.faults or {}).get("partial_results", 0) > 0:
            cut = candidate
            break
    assert cut is not None, "no scanned deadline cut any gather short"
    faults = cut.faults
    assert faults is not None
    assert faults["partial_results"] > 0
    assert faults["shards_missed"] > 0
    degraded = faults["degraded"]
    assert isinstance(degraded, DegradedResult)
    assert 0 < degraded.queries <= degraded.total
    # Completion-weighted recall: partial merges can only lose truth.
    assert cut.recall is not None and healthy.recall is not None
    assert cut.recall < healthy.recall


def test_migration_cuts_routing_over_while_serving(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=1, spares=1, seed=0)
    X, queries, _truth = replay_corpus
    cluster = _cluster(replay_corpus, topo)
    runner = ClusterBenchRunner(cluster, "c", queries, k=10)
    session = runner.open_replay()
    env = session.env
    spare = topo.total_nodes - 1
    served = []

    def client():
        index = 0
        while env.now < 0.1:
            plan, _cold = session.plan_for(index % len(queries))
            failed = yield from session.replayer.query_proc(plan)
            served.append((env.now, failed))
            index += 1

    for _ in range(4):
        env.process(client())
    env.process_at(0.03, session.migrate(0, 0, spare))
    env.run()
    assert session.routing[0][0] == spare
    assert session.replayer.ccounts["migrations"] == 1
    assert served and not any(failed for _t, failed in served)
    # The stream moved real bytes through both devices.
    moved = cluster.shard_bytes("c", 0)
    assert session.hosts[spare].device.bytes_written >= moved


def test_cluster_spans_record_network_and_merge_stages(replay_corpus):
    topo = ClusterTopology(n_shards=2, seed=0)
    runner = _runner(replay_corpus, topo)
    telemetry = RunTelemetry()
    runner.run(4, duration_s=0.05, telemetry=telemetry)
    assert telemetry.spans
    span = telemetry.spans[0]
    assert span.stages.get("network", 0.0) > 0.0
    assert span.stages.get("merge", 0.0) > 0.0
    # Shard 1's segments are namespaced past the shard stride.
    assert any(seg >= 1024 for seg in span.segments)


def test_server_drives_cluster_coordinator_open_loop(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=2, seed=0)
    runner = _runner(replay_corpus, topo)
    closed = runner.run(8, duration_s=0.1)
    config = ServeConfig(
        policy="fifo", duration_s=0.1, seed=7, max_inflight=8,
        tenants=(TenantLoad("all", PoissonArrivals(
            rate_qps=0.5 * closed.qps)),))
    result = Server(runner, config).serve()
    assert result.arrivals > 0
    assert result.qps > 0
    assert result.p99_latency_s > 0


def test_mutating_the_cluster_invalidates_the_runner(replay_corpus):
    # The cluster twin of the single-node stale-plan regression.
    X, queries, truth = replay_corpus
    topo = ClusterTopology(n_shards=2, replicas=1, seed=0)
    runner = _runner(replay_corpus, topo)
    runner.run(4, duration_s=0.05)
    runner.cluster.insert("c", X[:16])
    runner.cluster.flush("c")
    with pytest.raises(WorkloadError, match="build a new one"):
        runner.run(4, duration_s=0.05)
    fresh = ClusterBenchRunner(runner.cluster, "c", queries,
                               ground_truth=truth, k=10)
    assert fresh.run(4, duration_s=0.05).completed > 0


def test_telemetry_is_passive_through_the_shared_driver(replay_corpus):
    topo = ClusterTopology(n_shards=2, replicas=2, seed=0)
    runner = _runner(replay_corpus, topo)
    plain = runner.run(8, duration_s=0.1)
    traced = runner.run(8, duration_s=0.1, telemetry=True)
    assert plain.telemetry is None and traced.telemetry.spans
    assert (dataclasses.replace(traced, telemetry=None)
            == dataclasses.replace(plain, telemetry=None))
