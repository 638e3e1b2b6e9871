"""The cluster cursors' contract: the generator coordinator's run, exactly.

:meth:`ClusterReplayer.start <repro.cluster.runner.ClusterReplayer.start>`
replays a query as callback cursors — a coordinator, a countdown per
shard gather, a cursor per replica slot and node leg, a callback hop —
instead of a tree of generators with a ``Process`` per shard, slot,
leg and sub-query.  Every heap push must stay where the generators made
it, so on every configuration below the shipped coordinator and
``tests/cluster/reference_cluster_replay.py`` (the generator bodies,
verbatim) must report the same numbers, gather outcomes, failure
ledger, telemetry spans and metrics, per-node block traces and network
message count — and process exactly as many events: the cursors drop
no push, so the delta is 0.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

import repro.cluster.runner as cluster_runner
from repro.chaos import Supervisor, SupervisorConfig, run_chaos
from repro.cluster import Cluster, ClusterTopology
from repro.cluster.runner import (ClusterBenchRunner, ClusterPlan,
                                  ClusterReplayer)
from repro.engines import IndexSpec, get_profile
from repro.faults import (ChaosSchedule, GrayFailure, NodeKill,
                          PartitionWindow, ReadError, ResiliencePolicy)
from repro.obs.export import render_prometheus
from repro.serve import PoissonArrivals, ServeConfig, Server, TenantLoad
from repro.simkernel import Environment, Network, Resource
from repro.simkernel.network import NetworkSpec
from repro.storage import SimSSD, samsung_990pro_4tb
from repro.workload.metrics import RunResult
from repro.workload.runner import CompiledQuery, QueryReplayer, open_host

from tests.cluster import reference_cluster_replay
from tests.cluster.conftest import replay_corpus  # noqa: F401 (fixture)

DISKANN = {"search_list": 16}
DURATION = 0.08
#: The default fabric's 50 us floor without its jitter: every hop takes
#: exactly this long.
TIED = NetworkSpec(base_latency_s=50e-6, jitter_s=0.0)


def fingerprint(result) -> tuple:
    """Every simulated number a run reports."""
    if isinstance(result, RunResult):
        return (result.completed, result.elapsed_s, result.qps,
                result.mean_latency_s, result.p50_latency_s,
                result.p95_latency_s, result.p99_latency_s,
                result.cpu_utilization, result.device_utilization,
                result.read_bytes, result.write_bytes, result.recall,
                result.error, repr(result.faults))
    if hasattr(result, "oracles"):            # a ChaosRunResult
        return (repr(result.result), result.recall, result.failure_causes,
                sorted(result.supervisor.counts.items()),
                repr(result.supervisor.events), repr(result.oracles))
    return (repr(result),)


def observe(monkeypatch, call, reference: bool):
    """``call()`` (which opens one cluster session) through the shipped
    or the reference coordinator: everything observable, and the
    timeline's event count."""
    sessions = []
    opener = ClusterBenchRunner.open_replay

    def open_replay(self, *args, **kwargs):
        session = opener(self, *args, **kwargs)
        sessions.append(session)
        return session

    with monkeypatch.context() as patch:
        patch.setattr(ClusterBenchRunner, "open_replay", open_replay)
        patch.setattr(cluster_runner, "open_host",
                      functools.partial(open_host, trace=True))
        if reference:
            with reference_cluster_replay.installed():
                result = call()
        else:
            result = call()
    session, = sessions
    replayer = session.replayer
    assert isinstance(replayer, reference_cluster_replay
                      .ReferenceClusterReplayer) == reference
    telem = session.telemetry
    seen = {
        "result": fingerprint(result),
        "ccounts": dict(replayer.ccounts),
        "failure_causes": dict(replayer.failure_causes),
        "outcomes": repr(replayer.outcomes),
        "telemetry": None if telem is None else (
            [repr(span) for span in telem.spans], render_prometheus(telem)),
        "traces": [hashlib.sha256(repr(host.device.tracer.records)
                                  .encode()).hexdigest()
                   for host in session.hosts],
        "rcounts": [dict(host.rcounts) for host in session.hosts],
        "messages": session.network.messages,
        "routing": {s: list(nodes) for s, nodes in session.routing.items()},
        "now": session.env.now,
    }
    return seen, session.env.events_processed


def assert_identical(monkeypatch, call) -> dict:
    new, new_events = observe(monkeypatch, call, False)
    old, old_events = observe(monkeypatch, call, True)
    assert new == old
    assert new_events == old_events
    return new


def build_runner(replay_corpus, *, index="diskann", replicas=2,  # noqa: F811
                 spares=0, network=None) -> ClusterBenchRunner:
    X, queries, truth = replay_corpus
    if index == "diskann":
        profile = dataclasses.replace(get_profile("milvus"),
                                      diskann_cache_bytes=0,
                                      diskann_lru_bytes=0)
        spec = IndexSpec.of("diskann", "l2", R=8, L_build=16)
    else:
        profile, spec = "milvus", IndexSpec.of("flat", "l2")
    topology = ClusterTopology(
        n_shards=2, replicas=replicas, spares=spares, seed=1,
        **({} if network is None else {"network": network}))
    cluster = Cluster(topology, profile, seed=0)
    cluster.create_collection("c", X.shape[1], spec)
    cluster.insert("c", X)
    cluster.flush("c")
    return ClusterBenchRunner(cluster, "c", queries, ground_truth=truth,
                              k=10)


@pytest.fixture(scope="module")
def runners(replay_corpus):  # noqa: F811
    """Shared DiskANN cluster runners by (replicas, network)."""
    built = {}

    def get(replicas=2, network=None):
        key = (replicas, network)
        if key not in built:
            built[key] = build_runner(replay_corpus, replicas=replicas,
                                      network=network)
        return built[key]

    return get


def closed(runner, concurrency=6, **options):
    return lambda: runner.run(concurrency, DISKANN, duration_s=DURATION,
                              **options)


TELEMETRY = pytest.mark.parametrize("telemetry", [False, True],
                                    ids=["plain", "telemetry"])


@TELEMETRY
@pytest.mark.parametrize("consistency", ["one", "quorum", "all"])
def test_consistency_levels_match_the_generators(monkeypatch, runners,
                                                 consistency, telemetry):
    seen = assert_identical(monkeypatch, closed(
        runners(replicas=3), consistency=consistency, telemetry=telemetry))
    if consistency != "one":
        assert seen["ccounts"]["quorum_waits"] > 0


@TELEMETRY
@pytest.mark.parametrize("hedge_after_s", [0.0002, 0.0004, 0.001])
def test_hedges_match_the_generators(monkeypatch, runners, hedge_after_s,
                                     telemetry):
    seen = assert_identical(monkeypatch, closed(
        runners(replicas=3), concurrency=8, hedge_after_s=hedge_after_s,
        telemetry=telemetry))
    assert seen["ccounts"]["hedges"] > 0


def test_a_winning_hedge_matches_the_generators(monkeypatch, runners):
    seen = assert_identical(monkeypatch, closed(
        runners(replicas=3), concurrency=8, hedge_after_s=0.0002,
        consistency="quorum", telemetry=True))
    assert seen["ccounts"]["hedge_wins"] > 0


@pytest.mark.parametrize("consistency", ["one", "quorum"])
def test_hedge_timer_tied_with_the_hop_matches_the_generators(
        monkeypatch, runners, consistency):
    # At jitter 0 every hop takes exactly the hedge delay: the hedge
    # timer and the outbound hop's arrival share a timestamp.
    seen = assert_identical(monkeypatch, closed(
        runners(replicas=3, network=TIED), concurrency=8,
        hedge_after_s=TIED.base_latency_s, consistency=consistency,
        telemetry=True))
    assert seen["ccounts"]["hedges"] > 0


def kill_schedule() -> ChaosSchedule:
    # Node 0 (shard 0's first replica) dies twice mid-run and node 3
    # once: legs in transit arrive dead, legs mid-sub-query lose the
    # death race, and claims skip the dead replica.
    return ChaosSchedule(kills=(NodeKill(0, 0.01, 0.03),
                                NodeKill(0, 0.045, 0.05),
                                NodeKill(3, 0.02, 0.06)))


@TELEMETRY
@pytest.mark.parametrize("hedge_after_s", [None, 0.0003],
                         ids=["unhedged", "hedged"])
def test_kills_and_failover_match_the_generators(monkeypatch, runners,
                                                 hedge_after_s, telemetry):
    seen = assert_identical(monkeypatch, closed(
        runners(), concurrency=8, chaos=kill_schedule(),
        hedge_after_s=hedge_after_s, telemetry=telemetry))
    assert seen["ccounts"]["failovers"] > 0
    assert "node_kill" in seen["outcomes"]


def test_single_replica_kills_fail_queries_like_the_generators(
        monkeypatch, runners):
    # Both shards' only replicas (nodes 0 and 1) are down together
    # for a stretch: queries then gather nothing and fail.
    chaos = ChaosSchedule(kills=(NodeKill(0, 0.01, 0.04),
                                 NodeKill(1, 0.02, 0.05)))
    seen = assert_identical(monkeypatch, closed(
        runners(replicas=1), concurrency=8, chaos=chaos, telemetry=True))
    assert seen["failure_causes"]["node_kill"] > 0


@pytest.mark.parametrize("drop_fraction", [0.5, 1.0])
def test_partitions_match_the_generators(monkeypatch, runners,
                                         drop_fraction):
    # The cut isolates node 1 for a stretch of the run: requests to it
    # and replies from it both cross the cut.
    chaos = ChaosSchedule(partitions=(
        PartitionWindow((1,), 0.015, 0.05, drop_fraction=drop_fraction),),
        seed=5)
    seen = assert_identical(monkeypatch, closed(
        runners(), concurrency=8, chaos=chaos, hedge_after_s=0.0005,
        telemetry=True))
    assert seen["ccounts"]["partition_drops"] > 0


def test_partitioned_single_replicas_fail_like_the_generators(
        monkeypatch, runners):
    chaos = ChaosSchedule(partitions=(
        PartitionWindow((0, 1), 0.01, 0.05),))
    seen = assert_identical(monkeypatch, closed(
        runners(replicas=1), concurrency=8, chaos=chaos, telemetry=True))
    assert seen["failure_causes"]["partition"] > 0


@pytest.mark.parametrize("hedge_after_s", [None, 0.0003],
                         ids=["unhedged", "hedged"])
def test_gray_nodes_match_the_generators(monkeypatch, runners,
                                         hedge_after_s):
    chaos = ChaosSchedule(grays=(GrayFailure(2, 0.0, 0.05, slowdown=4.0),
                                 GrayFailure(1, 0.03, 0.07, slowdown=9.0)))
    seen = assert_identical(monkeypatch, closed(
        runners(), concurrency=8, chaos=chaos, hedge_after_s=hedge_after_s,
        telemetry=True))
    assert seen["ccounts"]["gray_delays"] > 0


def test_replica_device_errors_match_the_generators(monkeypatch, runners):
    chaos = ChaosSchedule(device_faults=(
        (0, ReadError(0.0, DURATION, probability=0.4, stall_s=0.004)),
        (3, ReadError(0.02, 0.06, probability=0.4, stall_s=0.004))),
        seed=3)
    policy = ResiliencePolicy(read_timeout_s=0.002, max_retries=0)
    seen = assert_identical(monkeypatch, closed(
        runners(), concurrency=8, chaos=chaos, resilience=policy,
        hedge_after_s=0.0005, telemetry=True))
    assert seen["ccounts"]["replica_errors"] > 0
    assert any(counts.get("read_failures") for counts in seen["rcounts"])


@TELEMETRY
@pytest.mark.parametrize("hedge_after_s", [None, 0.0003],
                         ids=["unhedged", "hedged"])
def test_partial_result_deadlines_match_the_generators(
        monkeypatch, runners, hedge_after_s, telemetry):
    seen = assert_identical(monkeypatch, closed(
        runners(), concurrency=8, deadline_s=0.0012,
        hedge_after_s=hedge_after_s, telemetry=telemetry))
    assert seen["ccounts"]["partial_results"] > 0


def test_composed_chaos_matches_the_generators(monkeypatch, runners):
    chaos = ChaosSchedule.seeded(6, DURATION, seed=4, kills=2,
                                 outage_s=0.02, partitions=1, grays=1,
                                 device_nodes=1)
    assert_identical(monkeypatch, closed(
        runners(replicas=3), concurrency=8, chaos=chaos,
        consistency="quorum", hedge_after_s=0.0004, deadline_s=0.004,
        resilience=ResiliencePolicy(read_timeout_s=0.003, max_retries=1),
        telemetry=True))


def test_local_network_matches_the_generators(monkeypatch, runners):
    seen = assert_identical(monkeypatch, closed(
        runners(network=NetworkSpec.local()), concurrency=8,
        hedge_after_s=0.0003, telemetry=True))
    assert seen["ccounts"]["hedges"] > 0


def test_migration_while_serving_matches_the_generators(monkeypatch,
                                                        replay_corpus):
    def call():
        runner = build_runner(replay_corpus, index="flat", replicas=1,
                              spares=1)
        session = runner.open_replay()
        env = session.env
        served = []

        def client(start):
            index = start
            while env.now < 0.05:
                plan, _cold = session.plan_for(index % len(runner.queries))
                failed = yield from session.replayer.query_proc(plan)
                served.append((env.now, failed))
                index += 1

        for start in range(4):
            env.process(client(start))
        env.process_at(0.02, session.migrate(0, 0, 2))
        env.run()
        return served

    seen = assert_identical(monkeypatch, call)
    assert seen["ccounts"]["migrations"] == 1
    assert seen["routing"][0] == [2]


@TELEMETRY
def test_open_loop_server_matches_the_generators(monkeypatch, runners,
                                                 telemetry):
    config = ServeConfig(
        policy="fifo", duration_s=DURATION, seed=7, max_inflight=8,
        tenants=(TenantLoad("all", PoissonArrivals(rate_qps=4000.0)),),
        search_params=dict(DISKANN))
    runner = runners()
    assert_identical(monkeypatch, lambda: Server(
        runner, config, telemetry=telemetry).serve())


def test_run_chaos_with_the_supervisor_matches_the_generators(
        monkeypatch, replay_corpus):
    schedule = ChaosSchedule(
        kills=(NodeKill(0, 0.01, 0.2),),
        grays=(GrayFailure(3, 0.0, 0.03, slowdown=4.0),),
        partitions=(PartitionWindow((2,), 0.02, 0.04, drop_fraction=0.5),),
        seed=2)
    config = ServeConfig(
        policy="fifo", duration_s=DURATION, seed=0, max_inflight=8,
        tenants=(TenantLoad("all", PoissonArrivals(rate_qps=3000.0)),))

    def call():
        runner = build_runner(replay_corpus, index="flat", spares=1)
        return run_chaos(runner, config, schedule,
                         supervisor=Supervisor(SupervisorConfig()),
                         telemetry=True, hedge_after_s=0.0004)

    seen = assert_identical(monkeypatch, call)
    assert dict(seen["result"][3])["failures_detected"] > 0


# -- exact ties -------------------------------------------------------------
#
# Measured runs almost never put two events at the same float time, so
# they cannot tell a push made one counter early or late from the
# right one.  Here every duration is a multiple of a dyadic tick, sums
# are exact, and the sweeps below land hedge timers, death timers and
# deadlines exactly on hops, sub-query completions and gathers.

TICK = 2.0 ** -13


def tied_run(reference: bool, *, replicas=2, consistency="one",
             hedge_after_s=None, deadline_s=None, chaos=None):
    """40 queries from 6 clients booted together on a synthetic
    cluster whose hops, rpc halves and CPU steps are whole ticks;
    every observable and the event count."""
    env = Environment()
    topology = ClusterTopology(
        n_shards=2, replicas=replicas,
        network=NetworkSpec(base_latency_s=TICK, jitter_s=0.0))
    network = Network(env, topology.network)
    profile = dataclasses.replace(get_profile("milvus"), rpc_s=2 * TICK,
                                  intra_query_parallelism=False)
    hosts = [QueryReplayer(env, SimSSD(env, samsung_990pro_4tb()),
                           Resource(env, 1), None, profile)
             for _node in range(topology.total_nodes)]
    routing = {shard: [topology.node_id(shard, r) for r in range(replicas)]
               for shard in range(topology.n_shards)}
    cls = (reference_cluster_replay.ReferenceClusterReplayer if reference
           else ClusterReplayer)
    coord = cls(env, topology, routing, network, hosts, Resource(env, 1),
                profile, chaos, consistency=consistency,
                hedge_after_s=hedge_after_s, deadline_s=deadline_s)
    none = (np.empty(0, np.int64), np.empty(0, np.float32))
    plans = [ClusterPlan(
        i, [CompiledQuery([[("cpu", TICK * (1 + (i + shard) % 3))]])
            for shard in range(topology.n_shards)],
        [none] * topology.n_shards, none[0]) for i in range(40)]
    log = []
    issued = 0

    def issue(_boot=None):
        nonlocal issued
        if issued == len(plans):
            return
        index, start = issued, env.now
        issued += 1

        def done(failed):
            log.append((index, start, env.now, failed))
            issue()

        coord.start(plans[index], None, 0.0, done)

    for _client in range(6):
        env.timeout(0.0).callbacks.append(issue)
    env.run()
    return ((log, dict(coord.ccounts), dict(coord.failure_causes),
             repr(coord.outcomes), network.messages),
            env.events_processed)


def assert_tied_identical(**options) -> dict:
    new, new_events = tied_run(False, **options)
    old, old_events = tied_run(True, **options)
    assert new == old
    assert new_events == old_events
    return new[1]


@pytest.mark.parametrize("consistency, replicas",
                         [("one", 2), ("quorum", 3)])
def test_hedges_on_exact_ties_match_the_generators(consistency, replicas):
    # A gray node 0 stretches its hops by whole ticks, so backups win.
    gray = ChaosSchedule(grays=(GrayFailure(0, 0.0, 1.0, slowdown=4.0),))
    counts = [assert_tied_identical(consistency=consistency,
                                    replicas=replicas, chaos=gray,
                                    hedge_after_s=k * TICK)
              for k in range(1, 13)]
    assert sum(c.get("hedges", 0) for c in counts) > 0
    assert sum(c.get("hedge_wins", 0) for c in counts) > 0


def test_deadlines_on_exact_ties_match_the_generators():
    counts = [assert_tied_identical(deadline_s=k * TICK,
                                    hedge_after_s=3 * TICK)
              for k in range(2, 16)]
    assert sum(c.get("partial_results", 0) for c in counts) > 0


@pytest.mark.parametrize("hedge_after_s", [None, 2 * TICK, 5 * TICK],
                         ids=["unhedged", "hedge2", "hedge5"])
def test_deaths_on_exact_ties_match_the_generators(hedge_after_s):
    for k in range(1, 25, 2):
        chaos = ChaosSchedule(kills=(NodeKill(0, k * TICK, (k + 6) * TICK),
                                     NodeKill(3, (k + 3) * TICK,
                                              (k + 9) * TICK)))
        assert_tied_identical(chaos=chaos, hedge_after_s=hedge_after_s)
