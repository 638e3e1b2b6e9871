"""The cluster replay plane: scatter-gather timing on one shared clock.

The functional data plane (:mod:`repro.cluster.cluster`) decides *what*
every query answers; this module decides *when*.  Every data node gets
its own simulated NVMe device and core pool, all advanced by one shared
:class:`~repro.simkernel.Environment`, and a coordinator process fans
each query out across the shards and merges the replies:

* per-shard sub-queries replay the shard runner's compiled plans through
  the node's own :class:`~repro.workload.runner.QueryReplayer` — the
  exact single-node replay path, unchanged;
* every coordinator<->node message pays the topology's interconnect
  latency (:class:`~repro.simkernel.Network`), charged to the span's
  ``network`` stage;
* consistency levels shape how many replicas per shard must answer
  (``one`` / ``quorum`` / ``all`` — replicas are identical, so levels
  change timing, never results);
* hedged requests race a slow replica against a backup copy on the
  kernel's :class:`~repro.simkernel.events.Race` primitive;
* one :class:`~repro.faults.ChaosSchedule` is the whole fault model:
  its kill windows abandon in-flight sub-queries, driving failover to
  the next live replica; its partition windows drop messages crossing
  a cut and its gray windows stretch a slow-but-alive node's hops (see
  :meth:`ClusterReplayer.hop`); its per-node SSD fault windows, with a
  :class:`~repro.faults.ResiliencePolicy` as the defence, arm the
  node-local read path — the injection surface of ``repro.chaos``;
* every failed coordinator query is attributed to the first fault
  kind (in :data:`FAILURE_CAUSES` order) that touched its gather, and
  the per-kind ledger (:attr:`ClusterReplayer.failure_causes`) must
  reconcile with server stats and telemetry counters — the chaos
  study's three-ledger audit;
* a partial-result deadline lets the coordinator answer from the shards
  that made it, reporting completion-weighted recall for the rest;
* :meth:`ClusterReplaySession.migrate` streams a shard replica to a
  spare node through both devices while queries keep flowing.

:class:`ClusterBenchRunner` exposes the same surface as
:class:`~repro.workload.runner.BenchRunner` — ``run`` for the closed
loop and ``open_replay`` for callers that drive their own schedule —
so :class:`repro.serve.Server` serves a cluster without modification.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t

import numpy as np

from repro.cluster.merge import merge_topk
from repro.cluster.topology import ClusterTopology
from repro.data.groundtruth import recall_at_k
from repro.engines.engine import CONSISTENCY_LEVELS, VectorEngine
from repro.engines.profiles import PAPER_CPU_CORES
from repro.errors import ClusterError, DegradedResult, OutOfMemoryError
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import ChaosSchedule
from repro.obs import RunTelemetry
from repro.simkernel import Environment, Network, Resource
from repro.storage.spec import DeviceSpec, samsung_990pro_4tb
from repro.workload.metrics import RunResult
from repro.workload.replay import (ReplaySession, closed_loop, oom_result,
                                   run_result)
from repro.workload.runner import (BenchRunner, CompiledQuery, QueryReplayer,
                                   open_host)

if t.TYPE_CHECKING:
    from repro.cluster.cluster import Cluster, ShardedCollection

#: Per-shard segment ids are namespaced at ``shard * base + segment`` in
#: query spans so two shards' segment timings never collide (documented
#: in :mod:`repro.obs.span`).
_SHARD_SEGMENT_BASE = 1024

#: Coordinator CPU per gathered candidate: one (distance, id) key
#: compare plus the copy into the merge heap — a few ns on the paper's
#: hardware; the merge is measurable but never dominant, which the
#: benchmark's ``cluster.merge_overhead_fraction`` quantifies.
_MERGE_CPU_PER_CANDIDATE_S = 25e-9

#: Fault kinds a failed coordinator query can be attributed to, most
#: specific first: when several fault planes touched the same query,
#: the ledger charges the first kind in this order (the chaos study's
#: three-ledger reconciliation depends on the choice being total and
#: deterministic).
FAILURE_CAUSES = ("node_kill", "partition", "device", "gray",
                  "deadline", "unknown")


@dataclasses.dataclass
class ClusterPlan:
    """One query's cluster-wide execution plan.

    Carries a compiled single-node plan per shard (replayable on any
    replica of that shard — replicas are bit-identical engines) plus the
    functional per-shard candidates, so the coordinator can merge any
    *subset* of shards when a partial-result deadline cuts the gather
    short.
    """

    #: Position of this query in the runner's query set.
    index: int
    #: Compiled plan per shard, indexed by shard id.
    shard_plans: list[CompiledQuery]
    #: Functional per-shard candidates: (global ids, dists) per shard.
    shard_found: list[tuple[np.ndarray, np.ndarray]]
    #: The full-fan-out merged ids (what an unconstrained gather
    #: answers; bit-identical to the single-node answer).
    merged_ids: np.ndarray

    def partial_ids(self, shards: t.Sequence[int], k: int) -> np.ndarray:
        """Merged ids over only the *shards* that completed."""
        return merge_topk([self.shard_found[s][0] for s in shards],
                          [self.shard_found[s][1] for s in shards], k)[0]


class _ShardSpanView:
    """A per-shard window onto one query's span.

    The node-level :class:`~repro.workload.runner.QueryReplayer` writes
    stage and segment timings through this view; query-level stages pass
    straight through, segment ids are namespaced per shard.
    """

    __slots__ = ("_span", "_base")

    def __init__(self, span, shard: int) -> None:
        self._span = span
        self._base = shard * _SHARD_SEGMENT_BASE

    def add_stage(self, stage: str, seconds: float) -> None:
        self._span.add_stage(stage, seconds)

    def segment(self, seg: int):
        return self._span.segment(self._base + seg)


@dataclasses.dataclass
class _QueryOutcome:
    """What one coordinator query actually gathered."""

    index: int
    completed_shards: tuple[int, ...]
    partial: bool
    #: Fault kinds that touched this query's gather (empty = clean);
    #: for a failed query the first entry is the attributed cause.
    causes: tuple[str, ...] = ()


class ClusterReplayer:
    """The coordinator: fans queries out over the cluster and merges.

    Shares :meth:`query_proc`'s signature with the per-node
    :class:`~repro.workload.runner.QueryReplayer`, so the closed-loop
    driver and the serving layer dispatch onto either one unchanged.
    One instance drives one :class:`ClusterReplaySession`'s timeline.
    """

    def __init__(self, env: Environment, topology: ClusterTopology,
                 routing: dict[int, list[int]], network: Network,
                 node_replayers: list[QueryReplayer], cores: Resource,
                 profile, chaos: ChaosSchedule | None = None,
                 consistency: str = "one",
                 hedge_after_s: float | None = None,
                 deadline_s: float | None = None,
                 telemetry: RunTelemetry | None = None) -> None:
        if consistency not in CONSISTENCY_LEVELS:
            raise ClusterError(
                f"unknown consistency {consistency!r}; expected one of "
                f"{CONSISTENCY_LEVELS}")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ClusterError(f"hedge_after_s must be > 0: {hedge_after_s}")
        if deadline_s is not None and deadline_s <= 0:
            raise ClusterError(f"deadline_s must be > 0: {deadline_s}")
        self.env = env
        self.topology = topology
        self.routing = routing
        self.network = network
        self.node_replayers = node_replayers
        self.cores = cores
        self.profile = profile
        #: The fault model; ``None`` means the empty, passive schedule.
        self.chaos = chaos if chaos is not None else ChaosSchedule()
        self.consistency = consistency
        self.hedge_after_s = hedge_after_s
        self.deadline_s = deadline_s
        self.telemetry = telemetry
        #: Scatter-gather event counts (fanout, hedges, failovers, ...).
        self.ccounts: collections.Counter[str] = collections.Counter()
        #: Failed queries by attributed fault kind (the injection-side
        #: half of the chaos three-ledger reconciliation).
        self.failure_causes: collections.Counter[str] = \
            collections.Counter()
        #: Per-completed-query gather outcomes, in completion order.
        self.outcomes: list[_QueryOutcome] = []
        self._issue = 0   # coordinator issue ordinal (replica rotation)

    def _note(self, event: str, amount: int = 1) -> None:
        self.ccounts[event] += amount
        if self.telemetry is not None:
            self.telemetry.on_event("cluster", event, amount)

    def _need(self, shard: int) -> int:
        """Replica answers required for this consistency level."""
        replicas = len(self.routing[shard])
        if self.consistency == "one":
            return 1
        if self.consistency == "quorum":
            return min(replicas, self.topology.quorum())
        return replicas

    # -- per-node sub-query ------------------------------------------------

    def hop(self, src: int, dst: int, causes: set | None = None):
        """One chaos-aware one-way hop; returns True when delivered.

        The message always pays the interconnect latency.  A gray
        endpoint then stretches the transit by its slowdown factor; a
        partition severing the hop drops the message *after* it paid
        the wire (the bytes left, nobody received them) and the hop
        returns False.  With no partitions or gray failures scheduled
        this is event-for-event identical to a bare
        ``network.transfer`` — the passivity tests assert it.
        """
        env, chaos = self.env, self.chaos
        sent = env.now
        ordinal = self.network.messages
        yield self.network.transfer(src, dst)
        slow = max(chaos.slowdown(src, sent), chaos.slowdown(dst, sent))
        if slow > 1.0:
            yield env.timeout((slow - 1.0) * (env.now - sent))
            self._note("gray_delays")
            if causes is not None:
                causes.add("gray")
        if chaos.dropped(src, dst, sent, ordinal):
            self._note("partition_drops")
            if causes is not None:
                causes.add("partition")
            return False
        return True

    def _node_query(self, node: int, splan: CompiledQuery, view,
                    fixed_cpu: float, outcome: list, causes: set):
        """One request/reply round trip to one replica node.

        Sets ``outcome[0]`` when the reply makes it back; a node that is
        dead on arrival — or dies before the sub-query finishes — never
        answers, and the process just ends (the RPC is lost, exactly
        like a crashed server).  A partition can eat either direction of
        the round trip; a replica whose own read path failed permanently
        (device faults beat its resilience policy) answers an error,
        which the coordinator treats as no answer.  Every way the round
        trip can die records its fault kind in *causes*.
        """
        env, coord = self.env, self.topology.coordinator
        hop = env.now
        delivered = yield from self.hop(coord, node, causes)
        if view is not None:
            view.add_stage("network", env.now - hop)
        if not delivered:
            return
        if self.chaos.dead(node, env.now):
            causes.add("node_kill")
            return
        sub = env.process(self.node_replayers[node].query_proc(
            splan, view, fixed_cpu))
        death_at = self.chaos.next_death_after(node, env.now)
        if death_at is None:
            yield sub
        else:
            winner = yield env.race([sub, env.timeout(death_at - env.now)])
            if winner == 1:
                causes.add("node_kill")
                return
        if sub.value:
            self._note("replica_errors")
            causes.add("device")
            return
        hop = env.now
        delivered = yield from self.hop(node, coord, causes)
        if view is not None:
            view.add_stage("network", env.now - hop)
        if not delivered:
            return
        outcome[0] = True

    def _slot_proc(self, shard: int, splan: CompiledQuery, view,
                   fixed_cpu: float, claim, successes, causes: set):
        """Get one replica answer for *shard*, failing over on death.

        *claim* hands out the next live, unclaimed replica in rotation
        order (shared across this query's slots so quorum reads hit
        distinct replicas).  Each attempt may hedge a backup copy after
        ``hedge_after_s``; a killed node triggers failover to the next
        replica, counted only when one is actually claimed.  Ends
        without recording a success when every replica is dead or
        already claimed.
        """
        env = self.env
        node = claim()
        while node is not None:
            outcome = [False]
            nq = env.process(self._node_query(node, splan, view,
                                              fixed_cpu, outcome, causes))
            hedge: tuple | None = None
            if self.hedge_after_s is not None:
                winner = yield env.race(
                    [nq, env.timeout(self.hedge_after_s)])
                if winner == 1:
                    backup = claim()
                    if backup is not None:
                        self._note("hedges")
                        hout = [False]
                        hedge = (env.process(self._node_query(
                            backup, splan, view, fixed_cpu, hout,
                            causes)), hout)
            if hedge is None:
                yield nq
                if outcome[0]:
                    successes[shard] += 1
                    return
            else:
                hq, hout = hedge
                pending = [nq, hq]
                while pending:
                    if len(pending) > 1:
                        yield env.race(pending)
                    else:
                        yield pending[0]
                    if outcome[0]:
                        successes[shard] += 1
                        return
                    if hout[0]:
                        self._note("hedge_wins")
                        successes[shard] += 1
                        return
                    # A copy resolved without answering: its node died.
                    pending = [p for p in pending if not p.processed]
            node = claim()
            if node is not None:
                self._note("failovers")

    def _shard_proc(self, shard: int, splan: CompiledQuery, view,
                    fixed_cpu: float, ordinal: int, successes,
                    causes: set):
        """Gather this shard's answers at the session's consistency."""
        env = self.env
        replicas = self.routing[shard]
        n = len(replicas)
        # Per-query replica rotation spreads load across the group.
        rotation = [replicas[(ordinal + i) % n] for i in range(n)]
        taken: list[int] = []

        def claim() -> int | None:
            for node in rotation:
                if node in taken:
                    continue
                if self.chaos.dead(node, env.now):
                    causes.add("node_kill")
                    continue
                taken.append(node)
                return node
            return None

        need = self._need(shard)
        if need > 1:
            self._note("quorum_waits")
        yield env.all_of([
            env.process(self._slot_proc(shard, splan, view, fixed_cpu,
                                        claim, successes, causes))
            for _ in range(need)])

    # -- the coordinator query ---------------------------------------------

    def query_proc(self, plan: ClusterPlan, span=None,
                   fixed_cpu: float = 0.0):
        """Replay one query across the cluster; returns True on failure.

        Scatter to every shard, gather under the consistency level and
        the optional deadline, then merge on the coordinator's cores.
        A query fails only when *no* shard completed; a partial gather
        (deadline hit with some shards in) completes degraded and is
        recorded in :attr:`outcomes`.
        """
        env, profile = self.env, self.profile
        ordinal = self._issue
        self._issue += 1
        causes: set[str] = set()
        if profile.rpc_s:
            yield env.timeout(profile.rpc_s / 2)
            if span is not None:
                span.add_stage("rpc", profile.rpc_s / 2)
        n_shards = self.topology.n_shards
        successes: collections.Counter[int] = collections.Counter()
        procs = []
        for shard in range(n_shards):
            view = _ShardSpanView(span, shard) if span is not None else None
            procs.append(env.process(self._shard_proc(
                shard, plan.shard_plans[shard], view, fixed_cpu, ordinal,
                successes, causes)))
        self._note("fanout", n_shards)
        gather = env.all_of(procs)
        if self.deadline_s is None:
            yield gather
        else:
            winner = yield env.race([gather, env.timeout(self.deadline_s)])
            if winner == 1:
                self._note("partial_results")
                causes.add("deadline")
        completed = tuple(s for s in range(n_shards)
                          if successes[s] >= self._need(s))
        missed = n_shards - len(completed)
        if missed:
            self._note("shards_missed", missed)
        if not completed:
            cause = next((c for c in FAILURE_CAUSES if c in causes),
                         "unknown")
            self.failure_causes[cause] += 1
            self._note(f"failed_{cause}")
            ordered = (cause,) + tuple(
                c for c in FAILURE_CAUSES if c in causes and c != cause)
            self.outcomes.append(_QueryOutcome(plan.index, (), True,
                                               ordered))
            return True
        merge_s = _MERGE_CPU_PER_CANDIDATE_S * sum(
            len(plan.shard_found[s][0]) for s in completed)
        if merge_s > 0:
            yield self.cores.hold(merge_s)
            if span is not None:
                span.add_stage("merge", merge_s)
        if profile.rpc_s:
            yield env.timeout(profile.rpc_s / 2)
            if span is not None:
                span.add_stage("rpc", profile.rpc_s / 2)
        self.outcomes.append(_QueryOutcome(
            plan.index, completed, missed > 0,
            tuple(c for c in FAILURE_CAUSES if c in causes)))
        return False


@dataclasses.dataclass
class ClusterReplaySession(ReplaySession):
    """A :class:`~repro.workload.replay.ReplaySession` over a cluster.

    Built by :meth:`ClusterBenchRunner.open_replay`: one host per node
    (data nodes and spares, indexed by node id), the
    :class:`ClusterReplayer` coordinator as ``replayer``, and what is
    cluster-shaped on top — the interconnect, the live routing table,
    the fault schedule, and shard migration.
    """

    network: Network
    routing: dict[int, list[int]]
    chaos: ChaosSchedule
    cluster: "Cluster"
    device_spec: DeviceSpec
    collection_name: str

    @property
    def core_pools(self) -> list[Resource]:
        """The nodes' core pools plus the coordinator's own."""
        return super().core_pools + [self.replayer.cores]

    def migrate(self, shard: int, replica: int, to_node: int):
        """Process generator: move one shard replica while serving.

        Streams the shard's stored bytes out of the source replica's
        device, across the interconnect, and onto *to_node*'s device —
        contending with in-flight queries on both — then cuts routing
        over (new queries claim the new replica) and rebuilds the
        functional replica via :meth:`repro.cluster.cluster.Cluster.
        move_replica`.  Spawn it with ``session.env.process(...)``.
        """
        yield from self.stream_shard(shard, self.routing[shard][replica],
                                     to_node)
        self.cluster.move_replica(shard, replica, to_node)
        self.routing[shard][replica] = to_node
        self.replayer._note("migrations")

    def stream_shard(self, shard: int, from_node: int, to_node: int):
        """Process generator: copy *shard*'s stored bytes node to node,
        chunk by chunk through both devices and the interconnect."""
        total = self.cluster.shard_bytes(self.collection_name, shard)
        cap = self.device_spec.max_request_bytes
        offset = 0
        while offset < total:
            size = min(cap, total - offset)
            yield self.hosts[from_node].device.submit([(offset, size)], "R")
            yield self.network.transfer(from_node, to_node)
            yield self.hosts[to_node].device.submit([(offset, size)], "W")
            offset += size


class ClusterBenchRunner:
    """Runs one cluster collection's query set on simulated hardware.

    Builds one single-node :class:`~repro.workload.runner.BenchRunner`
    per shard (over the shard's primary replica engine) to compile the
    per-shard plans, merges their functional results into coordinator
    answers, and replays everything on one shared clock.  Exposes the
    same driving surface as ``BenchRunner`` — ``engine``,
    ``collection``, ``queries``, ``run``, ``open_replay`` — so the
    serving layer and the study harnesses treat both uniformly.
    """

    def __init__(self, cluster: "Cluster", collection_name: str,
                 queries: np.ndarray,
                 ground_truth: np.ndarray | None = None,
                 device_spec: DeviceSpec | None = None,
                 cores: int = PAPER_CPU_CORES, k: int = 10,
                 paper_n: int | None = None) -> None:
        self.cluster = cluster
        self.topology = cluster.topology
        self.collection: "ShardedCollection" = cluster.collection(
            collection_name)
        self.queries = np.asarray(queries, dtype=np.float32)
        self.ground_truth = ground_truth
        self.device_spec = device_spec or samsung_990pro_4tb()
        self.cores = cores
        self.k = k
        #: The profile carrier (all nodes share one engine profile).
        self.engine: VectorEngine = cluster.engine_for(cluster.primary(0))
        self.shard_runners = [
            BenchRunner(cluster.engine_for(cluster.primary(s)),
                        collection_name, queries, ground_truth=None,
                        device_spec=self.device_spec, cores=cores, k=k,
                        paper_n=paper_n)
            for s in range(self.topology.n_shards)]
        self._plan_cache: dict[tuple, tuple[list[ClusterPlan],
                                            list[ClusterPlan],
                                            float | None]] = {}

    # -- functional phase --------------------------------------------------

    def _compile(self, params: dict[str, t.Any],
                 ) -> tuple[list[ClusterPlan], list[ClusterPlan],
                            float | None]:
        for runner in self.shard_runners:
            runner._check_unchanged()
        key = tuple(sorted(params.items()))
        if key in self._plan_cache:
            return self._plan_cache[key]
        per_shard = []
        for shard, runner in enumerate(self.shard_runners):
            cold_s, warm_s, _recall = runner._compile(dict(params))
            translated = [
                (self.collection.to_global(shard, ids), dists)
                for ids, dists in runner.compiled_results(dict(params))]
            per_shard.append((cold_s, warm_s, translated))
        cold_plans, warm_plans = [], []
        for q in range(len(self.queries)):
            shard_found = [per_shard[s][2][q]
                           for s in range(self.topology.n_shards)]
            merged_ids, _ = merge_topk([f[0] for f in shard_found],
                                       [f[1] for f in shard_found], self.k)
            cold_plans.append(ClusterPlan(
                q, [per_shard[s][0][q]
                    for s in range(self.topology.n_shards)],
                shard_found, merged_ids))
            warm_plans.append(ClusterPlan(
                q, [per_shard[s][1][q]
                    for s in range(self.topology.n_shards)],
                shard_found, merged_ids))
        recall = None
        if self.ground_truth is not None:
            recall = recall_at_k(
                self.ground_truth[:, :self.k],
                [plan.merged_ids for plan in cold_plans], self.k)
        self._plan_cache[key] = (cold_plans, warm_plans, recall)
        return self._plan_cache[key]

    # -- timing phase ------------------------------------------------------

    def open_replay(self, search_params: dict | None = None, *,
                    telemetry: RunTelemetry | None = None,
                    chaos: ChaosSchedule | None = None,
                    consistency: str = "one",
                    hedge_after_s: float | None = None,
                    deadline_s: float | None = None,
                    resilience: ResiliencePolicy | None = None,
                    ) -> ClusterReplaySession:
        """A fresh simulated cluster ready to replay the query set.

        *chaos* is the whole fault model: its kills, partitions and
        gray failures shape the coordinator<->node hops, its per-node
        device windows arm the nodes' SSDs (:func:`~repro.workload.
        runner.open_host`, as on a single engine), and ``resilience``
        arms every node replayer's read-path defences against them
        (``degrade=True`` raises: a cluster cannot degrade queries).
        ``None`` and the empty schedule are the same, guaranteed-passive,
        run.
        """
        cold, warm, recall = self._compile(dict(search_params or {}))
        topo = self.topology
        env = Environment()
        network = Network(env, topo.network, seed=self.cluster.seed)
        hosts = [
            open_host(self, env, (f"node{node}_cores", f"node{node}_pool"),
                      telemetry=telemetry, resilience=resilience,
                      chaos=chaos, node=node)
            for node in range(topo.total_nodes)]
        coordinator_cores = Resource(env, self.cores,
                                     name="coordinator_cores",
                                     telemetry=telemetry)
        routing = {s: list(nodes)
                   for s, nodes in self.cluster.routing.items()}
        replayer = ClusterReplayer(
            env, topo, routing, network, hosts, coordinator_cores,
            self.engine.profile, chaos, consistency=consistency,
            hedge_after_s=hedge_after_s, deadline_s=deadline_s,
            telemetry=telemetry)
        return ClusterReplaySession(
            env=env, hosts=hosts, replayer=replayer, cold=cold, warm=warm,
            recall=recall, telemetry=telemetry, network=network,
            routing=routing, chaos=replayer.chaos, cluster=self.cluster,
            device_spec=self.device_spec,
            collection_name=self.collection.name)

    def write_targets(self, session: ClusterReplaySession,
                      ) -> list[tuple[QueryReplayer, BenchRunner]]:
        """Where write streams run: per shard, the shard primary's host
        (routing slot 0) with that shard's runner."""
        return [(session.hosts[session.routing[shard][0]], runner)
                for shard, runner in enumerate(self.shard_runners)]

    def run(self, concurrency: int, search_params: dict | None = None,
            duration_s: float = 4.0, max_queries: int = 25_000,
            phase: int = 0,
            telemetry: RunTelemetry | bool | None = None,
            chaos: ChaosSchedule | None = None,
            consistency: str = "one",
            hedge_after_s: float | None = None,
            deadline_s: float | None = None,
            resilience: ResiliencePolicy | None = None) -> RunResult:
        """One measured closed-loop run against the whole cluster.

        The same :func:`~repro.workload.replay.closed_loop` protocol as
        :meth:`repro.workload.runner.BenchRunner.run`, issued to the
        coordinator.  The cluster knobs —
        ``chaos``, ``consistency``, ``hedge_after_s``,
        ``deadline_s`` — shape only the replay timeline; with all of
        them off, every query gathers every shard.  When a deadline
        leaves queries partially gathered, the reported recall is
        completion-weighted (partial queries contribute the recall of
        their completed-shard merge) and ``result.faults["degraded"]``
        carries the :class:`~repro.errors.DegradedResult`.
        """
        telem = RunTelemetry() if telemetry is True else (telemetry or None)
        params = dict(search_params or {})
        try:
            self.engine.check_concurrency_memory(concurrency)
        except OutOfMemoryError:
            return oom_result(self, concurrency, params)
        session = self.open_replay(
            params, telemetry=telem, chaos=chaos,
            consistency=consistency, hedge_after_s=hedge_after_s,
            deadline_s=deadline_s, resilience=resilience)
        replayer = session.replayer
        tally = closed_loop(session, self, concurrency, duration_s,
                            max_queries, phase)
        tally.require_completions(
            "every shard's replicas were dead or past the deadline")

        recall = session.recall
        partials = [o for o in replayer.outcomes if o.partial
                    and o.completed_shards]
        if partials and self.ground_truth is not None:
            recall = self._weighted_recall(replayer.outcomes, session.cold)
        faults = None
        cluster_knobs = (not session.chaos.empty or consistency != "one"
                         or hedge_after_s is not None
                         or deadline_s is not None)
        if cluster_knobs or tally.failures:
            faults = {event: replayer.ccounts.get(event, 0)
                      for event in ("hedges", "hedge_wins", "failovers",
                                    "quorum_waits", "partial_results",
                                    "shards_missed", "partition_drops",
                                    "gray_delays", "replica_errors")}
            faults["failed_queries"] = tally.failures
            if partials:
                faults["degraded"] = DegradedResult(
                    queries=len(partials),
                    total=len(replayer.outcomes),
                    params={"deadline_s": deadline_s})
        return run_result(self, session, tally, concurrency, params,
                          recall, faults)

    def _weighted_recall(self, outcomes: list[_QueryOutcome],
                         plans: list[ClusterPlan]) -> float | None:
        """Completion-weighted recall over a run's gather outcomes.

        Fully gathered queries contribute their full-merge recall;
        partially gathered ones the recall of the merge over only the
        shards that made the deadline.
        """
        gt = self.ground_truth[:, :self.k]
        per_query = []
        for outcome in outcomes:
            if not outcome.completed_shards:
                continue
            plan = plans[outcome.index]
            assert plan.index == outcome.index
            ids = (plan.merged_ids if not outcome.partial
                   else plan.partial_ids(outcome.completed_shards, self.k))
            truth = gt[outcome.index]
            per_query.append(
                len(np.intersect1d(ids, truth)) / max(len(truth), 1))
        return float(np.mean(per_query)) if per_query else None
