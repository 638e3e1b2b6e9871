"""The cluster coordinator as it stood before the callback cursors.

The oracle of ``tests/cluster/test_cluster_replay_identity.py`` and of
the cluster line of ``benchmarks/bench_kernels.py``'s ``replay``
section — do not optimise.  :class:`ReferenceClusterReplayer`'s
``hop``, ``_node_query``, ``_slot_proc``, ``_shard_proc`` and
``query_proc`` are the shipped generator bodies from before
:meth:`~repro.cluster.runner.ClusterReplayer.start` became a cursor,
verbatim: a ``Process`` per shard gather, replica slot, node leg and
sub-query, a ``Race`` per hedge and death timer, an ``AllOf`` per
gather.  Its ``start`` runs ``query_proc`` inline, as the shipped
``start`` did through ``Environment.drive``.

:func:`installed` makes every ``ClusterBenchRunner.open_replay`` build
this coordinator; the node hosts stay the shipped
:class:`~repro.workload.runner.QueryReplayer` (their ``query_proc``
face is what the old legs spawned).  Never imported by ``src/``.
"""

from __future__ import annotations

import collections
import contextlib
import typing as t

from repro.cluster.runner import (_MERGE_CPU_PER_CANDIDATE_S,
                                  FAILURE_CAUSES, ClusterPlan,
                                  ClusterReplayer, _QueryOutcome,
                                  _ShardSpanView)
from repro.workload.runner import CompiledQuery

from tests.workload.reference_replay import drive


class ReferenceClusterReplayer(ClusterReplayer):
    """A :class:`ClusterReplayer` gathering through the old generators."""

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

    def start(self, plan: ClusterPlan, span, fixed_cpu: float,
              then: t.Callable[[bool], None]) -> None:
        """:meth:`query_proc` for callback callers (the closed loop, the
        server): run inline, with ``then(failed)`` at its return."""
        drive(self.env, self.query_proc(plan, span, fixed_cpu), then)

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


@contextlib.contextmanager
def installed() -> t.Iterator[None]:
    """Build the reference coordinator inside the ``with`` block."""
    import repro.cluster.runner as cluster_runner
    saved = cluster_runner.ClusterReplayer
    cluster_runner.ClusterReplayer = ReferenceClusterReplayer
    try:
        yield
    finally:
        cluster_runner.ClusterReplayer = saved
