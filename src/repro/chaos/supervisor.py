"""The self-healing supervisor: probe, detect, re-replicate, scrub.

A :class:`Supervisor` is a simulated control-plane process running on
the coordinator.  Each probe round it pings every node currently in the
routing table over the same chaos-aware network hops queries use (so a
partition eats probes too, and a gray node answers late); a node that
misses ``fail_after`` consecutive probes is declared failed and
recovered:

1. **detect** — consecutive probe timeouts cross the failure threshold;
2. **re-replicate** — for every shard replica the failed node held,
   claim a spare from the topology's spare pool, stream the shard's
   bytes from a surviving replica's device across the interconnect onto
   the spare (the PR 7 migration path), and cut routing over via
   :meth:`repro.cluster.cluster.Cluster.move_replica` — the spare
   replays the shard's full op log, so the rebuilt replica is
   bit-identical to the survivors;
3. **scrub** — save the rebuilt replica's engine through
   :mod:`repro.durability` and run ``scrub()`` over it, proving the
   rebuilt state is free of corruption before it takes reads;
4. **return to rotation** — the routing cutover makes the spare a live
   replica immediately; the vacated node, once its fault window ends,
   is a clean slate the spare pool can claim for a later recovery.

Every recovery is logged as a :class:`RecoveryEvent` carrying the
detection and restoration timestamps — their difference is the MTTR the
chaos study reports.  A disabled supervisor spawns **no** processes and
sends **no** probes, which keeps it bit-identically passive (probes
consume network-message ordinals, so even an idle probing loop would
shift every later message's jitter draw).
"""

from __future__ import annotations

import collections
import dataclasses
import tempfile
import typing as t

from repro.durability import save_engine, scrub
from repro.errors import WorkloadError

if t.TYPE_CHECKING:
    from repro.cluster.runner import ClusterReplaySession
    from repro.obs import RunTelemetry


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs: probe cadence and failure threshold.

    The defaults suit the chaos study's sub-second runs: probing every
    4 ms with a 0.8 ms reply timeout detects a dead or partitioned
    node in ~10 ms of simulated time, and a gray node whose slowdown
    stretches its round trip past the timeout is detected the same way
    — which is the whole point of probing through the data path.
    """

    probe_interval_s: float = 0.004
    probe_timeout_s: float = 0.0008
    #: Consecutive probe misses before a node is declared failed.
    fail_after: int = 2
    #: A disabled supervisor is inert: no probes, no processes.
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise WorkloadError(f"bad supervisor timing: {self}")
        if self.fail_after < 1:
            raise WorkloadError(f"bad fail_after: {self.fail_after}")


@dataclasses.dataclass
class RecoveryEvent:
    """One shard replica rebuilt onto a spare after a node failure."""

    node: int          # the failed node
    shard: int
    replica: int       # replica slot within the shard's routing
    spare: int         # the node the replica was rebuilt on
    detected_s: float  # when the supervisor declared the failure
    restored_s: float  # when the rebuilt replica entered rotation
    scrub_ok: bool     # the rebuilt replica's durability scrub verdict

    @property
    def mttr_s(self) -> float:
        """Detection-to-restoration time for this replica."""
        return self.restored_s - self.detected_s


class Supervisor:
    """Health-probes a live cluster session and heals what it finds.

    Start it with :meth:`start` after ``open_replay``; it runs as an
    ordinary simproc on the session's clock.  All decisions are driven
    by simulated observations (probe round trips), never by peeking at
    the fault plans — the supervisor genuinely *detects* failures.
    """

    def __init__(self, config: SupervisorConfig | None = None,
                 telemetry: "RunTelemetry | None" = None) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self.telemetry = telemetry
        #: Chaos-layer event counts (probes, misses, recoveries, ...).
        self.counts: collections.Counter[str] = collections.Counter()
        #: Completed recoveries, in restoration order.
        self.events: list[RecoveryEvent] = []
        self._recovering: set[int] = set()
        self._claimed: set[int] = set()

    def _note(self, event: str, amount: int = 1) -> None:
        self.counts[event] += amount
        if self.telemetry is not None:
            self.telemetry.on_event("chaos", event, amount)

    @property
    def mttr_s(self) -> float | None:
        """Mean time to repair over all completed recoveries."""
        if not self.events:
            return None
        return sum(e.mttr_s for e in self.events) / len(self.events)

    def start(self, session: "ClusterReplaySession",
              horizon_s: float) -> None:
        """Spawn the probe loop on the session's clock (if enabled).

        ``horizon_s`` bounds the probing so the simulation drains once
        the serving window ends.  A disabled supervisor spawns nothing.
        """
        if self.config.enabled:
            session.env.process(self._probe_loop(session, horizon_s))

    # -- probing -----------------------------------------------------------

    def _probe_loop(self, session: "ClusterReplaySession",
                    horizon_s: float):
        env = session.env
        misses: collections.Counter[int] = collections.Counter()
        while env.now + self.config.probe_interval_s < horizon_s:
            yield env.timeout(self.config.probe_interval_s)
            targets = sorted({node for nodes in session.routing.values()
                              for node in nodes
                              if node not in self._recovering})
            yield env.all_of([
                env.process(self._probe(session, node, misses))
                for node in targets])
            for node in targets:
                if (misses[node] >= self.config.fail_after
                        and node not in self._recovering):
                    self._recovering.add(node)
                    env.process(self._recover(session, node))

    def _probe(self, session: "ClusterReplaySession", node: int,
               misses: collections.Counter):
        """One health probe: a round trip raced against the timeout."""
        env = session.env
        ok = [False]
        rt = env.process(self._round_trip(session, node, ok))
        yield env.race([rt, env.timeout(self.config.probe_timeout_s)])
        self._note("probes")
        if ok[0]:
            misses[node] = 0
        else:
            misses[node] += 1
            self._note("probe_misses")

    def _round_trip(self, session: "ClusterReplaySession", node: int,
                    ok: list):
        """A probe's request/reply hops through the chaos-aware path."""
        replayer = session.replayer
        coord = replayer.topology.coordinator
        delivered = yield from replayer.hop(coord, node)
        if not delivered or session.chaos.dead(
                node, session.env.now):
            return
        delivered = yield from replayer.hop(node, coord)
        if delivered:
            ok[0] = True

    # -- recovery ----------------------------------------------------------

    def _claim_spare(self, session: "ClusterReplaySession",
                     ) -> int | None:
        """The lowest-numbered idle, live data node, or None.

        Spares are data nodes hosting no shard: the topology's standby
        pool at boot, plus any vacated node whose fault window has
        passed.  Claims are tracked so two concurrent recoveries never
        target the same node (``move_replica`` would refuse anyway).
        """
        env = session.env
        hosting = {node for nodes in session.routing.values()
                   for node in nodes}
        total = session.replayer.topology.total_nodes
        for node in range(total):
            if (node not in hosting and node not in self._claimed
                    and node not in self._recovering
                    and not session.chaos.dead(node, env.now)):
                self._claimed.add(node)
                return node
        return None

    def _recover(self, session: "ClusterReplaySession", failed: int):
        """Rebuild every shard replica the failed node held."""
        env = session.env
        detected = env.now
        self._note("failures_detected")
        for shard in sorted(session.routing):
            nodes = session.routing[shard]
            for replica, current in enumerate(list(nodes)):
                if current != failed:
                    continue
                source = self._pick_source(session, shard, failed)
                if source is None:
                    self._note("unrecoverable")
                    continue
                spare = self._claim_spare(session)
                if spare is None:
                    self._note("no_spare")
                    continue
                yield from self._rereplicate(
                    session, shard, replica, source, spare, failed,
                    detected)
        hosting = {node for nodes in session.routing.values()
                   for node in nodes}
        if failed not in hosting:
            # Fully vacated: once its fault window passes, the node is
            # a clean slate and may be claimed as a spare later.
            self._recovering.discard(failed)

    def _pick_source(self, session: "ClusterReplaySession", shard: int,
                     failed: int) -> int | None:
        """A surviving replica to stream from: healthy first, gray last."""
        env = session.env
        survivors = [node for node in session.routing[shard]
                     if node != failed
                     and not session.chaos.dead(node, env.now)]
        healthy = [node for node in survivors
                   if session.chaos.slowdown(node, env.now) == 1.0]
        if healthy:
            return healthy[0]
        return survivors[0] if survivors else None

    def _rereplicate(self, session: "ClusterReplaySession", shard: int,
                     replica: int, source: int, spare: int,
                     failed: int, detected_s: float):
        """Stream the shard onto the spare, cut over, scrub, record."""
        yield from session.stream_shard(shard, source, spare)
        session.cluster.move_replica(shard, replica, spare)
        session.routing[shard][replica] = spare
        self._note("rereplications")
        scrub_ok = self._scrub(session, spare)
        self._claimed.discard(spare)
        self.events.append(RecoveryEvent(
            failed, shard, replica, spare, detected_s, session.env.now,
            scrub_ok))

    def _scrub(self, session: "ClusterReplaySession",
               node: int) -> bool:
        """Durability-scrub the rebuilt replica's engine state."""
        engine = session.cluster.engine_for(node)
        with tempfile.TemporaryDirectory() as root:
            save_engine(engine, root)
            report = scrub(root)
            ok = report.ok
        self._note("scrubs")
        if not ok:
            self._note("scrub_findings", len(report.corruptions))
        return ok
