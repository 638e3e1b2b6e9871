"""The fault model: every fault plane on one seeded timeline.

A :class:`ChaosSchedule` is the one fault-model value of the replay
stack, on a cluster and on a single engine (node 0, which models only
its own device faults): flat tuples of :class:`NodeKill` windows
(whole nodes dead), :class:`PartitionWindow` cuts (messages across a
node-group boundary dropped), :class:`GrayFailure` windows (alive but
slow nodes) and per-node SSD :class:`~repro.faults.FaultWindow`
entries, an optional write-path :class:`~repro.faults.CrashPlan`, and
one seed.  It is immutable pure data and answers the replayer's
questions itself (``dead``, ``next_death_after``, ``slowdown``,
``dropped``, ``device_windows``), each a pure function of the
schedule: same schedule + same workload = bit-identical run, and the
empty schedule is passive.

The schedule is also the unit the delta-debugging shrinker
(:mod:`repro.chaos.shrink`) operates on: :meth:`elements` tags its
faults into atomic elements and :meth:`with_elements` rebuilds a
sub-schedule from any subset, so ddmin can search the subset lattice
for a minimal invariant-violating reproducer.

Example::

    >>> sched = ChaosSchedule(
    ...     kills=(NodeKill(1, 0.5, 2.0),),
    ...     partitions=(PartitionWindow((2,), 0.0, 1.0),),
    ...     grays=(GrayFailure(3, 0.0, 1.0, slowdown=8.0),))
    >>> sched.dead(1, now=1.0), sched.dead(0, now=1.0)
    (True, False)
    >>> sched.next_death_after(1, now=0.1), sched.next_death_after(1, 3.0)
    (0.5, None)
    >>> sched.dropped(src=0, dst=2, now=0.5, ordinal=0)   # crosses cut
    True
    >>> sched.dropped(src=0, dst=1, now=0.5, ordinal=0)   # outside group
    False
    >>> sched.slowdown(3, now=0.5), sched.slowdown(3, now=1.5)
    (8.0, 1.0)
    >>> [w.kind for w in sched.device_windows(3)]
    ['throttle']
    >>> sub = sched.with_elements(sched.elements()[:1])
    >>> [tag for tag, _fault in sub.elements()]
    ['kill']
    >>> ChaosSchedule().empty          # the passive schedule
    True
    >>> seeded = ChaosSchedule.seeded(n_nodes=4, duration_s=1.0, seed=7)
    >>> seeded == ChaosSchedule.seeded(4, 1.0, seed=7)   # reproducible
    True
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import WorkloadError
from repro.faults.crash import CrashPlan
from repro.faults.plan import (FaultWindow, LatencySpike, ReadError,
                               Throttle, TimeWindow, _unit)

#: One atomic fault in a flattened schedule: (plane tag, payload).
ChaosElement = t.Tuple[str, t.Any]


@dataclasses.dataclass(frozen=True)
class NodeKill(TimeWindow):
    """One node is dead during ``[start_s, end_s)``.

    Where a device fault window misbehaves a *device*, a kill takes
    down a whole *node*.  Death is total: the node answers nothing
    while the window is open, and work in flight on it when the
    window opens is lost — which is what drives replica failover in
    :mod:`repro.cluster`.  The node comes back at ``end_s`` with its
    data intact (replicas are identical by construction, so recovery
    needs no catch-up in this model).

    >>> kill = NodeKill(node=1, start_s=0.5, end_s=2.0)
    >>> kill.active(1.0), kill.active(2.0)
    (True, False)
    >>> NodeKill(node=1, start_s=2.0, end_s=0.5)
    Traceback (most recent call last):
        ...
    repro.errors.WorkloadError: bad kill window [2.0, 0.5)
    """

    node: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise WorkloadError(f"bad node id: {self.node}")
        self._check_span("kill")


@dataclasses.dataclass(frozen=True)
class PartitionWindow(TimeWindow):
    """One timed partition: ``nodes`` cut off from everyone else.

    Every message crossing the group boundary — in either direction,
    coordinator hops included — is dropped with ``drop_fraction``
    probability (1.0 = a clean partition; lower values model a flaky
    link that loses some packets but not all).  Messages inside the
    group, or entirely outside it, are untouched: the isolated nodes
    stay alive and rejoin silently when the window closes.

    >>> window = PartitionWindow((1,), 0.0, 1.0)
    >>> window.severs(src=0, dst=1)        # crosses the cut
    True
    >>> window.severs(src=0, dst=2)        # outside the group
    False
    >>> window.active(2.0)                 # window closed
    False
    """

    nodes: tuple[int, ...]
    start_s: float
    end_s: float
    drop_fraction: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise WorkloadError("partition window isolates no nodes")
        self._check_span("partition")
        if not 0.0 < self.drop_fraction <= 1.0:
            raise WorkloadError(
                f"bad drop_fraction: {self.drop_fraction}")

    def severs(self, src: int, dst: int) -> bool:
        """Whether a src->dst message crosses this partition's cut."""
        return (src in self.nodes) != (dst in self.nodes)


@dataclasses.dataclass(frozen=True)
class GrayFailure(TimeWindow):
    """One node running ``slowdown``x slow between start_s and end_s.

    A gray-failed node answers health probes *eventually*, never trips
    the dead-node check, and yet drags every query routed through it
    into the latency tail.  While active, every network hop touching
    the node is stretched by ``slowdown``x, and the schedule compiles
    the window into a device :class:`~repro.faults.plan.Throttle` so
    the node's SSD slows down in sympathy (the usual root cause: a
    dying disk or a thermally-throttled device).

    >>> gray = GrayFailure(2, 0.0, 1.0, slowdown=8.0)
    >>> gray.active(0.5), gray.active(1.5)
    (True, False)
    >>> GrayFailure(2, 0.0, 1.0, slowdown=1.0)
    Traceback (most recent call last):
        ...
    repro.errors.WorkloadError: gray slowdown must exceed 1.0: 1.0
    """

    node: int
    start_s: float
    end_s: float
    slowdown: float = 8.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise WorkloadError(f"bad gray-failure node: {self.node}")
        self._check_span("gray")
        if self.slowdown <= 1.0:
            raise WorkloadError(
                f"gray slowdown must exceed 1.0: {self.slowdown}")

#: The timed planes: (element tag, schedule field, element type).
_PLANES = (("kill", "kills", NodeKill),
           ("partition", "partitions", PartitionWindow),
           ("gray", "grays", GrayFailure),
           ("device", "device_faults", tuple))


@dataclasses.dataclass(frozen=True)
class ChaosSchedule:
    """Every fault plane of one run, as flat pure data.

    ``device_faults`` holds ``(node id, fault window)`` pairs.  The one
    ``seed`` keys every sampled decision the schedule makes at replay
    time: partial-partition message drops and the per-node device
    windows' fault draws.
    """

    kills: tuple[NodeKill, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    grays: tuple[GrayFailure, ...] = ()
    device_faults: tuple[tuple[int, FaultWindow], ...] = ()
    crash: CrashPlan | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for tag, field, kind in _PLANES:
            faults = tuple(getattr(self, field))
            object.__setattr__(self, field, faults)
            if not all(isinstance(fault, kind) for fault in faults):
                raise WorkloadError(
                    f"bad {tag} entry in a chaos schedule: {faults!r}")
        for entry in self.device_faults:
            if (len(entry) != 2 or not isinstance(entry[1], FaultWindow)
                    or entry[0] < 0):
                raise WorkloadError(f"bad device-fault entry: {entry!r}")

    @classmethod
    def seeded(cls, n_nodes: int, duration_s: float, *, seed: int = 0,
               kills: int = 1, outage_s: float = 0.05,
               partitions: int = 1, grays: int = 1,
               gray_slowdown: float = 8.0, device_nodes: int = 1,
               crash: bool = False) -> "ChaosSchedule":
        """Draw a composed schedule from one seed.

        Each plane samples its victims and window starts through the
        stateless splitmix64 unit sampler on its own pair of lanes
        (kills 0/1, partitions 2/3, grays 4/5, device faults 6/7), so
        the planes are decorrelated, jointly reproducible, and
        independent of each other's counts.  Kills and partitions last
        ``outage_s``, gray failures twice that; every device victim
        gets a latency spike and a read-error window.  ``crash=True``
        adds a crash plan at the snapshot manifest commit point — the
        crash-during-compaction case the durability oracle checks.
        """
        if (n_nodes <= 0 or duration_s <= 0 or outage_s <= 0
                or min(kills, partitions, grays, device_nodes) < 0):
            raise WorkloadError(
                f"bad seeded-schedule parameters: {n_nodes} nodes, "
                f"{duration_s}s, outage {outage_s}s, counts "
                f"{(kills, partitions, grays, device_nodes)}")

        def draws(lane: int, count: int, span: float):
            """(victim node, window start) per fault of one plane."""
            return [(int(_unit(seed, lane, i) * n_nodes) % n_nodes,
                     _unit(seed, lane + 1, i) * span)
                    for i in range(count)]

        span = max(duration_s - outage_s, 1e-9)
        gray_s = 2 * outage_s
        device_faults: list[tuple[int, FaultWindow]] = []
        for node, start in draws(6, device_nodes, span):
            device_faults += [
                (node, LatencySpike(start, start + outage_s,
                                    extra_s=0.002)),
                (node, ReadError(start, start + outage_s,
                                 probability=0.05, stall_s=0.01))]
        return cls(
            kills=tuple(
                NodeKill(node, start, start + outage_s)
                for node, start in draws(
                    0, kills, max(duration_s - outage_s, 0.0))),
            partitions=tuple(
                PartitionWindow((node,), start, start + outage_s)
                for node, start in draws(2, partitions, span)),
            grays=tuple(
                GrayFailure(node, start, start + gray_s,
                            slowdown=gray_slowdown)
                for node, start in draws(
                    4, grays, max(duration_s - gray_s, 1e-9))),
            device_faults=tuple(device_faults),
            crash=CrashPlan.of("save.manifest.write") if crash else None,
            seed=seed)

    @property
    def empty(self) -> bool:
        """True when no plane schedules anything (the passive case)."""
        return not (self.kills or self.partitions or self.grays
                    or self.device_faults or self.crash is not None)

    @property
    def end_s(self) -> float:
        """When the last timed fault window closes (0.0 when none)."""
        windows = (*self.kills, *self.partitions, *self.grays,
                   *(window for _node, window in self.device_faults))
        return max((w.end_s for w in windows), default=0.0)

    # -- what the replayer asks (per network hop: plain loops over the
    # plane tuples, no allocation, nothing to do when fault-free) --------

    def dead(self, node: int, now: float) -> bool:
        """Whether *node* is dead at simulated time *now*."""
        for kill in self.kills:
            if kill.node == node and kill.active(now):
                return True
        return False

    def next_death_after(self, node: int, now: float) -> float | None:
        """Start of the next kill window for *node* strictly after *now*.

        The failover race arms a death timer with this: a request sent
        to a live node at *now* is abandoned if the node dies before the
        request completes.  Returns None when the node never dies again.
        """
        soonest = None
        for kill in self.kills:
            if kill.node == node and kill.start_s > now and (
                    soonest is None or kill.start_s < soonest):
                soonest = kill.start_s
        return soonest

    def slowdown(self, node: int, now: float) -> float:
        """The node's gray slowdown factor at *now* (1.0 = healthy)."""
        slow = 1.0
        for gray in self.grays:
            if (gray.node == node and gray.slowdown > slow
                    and gray.active(now)):
                slow = gray.slowdown
        return slow

    def dropped(self, src: int, dst: int, now: float,
                ordinal: int) -> bool:
        """Whether message *ordinal* on the src->dst hop is dropped.

        The loss probability is the largest ``drop_fraction`` among the
        partitions active at *now* that the hop crosses.  Deterministic:
        the draw key is (seed, hop lane, ordinal) with the same hop-lane
        packing the network uses for jitter, so the loss pattern is
        stable under replay; clean partitions (and no partition) never
        draw.
        """
        fraction = 0.0
        for window in self.partitions:
            if (window.drop_fraction > fraction and window.active(now)
                    and window.severs(src, dst)):
                fraction = window.drop_fraction
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        return _unit(self.seed, src * 0x10001 + dst, ordinal) < fraction

    def device_windows(self, node: int) -> tuple[FaultWindow, ...]:
        """Node *node*'s SSD fault windows: explicit, then gray throttles.

        The SSD-side half of a gray failure is a bandwidth throttle to
        ``1/slowdown`` of nominal over the gray window, appended after
        the node's explicit windows.  A window's position in this tuple
        keys its sampling draws (:class:`~repro.faults.FaultInjector`).
        """
        return (*(window for owner, window in self.device_faults
                  if owner == node),
                *(Throttle(gray.start_s, gray.end_s,
                           bandwidth_fraction=1.0 / gray.slowdown)
                  for gray in self.grays if gray.node == node))

    # -- the shrinker's view ----------------------------------------------

    def elements(self) -> list[ChaosElement]:
        """The schedule as tagged atomic fault elements."""
        out = [(tag, fault) for tag, field, _kind in _PLANES
               for fault in getattr(self, field)]
        if self.crash is not None:
            out.append(("crash", self.crash))
        return out

    def with_elements(self,
                      elements: t.Sequence[ChaosElement],
                      ) -> "ChaosSchedule":
        """Rebuild a (sub-)schedule from a subset of elements.

        The seed is preserved, so a sub-schedule's surviving fault
        windows behave exactly as they did in the full schedule —
        the property ddmin needs to shrink soundly.
        """
        planes = {tag: field for tag, field, _kind in _PLANES}
        picked: dict[str, t.Any] = {field: [] for field in planes.values()}
        picked["crash"] = None
        for tag, fault in elements:
            if tag in planes:
                picked[planes[tag]].append(fault)
            elif tag == "crash":
                picked["crash"] = fault
            else:
                raise WorkloadError(f"unknown chaos element: {tag!r}")
        return dataclasses.replace(self, **picked)

    def describe(self) -> dict[str, t.Any]:
        """The schedule as plain data (reports, serialization)."""
        return {
            "kills": [dataclasses.asdict(k) for k in self.kills],
            "partitions": [dataclasses.asdict(w)
                           for w in self.partitions],
            "grays": [dataclasses.asdict(g) for g in self.grays],
            "device_faults": [
                dict(node=node, kind=w.kind, **dataclasses.asdict(w))
                for node, w in self.device_faults],
            "crash": (dataclasses.asdict(self.crash)
                      if self.crash is not None else None),
            "seed": self.seed,
        }
