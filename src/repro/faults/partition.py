"""Network partitions: message drops between node groups.

A :class:`PartitionWindow` isolates a *group* of nodes from the rest of
the cluster for a timed window: every message crossing the group
boundary — in either direction, coordinator hops included — is dropped
with ``drop_fraction`` probability.  Messages *inside* the group (or
entirely outside it) are untouched, which is what makes this a
partition rather than a node kill: the isolated nodes stay alive,
keep serving anything that reaches them, and rejoin silently when the
window closes.

Windows are scheduled on a
:class:`~repro.faults.schedule.ChaosSchedule`, whose ``dropped`` makes
every drop decision a deterministic function of
``(seed, hop lane, message ordinal)``.

Example::

    >>> window = PartitionWindow((1,), 0.0, 1.0)
    >>> window.severs(src=0, dst=1)        # crosses the cut
    True
    >>> window.severs(src=0, dst=2)        # outside the group
    False
    >>> window.active(2.0)                 # window closed
    False
"""

from __future__ import annotations

import dataclasses

from repro.errors import WorkloadError
from repro.faults.plan import TimeWindow


@dataclasses.dataclass(frozen=True)
class PartitionWindow(TimeWindow):
    """One timed partition: ``nodes`` cut off from everyone else.

    ``drop_fraction`` is the probability that a boundary-crossing
    message is dropped (1.0 = a clean partition; lower values model a
    flaky link that loses some packets but not all).
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
