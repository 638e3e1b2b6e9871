"""Node-kill fault windows for the distributed cluster layer.

:class:`repro.faults.FaultPlan` misbehaves a *device*; a
:class:`NodeKill` kills a whole *node*: it marks one node as dead over
an interval of the simulated timeline.  Requests routed to it while
dead are never answered, and requests in flight when the window opens
are abandoned mid-query — which is exactly what drives replica failover
in :mod:`repro.cluster`.  Kills are scheduled (by hand or seeded) on a
:class:`~repro.faults.schedule.ChaosSchedule`, which answers the
replayer's ``dead`` / ``next_death_after`` questions.

Example::

    >>> kill = NodeKill(node=1, start_s=0.5, end_s=2.0)
    >>> kill.active(1.0), kill.active(2.0)
    (True, False)
    >>> NodeKill(node=1, start_s=2.0, end_s=0.5)
    Traceback (most recent call last):
        ...
    repro.errors.WorkloadError: bad kill window [2.0, 0.5)
"""

from __future__ import annotations

import dataclasses

from repro.errors import WorkloadError
from repro.faults.plan import TimeWindow


@dataclasses.dataclass(frozen=True)
class NodeKill(TimeWindow):
    """One node is dead during ``[start_s, end_s)``.

    Death is total: the node answers nothing while the window is open,
    and work in flight on it when the window opens is lost.  The node
    comes back at ``end_s`` with its data intact (replicas are identical
    by construction, so recovery needs no catch-up in this model).
    """

    node: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise WorkloadError(f"bad node id: {self.node}")
        self._check_span("kill")
