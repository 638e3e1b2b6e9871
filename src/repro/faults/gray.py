"""Gray failures: persistently slow-but-alive nodes.

A gray-failed node is the nastiest case for failure detection: it
answers health probes *eventually*, never trips the dead-node check,
and yet drags every query routed through it into the latency tail.
:class:`GrayFailure` models that as a long-lived slowdown window on one
node — while active, every network hop touching the node is stretched
by ``slowdown``x, and the schedule additionally compiles the window
into a device :class:`~repro.faults.plan.Throttle` so the node's SSD
slows down in sympathy (the usual root cause: a dying disk or a
thermally-throttled device behind a healthy-looking process).

Gray failures are scheduled on a
:class:`~repro.faults.schedule.ChaosSchedule`, whose ``slowdown`` is a
pure function of (node, now).

Example::

    >>> gray = GrayFailure(2, 0.0, 1.0, slowdown=8.0)
    >>> gray.active(0.5), gray.active(1.5)
    (True, False)
    >>> GrayFailure(2, 0.0, 1.0, slowdown=1.0)
    Traceback (most recent call last):
        ...
    repro.errors.WorkloadError: gray slowdown must exceed 1.0: 1.0
"""

from __future__ import annotations

import dataclasses

from repro.errors import WorkloadError
from repro.faults.plan import TimeWindow


@dataclasses.dataclass(frozen=True)
class GrayFailure(TimeWindow):
    """One node running ``slowdown``x slow between start_s and end_s."""

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
