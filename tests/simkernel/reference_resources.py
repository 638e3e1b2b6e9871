"""The seed's :class:`Resource`, kept verbatim as the identity oracle.

The class below is ``repro.simkernel.resources.Resource`` as it stood
before ``Resource.hold``: ``request`` builds a grant event and accounts
through ``_account`` (two ``env.now`` reads), ``use`` is a sub-generator
that yields the grant, then a ``Timeout``, and releases in ``finally`` —
two resumes and one generator per CPU step.
``tests/simkernel/test_hold_identity.py`` requires the shipped class to
fire the same events in the same order, stop after the same
``events_processed``, and report the same ``busy_time()`` / ``in_use``
/ ``queue_length`` and telemetry samples;
``benchmarks/bench_kernels.py`` times the shipped class against it.
Never imported by ``src/``.  Do not optimise this file.
"""

from __future__ import annotations

import collections
import typing as t

from repro.errors import SimulationError
from repro.simkernel.env import Environment
from repro.simkernel.events import Event


class Resource:
    """A FIFO pool of *capacity* identical slots.

    When a :class:`~repro.obs.telemetry.RunTelemetry` is attached (with
    a ``name``), every request arrival samples the wait-queue depth into
    the telemetry's per-resource depth histogram; sampling is passive
    and never changes scheduling.
    """

    def __init__(self, env: Environment, capacity: int,
                 name: str | None = None,
                 telemetry: t.Any = None) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or "resource"
        self.telemetry = telemetry
        self._in_use = 0
        self._queue: collections.deque[Event] = collections.deque()
        self._busy_integral = 0.0
        self._last_change = env.now

    # -- acquisition ----------------------------------------------------

    def request(self) -> Event:
        """Return an event that fires once a slot is granted."""
        grant = Event(self.env)
        if self.telemetry is not None:
            self.telemetry.observe_queue_depth(self.name, len(self._queue))
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            grant.succeed(None)
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._queue:
            # Hand the slot straight over; occupancy is unchanged.
            self._queue.popleft().succeed(None)
        else:
            self._account()
            self._in_use -= 1

    def use(self, duration: float) -> t.Generator[Event, t.Any, None]:
        """A process fragment: hold one slot for *duration* seconds.

        Usage: ``yield from resource.use(t)``.
        """
        yield self.request()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()

    # -- introspection ---------------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently occupied slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def _account(self) -> None:
        now = self.env.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Total slot-seconds consumed so far (integral of occupancy)."""
        self._account()
        return self._busy_integral

    def utilization(self, duration: float) -> float:
        """Mean fraction of the pool busy over *duration* seconds."""
        if duration <= 0:
            raise SimulationError(f"non-positive duration: {duration}")
        return self.busy_time() / (self.capacity * duration)
