"""Shared resources for simulation processes.

:class:`Resource` models a pool of identical servers (e.g. CPU cores or
an SSD's internal channels) with a FIFO wait queue.  It additionally
tracks the busy-time integral so experiments can report utilization, the
way the paper reports global CPU usage (Figure 4).
"""

from __future__ import annotations

import collections
import numbers
import typing as t
from heapq import heappush

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
        # ``bool`` is an ``int``; a pool of ``True`` slots is a mistake.
        if (not isinstance(capacity, numbers.Integral)
                or isinstance(capacity, bool) or capacity < 1):
            raise SimulationError(
                f"resource capacity must be an integer >= 1: {capacity!r}")
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
        env = self.env
        grant = Event(env)
        if self.telemetry is not None:
            self.telemetry.observe_queue_depth(self.name, len(self._queue))
        if self._in_use < self.capacity:
            now = env._now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            grant._value = None      # grant.succeed(None), inlined
            heappush(env._heap, (now, next(env._counter), grant))
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        self._release(None)

    def _release(self, _event: Event | None) -> None:
        # Also the first callback of every ``hold`` event (hence the
        # ignored argument): the slot is handed over before anything
        # waiting on the hold resumes.
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._queue:
            # Hand the slot straight over; occupancy is unchanged.
            self._queue.popleft().succeed(None)
        else:
            now = self.env._now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1

    def hold(self, duration: float) -> Event:
        """Request a slot now and hold it for *duration* seconds.

        The slot is held for *duration* from the moment it is granted;
        the returned event fires at that point, and the slot is released
        as it fires — before anything waiting on it resumes.  Usage:
        ``yield resource.hold(t)``.

        Two heap entries, the two a ``request`` / ``timeout`` /
        ``release`` sequence makes: the grant, and the returned event,
        pushed at ``now + duration`` when the grant is processed (where
        the resumed process would have built its timeout).
        """
        if not duration >= 0:                 # also rejects NaN
            raise SimulationError(
                f"negative or NaN hold duration: {duration}")
        env = self.env
        done = Event(env)
        done.callbacks.append(self._release)

        def start(_grant: Event) -> None:
            done._value = None
            heappush(env._heap,
                     (env._now + duration, next(env._counter), done))

        # request(), inlined: this is the replay's per-CPU-step path.
        grant = Event(env)
        grant.callbacks.append(start)
        if self.telemetry is not None:
            self.telemetry.observe_queue_depth(self.name, len(self._queue))
        if self._in_use < self.capacity:
            now = env._now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            grant._value = None
            heappush(env._heap, (now, next(env._counter), grant))
        else:
            self._queue.append(grant)
        return done

    def use(self, duration: float) -> t.Generator[Event, t.Any, None]:
        """A process fragment: ``yield from resource.use(t)``.

        Kept for callers written as sub-generators; new code yields
        :meth:`hold` directly and saves the generator.
        """
        yield self.hold(duration)

    # -- introspection ---------------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently occupied slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Total slot-seconds consumed so far (integral of occupancy)."""
        now = self.env._now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now
        return self._busy_integral

    def utilization(self, duration: float) -> float:
        """Mean fraction of the pool busy over *duration* seconds."""
        if not duration > 0:                  # also rejects NaN
            raise SimulationError(f"non-positive duration: {duration}")
        return self.busy_time() / (self.capacity * duration)
