"""The discrete-event simulation environment.

:class:`Environment` owns the simulated clock and the event heap.
Simulation logic is written as generator functions that yield
:class:`~repro.simkernel.events.Event` objects::

    def worker(env: Environment):
        yield env.timeout(1.5)          # sleep 1.5 simulated seconds
        done = yield env.all_of([...])  # wait for several events

    env = Environment()
    env.process(worker(env))
    env.run(until=30.0)

The kernel is deterministic: events scheduled for the same time fire in
insertion order.
"""

from __future__ import annotations

import itertools
import math
import typing as t
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.simkernel.events import AllOf, AnyOf, Event, Race, Timeout


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The process's value is the generator's return value (``StopIteration``
    payload), which lets one process wait for another::

        result = yield env.process(sub_task(env))
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator:
                 t.Generator[Event, t.Any, t.Any]) -> None:
        super().__init__(env)
        self._generator = generator
        # Bootstrap: resume the generator as soon as the simulation runs.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None)

    def _resume(self, event: Event) -> None:
        # Only ever called with a processed event, so its value is set.
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield events")
        if target.processed:
            self._resume(target)
        else:
            target.callbacks.append(self._resume)


class _Spawned(Process):
    """A process nobody holds: returning schedules no completion event."""

    __slots__ = ()

    def succeed(self, value: t.Any = None) -> "Event":
        return self


class _Timeline:
    """The one pending timer of :meth:`Environment.timeline`.

    Entry ``i``'s timer carries the tie key ``base + i`` reserved when
    the timeline was scheduled, so pushing it only when timer ``i - 1``
    pops gives the heap order of pushing every timer up front: a timer
    never pops before its nondecreasing predecessor, and nothing pushed
    later can hold a smaller key.
    """

    __slots__ = ("env", "start", "delays", "base", "callback")

    def __init__(self, env: "Environment", delays: t.Sequence[float],
                 callback: t.Callable[[int], None]) -> None:
        self.env = env
        self.start = env._now
        self.delays = delays
        self.callback = callback
        self.base = next(env._counter)
        env._counter = itertools.count(self.base + len(delays))
        self._arm(0)

    def _arm(self, i: int) -> None:
        timer = Event(self.env)
        timer._value = i
        timer.callbacks.append(self._fire)
        heappush(self.env._heap,
                 (self.start + self.delays[i], self.base + i, timer))

    def _fire(self, timer: Event) -> None:
        i = timer._value
        if i + 1 < len(self.delays):
            self._arm(i + 1)
        # Where ``process_at`` bootstraps the entry's process: a fresh
        # key at the timer's pop.
        run = Event(self.env)
        run.callbacks.append(self._run)
        run.succeed(i)

    def _run(self, run: Event) -> None:
        self.callback(run._value)


class Environment:
    """Owns the simulated clock, the event heap, and the main loop."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: Events processed since construction; the numerator of the
        #: benchmark's ``simkernel.events*`` metrics (``bench/trace.py``).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factory helpers ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event that fires after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: t.Generator[Event, t.Any, t.Any]) -> Process:
        """Start a new simulation process from *generator*."""
        return Process(self, generator)

    def process_at(self, delay: float,
                   generator: t.Generator[Event, t.Any, t.Any]) -> Event:
        """Start *generator* after *delay* seconds; fires when it returns.

        Arrival-timed process spawning: the generator is not touched (and
        consumes no heap slot beyond one timer) until the simulated clock
        reaches ``now + delay``.  The returned event fires with the
        generator's return value, exactly like :meth:`process`.  A
        schedule of many start times whose bodies nobody joins is
        cheaper as one :meth:`timeline`.
        """
        done = Event(self)

        def launch(_timer: Event) -> None:
            proc = self.process(generator)
            proc._wait(lambda p: done.succeed(p.value))

        timer = self.timeout(delay)
        timer.callbacks.append(launch)
        return done

    def spawn(self, generator: t.Generator[Event, t.Any, t.Any]) -> None:
        """Start *generator* as a process nobody can wait on.

        Fires the events of :meth:`process` in the same order, except
        that returning schedules nothing: there is no handle to wait
        on, so the completion event would be a no-op pop.
        """
        _Spawned(self, generator)

    def timeline(self, delays: t.Sequence[float],
                 callback: t.Callable[[int], None]) -> None:
        """Call ``callback(i)`` at ``now + delays[i]`` for every entry.

        Each call runs exactly where ``process_at(delays[i], gen)``
        would have run the body of a *gen* calling ``callback(i)`` —
        same time, same tie order against every other event — but an
        entry costs two events (its timer and its start) instead of
        four, and the heap holds one pending timer instead of the whole
        schedule.  *delays* must be finite, ``>= 0`` and nondecreasing;
        an empty timeline schedules nothing.
        """
        previous = 0.0
        for delay in delays:
            if not previous <= delay < math.inf:       # or NaN
                raise SimulationError(
                    f"timeline delays must be finite, >= 0 and "
                    f"nondecreasing: {delay} after {previous}")
            previous = delay
        if len(delays):
            _Timeline(self, delays, callback)

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """Create an event that fires when all of *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: t.Sequence[Event]) -> AnyOf:
        """Create an event that fires when any of *events* has fired."""
        return AnyOf(self, events)

    def race(self, events: t.Sequence[Event]) -> Race:
        """An event firing with the index of the first of *events* done."""
        return Race(self, events)

    # -- the main loop (events push themselves onto ``_heap``) ----------

    def step(self) -> None:
        """Process the single next event on the heap."""
        if not self._heap:
            raise SimulationError("step() called on an empty event heap")
        when, _tie, event = heappop(self._heap)
        self._now = when
        self.events_processed += 1
        event.processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: float | None = None) -> float:
        """Run until the heap drains or the clock reaches *until*.

        Returns the simulated time at which the run stopped.  When
        *until* is given the clock is advanced exactly to it, mirroring a
        fixed-duration measurement window.
        """
        if until is not None and not until >= self._now:   # or NaN
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self._now}")
        # step(), inlined: one pop and one dispatch per event.
        heap = self._heap
        limit = float("inf") if until is None else until
        while heap and heap[0][0] <= limit:
            self._now, _tie, event = heappop(heap)
            self.events_processed += 1
            event.processed = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
