"""Event primitives for the discrete-event simulation kernel.

The kernel follows the simpy model: simulation processes are Python
generators that ``yield`` :class:`Event` objects and are resumed when the
event fires.  Events carry an optional value that becomes the result of
the ``yield`` expression inside the process.

Lifecycle of an event:

* *pending* — created, not yet scheduled;
* *triggered* — given a value and placed on the environment's event heap
  (via :meth:`Event.succeed`, or at construction for :class:`Timeout`);
* *processed* — popped off the heap; its callbacks have run.

The event classes carry ``__slots__`` and push themselves onto the
environment's heap directly: a replay creates and fires millions of
them, and the firing order — ``(time, insertion counter)`` — is pinned
by ``tests/simkernel/test_golden_trace.py``.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.env import Environment

Callback = t.Callable[["Event"], None]

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time."""

    __slots__ = ("env", "callbacks", "processed", "_value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callback] = []
        self.processed = False
        self._value: t.Any = _PENDING

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def value(self) -> t.Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError("event value read before it triggered")
        return self._value

    def succeed(self, value: t.Any = None) -> "Event":
        """Trigger the event, scheduling its callbacks for *now*."""
        if self._value is not _PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        env = self.env
        heappush(env._heap, (env._now, next(env._counter), self))
        return self

    def _wait(self, callback: Callback) -> None:
        """Invoke *callback* when this event is processed (or now if done)."""
        if self.processed:
            callback(self)
        else:
            self.callbacks.append(callback)


def hand_off(event: Event, value: t.Any) -> None:
    """Process *event* in place with *value*: no heap push, its
    callbacks run now, inside the caller.

    How a callback cursor's process face (``yield done``) resumes the
    waiting process at the cursor's last callback, exactly where a
    returning ``yield from`` would have continued it.
    """
    event._value = value
    event.processed = True
    for callback in event.callbacks:
        callback(event)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: t.Any = None) -> None:
        # ``not >=`` also rejects NaN, which would put an unordered key
        # on the heap.
        if not delay >= 0:
            raise SimulationError(
                f"negative or NaN timeout delay: {delay}")
        # Event.__init__, inlined: born triggered, pushed in one step.
        self.env = env
        self.callbacks = []
        self.processed = False
        self._value = value
        self.delay = delay
        heappush(env._heap, (env._now + delay, next(env._counter), self))


class Now(Event):
    """An event pushed at ``now`` with one callback and *value*.

    A callback cursor's stand-in for a process's bootstrap or
    completion, or for a zero-delay timer: same time, a fresh tie key,
    so foreign events of the same instant interleave exactly as before.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", callback: Callback,
                 value: t.Any = None) -> None:
        # Event.__init__ and succeed(), inlined: a query pushes dozens.
        self.env = env
        self.callbacks = [callback]
        self.processed = False
        self._value = value
        heappush(env._heap, (env._now, next(env._counter), self))


class AllOf(Event):
    """An event that fires once every child event has been processed.

    Its value is the list of the children's values, in the order the
    children were given.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        # Event.__init__, inlined.
        self.env = env
        self.callbacks = []
        self.processed = False
        self._value = _PENDING
        events = self._events = list(events)
        # The constructor holds one count, released last.
        self._remaining = len(events) + 1
        on_child = self._on_child
        for event in events:
            event._wait(on_child)
        on_child(self)

    def _on_child(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._value = [event._value for event in self._events]
            env = self.env
            heappush(env._heap, (env._now, next(env._counter), self))


class AnyOf(Event):
    """An event that fires when the first of its children is processed."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        super().__init__(env)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for event in events:
            event._wait(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self.triggered:
            self.succeed(event.value)


class Race(Event):
    """An event that fires with the *index* of its first-processed child.

    Unlike :class:`AnyOf` — whose value is the winning child's value and
    therefore cannot distinguish children that carry no value — a Race
    tells the waiter *which* event won.  This is the primitive behind
    fault-handling control flow: racing a device read against a timeout
    (``0`` = the read landed, ``1`` = it timed out) or against a hedged
    duplicate read.  Ties are resolved by scheduling order, so a read
    completing exactly at its deadline still counts as a completion.
    The race holds the *events* sequence until it fires: do not
    mutate it meanwhile.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        if not events:
            raise SimulationError("Race requires at least one event")
        # Event.__init__, inlined.
        self.env = env
        self.callbacks = []
        self.processed = False
        self._value = _PENDING
        self._events = events
        on_child = self._on_child
        for event in events:
            event._wait(on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is _PENDING:
            # The first position holding the winner fires first.
            self._value = self._events.index(event)
            self._events = None       # no cycle with the losers
            env = self.env
            heappush(env._heap, (env._now, next(env._counter), self))
