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


class AllOf(Event):
    """An event that fires once every child event has been processed.

    Its value is the list of the children's values, in the order the
    children were given.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            event._wait(self._on_child)

    def _on_child(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([event.value for event in self._events])


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
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        super().__init__(env)
        if not events:
            raise SimulationError("Race requires at least one event")
        for position, event in enumerate(events):
            event._wait(self._make_callback(position))

    def _make_callback(self, position: int) -> Callback:
        def on_child(_event: Event) -> None:
            if not self.triggered:
                self.succeed(position)
        return on_child
