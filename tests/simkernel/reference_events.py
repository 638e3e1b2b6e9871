"""``AllOf`` and ``Race`` as they stood before they were inlined.

The oracle of ``tests/simkernel/test_event_identity.py`` — do not
optimise.  :class:`AllOf` and :class:`Race` are the shipped classes
from before :mod:`repro.simkernel.events` inlined ``Event.__init__``
and the heap push into them and dropped the per-child closure of
``Race``, verbatim: every firing goes through ``Event.succeed`` and
every child wait through ``Event._wait``.  Never imported by ``src/``.
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError
from repro.simkernel.events import Callback, Event

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.env import Environment


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
