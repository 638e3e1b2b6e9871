"""The injection point: arming one node's device fault windows.

A :class:`FaultInjector` sits between :class:`~repro.storage.device.SimSSD`
and one node's :class:`~repro.faults.plan.FaultWindow` tuple
(:meth:`~repro.faults.ChaosSchedule.device_windows`).  The device
consults it once per *read* request at submission time; the injector
resolves the active windows into a composed
:class:`~repro.faults.plan.FaultEffect`, counts what it injected per
kind for later reconciliation, and hands the effect back for the
device to apply to that request's timing.  Writes are never faulted —
the paper's failure surface, and this repo's resilience machinery, is
the read path.

The injector is the *only* stateful piece of fault injection, and its
state is just the read ordinal counter plus attribution counters; each
window's sampling draw is a pure function of
(seed, window position, ordinal).
"""

from __future__ import annotations

import collections
import typing as t

from repro.faults.plan import FaultEffect, FaultWindow, _unit


class FaultInjector:
    """Resolves fault windows against the device's read stream.

    >>> from repro.faults.plan import LatencySpike
    >>> injector = FaultInjector((LatencySpike(0.0, 1.0),))
    >>> injector.on_read(now=0.5, offset=0, size=4096).kind
    'latency_spike'
    >>> injector.on_read(now=2.0, offset=0, size=4096) is None
    True
    >>> injector.summary()
    {'latency_spike': 1, 'reads_sampled': 2}
    """

    def __init__(self, windows: t.Sequence[FaultWindow], seed: int = 0,
                 telemetry: t.Any = None) -> None:
        """``seed`` keys every sampling draw; ``telemetry`` is an
        optional :class:`~repro.obs.telemetry.RunTelemetry`, where every
        injected fault is counted under ``fault_injected_<kind>``."""
        self.windows = tuple(windows)
        self.seed = seed
        self.telemetry = telemetry
        #: Read requests seen so far — the deterministic sampling key.
        self.ordinal = 0
        #: Injected fault counts by kind.
        self.injected: collections.Counter[str] = collections.Counter()

    def on_read(self, now: float, offset: int,
                size: int) -> FaultEffect | None:
        """The composed fault effect for the next read, or None.

        Called by the device once per read request, in submission order;
        advances the ordinal whether or not a fault fires, so the
        request stream alone determines the fault timeline.  Effects of
        overlapping windows compose in window order.
        """
        ordinal = self.ordinal
        self.ordinal += 1
        multiplier, extra = 1.0, 0.0
        kinds = []
        for position, window in enumerate(self.windows):
            if not window.active(now):
                continue
            effect = window.effect(_unit(self.seed, position, ordinal))
            if effect is None:
                continue
            multiplier *= effect.occupancy_multiplier
            extra += effect.extra_s
            kinds.append(effect.kind)
            self.injected[effect.kind] += 1
            if self.telemetry is not None:
                self.telemetry.on_fault(effect.kind)
        if not kinds:
            return None
        return FaultEffect("+".join(kinds), occupancy_multiplier=multiplier,
                           extra_s=extra)

    def summary(self) -> dict[str, int]:
        """Injected fault counts by kind (plus the total reads seen)."""
        out: dict[str, int] = dict(sorted(self.injected.items()))
        out["reads_sampled"] = self.ordinal
        return out
