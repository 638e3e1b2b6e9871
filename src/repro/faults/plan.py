"""Device fault windows: timed misbehaviour of the simulated SSD.

A :class:`FaultWindow` is one ``[start_s, end_s)`` span of device
misbehaviour on the run's simulated timeline, during which read
requests suffer latency spikes, tail amplification, transient errors,
or bandwidth throttling.  Windows are pure data — they never mutate —
and a caller never arms them one by one: they ride in a
:class:`~repro.faults.ChaosSchedule` as ``(node, window)`` device
faults, and the device's :class:`~repro.faults.FaultInjector` draws
every probabilistic decision as a deterministic function of
``(schedule seed, window position on the node, request ordinal)``
(:func:`_unit`), so replaying the same schedule against the same
request stream reproduces the *exact* same fault timeline, byte for
byte.  See ``docs/FAULT_MODEL.md`` for the full fault model and its
calibration rationale.

Fault windows model the device pathologies behind the paper's tail
behaviour:

* :class:`LatencySpike` — a garbage-collection / internal-housekeeping
  episode: every read completing in the window takes a fixed extra
  latency (the Figure 3 P99 cliffs, compressed into a window);
* :class:`TailAmplification` — per-request tail inflation: a sampled
  fraction of reads takes ``multiplier``x their media occupancy (NAND
  read retries, die contention);
* :class:`ReadError` — transient uncorrectable reads: a sampled read
  stalls for ``stall_s`` of device-internal recovery before completing
  (the host-visible symptom of an SSD ECC retry storm);
* :class:`Throttle` — thermal or background-write throttling: all reads
  in the window see their channel occupancy scaled by
  ``1 / bandwidth_fraction``, capping effective device bandwidth.

Example::

    >>> window = ReadError(0.5, 1.5, probability=0.5)
    >>> window.active(1.0), window.active(2.0)
    (True, False)
    >>> window.effect(unit=0.25).kind      # the draw fell under p
    'read_error'
    >>> window.effect(unit=0.75) is None   # it did not
    True
"""

from __future__ import annotations

import dataclasses

from repro.errors import WorkloadError, require_real

#: All device fault kinds a window can inject (the ``kind`` of each effect).
FAULT_KINDS = ("latency_spike", "tail_amplification", "read_error",
               "throttle")


def _unit(seed: int, window: int, ordinal: int) -> float:
    """A deterministic unit float from (seed, window, ordinal).

    A splitmix64 finalizer over the packed inputs: stateless, so fault
    sampling never depends on Python hash randomization or on any RNG
    stream position — only on the schedule seed and the request's
    identity.
    """
    x = (seed * 0x9E3779B97F4A7C15 + window * 0xBF58476D1CE4E5B9
         + ordinal + 1) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x / 2.0 ** 64


@dataclasses.dataclass(frozen=True)
class FaultEffect:
    """What one fault window does to one read request.

    Effects compose multiplicatively (occupancy) and additively (extra
    completion latency) when several windows overlap.
    """

    kind: str
    #: Channel-occupancy multiplier (>= 1.0): throttle, amplification.
    occupancy_multiplier: float = 1.0
    #: Extra seconds added to the request's completion: spikes, stalls.
    extra_s: float = 0.0


class TimeWindow:
    """``[start_s, end_s)`` on the simulated timeline: the one copy of
    span validation and the activity test, mixed into every fault
    window (device windows, node kills, partitions, gray failures)."""

    start_s: float
    end_s: float

    def _check_span(self, what: str) -> None:
        # A NaN bound would leave the window silently never active.
        require_real(WorkloadError, f"{what} window start_s", self.start_s,
                     at_least=0)
        require_real(WorkloadError, f"{what} window end_s", self.end_s)
        if not self.start_s < self.end_s:
            raise WorkloadError(
                f"bad {what} window [{self.start_s}, {self.end_s})")

    def active(self, now: float) -> bool:
        """Whether the window covers simulated time *now*."""
        return self.start_s <= now < self.end_s


@dataclasses.dataclass(frozen=True)
class FaultWindow(TimeWindow):
    """Base class: one timed window of device misbehaviour."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        self._check_span("fault")

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def effect(self, unit: float) -> FaultEffect | None:
        """The effect on a read given its sampling draw, or None."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class LatencySpike(FaultWindow):
    """Every read completing in the window takes ``extra_s`` longer."""

    extra_s: float = 0.001

    def __post_init__(self) -> None:
        super().__post_init__()
        require_real(WorkloadError, "spike extra_s", self.extra_s, above=0)

    @property
    def kind(self) -> str:
        return "latency_spike"

    def effect(self, unit: float) -> FaultEffect | None:
        return FaultEffect(self.kind, extra_s=self.extra_s)


@dataclasses.dataclass(frozen=True)
class TailAmplification(FaultWindow):
    """A sampled fraction of reads takes ``multiplier``x its occupancy."""

    multiplier: float = 8.0
    probability: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        require_real(WorkloadError, "multiplier", self.multiplier,
                     at_least=1)
        require_real(WorkloadError, "probability", self.probability,
                     above=0, at_most=1)

    @property
    def kind(self) -> str:
        return "tail_amplification"

    def effect(self, unit: float) -> FaultEffect | None:
        if unit < self.probability:
            return FaultEffect(self.kind,
                               occupancy_multiplier=self.multiplier)
        return None


@dataclasses.dataclass(frozen=True)
class ReadError(FaultWindow):
    """A sampled read stalls ``stall_s`` in device-internal recovery.

    The device eventually returns the data (transient fault), but the
    host sees a read that takes tens of milliseconds instead of tens of
    microseconds — exactly the case host-level timeouts + retries beat,
    because a resubmitted read re-samples the fault and almost always
    lands on a healthy path.
    """

    probability: float = 0.01
    stall_s: float = 0.025

    def __post_init__(self) -> None:
        super().__post_init__()
        require_real(WorkloadError, "probability", self.probability,
                     above=0, at_most=1)
        require_real(WorkloadError, "stall_s", self.stall_s, above=0)

    @property
    def kind(self) -> str:
        return "read_error"

    def effect(self, unit: float) -> FaultEffect | None:
        if unit < self.probability:
            return FaultEffect(self.kind, extra_s=self.stall_s)
        return None


@dataclasses.dataclass(frozen=True)
class Throttle(FaultWindow):
    """Device bandwidth capped to ``bandwidth_fraction`` of nominal."""

    bandwidth_fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        require_real(WorkloadError, "bandwidth_fraction",
                     self.bandwidth_fraction, above=0, at_most=1)

    @property
    def kind(self) -> str:
        return "throttle"

    def effect(self, unit: float) -> FaultEffect | None:
        return FaultEffect(
            self.kind, occupancy_multiplier=1.0 / self.bandwidth_fraction)
