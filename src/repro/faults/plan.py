"""Deterministic, seedable fault plans for the simulated device.

A :class:`FaultPlan` is a *schedule* of device misbehaviour laid out on
the run's simulated timeline: windows during which read requests suffer
latency spikes, tail amplification, transient errors, or bandwidth
throttling.  The plan is pure data — it never mutates — and every
probabilistic decision it makes is a deterministic function of
``(plan.seed, window position, request ordinal)``, so replaying the same
plan against the same request stream reproduces the *exact* same fault
timeline, byte for byte.  See ``docs/FAULT_MODEL.md`` for the full fault
model and its calibration rationale.

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

    >>> plan = FaultPlan.of(ReadError(0.5, 1.5, probability=0.5), seed=7)
    >>> plan.empty
    False
    >>> effects = plan.effects(now=1.0, ordinal=3)
    >>> [e.kind for e in effects] in ([], ["read_error"])
    True
    >>> plan.effects(now=1.0, ordinal=3) == effects   # deterministic
    True
    >>> plan.effects(now=2.0, ordinal=3)              # outside the window
    []
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import WorkloadError

#: All fault kinds a plan can schedule (the ``kind`` of each effect).
FAULT_KINDS = ("latency_spike", "tail_amplification", "read_error",
               "throttle")


def _unit(seed: int, window: int, ordinal: int) -> float:
    """A deterministic unit float from (seed, window, ordinal).

    A splitmix64 finalizer over the packed inputs: stateless, so fault
    sampling never depends on Python hash randomization or on any RNG
    stream position — only on the plan seed and the request's identity.
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
        if self.start_s < 0 or self.end_s <= self.start_s:
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
        if self.extra_s <= 0:
            raise WorkloadError(f"bad spike extra_s: {self.extra_s}")

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
        if self.multiplier < 1.0:
            raise WorkloadError(f"bad multiplier: {self.multiplier}")
        if not 0.0 < self.probability <= 1.0:
            raise WorkloadError(f"bad probability: {self.probability}")

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
        if not 0.0 < self.probability <= 1.0:
            raise WorkloadError(f"bad probability: {self.probability}")
        if self.stall_s <= 0:
            raise WorkloadError(f"bad stall_s: {self.stall_s}")

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
        if not 0.0 < self.bandwidth_fraction <= 1.0:
            raise WorkloadError(
                f"bad bandwidth_fraction: {self.bandwidth_fraction}")

    @property
    def kind(self) -> str:
        return "throttle"

    def effect(self, unit: float) -> FaultEffect | None:
        return FaultEffect(
            self.kind, occupancy_multiplier=1.0 / self.bandwidth_fraction)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seedable schedule of fault windows on the run timeline.

    The plan is replayed from ``seed``: every sampling decision is a
    pure function of (seed, window position, read ordinal), so two runs
    with the same plan and the same request stream inject the *same*
    faults at the same requests.  An empty plan (no windows) is
    guaranteed to leave the simulation bit-identical to running with no
    plan at all — the regression tests assert it.
    """

    windows: tuple[FaultWindow, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        for window in self.windows:
            if not isinstance(window, FaultWindow):
                raise WorkloadError(
                    f"fault plan holds a non-window: {window!r}")

    @classmethod
    def of(cls, *windows: FaultWindow, seed: int = 0) -> "FaultPlan":
        """Build a plan from windows given positionally."""
        return cls(tuple(windows), seed)

    @property
    def empty(self) -> bool:
        """True when the plan schedules no fault windows."""
        return not self.windows

    @property
    def end_s(self) -> float:
        """When the last window closes (0.0 for an empty plan)."""
        return max((w.end_s for w in self.windows), default=0.0)

    def effects(self, now: float, ordinal: int) -> list[FaultEffect]:
        """All fault effects hitting read *ordinal* at time *now*.

        Deterministic: same (plan, now, ordinal) always returns the
        same effects, in window order.
        """
        out = []
        for position, window in enumerate(self.windows):
            if window.active(now):
                effect = window.effect(
                    _unit(self.seed, position, ordinal))
                if effect is not None:
                    out.append(effect)
        return out

    def describe(self) -> list[dict[str, t.Any]]:
        """The plan as plain dicts (reports, serialization)."""
        return [dict(kind=w.kind, **dataclasses.asdict(w))
                for w in self.windows]
