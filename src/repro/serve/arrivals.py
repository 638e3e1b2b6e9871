"""Seeded open-loop arrival processes: the offered-load side of serving.

The paper's methodology (Section III-B) — and
:meth:`~repro.workload.runner.BenchRunner.run` — is *closed-loop*: N
client threads each keep exactly one query in flight, so the arrival of
the next query waits for the completion of the previous one and the
offered load self-throttles at saturation.  A production service faces
*open-loop* traffic: users issue queries independently of how busy the
backend is, so when offered load exceeds capacity the queue grows
without bound instead of the QPS curve politely flattening.

Three generator families, all seeded and deterministic:

* :class:`PoissonArrivals` — memoryless arrivals at a constant mean
  rate λ, the M/G/k baseline of open-loop analysis;
* :class:`BurstyArrivals` — a two-state Markov-modulated Poisson
  process (calm rate / burst rate with exponential state holding
  times), the standard model for flash crowds;
* :class:`DiurnalArrivals` — an inhomogeneous Poisson process whose
  rate swings sinusoidally between a trough and a peak (one "day" per
  ``period_s``), sampled exactly by Lewis–Shedler thinning; the slow
  tide the tenancy autopilot's placement tier surfs.

``timeline()`` materializes the whole arrival schedule up front (one
sorted tuple of seconds), so a serve run's schedule is a pure function
of (model, duration, seed) — replaying it is bit-identical.

>>> PoissonArrivals(rate_qps=1000.0).timeline(0.0013, seed=7)
(0.0006950315675043658, 0.001017069141456395, 0.001294730435567306)
>>> PoissonArrivals(rate_qps=1000.0).mean_qps
1000.0
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.errors import ServeError, require_real


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent, reproducible generator per (seed, stream...)."""
    return np.random.default_rng((0x5E17E, seed) + stream)


@dataclasses.dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at a constant mean rate of *rate_qps*.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate_qps``
    — the textbook open-loop client population.
    """

    rate_qps: float

    def __post_init__(self) -> None:
        require_real(ServeError, "arrival rate", self.rate_qps, above=0)

    @property
    def mean_qps(self) -> float:
        """Long-run offered load, queries per second."""
        return self.rate_qps

    def timeline(self, duration_s: float, seed: int = 0,
                 stream: int = 0) -> tuple[float, ...]:
        """Arrival times in ``[0, duration_s)``, sorted ascending."""
        require_real(ServeError, "duration", duration_s, above=0)
        rng = _rng(seed, stream)
        # Draw in chunks: the count over the window is ~Poisson(rate*T).
        times: list[float] = []
        now = 0.0
        chunk = max(16, int(self.rate_qps * duration_s * 1.2))
        while now < duration_s:
            gaps = rng.exponential(1.0 / self.rate_qps, size=chunk)
            for gap in gaps:
                now += float(gap)
                if now >= duration_s:
                    break
                times.append(now)
        return tuple(times)


@dataclasses.dataclass(frozen=True)
class BurstyArrivals:
    """A two-state Markov-modulated Poisson process (MMPP-2).

    The source alternates between a *calm* state (``base_qps``) and a
    *burst* state (``burst_qps``), holding each for an exponentially
    distributed time (means ``mean_calm_s`` / ``mean_burst_s``).
    Memorylessness lets the per-state gap draw restart at each state
    switch without biasing the process.
    """

    base_qps: float
    burst_qps: float
    mean_calm_s: float = 0.2
    mean_burst_s: float = 0.05

    def __post_init__(self) -> None:
        require_real(ServeError, "calm arrival rate", self.base_qps, above=0)
        require_real(ServeError, "burst arrival rate", self.burst_qps, above=0)
        require_real(ServeError, "calm holding time",
                     self.mean_calm_s, above=0)
        require_real(ServeError, "burst holding time",
                     self.mean_burst_s, above=0)

    @property
    def mean_qps(self) -> float:
        """Long-run offered load: rates weighted by state occupancy."""
        total = self.mean_calm_s + self.mean_burst_s
        return (self.base_qps * self.mean_calm_s
                + self.burst_qps * self.mean_burst_s) / total

    def timeline(self, duration_s: float, seed: int = 0,
                 stream: int = 0) -> tuple[float, ...]:
        """Arrival times in ``[0, duration_s)``, sorted ascending."""
        require_real(ServeError, "duration", duration_s, above=0)
        rng = _rng(seed, stream)
        times: list[float] = []
        now = 0.0
        burst = False
        switch_at = float(rng.exponential(self.mean_calm_s))
        while now < duration_s:
            rate = self.burst_qps if burst else self.base_qps
            gap = float(rng.exponential(1.0 / rate))
            if now + gap >= switch_at:
                # State switch preempts the pending draw; the
                # exponential's memorylessness makes the redraw exact.
                now = switch_at
                burst = not burst
                switch_at += float(rng.exponential(
                    self.mean_burst_s if burst else self.mean_calm_s))
                continue
            now += gap
            if now < duration_s:
                times.append(now)
        return tuple(times)


@dataclasses.dataclass(frozen=True)
class DiurnalArrivals:
    """A sinusoidally modulated Poisson process (one tide per period).

    The instantaneous rate swings between ``trough_qps`` and
    ``peak_qps`` with period ``period_s``; ``phase`` (in periods)
    shifts where in the cycle the run starts, so a fleet of tenants
    can peak at different times of "day".  Sampling is exact
    Lewis–Shedler thinning: candidates are drawn from a homogeneous
    envelope at ``peak_qps`` and kept with probability
    ``rate(t)/peak_qps`` — one uniform per candidate, so the timeline
    stays a pure function of (model, duration, seed, stream).

    >>> tide = DiurnalArrivals(peak_qps=2000.0, trough_qps=200.0,
    ...                        period_s=0.5)
    >>> tide.mean_qps
    1100.0
    >>> len(tide.timeline(0.01, seed=7))
    6
    >>> round(tide.rate_at(0.125), 1)   # crest of the first period
    2000.0
    """

    peak_qps: float
    trough_qps: float
    period_s: float = 1.0
    #: Start offset within the cycle, in fractions of a period.
    phase: float = 0.0

    def __post_init__(self) -> None:
        require_real(ServeError, "trough arrival rate",
                     self.trough_qps, above=0)
        require_real(ServeError, "peak arrival rate", self.peak_qps, above=0)
        if self.peak_qps < self.trough_qps:
            raise ServeError(
                f"need peak >= trough > 0: {self.peak_qps}, "
                f"{self.trough_qps}")
        require_real(ServeError, "period", self.period_s, above=0)
        require_real(ServeError, "phase", self.phase)

    @property
    def mean_qps(self) -> float:
        """Long-run offered load: the sinusoid averages to its midline."""
        return (self.peak_qps + self.trough_qps) / 2.0

    def rate_at(self, now_s: float) -> float:
        """Instantaneous arrival rate at *now_s*."""
        swing = (self.peak_qps - self.trough_qps) / 2.0
        angle = 2.0 * np.pi * (now_s / self.period_s + self.phase)
        return self.trough_qps + swing * (1.0 + float(np.sin(angle)))

    def timeline(self, duration_s: float, seed: int = 0,
                 stream: int = 0) -> tuple[float, ...]:
        """Arrival times in ``[0, duration_s)``, sorted ascending."""
        require_real(ServeError, "duration", duration_s, above=0)
        rng = _rng(seed, stream)
        times: list[float] = []
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / self.peak_qps))
            if now >= duration_s:
                break
            if float(rng.uniform()) * self.peak_qps <= self.rate_at(now):
                times.append(now)
        return tuple(times)


ArrivalModel = t.Union[PoissonArrivals, BurstyArrivals, DiurnalArrivals]
