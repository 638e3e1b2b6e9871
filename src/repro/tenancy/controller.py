"""The closed quality loop: a degradation ladder and an SLO controller.

The faults layer already knows how to shrink one query's breadth knobs
under device pressure (:func:`repro.faults.degraded_search_params`);
the tenancy layer generalizes that reflex into a *per-tenant* policy:

* :func:`build_ladder` precompiles a **degradation ladder** — level 0
  is the contracted search-parameter set, level ``i`` applies the
  shrink rule ``i`` times — capturing each level's cold/warm plans and
  its functionally measured recall.  Degradation at runtime is then a
  pure table lookup: no mid-simulation compilation, and every level's
  recall is known *before* the controller is allowed to use it, which
  is how the hard recall floor is enforced by construction.
* :class:`SloController` closes the loop each control interval with
  AIMD semantics: sustained SLO pressure shrinks a tenant one level
  (multiplicative, since each level multiplies the breadth knobs by
  ``factor``), sustained calm restores one level (additive).  Streaks
  must be *consecutive* — any mixed interval resets both counters —
  which is the anti-flap hysteresis.

Priority classes bias the watermarks: ``batch`` tenants degrade at
lower pressure and restore later than ``interactive`` ones, so the
cheap-to-hurt tenants absorb the first wave of load.

>>> cfg = SloControllerConfig(degrade_after=2, restore_after=2,
...                           min_observations=1)
>>> ctl = SloController(cfg, max_levels=(2,), priorities=("standard",))
>>> hot = IntervalObservation(completions=8, p95_latency_s=0.5, backlog=0)
>>> ctl.observe(0, hot, slo_s=0.1), ctl.observe(0, hot, slo_s=0.1)
(0, 1)
>>> ctl.level(0)
1
>>> calm = IntervalObservation(completions=8, p95_latency_s=0.01, backlog=0)
>>> ctl.observe(0, calm, slo_s=0.1), ctl.observe(0, calm, slo_s=0.1)
(0, -1)
>>> ctl.level(0)
0
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import TenancyError, require_int, require_real
from repro.faults.resilience import degraded_search_params
from repro.tenancy.registry import PRIORITIES

if t.TYPE_CHECKING:
    from repro.workload.runner import BenchRunner

#: Watermark multiplier per priority class: < 1 degrades sooner and
#: restores later, > 1 shields the tenant until its own SLO burns.
PRIORITY_BIAS = {"interactive": 1.25, "standard": 1.0, "batch": 0.75}


@dataclasses.dataclass(frozen=True)
class LadderLevel:
    """One precompiled rung: params, plans, and measured recall."""

    level: int
    params: dict[str, t.Any]
    cold: list
    warm: list
    recall: float | None


@dataclasses.dataclass(frozen=True)
class DegradationLadder:
    """The precompiled quality/latency trade-off, level 0 = contract."""

    index_kind: str
    factor: float
    levels: tuple[LadderLevel, ...]

    @property
    def deepest(self) -> int:
        return len(self.levels) - 1

    def max_level_for(self, recall_floor: float) -> int:
        """The deepest level whose measured recall honors *recall_floor*.

        A floor the *contracted* level 0 cannot satisfy is a broken
        contract, reported eagerly; with no ground truth (recall
        unknown) only a zero floor is enforceable.
        """
        if recall_floor <= 0.0:
            return self.deepest
        if self.levels[0].recall is None:
            raise TenancyError(
                "recall floors need ground truth; this runner compiled "
                "no recall")
        if self.levels[0].recall < recall_floor:
            raise TenancyError(
                f"recall floor {recall_floor} exceeds the contracted "
                f"level-0 recall {self.levels[0].recall:.3f}")
        allowed = 0
        for lvl in self.levels:
            if lvl.recall is not None and lvl.recall >= recall_floor:
                allowed = lvl.level
            else:
                break
        return allowed


def build_ladder(runner: "BenchRunner", params: dict[str, t.Any],
                 factor: float = 0.5, max_levels: int = 3,
                 ) -> DegradationLadder:
    """Precompile the degradation ladder for *runner* under *params*.

    Stops early when the shrink rule hits its floors (two consecutive
    levels with identical parameters add nothing), so the ladder never
    carries dead rungs.
    """
    require_real(TenancyError, "degrade factor", factor, above=0, below=1)
    require_int(TenancyError, "max_levels", max_levels, 1)
    kind = runner.collection.index_spec.kind
    levels: list[LadderLevel] = []
    current = dict(params)
    for level in range(max_levels + 1):
        if level > 0:
            shrunk = degraded_search_params(kind, current, factor,
                                            runner.k)
            if shrunk == current:
                break
            current = shrunk
        cold, warm, recall = runner._compile(dict(current))
        levels.append(LadderLevel(level=level, params=dict(current),
                                  cold=cold, warm=warm, recall=recall))
    return DegradationLadder(index_kind=kind, factor=factor,
                             levels=tuple(levels))


@dataclasses.dataclass(frozen=True)
class IntervalObservation:
    """One tenant's view of one control interval."""

    completions: int
    #: P95 arrival->completion latency of this interval's completions;
    #: meaningless (and unused) when ``completions`` is 0.
    p95_latency_s: float
    #: Admitted queries still queued or in flight at interval end.
    backlog: int


#: An interval is *hot* when p95 latency exceeds ``HIGH_WATER * slo *
#: bias`` (the SLO itself: react to violations, not to a margin) ...
HIGH_WATER = 1.0
#: ... and *calm* only under ``LOW_WATER * slo * bias``; the band in
#: between is the latency hysteresis, wide enough to absorb the
#: latency a one-level restore gives back.
LOW_WATER = 0.5


@dataclasses.dataclass(frozen=True)
class SloControllerConfig:
    """Knobs of the per-tenant AIMD quality controller."""

    #: Control interval (simulated seconds between wake-ups).
    interval_s: float = 0.05
    #: Consecutive hot intervals before a one-level shrink.
    degrade_after: int = 2
    #: Consecutive calm intervals before a one-level restore.
    restore_after: int = 6
    #: Minimum completions for a latency-based verdict; quieter
    #: intervals can still go hot on backlog runaway.
    min_observations: int = 4

    def __post_init__(self) -> None:
        require_real(TenancyError, "interval", self.interval_s, above=0)
        for name in ("degrade_after", "restore_after", "min_observations"):
            require_int(TenancyError, name, getattr(self, name), 1)


class SloController:
    """Per-tenant AIMD level state machine with anti-flap hysteresis."""

    def __init__(self, config: SloControllerConfig,
                 max_levels: t.Sequence[int],
                 priorities: t.Sequence[str]) -> None:
        if len(max_levels) != len(priorities):
            raise TenancyError("max_levels and priorities must align")
        for priority in priorities:
            if priority not in PRIORITIES:
                raise TenancyError(f"unknown priority {priority!r}")
        self.config = config
        self._max = list(max_levels)
        self._bias = [PRIORITY_BIAS[p] for p in priorities]
        self._level = [0] * len(max_levels)
        self._hot = [0] * len(max_levels)
        self._calm = [0] * len(max_levels)
        #: Shrinks refused because the tenant sat at its floor level.
        self.floor_capped = 0

    def level(self, tenant: int) -> int:
        """The tenant's current ladder level."""
        return self._level[tenant]

    def levels(self) -> tuple[int, ...]:
        return tuple(self._level)

    def observe(self, tenant: int, obs: IntervalObservation,
                slo_s: float) -> int:
        """Fold one interval in; returns the level delta (-1, 0, +1)."""
        cfg = self.config
        bias = self._bias[tenant]
        measured = obs.completions >= cfg.min_observations
        runaway = obs.backlog > 2 * max(1, obs.completions)
        hot = (measured and obs.p95_latency_s
               > HIGH_WATER * slo_s * bias) or runaway
        calm = (measured
                and obs.p95_latency_s < LOW_WATER * slo_s * bias
                and obs.backlog <= obs.completions)
        if hot:
            self._calm[tenant] = 0
            self._hot[tenant] += 1
            if self._hot[tenant] >= cfg.degrade_after:
                self._hot[tenant] = 0
                if self._level[tenant] < self._max[tenant]:
                    self._level[tenant] += 1
                    return 1
                self.floor_capped += 1
        elif calm:
            self._hot[tenant] = 0
            self._calm[tenant] += 1
            if self._calm[tenant] >= cfg.restore_after:
                self._calm[tenant] = 0
                if self._level[tenant] > 0:
                    self._level[tenant] -= 1
                    return -1
        else:
            # Mixed interval: both streaks reset — the hysteresis that
            # keeps the level from flapping on borderline load.
            self._hot[tenant] = 0
            self._calm[tenant] = 0
        return 0
