"""Resilience policy: surviving device misbehaviour on the read path.

A :class:`ResiliencePolicy` configures the three host-side defences the
benchmark runner can deploy against an injected (or, in a real
deployment, naturally occurring) fault timeline:

* **timeout + retry** — each demand read round races a deadline; on
  timeout the round is resubmitted after exponential backoff with
  deterministic jitter, re-sampling the fault (a transient stall almost
  never hits the retry too).  After ``max_retries`` resubmissions the
  round fails with :class:`~repro.errors.FaultError`.  An optional
  ``query_deadline_s`` makes the loop deadline-aware: a retry whose
  backoff alone pushes it past the query's deadline is abandoned
  immediately (``deadline_abandons``) instead of burning time on an
  already-missed deadline;
* **hedged reads** — after ``hedge_after_s`` (typically the healthy
  device's P99 round time) a duplicate of the round is submitted and
  the first completion wins, cutting per-request tail amplification;
* **graceful degradation** — under sustained pressure (consecutive
  queries over ``latency_budget_s``) subsequent queries replay a plan
  compiled with shrunken search parameters (DiskANN ``beam_width`` /
  ``search_list``, SPANN ``nprobe``), trading a little recall for a
  bounded tail; pressure release restores the full parameters.  The run
  result reports the substituted parameters and the degraded-query
  ratio as a :class:`~repro.errors.DegradedResult`.

All knobs are optional and default off; a default-constructed policy is
inert.  Example::

    >>> policy = ResiliencePolicy(read_timeout_s=0.002, max_retries=3)
    >>> policy.active
    True
    >>> policy.backoff_s(attempt=1, token=0) <= policy.backoff_cap_s
    True
    >>> ResiliencePolicy().active
    False
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import WorkloadError
from repro.faults.plan import _unit


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Host-side defences applied on the replayed read path."""

    #: Deadline for one demand read round; None disables timeouts.
    read_timeout_s: float | None = None
    #: Resubmissions after timeout before the round fails.
    max_retries: int = 3
    #: First backoff delay; doubles per retry up to ``backoff_cap_s``.
    backoff_base_s: float = 0.0005
    backoff_cap_s: float = 0.008
    #: Fraction of each backoff randomized (deterministically, from
    #: ``seed``) to decorrelate retry storms across clients.
    backoff_jitter: float = 0.5
    #: Submit a duplicate round after this delay; None disables hedging.
    hedge_after_s: float | None = None
    #: Whole-query completion deadline; retries that provably cannot
    #: finish before it are abandoned instead of scheduled (counted as
    #: ``deadline_abandons``).  None disables the check.
    query_deadline_s: float | None = None
    #: Enable parameter degradation under sustained pressure.
    degrade: bool = False
    #: Per-query latency above which a completion counts as pressure.
    latency_budget_s: float | None = None
    #: Consecutive over-budget completions that trigger degraded mode.
    degrade_after: int = 4
    #: Consecutive within-budget completions that restore full params.
    recover_after: int = 16
    #: Degraded mode shrinks the run's search params by this factor
    #: (see :func:`degraded_search_params`).
    degrade_factor: float = 0.5
    #: Jitter seed (composed with attempt ordinals).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.read_timeout_s is not None and self.read_timeout_s <= 0:
            raise WorkloadError(
                f"read_timeout_s must be positive: {self.read_timeout_s}")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise WorkloadError(
                f"hedge_after_s must be positive: {self.hedge_after_s}")
        if self.query_deadline_s is not None and self.query_deadline_s <= 0:
            raise WorkloadError(
                f"query_deadline_s must be positive: "
                f"{self.query_deadline_s}")
        if self.max_retries < 0:
            raise WorkloadError(f"max_retries < 0: {self.max_retries}")
        if (self.backoff_base_s < 0 or self.backoff_cap_s < 0
                or not 0.0 <= self.backoff_jitter <= 1.0):
            raise WorkloadError(f"bad backoff config: {self}")
        if self.degrade:
            if self.latency_budget_s is None or self.latency_budget_s <= 0:
                raise WorkloadError(
                    "degrade=True needs a positive latency_budget_s")
            if self.degrade_after < 1 or self.recover_after < 1:
                raise WorkloadError(f"bad degrade thresholds: {self}")
            if not 0.0 < self.degrade_factor < 1.0:
                raise WorkloadError(
                    f"degrade_factor must be in (0, 1): "
                    f"{self.degrade_factor}")

    @property
    def active(self) -> bool:
        """Whether any defence is switched on."""
        return (self.read_timeout_s is not None
                or self.hedge_after_s is not None
                or self.query_deadline_s is not None or self.degrade)

    def backoff_s(self, attempt: int, token: int) -> float:
        """Backoff before resubmission *attempt* (1-based).

        Exponential with cap, plus deterministic jitter derived from
        (seed, token): ``token`` is any per-retry unique integer (the
        runner uses a global retry ordinal), so two clients backing off
        at the same instant desynchronize.
        """
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** max(0, attempt - 1)))
        if self.backoff_jitter == 0.0:
            return base
        draw = _unit(self.seed, 0xBACC0FF, token)
        return base * (1.0 - self.backoff_jitter / 2.0
                       + self.backoff_jitter * draw)


class PressureTracker:
    """Hysteresis state machine driving graceful degradation.

    Fed one call per completed (or failed) query, it decides whether the
    *next* queries should replay the degraded plan.  Entry and exit are
    both debounced: ``degrade_after`` consecutive over-budget
    completions (a failed query always counts as over budget) switch
    degradation on, ``recover_after`` consecutive within-budget
    completions switch it back off — so a single latency blip neither
    engages nor releases the defence.

    >>> policy = ResiliencePolicy(degrade=True, latency_budget_s=0.01,
    ...                           degrade_after=2, recover_after=2)
    >>> tracker = PressureTracker(policy)
    >>> for _ in range(2):
    ...     tracker.on_completion(0.05)
    >>> tracker.degraded
    True
    >>> for _ in range(2):
    ...     tracker.on_completion(0.001)
    >>> tracker.degraded
    False
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        if not policy.degrade:
            raise WorkloadError(
                "PressureTracker needs a policy with degrade=True")
        self.policy = policy
        #: Whether queries should currently replay the degraded plan.
        self.degraded = False
        #: Mode switches over the run (entering or leaving degradation).
        self.transitions = 0
        self._over = 0
        self._under = 0

    def on_completion(self, latency_s: float,
                      failed: bool = False) -> None:
        """Fold one finished query into the pressure estimate."""
        policy = self.policy
        if failed or latency_s > policy.latency_budget_s:
            self._over += 1
            self._under = 0
            if not self.degraded and self._over >= policy.degrade_after:
                self.degraded = True
                self.transitions += 1
                self._over = 0
        else:
            self._under += 1
            self._over = 0
            if self.degraded and self._under >= policy.recover_after:
                self.degraded = False
                self.transitions += 1
                self._under = 0


def degraded_search_params(index_kind: str, params: dict[str, t.Any],
                           factor: float, k: int) -> dict[str, t.Any]:
    """The shrunken search-parameter set for one index kind.

    DiskANN and SPANN define their own shrink rules (see
    ``DiskANNIndex.degrade_search_params`` /
    ``SPANNIndex.degrade_search_params``); other kinds fall back to
    scaling the well-known breadth knobs (``ef_search``, ``nprobe``)
    with sane floors.  Unknown knobs pass through untouched, so
    cache/prefetch settings survive degradation.
    """
    if index_kind == "diskann":
        from repro.ann.diskann import DiskANNIndex
        return DiskANNIndex.degrade_search_params(params, factor, k)
    if index_kind == "spann":
        from repro.ann.spann import SPANNIndex
        return SPANNIndex.degrade_search_params(params, factor, k)
    out = dict(params)
    if "ef_search" in out:
        out["ef_search"] = max(k, int(out["ef_search"] * factor))
    if "nprobe" in out:
        out["nprobe"] = max(1, int(out["nprobe"] * factor))
    return out
