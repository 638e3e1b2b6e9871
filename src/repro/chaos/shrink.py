"""Delta-debugging shrinker: minimize a violating chaos schedule.

Given a :class:`~repro.faults.ChaosSchedule` whose run violates
an invariant, :func:`shrink_schedule` searches for a *minimal* fault
subset that still violates it, using Zeller's classic ddmin algorithm
over the schedule's flattened elements: repeatedly try removing chunks
(then complements of chunks) at finer and finer granularity, keeping
any reduction that still reproduces the violation.  The result is
1-minimal — removing any single remaining element makes the violation
disappear — which turns a noisy composed schedule ("kill + partition +
gray + device faults, somewhere in there") into the one or two faults
that actually matter.

Determinism carries through: sub-schedules keep the schedule's seed
(:meth:`~repro.faults.ChaosSchedule.with_elements`), and the
violation predicate re-runs the same deterministic harness, so the
shrink is reproducible and the reported reproducer really does violate
the invariant when replayed.

Example (shrinking over a toy predicate that needs element 3)::

    >>> from repro.faults import ChaosSchedule, NodeKill
    >>> sched = ChaosSchedule(
    ...     kills=[NodeKill(n, 0.0, 1.0) for n in range(4)])
    >>> def violates(sub):
    ...     return any(k.node == 3 for k in sub.kills)
    >>> minimal, probes = shrink_schedule(sched, violates)
    >>> [(tag, e.node) for tag, e in minimal.elements()]
    [('kill', 3)]
    >>> violates(minimal)
    True
"""

from __future__ import annotations

import typing as t

from repro.errors import WorkloadError
from repro.faults.schedule import ChaosElement, ChaosSchedule


def _chunks(elements: list, n: int) -> list[list]:
    """Split *elements* into *n* near-equal contiguous chunks."""
    size, rem = divmod(len(elements), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < rem else 0)
        out.append(elements[start:end])
        start = end
    return [c for c in out if c]


def shrink_elements(elements: list[ChaosElement],
                    violates: t.Callable[[list[ChaosElement]], bool],
                    ) -> tuple[list[ChaosElement], int]:
    """ddmin over raw elements; returns (minimal subset, probe count).

    *violates* must be deterministic and must hold for *elements*
    itself (checked).  The returned subset is 1-minimal with respect
    to *violates*.
    """
    probes = 0

    def probe(subset: list[ChaosElement]) -> bool:
        nonlocal probes
        probes += 1
        return violates(subset)

    if not probe(list(elements)):
        raise WorkloadError(
            "shrink_elements needs a violating schedule to start from")
    current = list(elements)
    n = 2
    while len(current) >= 2:
        chunks = _chunks(current, n)
        reduced = False
        # Try each chunk alone, then each complement.
        for candidate in chunks + [
                [e for c in chunks if c is not chunk for e in c]
                for chunk in chunks]:
            if len(candidate) == len(current) or not candidate:
                continue
            if probe(candidate):
                current = candidate
                n = max(2, min(n - 1, len(current)))
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), 2 * n)
    return current, probes


def shrink_schedule(schedule: ChaosSchedule,
                    violates: t.Callable[[ChaosSchedule], bool],
                    ) -> tuple[ChaosSchedule, int]:
    """ddmin over a schedule; returns (minimal schedule, probe count)."""
    minimal, probes = shrink_elements(
        schedule.elements(),
        lambda subset: violates(schedule.with_elements(subset)))
    return schedule.with_elements(minimal), probes
