"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the failure domain.  The full hierarchy is
documented in ``docs/ARCHITECTURE.md`` ("Error hierarchy").

Example::

    >>> from repro.errors import AnnIndexError, ReproError
    >>> issubclass(AnnIndexError, ReproError)
    True

A knob -- a count, a size, a rate, a duration -- is checked by
:func:`require_int` or :func:`require_real`, each raising the caller's
own typed error:

    >>> require_int(WorkloadError, "concurrency", 4, 1)
    4
    >>> require_real(WorkloadError, "duration_s", float("nan"), above=0)
    Traceback (most recent call last):
        ...
    repro.errors.WorkloadError: duration_s must be finite and > 0: nan
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing as t


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class StorageError(ReproError):
    """A storage-substrate operation failed (bad offset, device full...)."""


class FaultError(StorageError):
    """A device read failed permanently under fault injection.

    Raised on the replay path when an injected transient fault outlives
    the resilience policy's retry budget (``max_retries`` exhausted).
    Without a resilience policy the simulated device never *fails* a
    read — injected faults only delay it — so this error can only
    originate from the resilience machinery giving up.
    """


class InjectedCrash(FaultError):
    """The process was "killed" at a declared durability crash point.

    Raised by :class:`repro.faults.crash.CrashInjector` when a
    :class:`~repro.faults.crash.CrashPlan` fires mid-save (or
    mid-append): everything written and renamed so far stays on disk,
    everything after the crash point never happens — the simulation of
    a power cut.  Production code never raises or catches this; the
    crash-matrix tests catch it and then assert the recovery
    invariants.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        #: The declared crash point that fired.
        self.point = point


class DurabilityError(StorageError):
    """A durable-store operation (save, load, scrub, repair) failed."""


class CorruptionError(DurabilityError):
    """On-disk bytes failed a checksum, frame, or length check.

    Carries the attribution the scrubber reports: which file, and when
    determinable which record within it, is damaged.
    """

    def __init__(self, message: str, *, file: str | None = None,
                 record: int | None = None) -> None:
        super().__init__(message)
        #: Store-relative path of the damaged file (when known).
        self.file = file
        #: Zero-based index of the damaged record in it (when known).
        self.record = record


class RecoveryError(DurabilityError):
    """No committed state could be recovered from a durable store."""


class AnnIndexError(ReproError):
    """An ANN index was misused (searching before building, bad params)."""


class DatasetError(ReproError):
    """A dataset spec or generator was misconfigured."""


class EngineError(ReproError):
    """A vector-database engine operation failed."""


class OutOfMemoryError(EngineError):
    """An engine exceeded its configured memory budget.

    Mirrors the out-of-memory failures the paper observed for
    LanceDB-HNSW at high query concurrency (Section IV-A).
    """


class CollectionNotFoundError(EngineError):
    """A named collection does not exist in the engine."""


class WorkloadError(ReproError):
    """An experiment or workload configuration is invalid."""


class ServeError(ReproError):
    """The serving layer was misconfigured (see :mod:`repro.serve`).

    Raised eagerly when a :class:`~repro.serve.ServeConfig` is invalid —
    unknown queue policy, non-positive arrival rate, mixed closed- and
    open-loop tenants — never mid-simulation: admission-control
    rejections and deadline sheds are *outcomes* counted in the
    :class:`~repro.serve.ServeResult`, not errors."""


class ClusterError(ReproError):
    """The distributed cluster layer was misconfigured or misused.

    Raised eagerly for structural problems — a topology with no shards,
    a shard hint outside the topology, an unknown consistency level, a
    migration target that already serves the shard — never for runtime
    degradation: dead replicas, partial scatter-gather results, and
    failovers are *outcomes* counted in telemetry and reported through
    :class:`DegradedResult`, not errors."""


class TenancyError(ReproError):
    """The multi-tenant control plane was misconfigured.

    Raised eagerly for structural problems — duplicate tenant names, a
    recall floor no ladder level can satisfy, a placement budget of
    zero hot groups, an autopilot pointed at a closed-loop config —
    never for runtime pressure: quota rejections, quality degradation,
    and tier demotions are *outcomes* counted in
    :class:`~repro.tenancy.TenancyStats`, not errors."""


def require_int(error: type[ReproError], name: str, value: object,
                least: int | None, *, must: str | None = None) -> int:
    """*value* as an ``int`` if it is an integer >= *least*, else raise
    *error*.

    An integer is any :class:`numbers.Integral` (numpy's included) but
    a bool.  *least* None sets no lower bound; *must* overrides the
    message's rule ("``{name} must {must}: {value!r}``").
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        if must is None:
            must = ("be an integer" if least is None
                    else f"be >= {least} (an integer)")
        raise error(f"{name} must {must}: {value!r}")
    return int(value)


def require_real(error: type[ReproError], name: str, value: t.Any, *,
                 above: float | None = None, at_least: float | None = None,
                 below: float | None = None, at_most: float | None = None,
                 must: str | None = None) -> t.Any:
    """*value* if it is a real number in the given interval, else raise
    *error*.

    A real number is any :class:`numbers.Real` (numpy floats and
    :class:`fractions.Fraction` included) but a bool, and never NaN.
    The interval is open (``above`` / ``below``) or closed
    (``at_least`` / ``at_most``) at each end and unbounded where no
    bound is given; it holds ``inf`` or ``-inf`` only when closed at it
    (``at_most=math.inf``), so by default only finite numbers pass.
    *must* overrides the message's rule.
    """
    low = -math.inf if above is None else above
    high = math.inf if below is None else below
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value >= at_least if at_least is not None
                    else value > low)
            or not (value <= at_most if at_most is not None
                    else value < high)):
        if must is None:
            rule = ([] if at_most == math.inf or at_least == -math.inf
                    else ["finite"])
            for strict, loose, op in ((above, at_least, ">"),
                                      (below, at_most, "<")):
                if loose is not None:
                    rule.append(f"{op}= {loose}")
                elif strict is not None:
                    rule.append(f"{op} {strict}")
            must = "be " + " and ".join(rule)
        raise error(f"{name} must {must}: {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class DegradedResult:
    """Record of graceful degradation applied during a benchmark run.

    Not an exception: degradation is the *soft-failure* outcome — under
    sustained device pressure the search shrank its parameters (e.g.
    DiskANN's ``beam_width``/``search_list``) instead of blowing the
    latency budget, and the run result reports that it did.

    Example::

        >>> d = DegradedResult(queries=5, total=100,
        ...                    params={"search_list": 10})
        >>> d.ratio
        0.05
    """

    #: Queries replayed with the degraded parameter set.
    queries: int
    #: Total completed queries in the run.
    total: int
    #: The degraded search parameters that were substituted.
    params: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Fraction of completed queries that ran degraded."""
        return self.queries / self.total if self.total else 0.0
