"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the failure domain.  The full hierarchy is
documented in ``docs/ARCHITECTURE.md`` ("Error hierarchy").

Example::

    >>> from repro.errors import AnnIndexError, ReproError
    >>> issubclass(AnnIndexError, ReproError)
    True
"""

from __future__ import annotations

import dataclasses
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
