"""Result containers for serving runs: SLO accounting per tenant.

A closed-loop :class:`~repro.workload.metrics.RunResult` answers "how
fast can the backend go"; a :class:`ServeResult` answers the production
question "how much *offered* load does it absorb within the SLO".  The
headline metric is **goodput** — completions inside the deadline, per
second — together with where the rest of the offered load went:
rejected at admission (queue full), shed at dispatch (deadline already
hopeless), or completed late (SLO miss).

Latency decomposes into time-in-queue (arrival → dispatch, the
``queue`` span stage) and time-in-service (dispatch → completion): at
low load the queue term is zero and open-loop latency matches the
closed-loop curve; past saturation the queue term dominates and
explains the entire divergence.

Both containers are plain comparable dataclasses, so the determinism
suite can assert two same-seed runs are *equal*, field for field.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.obs import RunTelemetry
from repro.serve.tenant import Tenant

if t.TYPE_CHECKING:
    from repro.mutate.simproc import MutationStats
    from repro.tenancy.autopilot import TenancyStats


@dataclasses.dataclass(frozen=True)
class TenantStats:
    """SLO accounting of one tenant over one serving run."""

    name: str
    weight: float
    arrivals: int
    admitted: int
    rejected: int               # queue-bound admission rejections
    shed: int                   # dropped at dispatch: deadline passed
    completed: int
    failed: int                 # engine-side failures during service
    slo_completions: int        # completed within the deadline
    goodput_qps: float          # slo_completions / duration
    mean_latency_s: float       # arrival -> completion, completed only
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_queue_s: float         # arrival -> dispatch
    mean_service_s: float       # dispatch -> completion
    #: Rejections attributed to cost-priced quota buckets (a subset of
    #: ``rejected``); always 0 without the tenancy autopilot.
    quota_rejected: int = 0
    #: Completions served at a degraded ladder level (autopilot only).
    degraded: int = 0
    #: Completion-weighted recall of this tenant's answers; ``None``
    #: when the run had no ground truth or no autopilot.
    recall: float | None = None

    @property
    def identity(self) -> Tenant:
        """The shared :class:`~repro.serve.Tenant` identity value."""
        return Tenant(self.name, self.weight)

    @property
    def slo_misses(self) -> int:
        """Queries that completed but blew the deadline."""
        return self.completed - self.slo_completions

    @property
    def dropped(self) -> int:
        """Offered queries that never completed: rejected + shed."""
        return self.rejected + self.shed

    @property
    def slo_attainment(self) -> float:
        """In-deadline completions over *offered* load.

        Rejections and sheds count against attainment: the production
        question is what fraction of what the tenant asked for was
        delivered on time, not what fraction of the survivors was.
        """
        return self.slo_completions / self.arrivals if self.arrivals else 0.0


@dataclasses.dataclass(frozen=True)
class ServeResult:
    """Metrics of one open-loop serving run."""

    engine: str
    index_kind: str
    dataset: str
    policy: str                 # admission-queue policy ("fifo"/"wfq"/"edf")
    duration_s: float           # simulated wall clock of the run
    offered_qps: float
    arrivals: int
    admitted: int
    rejected: int
    shed: int
    completed: int
    failed: int
    slo_completions: int
    batches: int                # dispatch rounds (1..batch_cap queries)
    qps: float                  # completions / duration
    goodput_qps: float          # SLO-met completions / duration
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_queue_s: float
    mean_service_s: float
    max_queue_depth: int
    tenants: tuple[TenantStats, ...] = ()
    #: (completions, limit) adaptation trace of the AIMD controller.
    controller_history: tuple[tuple[int, int], ...] = ()
    #: Final concurrency limit (static or controller-discovered).
    final_limit: int | None = None
    recall: float | None = None
    #: Mutation-stream accounting when the run carried a
    #: :class:`repro.mutate.MutationLoad`; ``None`` on read-only runs.
    mutation: "MutationStats | None" = None
    #: Autopilot accounting when the run was served by the
    #: :mod:`repro.tenancy` control plane; ``None`` otherwise.
    tenancy: "TenancyStats | None" = None
    telemetry: RunTelemetry | None = dataclasses.field(
        default=None, compare=False, repr=False)

    @property
    def slo_misses(self) -> int:
        return self.completed - self.slo_completions

    @property
    def goodput_ratio(self) -> float:
        """SLO-met completions over total *arrivals* — the fraction of
        offered load the service actually delivered on time."""
        return self.slo_completions / self.arrivals if self.arrivals else 0.0

    def tenant(self, name: str) -> TenantStats:
        """Look up one tenant's stats by name."""
        for stats in self.tenants:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def to_dict(self) -> dict[str, t.Any]:
        """JSON-friendly view (telemetry omitted)."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.name != "telemetry"}
        data["tenants"] = [dataclasses.asdict(s) for s in self.tenants]
        data["controller_history"] = [list(p)
                                      for p in self.controller_history]
        if self.mutation is not None:
            mut = dataclasses.asdict(self.mutation)
            mut["compaction_windows"] = [list(w) for w
                                         in self.mutation.compaction_windows]
            data["mutation"] = mut
        if self.tenancy is not None:
            ten = dataclasses.asdict(self.tenancy)
            ten["levels"] = [list(pair) for pair in self.tenancy.levels]
            data["tenancy"] = ten
        return data
