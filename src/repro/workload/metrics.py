"""Result containers and aggregation for benchmark runs.

The paper reports throughput (QPS), P99 tail latency, global CPU
utilization, recall, and block-level I/O volumes; :class:`RunResult`
carries all of them for one run, and :func:`summarize` aggregates
repetitions into mean and standard deviation the way the paper's plots
show error bars.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

import numpy as np

from repro.errors import WorkloadError
from repro.obs import RunTelemetry
from repro.storage.tracer import BlockTracer


@dataclasses.dataclass
class RunResult:
    """Metrics of one benchmark run at one concurrency level."""

    engine: str
    index_kind: str
    dataset: str
    concurrency: int
    completed: int
    elapsed_s: float
    qps: float
    mean_latency_s: float
    p99_latency_s: float
    cpu_utilization: float          # 0..1 over all simulated cores
    device_utilization: float       # 0..1 over device channels
    read_bytes: int
    write_bytes: int
    p50_latency_s: float = float("nan")
    p95_latency_s: float = float("nan")
    recall: float | None = None
    search_params: dict[str, t.Any] = dataclasses.field(default_factory=dict)
    tracer: BlockTracer | None = None
    telemetry: RunTelemetry | None = None
    error: str | None = None        # e.g. "out-of-memory"
    #: Fault-injection/resilience accounting of the run, present when
    #: device faults or a resilience policy were armed: injected counts per
    #: kind, timeout/retry/hedge counters, failed queries, and — when
    #: degradation engaged — a ``degraded`` entry holding the
    #: :class:`~repro.errors.DegradedResult` (substituted parameters and
    #: degraded-query ratio).
    faults: dict[str, t.Any] | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def read_bandwidth(self) -> float:
        """Mean read bandwidth over the run, bytes/second."""
        return self.read_bytes / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def per_query_read_bytes(self) -> float:
        """Average bytes read from the device per completed query."""
        return self.read_bytes / self.completed if self.completed else 0.0


@dataclasses.dataclass(frozen=True)
class Summary:
    """Mean and standard deviation over repetitions of one metric set."""

    qps: float
    qps_std: float
    p99_latency_s: float
    p99_latency_std: float
    cpu_utilization: float
    read_bandwidth: float
    per_query_read_bytes: float
    recall: float | None
    #: Median/P95 latency across repetitions (NaN when aggregating
    #: results recorded before these percentiles were captured).
    p50_latency_s: float = float("nan")
    p50_latency_std: float = float("nan")
    p95_latency_s: float = float("nan")
    p95_latency_std: float = float("nan")


def percentile(values: t.Sequence[float], q: float) -> float:
    """Percentile with validation (q in [0, 100])."""
    if not values:
        raise WorkloadError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise WorkloadError(f"bad percentile: {q}")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def percentiles(values: t.Sequence[float],
                qs: t.Sequence[float]) -> tuple[float, ...]:
    """:func:`percentile` at each of *qs*, from one pass over *values*.

    Bit-identical to one :func:`percentile` call per ``q``.
    """
    if not values:
        raise WorkloadError("percentile of an empty sequence")
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise WorkloadError(f"bad percentile: {q}")
    found = np.percentile(np.asarray(values, dtype=np.float64), qs)
    return tuple(float(v) for v in found)


def summarize(results: t.Sequence[RunResult]) -> Summary:
    """Aggregate repeated runs (all must have succeeded)."""
    if not results:
        raise WorkloadError("summarize of no results")
    for i, result in enumerate(results):
        if result.failed:
            raise WorkloadError(
                f"cannot summarize failed runs: run {i} of "
                f"{len(results)} ({result.engine}/{result.index_kind} on "
                f"{result.dataset} at concurrency {result.concurrency}) "
                f"failed with {result.error!r}")
    qps = [r.qps for r in results]
    p50 = [r.p50_latency_s for r in results]
    p95 = [r.p95_latency_s for r in results]
    p99 = [r.p99_latency_s for r in results]
    recalls = [r.recall for r in results if r.recall is not None]
    return Summary(
        qps=float(np.mean(qps)),
        qps_std=float(np.std(qps)),
        p99_latency_s=float(np.mean(p99)),
        p99_latency_std=float(np.std(p99)),
        cpu_utilization=float(np.mean([r.cpu_utilization for r in results])),
        read_bandwidth=float(np.mean([r.read_bandwidth for r in results])),
        per_query_read_bytes=float(
            np.mean([r.per_query_read_bytes for r in results])),
        recall=float(np.mean(recalls)) if recalls else None,
        p50_latency_s=float(np.mean(p50)),
        p50_latency_std=float(np.std(p50)),
        p95_latency_s=float(np.mean(p95)),
        p95_latency_std=float(np.std(p95)),
    )


def geometric_mean(values: t.Sequence[float]) -> float:
    """Geometric mean (used for cross-dataset speedup summaries)."""
    if not values or any(v <= 0 for v in values):
        raise WorkloadError(f"geometric mean needs positive values: {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
