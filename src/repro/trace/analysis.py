"""Block-trace analysis: the paper's I/O characterization toolkit.

Consumes :class:`~repro.storage.tracer.BlockTracer` records and produces
the quantities of Section V: per-interval bandwidth series (Figure 5),
request-size histograms (O-15), and per-query average I/O volume
(Figure 6).

The span-based helpers at the bottom compute the same Figure 6
quantities *per query* from :class:`~repro.obs.QuerySpan` telemetry —
the true distribution rather than the run-total-divided-by-completed
average the block trace alone can give.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t

import numpy as np

from repro.errors import ReproError
from repro.obs import SIZE_BUCKETS, Histogram, QuerySpan
from repro.storage.tracer import TraceRecord


@dataclasses.dataclass(frozen=True)
class BandwidthSeries:
    """Read/write bandwidth aggregated into fixed time buckets."""

    interval_s: float
    starts: np.ndarray          # bucket start times
    read_bytes: np.ndarray      # bytes issued per bucket
    write_bytes: np.ndarray

    @property
    def read_bandwidth(self) -> np.ndarray:
        """Bytes/second per bucket."""
        return self.read_bytes / self.interval_s

    def peak_read_bandwidth(self) -> float:
        return float(self.read_bandwidth.max()) if len(self.starts) else 0.0

    def mean_read_bandwidth(self) -> float:
        return float(self.read_bandwidth.mean()) if len(self.starts) else 0.0


def bandwidth_series(records: t.Sequence[TraceRecord],
                     interval_s: float = 1.0,
                     end: float | None = None) -> BandwidthSeries:
    """Bucket request bytes into fixed intervals (paper Figure 5)."""
    if interval_s <= 0:
        raise ReproError(f"non-positive interval: {interval_s}")
    if not records:
        return BandwidthSeries(interval_s, np.empty(0), np.empty(0),
                               np.empty(0))
    horizon = end if end is not None else max(r.timestamp for r in records)
    n_buckets = max(1, int(np.ceil(horizon / interval_s)) or 1)
    reads = np.zeros(n_buckets)
    writes = np.zeros(n_buckets)
    for record in records:
        bucket = min(n_buckets - 1, int(record.timestamp // interval_s))
        if record.op == "R":
            reads[bucket] += record.size
        else:
            writes[bucket] += record.size
    starts = np.arange(n_buckets) * interval_s
    return BandwidthSeries(interval_s, starts, reads, writes)


def request_size_histogram(records: t.Sequence[TraceRecord],
                           op: str | None = "R") -> dict[int, int]:
    """Count of requests by size in bytes (paper O-15)."""
    histogram: dict[int, int] = collections.Counter()
    for record in records:
        if op is None or record.op == op:
            histogram[record.size] += 1
    return dict(histogram)


def fraction_at_size(records: t.Sequence[TraceRecord], size: int,
                     op: str | None = "R") -> float:
    """Fraction of (read) requests of exactly *size* bytes."""
    histogram = request_size_histogram(records, op)
    total = sum(histogram.values())
    if total == 0:
        raise ReproError("no matching trace records")
    return histogram.get(size, 0) / total


def total_bytes(records: t.Sequence[TraceRecord],
                op: str | None = "R") -> int:
    """Total bytes issued, optionally filtered by direction."""
    return sum(r.size for r in records if op is None or r.op == op)


def per_query_volume(records: t.Sequence[TraceRecord],
                     completed_queries: int,
                     op: str | None = "R") -> float:
    """Average bytes issued per completed query (paper Figure 6)."""
    if completed_queries <= 0:
        raise ReproError(
            f"per-query volume needs completed queries: {completed_queries}")
    return total_bytes(records, op) / completed_queries


# -- per-query breakdowns from telemetry spans -------------------------------


def per_query_io_histogram(spans: t.Sequence[QuerySpan],
                           ) -> Histogram:
    """Distribution of device read bytes per query (Figure 6, exactly).

    Built directly from telemetry spans instead of dividing the run's
    block-trace total by its completed-query count, so it preserves the
    spread (cold-vs-warm replays, cache-hit variance) that the paper's
    averages flatten.
    """
    if not spans:
        raise ReproError("per-query histogram needs spans")
    hist = Histogram("per_query_read_bytes", SIZE_BUCKETS)
    for span in spans:
        hist.observe(span.read_bytes)
    return hist


def per_query_volume_from_spans(spans: t.Sequence[QuerySpan]) -> float:
    """Mean device read bytes per query, from spans.

    Equals :func:`per_query_volume` over the same run's trace records
    when queries are the only readers (the reconciliation the telemetry
    tests assert).
    """
    if not spans:
        raise ReproError("per-query volume needs spans")
    return sum(span.read_bytes for span in spans) / len(spans)


def stage_latency_breakdown(spans: t.Sequence[QuerySpan],
                            ) -> dict[str, dict[str, float]]:
    """Per-stage time totals and shares over a run's spans.

    Returns ``{stage: {"total_s", "mean_s", "share"}}`` where ``share``
    is the stage's fraction of all attributed time — the decomposition
    behind the paper's CPU-vs-I/O bottleneck arguments (Figure 4, O-5).
    """
    if not spans:
        raise ReproError("stage breakdown needs spans")
    totals: dict[str, float] = collections.defaultdict(float)
    for span in spans:
        for stage, seconds in span.stages.items():
            totals[stage] += seconds
    grand = sum(totals.values())
    return {stage: {"total_s": total,
                    "mean_s": total / len(spans),
                    "share": total / grand if grand else 0.0}
            for stage, total in sorted(totals.items())}


def cold_warm_split(spans: t.Sequence[QuerySpan],
                    ) -> dict[str, dict[str, float]]:
    """Mean latency and read bytes, split by cold-vs-warm replay."""
    if not spans:
        raise ReproError("cold/warm split needs spans")
    out: dict[str, dict[str, float]] = {}
    for label, subset in (("cold", [s for s in spans if s.cold]),
                          ("warm", [s for s in spans if not s.cold])):
        if subset:
            out[label] = {
                "queries": float(len(subset)),
                "mean_latency_s": float(np.mean(
                    [s.latency_s for s in subset])),
                "mean_read_bytes": float(np.mean(
                    [s.read_bytes for s in subset])),
            }
    return out


def offset_reuse_stats(records: t.Sequence[TraceRecord],
                       ) -> tuple[int, float]:
    """(#unique offsets, mean accesses per offset) of read requests.

    Quantifies the access locality that makes the DiskANN node caches
    effective (Section V-B discussion).
    """
    counts = collections.Counter(r.offset for r in records if r.op == "R")
    if not counts:
        raise ReproError("no read records")
    return len(counts), float(np.mean(list(counts.values())))
