"""Run-level telemetry: spans plus aggregated counters and histograms.

One :class:`RunTelemetry` instance is threaded through a single
:meth:`~repro.workload.runner.BenchRunner.run` call.  The runner opens a
:class:`~repro.obs.span.QuerySpan` per issued query; the simulated
device, the core/pool :class:`~repro.simkernel.resources.Resource`
pools, and the index node caches report into the shared aggregates:

* ``query_latency`` / ``stage_latency[stage]`` — log-bucketed latency
  histograms (the per-stage breakdown behind Figures 2-4);
* ``read_request_size`` — power-of-two request-size histogram (O-15);
* ``per_query_read_bytes`` — per-query I/O volume histogram, the
  distribution underlying Figure 6's averages;
* ``queue_depth[resource]`` — wait-queue depth sampled at each request
  arrival (CPU cores, DiskANN admission pool);
* free-form counters — device bytes/requests, cache hits and misses.

Telemetry is strictly passive: with it attached, the simulation makes
exactly the same scheduling decisions, so enabling it never changes the
benchmark numbers (asserted by the equivalence tests).
"""

from __future__ import annotations

import typing as t

from repro.obs.primitives import (DEPTH_BUCKETS, LATENCY_BUCKETS_S,
                                  SIZE_BUCKETS, Counter, Histogram)
from repro.obs.span import QuerySpan


class RunTelemetry:
    """Telemetry of one benchmark run: spans + aggregates."""

    def __init__(self) -> None:
        self.spans: list[QuerySpan] = []
        #: Background-compaction spans (see :mod:`repro.mutate`) — kept
        #: apart from query spans so ``query_latency`` and the
        #: per-query aggregates stay a pure query population.
        self.compaction_spans: list[QuerySpan] = []
        self.query_latency = Histogram("query_latency_s", LATENCY_BUCKETS_S)
        self.stage_latency: dict[str, Histogram] = {}
        self.read_request_size = Histogram("read_request_size_bytes",
                                           SIZE_BUCKETS)
        self.per_query_read_bytes = Histogram("per_query_read_bytes",
                                              SIZE_BUCKETS)
        self.queue_depth: dict[str, Histogram] = {}
        self.counters: dict[str, Counter] = {}
        #: Duration of each completed demand read round — the healthy
        #: distribution from which a P99-based hedge delay is derived
        #: (see :func:`repro.faults.resilience.ResiliencePolicy`).
        self.device_round = Histogram("device_round_s", LATENCY_BUCKETS_S)

    # -- span lifecycle (called by the runner) ---------------------------

    def begin_query(self, query_id: int, index: int, client_id: int,
                    cold: bool, now: float) -> QuerySpan:
        """Open the span of one issued query."""
        span = QuerySpan(query_id=query_id, index=index,
                         client_id=client_id, cold=cold, start_s=now)
        self.spans.append(span)
        return span

    def end_query(self, span: QuerySpan, now: float) -> None:
        """Close a span and fold it into the aggregates."""
        span.finish(now)
        self.query_latency.observe(span.latency_s)
        for stage, seconds in span.stages.items():
            hist = self.stage_latency.get(stage)
            if hist is None:
                hist = self.stage_latency[stage] = Histogram(
                    f"stage_latency_s:{stage}", LATENCY_BUCKETS_S)
            hist.observe(seconds)
        self.per_query_read_bytes.observe(span.read_bytes)
        if span.cache_hits:
            self.counter("query_cache_hits").inc(span.cache_hits)
        if span.prefetch_useful or span.prefetch_wasted:
            self.counter("prefetch_issued").inc(
                span.prefetch_useful + span.prefetch_wasted)
            self.counter("prefetch_useful").inc(span.prefetch_useful)
            self.counter("prefetch_wasted").inc(span.prefetch_wasted)
        if span.degraded:
            self.counter("degraded_queries").inc()

    def begin_compaction(self, ordinal: int, now: float) -> QuerySpan:
        """Open the span of one background compaction.

        Compaction spans reuse :class:`~repro.obs.span.QuerySpan` with
        ``index == client_id == -1`` and ``query_id`` the compaction
        ordinal; they live in :attr:`compaction_spans`, never in
        :attr:`spans`.
        """
        span = QuerySpan(query_id=ordinal, index=-1, client_id=-1,
                         cold=False, start_s=now)
        self.compaction_spans.append(span)
        return span

    def end_compaction(self, span: QuerySpan, now: float) -> None:
        """Close a compaction span: its whole window becomes the
        ``compact`` stage and its stages feed ``stage_latency``, but it
        never enters ``query_latency`` — P99 stays a query number."""
        span.finish(now)
        span.add_stage("compact", span.latency_s)
        for stage, seconds in span.stages.items():
            hist = self.stage_latency.get(stage)
            if hist is None:
                hist = self.stage_latency[stage] = Histogram(
                    f"stage_latency_s:{stage}", LATENCY_BUCKETS_S)
            hist.observe(seconds)

    # -- hooks (called by instrumented components) -----------------------

    def on_device_submit(self, op: str,
                         requests: t.Sequence[tuple[int, int]],
                         speculative: bool = False) -> None:
        """Record one batch submitted to the simulated device.

        Speculative (prefetch) reads count toward the device totals —
        they really occupy channels — and additionally into the
        ``device_prefetch_*`` counters for attribution.
        """
        total = sum(size for _off, size in requests)
        if op == "R":
            for _off, size in requests:
                self.read_request_size.observe(size)
            self.counter("device_read_requests").inc(len(requests))
            self.counter("device_read_bytes").inc(total)
            if speculative:
                self.counter("device_prefetch_requests").inc(len(requests))
                self.counter("device_prefetch_bytes").inc(total)
        else:
            self.counter("device_write_requests").inc(len(requests))
            self.counter("device_write_bytes").inc(total)

    def on_fault(self, kind: str) -> None:
        """Record one injected fault (called by the fault injector)."""
        self.counter(f"fault_injected_{kind}").inc()

    def on_event(self, plane: str, event: str, amount: int = 1) -> None:
        """Count one control-plane event under ``<plane>_<event>``.

        The planes (``resilience``, ``serve``, ``tenancy``, ``cluster``,
        ``chaos``, ``durability``, ``mutate``) and their event
        vocabularies are tabulated in ``docs/ARCHITECTURE.md``.
        """
        self.counter(f"{plane}_{event}").inc(amount)

    def observe_queue_depth(self, resource: str, depth: int) -> None:
        """Sample a resource's wait-queue depth at request arrival."""
        hist = self.queue_depth.get(resource)
        if hist is None:
            hist = self.queue_depth[resource] = Histogram(
                f"queue_depth:{resource}", DEPTH_BUCKETS)
        hist.observe(depth)

    def on_cache_access(self, cache: str, hit: bool) -> None:
        """Record one node/page-cache lookup."""
        self.counter(f"cache_{cache}_{'hits' if hit else 'misses'}").inc()

    def record_cache_stats(self, cache: str, hits: int,
                           misses: int) -> None:
        """Fold a cache's counter snapshot into the telemetry."""
        self.counter(f"cache_{cache}_hits").inc(hits)
        self.counter(f"cache_{cache}_misses").inc(misses)

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    # -- aggregates -------------------------------------------------------

    @property
    def total_read_bytes(self) -> int:
        """Device read bytes attributed to queries, over all spans.

        Demand plus speculative (prefetch) reads — the span-side total
        that reconciles with the device counters and the block trace.
        """
        return sum(span.read_bytes + span.prefetch_bytes
                   for span in self.spans)

    @property
    def total_cache_hits(self) -> int:
        return sum(span.cache_hits for span in self.spans)

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of speculative reads later consumed by the beam."""
        issued = self.counters.get("prefetch_issued", Counter("")).value
        useful = self.counters.get("prefetch_useful", Counter("")).value
        return useful / issued if issued else 0.0

    @property
    def wasted_read_ratio(self) -> float:
        """Speculative bytes never consumed, over all device read bytes.

        The cost side of look-ahead prefetching: the extra read volume
        paid for the latency overlap.
        """
        wasted_bytes = sum(
            span.prefetch_bytes * (span.prefetch_wasted
                                   / (span.prefetch_useful
                                      + span.prefetch_wasted))
            for span in self.spans
            if span.prefetch_useful + span.prefetch_wasted)
        read = self.counters.get("device_read_bytes", Counter("")).value
        return wasted_bytes / read if read else 0.0

    def cache_hit_rate(self, cache: str) -> float:
        """Hit fraction of one named cache (0.0 when never accessed)."""
        hits = self.counters.get(f"cache_{cache}_hits", Counter("")).value
        misses = self.counters.get(f"cache_{cache}_misses",
                                   Counter("")).value
        total = hits + misses
        return hits / total if total else 0.0

    def summary(self) -> dict[str, t.Any]:
        """Compact roll-up used by reports and tests."""
        return {
            "queries": len(self.spans),
            "compactions": len(self.compaction_spans),
            "total_read_bytes": self.total_read_bytes,
            "total_cache_hits": self.total_cache_hits,
            "prefetch_hit_rate": self.prefetch_hit_rate,
            "wasted_read_ratio": self.wasted_read_ratio,
            "mean_latency_s": self.query_latency.mean,
            "stage_mean_s": {stage: hist.mean
                             for stage, hist in self.stage_latency.items()},
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
        }
