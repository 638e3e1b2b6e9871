"""The benchmark runner: closed-loop clients on the simulated hardware.

Reproduces the paper's methodology (Section III-B):

* N closed-loop client threads, each with one in-flight query, cycling
  through the query set;
* caches dropped before each run (page cache and index node caches);
* a fixed measurement window; QPS, P99 latency, global CPU usage, and
  block-level I/O are reported per run.

Execution happens in two phases.  The *functional* phase runs every
query once through the real engine (algorithms, recall, work profiles);
profiles are captured twice — a cold pass after cache reset and a warm
pass — so the replay can model cache warm-up across the run.  The
query set is searched once: the warm pass walks the cold pass's
traversals through the warmed caches
(:meth:`~repro.ann.base.VectorIndex.reuse_traversals`).  The
*timing* phase replays compiled plans on the discrete-event simulator:
20 CPU cores, the calibrated NVMe device, RPC and batching overheads
from the engine profile.

One simulated "thread" maps to one client; the paper's 30-second runs
are shortened by ``duration_s``/``max_queries`` since the simulator is
deterministic and converges far faster than noisy hardware.

This module holds the functional phase (:class:`BenchRunner`) and the
per-host replayer (:class:`QueryReplayer`, :func:`open_host`); the
session, the closed-loop driver and the result assembly shared with the
cluster runner and the server live in :mod:`repro.workload.replay`.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import math
import typing as t

import numpy as np

from repro.ann.workprofile import CpuStep, IoStep, PrefetchStep
from repro.data.groundtruth import recall_at_k
from repro.engines.costmodel import CostModel
from repro.engines.engine import Collection, VectorEngine
from repro.engines.profiles import PAPER_CPU_CORES
from repro.errors import DegradedResult, OutOfMemoryError, WorkloadError
from repro.faults import (ChaosSchedule, FaultInjector, PressureTracker,
                          ResiliencePolicy, degraded_search_params)
from repro.obs import RunTelemetry
from repro.simkernel import Environment, Resource
from repro.storage.blockfile import ExtentAllocator
from repro.storage.device import SimSSD
from repro.storage.spec import DeviceSpec, samsung_990pro_4tb
from repro.storage.tracer import BlockTracer
from repro.workload.metrics import RunResult
from repro.workload.replay import (ReplaySession, closed_loop, oom_result,
                                   run_result)

#: ('cpu', seconds), ('io', ((abs_offset, size), ...)) — a blocking
#: demand round — ('pf', requests) — a non-blocking speculative issue —
#: or ('join', None) — a barrier on all in-flight speculative reads.
CompiledStep = tuple[str, t.Any]


@dataclasses.dataclass(frozen=True)
class WriteLoad:
    """A concurrent write stream (the paper's Section VIII extension).

    Models WAL/segment-flush traffic running alongside searches:
    ``writers`` background threads each issue a ``bytes_per_flush``
    write every ``interval_s`` seconds into a circular log region.  NAND
    read/write interference then emerges from channel contention in the
    device model.
    """

    writers: int = 1
    bytes_per_flush: int = 64 * 1024
    interval_s: float = 0.002

    def __post_init__(self) -> None:
        if self.writers < 1 or self.bytes_per_flush < 1:
            raise WorkloadError(f"bad write load: {self}")


def start_write_load(host: "QueryReplayer", runner: "BenchRunner",
                     load: WriteLoad, duration_s: float) -> None:
    """Spawn *load*'s writer processes on *host*.

    Each writer flushes into its own circular log region, sharing the
    host's device and core pool with whatever query processes the
    caller spawns next.
    """
    env, device, cores = host.env, host.device, host.cores
    spec = runner.device_spec
    log_size = 256 * load.bytes_per_flush

    def writer():
        base = runner._allocator.allocate(log_size)
        position = 0
        while env.now < duration_s:
            yield env.timeout(load.interval_s)
            remaining = load.bytes_per_flush
            requests = []
            while remaining > 0:
                size = min(remaining, spec.max_request_bytes)
                if position + size > log_size:
                    position = 0  # circular log wrap
                requests.append((base + position, size))
                position += size
                remaining -= size
            yield cores.hold(len(requests) * spec.cpu_per_request_s)
            yield device.submit(requests, "W")

    for _ in range(load.writers):
        env.process(writer())


def work_extrapolation(index_kind: str, n: int,
                       paper_n: int | None) -> float:
    """CPU-work multiplier from proxy scale to the paper's scale.

    The proxy datasets are ~250x smaller than the paper's.  Per-query
    *algorithmic* work does not shrink uniformly with n: an IVF scan
    costs Theta(sqrt(n)) (nlist + nprobe * n/nlist with nlist ~ 4
    sqrt(n)), while graph searches grow ~log n.  Replaying tiny-scale
    work untransformed would therefore understate IVF relative to HNSW
    and flip the paper's orderings; this factor restores the paper-scale
    ratio of each family's distance-evaluation counts.
    """
    if paper_n is None or paper_n <= n:
        return 1.0
    if index_kind in ("ivf", "ivf-pq"):
        return math.sqrt(paper_n / n)
    return math.log(paper_n) / math.log(max(n, 2))


@dataclasses.dataclass
class CompiledQuery:
    """One query's priced execution plan, one step list per segment."""

    segments: list[list[CompiledStep]]
    #: Node/page-cache hits per segment, from the functional pass; used
    #: by telemetry to attribute cache effectiveness to query ids.
    cache_hits: list[int] = dataclasses.field(default_factory=list)
    #: (useful, wasted) speculative-read counts per segment, from the
    #: functional pass; spans report them as prefetch hit/waste.
    prefetch: list[tuple[int, int]] = dataclasses.field(
        default_factory=list)

    def __post_init__(self) -> None:
        while len(self.cache_hits) < len(self.segments):
            self.cache_hits.append(0)
        while len(self.prefetch) < len(self.segments):
            self.prefetch.append((0, 0))


class QueryReplayer:
    """The single-query replay entry point over one simulated host.

    Owns nothing but references: the environment, the device, the core
    pool, and (optionally) the DiskANN admission pool, plus the engine
    profile and the resilience policy — which makes it the *host*
    record of the replay core too (``env`` / ``device`` / ``cores`` /
    ``pool``; see :func:`open_host`).  :meth:`query_proc` is the
    process generator that replays one :class:`CompiledQuery` end to
    end — RPC halves, admission pool, amortized fixed CPU, and every
    per-segment CPU/IO/prefetch step, with the resilience defences
    (timeout + retry, hedged reads) on the demand-read path.

    Both execution modes dispatch onto it: the closed-loop
    :meth:`BenchRunner.run` (N clients, one in-flight query each) and
    the open-loop :class:`repro.serve.Server` (arrival-timed admission
    with batching and shedding).
    """

    def __init__(self, env: "Environment", device: SimSSD, cores: Resource,
                 pool: Resource | None, profile,
                 telemetry: RunTelemetry | None = None,
                 resilience: ResiliencePolicy | None = None) -> None:
        self.env = env
        self.device = device
        self.cores = cores
        self.pool = pool
        self.profile = profile
        self.telemetry = telemetry
        self.resilience = (resilience
                           if resilience is not None and resilience.active
                           else None)
        #: Whether demand reads go through the defended path.
        self.resilient_reads = self.resilience is not None and (
            self.resilience.read_timeout_s is not None
            or self.resilience.hedge_after_s is not None)
        #: Resilience event counts (timeouts, retries, hedges, ...).
        self.rcounts: collections.Counter[str] = collections.Counter()
        self._retry_token = 0    # global retry ordinal (jitter decorrelation)

    def note(self, event: str) -> None:
        self.rcounts[event] += 1
        if self.telemetry is not None:
            self.telemetry.on_event("resilience", event)

    def _read_attempt(self, payload, timing):
        """One submission of a demand round, raced against the
        policy's hedge delay and deadline.  Returns True when the
        data landed (from either copy), False on timeout."""
        env, device, resil = self.env, self.device, self.resilience
        done = device.submit(payload, "R")
        if timing is not None:
            timing.read_requests += len(payload)
            timing.read_bytes += sum(size for _off, size in payload)
        races = [done]
        deadline = resil.read_timeout_s
        if (resil.hedge_after_s is not None
                and (deadline is None
                     or resil.hedge_after_s < deadline)):
            winner = yield env.race(
                [done, env.timeout(resil.hedge_after_s)])
            if winner == 0:
                return True
            hedged = device.submit(payload, "R")
            if timing is not None:
                timing.read_requests += len(payload)
                timing.read_bytes += sum(
                    size for _off, size in payload)
            self.note("hedges")
            races = [done, hedged]
            if deadline is not None:
                deadline -= resil.hedge_after_s
        if deadline is None:
            winner = yield env.race(races)
        else:
            winner = yield env.race(races + [env.timeout(deadline)])
            if winner == len(races):
                return False
        if winner == 1 and len(races) > 1:
            self.note("hedge_wins")
        return True

    def _resilient_read(self, payload, timing, span, deadline_at=None):
        """A demand round under the resilience policy: retry with
        exponential backoff after each timeout.  Returns False when
        the original plus ``max_retries`` resubmissions all timed
        out (the round failed permanently).

        ``deadline_at`` is the query's absolute completion deadline
        (sim time) when the policy sets ``query_deadline_s``: a retry
        whose backoff alone would start it at-or-after the deadline
        provably cannot complete in time, so the round is abandoned
        (``deadline_abandons``) instead of burning the budget of an
        already-lost query."""
        env, resil = self.env, self.resilience
        attempt = 0
        while True:
            started = env.now
            landed = yield from self._read_attempt(payload, timing)
            if landed:
                if timing is not None:
                    timing.device_s += env.now - started
                if self.telemetry is not None:
                    self.telemetry.device_round.observe(env.now - started)
                return True
            self.note("timeouts")
            if span is not None:
                span.add_stage("fault", env.now - started)
            if attempt >= resil.max_retries:
                self.note("read_failures")
                return False
            attempt += 1
            backoff = resil.backoff_s(attempt, self._retry_token)
            self._retry_token += 1
            if deadline_at is not None and env.now + backoff >= deadline_at:
                self.note("deadline_abandons")
                self.note("read_failures")
                return False
            self.note("retries")
            if backoff > 0:
                yield env.timeout(backoff)
                if span is not None:
                    span.add_stage("fault", backoff)

    def _segment_proc(self, steps: list[CompiledStep], span=None,
                      seg: int = 0, cache_hits: int = 0,
                      prefetch: tuple[int, int] = (0, 0),
                      failed: list | None = None,
                      deadline_at: float | None = None):
        env, resilient = self.env, self.resilient_reads
        # Bound once: a segment is hundreds of CPU and read steps.
        submit, hold = self.device.submit, self.cores.hold
        timing = span.segment(seg) if span is not None else None
        if timing is not None:
            timing.cache_hits += cache_hits
            timing.prefetch_useful += prefetch[0]
            timing.prefetch_wasted += prefetch[1]
        outstanding: list = []   # in-flight speculative reads
        for kind, payload in steps:
            if kind == "cpu":
                if timing is None:
                    yield hold(payload)
                else:
                    queued_at = env._now
                    yield hold(payload)
                    timing.cpu_s += payload
                    timing.cpu_wait_s += max(
                        0.0, env._now - queued_at - payload)
            elif kind == "pf":
                # Issue speculatively and keep going: the event is
                # held, not yielded, so the device time overlaps the
                # demand beam and CPU that follow.
                outstanding.append(submit(payload, "R", speculative=True))
                if timing is not None:
                    timing.prefetch_requests += len(payload)
                    timing.prefetch_bytes += sum(
                        size for _off, size in payload)
            elif kind == "join":
                if outstanding:
                    waited_at = env._now
                    yield env.all_of(outstanding)
                    outstanding = []
                    if timing is not None:
                        timing.prefetch_wait_s += env._now - waited_at
            elif resilient:
                landed = yield from self._resilient_read(
                    payload, timing, span, deadline_at)
                if not landed:
                    # Permanent read failure: abandon this
                    # segment; the query is counted as failed.
                    if failed is not None:
                        failed[0] = True
                    return
            elif timing is None:
                yield submit(payload, "R")
            else:
                submitted_at = env._now
                yield submit(payload, "R")
                device_s = env._now - submitted_at
                timing.device_s += device_s
                timing.read_requests += len(payload)
                timing.read_bytes += sum(size for _off, size in payload)
                self.telemetry.device_round.observe(device_s)
        # Speculative reads never joined (the wasted ones) complete
        # in the background; their channel occupancy is already
        # accounted at submission.

    def query_proc(self, plan: CompiledQuery, span=None,
                   fixed_cpu: float = 0.0):
        """Replay one compiled query; returns True if it failed.

        ``fixed_cpu`` is this query's share of the profile's fixed
        per-query CPU cost — the caller decides the amortization
        (closed loop: over ``min(concurrency, batch_cap)``; the serving
        layer: over the dispatched batch).
        """
        env, profile, pool = self.env, self.profile, self.pool
        failed = [False]
        resil = self.resilience
        deadline_at = (env.now + resil.query_deadline_s
                       if resil is not None
                       and resil.query_deadline_s is not None else None)
        if profile.rpc_s:
            yield env.timeout(profile.rpc_s / 2)
            if span is not None:
                span.add_stage("rpc", profile.rpc_s / 2)
        if pool is not None:
            queued_at = env.now
            yield pool.request()
            if span is not None:
                span.add_stage("pool_wait", env.now - queued_at)
        try:
            if fixed_cpu > 0:
                queued_at = env.now
                yield self.cores.hold(fixed_cpu)
                if span is not None:
                    span.add_stage("cpu", fixed_cpu)
                    span.add_stage("cpu_wait", max(
                        0.0, env.now - queued_at - fixed_cpu))
            parallel = (profile.intra_query_parallelism
                        and len(plan.segments) > 1)
            if parallel:
                yield env.all_of([
                    env.process(self._segment_proc(steps, span, seg, hits,
                                                   pf, failed, deadline_at))
                    for seg, (steps, hits, pf) in enumerate(
                        zip(plan.segments, plan.cache_hits,
                            plan.prefetch))])
            else:
                for seg, (steps, hits, pf) in enumerate(
                        zip(plan.segments, plan.cache_hits,
                            plan.prefetch)):
                    yield from self._segment_proc(steps, span, seg, hits,
                                                  pf, failed, deadline_at)
                    if failed[0]:
                        break
        finally:
            if pool is not None:
                pool.release()
        if profile.rpc_s:
            yield env.timeout(profile.rpc_s / 2)
            if span is not None:
                span.add_stage("rpc", profile.rpc_s / 2)
        return failed[0]


def open_host(runner: "BenchRunner", env: Environment,
              names: tuple[str, str] = ("cores", "diskann_pool"), *,
              telemetry: RunTelemetry | None = None, trace: bool = False,
              chaos: ChaosSchedule | None = None, node: int = 0,
              resilience: ResiliencePolicy | None = None) -> QueryReplayer:
    """One fresh simulated machine on *env*, as its replayer.

    Builds the calibrated device (with optional tracer), the core pool,
    and — for DiskANN collections on profiles that have one — the
    admission pool, sized from *runner*.  *names* are the core- and
    admission-pool resource names (they key the telemetry queue-depth
    histograms).  The device gets a fault injector when *chaos* has
    device windows for *node* (:meth:`~repro.faults.ChaosSchedule.
    device_windows`); without any it runs exactly as an unfaulted one.

    A host replays the plans it is handed, so ``resilience.degrade``
    (swapping plans under pressure) raises :class:`~repro.errors.
    WorkloadError` here; only :meth:`BenchRunner.run` degrades.
    """
    if resilience is not None and resilience.degrade:
        raise WorkloadError(
            "ResiliencePolicy(degrade=True) is honoured only by "
            "BenchRunner.run; a replay session cannot degrade queries")
    windows = chaos.device_windows(node) if chaos is not None else ()
    injector = (FaultInjector(windows, chaos.seed, telemetry)
                if windows else None)
    device = SimSSD(env, runner.device_spec, BlockTracer(enabled=trace),
                    telemetry=telemetry, injector=injector)
    cores = Resource(env, runner.cores, name=names[0], telemetry=telemetry)
    profile = runner.engine.profile
    pool_size = getattr(profile, "diskann_pool", 0)
    pool = (Resource(env, pool_size, name=names[1], telemetry=telemetry)
            if pool_size and runner.collection.index_spec.kind == "diskann"
            else None)
    return QueryReplayer(env, device, cores, pool, profile,
                         telemetry=telemetry, resilience=resilience)


class BenchRunner:
    """Runs one (engine, collection, dataset) combination."""

    def __init__(self, engine: VectorEngine, collection_name: str,
                 queries: np.ndarray, ground_truth: np.ndarray | None = None,
                 device_spec: DeviceSpec | None = None,
                 cores: int = PAPER_CPU_CORES, k: int = 10,
                 paper_n: int | None = None) -> None:
        """
        Args:
            paper_n: the cardinality of the *paper's* dataset that this
                collection proxies.  When given, per-query CPU work is
                extrapolated from the proxy's size to the paper's, using
                each index family's asymptotic work growth (see
                :func:`work_extrapolation`).  Leave None for raw runs.
        """
        self.engine = engine
        self.collection: Collection = engine.collection(collection_name)
        self.queries = np.asarray(queries, dtype=np.float32)
        self.ground_truth = ground_truth
        self.device_spec = device_spec or samsung_990pro_4tb()
        self.cores = cores
        self.k = k
        self.cost = CostModel(storage_dim=self.collection.storage_dim,
                              cpu_factor=engine.profile.cpu_factor)
        self.work_scale = work_extrapolation(
            self.collection.index_spec.kind, self.collection.num_rows,
            paper_n)
        self._built_at = self.collection.mutations
        self._segment_bases = self._allocate_index_files()
        self._plan_cache: dict[tuple, tuple[list[CompiledQuery],
                                            list[CompiledQuery],
                                            float | None]] = {}
        #: Per-params functional results: one (ids, dists) pair per
        #: query, captured alongside the compiled plans.  The cluster
        #: coordinator merges these across shards (including the
        #: partial-fan-out merges of deadline-degraded queries).
        self._found_cache: dict[tuple, list[tuple[np.ndarray,
                                                  np.ndarray]]] = {}
        #: One shared ``(offset, size)`` object per distinct device
        #: extent: plans name the same few sectors thousands of times
        #: (a third of a DiskANN runner's plan memory otherwise).
        self._extents: dict[tuple[int, int], tuple[int, int]] = {}

    # -- setup ---------------------------------------------------------------

    def _allocate_index_files(self) -> dict[int, int]:
        """Device base offset of each storage-based segment index."""
        self._allocator = ExtentAllocator(self.device_spec.capacity_bytes)
        bases: dict[int, int] = {}
        for segment in self.collection.segments:
            if segment.index.storage_based:
                bases[segment.segment_id] = self._allocator.allocate(
                    max(4096, segment.index.disk_bytes()))
        return bases

    # -- functional phase ------------------------------------------------------

    def _drop_caches(self) -> None:
        """The run-prologue cache flush of the paper's methodology."""
        for segment in self.collection.segments:
            reset = getattr(segment.index, "reset_dynamic_cache", None)
            if reset is not None:
                reset()

    def _check_unchanged(self) -> None:
        """Refuse to compile or replay once the collection has mutated:
        extents, plans and recall all describe it as it was built over,
        so replaying them would report the old answers."""
        if self.collection.mutations != self._built_at:
            raise WorkloadError(
                f"{self.collection.name}: collection changed since this "
                f"runner was built; build a new one")

    def _compile(self, params: dict[str, t.Any],
                 ) -> tuple[list[CompiledQuery], list[CompiledQuery],
                            float | None]:
        self._check_unchanged()
        key = tuple(sorted(params.items()))
        if key in self._plan_cache:
            return self._plan_cache[key]
        self._drop_caches()
        with contextlib.ExitStack() as scope:
            # The warm pass walks the cold pass's traversals through the
            # (now warm) caches instead of searching again.
            for segment in self.collection.segments:
                scope.enter_context(segment.index.reuse_traversals())
            cold, found = self._functional_pass(params)
            warm, _found = self._functional_pass(params)
        recall = None
        if self.ground_truth is not None:
            recall = recall_at_k(self.ground_truth[:, :self.k],
                                 [ids for ids, _dists in found], self.k)
        self._plan_cache[key] = (cold, warm, recall)
        self._found_cache[key] = found
        return self._plan_cache[key]

    def compiled_results(self, params: dict[str, t.Any],
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-query functional ``(ids, dists)`` under *params*.

        Compiles (or reuses) the plans for *params* and returns the
        functional pass's results — what the engine actually answered,
        bit-identical between the cold and warm passes.  The cluster
        layer merges these across shard runners.
        """
        key = tuple(sorted(params.items()))
        self._compile(dict(params))
        return self._found_cache[key]

    def _functional_pass(self, params: dict[str, t.Any],
                         ) -> tuple[list[CompiledQuery],
                                    list[tuple[np.ndarray, np.ndarray]]]:
        plans, found = [], []
        # One batched call: segment kernels amortize across the whole
        # query set, and the results are bit-identical to per-query
        # searches (the engine-level batch contract).
        for response in self.collection.search_batch(
                self.queries, self.k, **params):
            segments, seg_hits, seg_pf = [], [], []
            # Map work profiles to segment ids: works are appended in
            # segment order, the growing buffer last.
            for work, segment in zip(response.works,
                                     self.collection.segments):
                segments.append(self._compile_work(work,
                                                   segment.segment_id))
                seg_hits.append(work.cache_hits)
                seg_pf.append((work.prefetch_hits, work.prefetch_wasted))
            for work in response.works[len(self.collection.segments):]:
                segments.append(self._compile_work(work, None))
                seg_hits.append(work.cache_hits)
                seg_pf.append((work.prefetch_hits, work.prefetch_wasted))
            plans.append(CompiledQuery(segments, seg_hits, seg_pf))
            found.append((response.ids, response.dists))
        return plans, found

    def _compile_work(self, work, segment_id: int | None,
                      ) -> list[CompiledStep]:
        base = self._segment_bases.get(segment_id, 0)
        steps: list[CompiledStep] = []
        for step in work.steps:
            if isinstance(step, CpuStep):
                seconds = self.cost.cpu_step_seconds(step) * self.work_scale
                if seconds > 0:
                    steps.append(("cpu", seconds))
            elif isinstance(step, PrefetchStep):
                if step.join:
                    steps.append(("join", None))
                elif step.requests:
                    cpu = self.cost.prefetch_step_cpu_seconds(step)
                    if cpu > 0:
                        steps.append(("cpu", cpu))
                    steps.append(("pf", self._absolute(base, step.requests)))
            elif isinstance(step, IoStep):
                cpu = self.cost.io_step_cpu_seconds(step)
                steps.append(("cpu", cpu))
                if step.requests:
                    steps.append(("io", self._absolute(base, step.requests)))
        return steps

    def _absolute(self, base: int, requests: t.Sequence[tuple[int, int]],
                  ) -> tuple[tuple[int, int], ...]:
        """Block-layer requests at their device offsets."""
        share = self._extents.setdefault
        absolute = []
        for offset, size in self._split_requests(requests):
            extent = (base + offset, size)
            absolute.append(share(extent, extent))
        return tuple(absolute)

    def _split_requests(self, requests: t.Sequence[tuple[int, int]],
                        ) -> list[tuple[int, int]]:
        """Chop extents larger than the block-layer request cap."""
        cap = self.device_spec.max_request_bytes
        out = []
        for offset, size in requests:
            while size > cap:
                out.append((offset, cap))
                offset += cap
                size -= cap
            out.append((offset, size))
        return out

    # -- timing phase -----------------------------------------------------------

    def open_replay(self, search_params: dict | None = None, *,
                    telemetry: RunTelemetry | None = None,
                    trace: bool = False,
                    chaos: ChaosSchedule | None = None,
                    resilience: ResiliencePolicy | None = None,
                    ) -> ReplaySession:
        """A fresh simulated host ready to replay this runner's queries.

        Compiles (or reuses) the cold/warm plans for *search_params* and
        binds them to one new host (:func:`open_host`) — what :meth:`run`
        drives with the closed loop, packaged for callers that drive
        their own schedule (the open-loop :class:`repro.serve.Server`).

        The engine is node 0 of *chaos*: its device windows arm the
        host's SSD.  Every plane a single engine cannot model — kills,
        partitions, gray failures, a crash plan, a device fault on any
        other node — raises :class:`~repro.errors.WorkloadError`.
        """
        unsupported = sorted({
            tag for tag, fault in (chaos.elements() if chaos is not None
                                   else ())
            if tag != "device" or fault[0] != 0})
        if unsupported:
            raise WorkloadError(
                f"a single engine is node 0 and models only its device "
                f"faults; the chaos schedule also holds {unsupported}")
        cold, warm, recall = self._compile(dict(search_params or {}))
        env = Environment()
        host = open_host(self, env, telemetry=telemetry, trace=trace,
                         chaos=chaos, resilience=resilience)
        return ReplaySession(env=env, hosts=[host], replayer=host,
                             cold=cold, warm=warm, recall=recall,
                             telemetry=telemetry)

    def write_targets(self, session: ReplaySession,
                      ) -> list[tuple[QueryReplayer, "BenchRunner"]]:
        """Where a write stream runs: the one host, with this runner."""
        return [(session.hosts[0], self)]

    def run(self, concurrency: int, search_params: dict | None = None,
            duration_s: float = 4.0, max_queries: int = 25_000,
            trace: bool = False, phase: int = 0,
            write_load: WriteLoad | None = None,
            telemetry: RunTelemetry | bool | None = None,
            chaos: ChaosSchedule | None = None,
            resilience: ResiliencePolicy | None = None) -> RunResult:
        """One measured run at one concurrency level.

        ``phase`` offsets each client's starting query (the repetition
        knob; the simulator itself is deterministic).

        ``telemetry`` attaches a :class:`~repro.obs.RunTelemetry` (pass
        ``True`` to create a fresh one): every replayed query then gets a
        :class:`~repro.obs.QuerySpan` with per-segment stage timings and
        I/O attribution, and the device/core/pool instruments feed the
        shared histograms.  Telemetry is passive — with it off (the
        default) or on, the simulated schedule and every reported number
        are identical.

        ``chaos`` is the fault model, as on a cluster: a
        :class:`~repro.faults.ChaosSchedule` whose node-0 device windows
        fault the device's read path, positioned on this run's
        simulated timeline (t=0 is run start); any other plane raises
        (:meth:`open_replay`).  An empty schedule — or none — leaves
        every number bit-identical to an unfaulted run.

        ``resilience`` deploys host-side defences on the demand-read
        path (timeout+retry, hedged reads, graceful degradation; see
        :class:`~repro.faults.ResiliencePolicy`).  A query whose read
        exhausts its retry budget is dropped from the latency/QPS
        population and counted under ``result.faults["failed_queries"]``;
        if *every* query fails, the run raises
        :class:`~repro.errors.FaultError`.  With degradation enabled,
        the reported recall is the completion-weighted mix of the full
        and degraded plans' compile-time recalls.
        """
        telem = RunTelemetry() if telemetry is True else (telemetry or None)
        params = dict(search_params or {})
        resil = (resilience
                 if resilience is not None and resilience.active else None)
        try:
            self.engine.check_concurrency_memory(concurrency)
        except OutOfMemoryError:
            return oom_result(self, concurrency, params)

        cache_base = self._cache_counters() if telem is not None else {}
        # The host runs the policy's read-path defences; degradation is
        # this loop's (it swaps plans, below).
        host_resil = (dataclasses.replace(resil, degrade=False)
                      if resil is not None else None)
        session = self.open_replay(params, telemetry=telem, trace=trace,
                                   chaos=chaos, resilience=host_resil)
        host = session.replayer
        pick = record = tracker = None
        degraded_completions = 0
        if resil is not None and resil.degrade:
            degraded_params = degraded_search_params(
                self.collection.index_spec.kind, params,
                resil.degrade_factor, self.k)
            degraded_cold, degraded_warm, recall_degraded = self._compile(
                degraded_params)
            tracker = PressureTracker(resil)

            def pick(index: int):
                plan, cold = session.plan_for(index)
                degraded = tracker.degraded
                if degraded:
                    plan = (degraded_cold if cold else degraded_warm)[index]
                return plan, cold, degraded

            def record(degraded: bool, start: float, failed: bool, span):
                nonlocal degraded_completions
                tracker.on_completion(session.env.now - start, failed=failed)
                if degraded and not failed:
                    degraded_completions += 1
                if degraded and span is not None:
                    span.degraded = True

        if write_load is not None:
            start_write_load(host, self, write_load, duration_s)
        tally = closed_loop(session, self, concurrency, duration_s,
                            max_queries, phase, pick, record)
        tally.require_completions(
            "demand reads exhausted their retry budget under the fault plan")

        completed = len(tally.latencies)
        recall = session.recall
        if (tracker is not None and degraded_completions
                and recall is not None and recall_degraded is not None):
            # Completion-weighted recall: queries replayed degraded
            # contribute the degraded plan's compile-time recall.
            fraction = degraded_completions / completed
            recall = recall * (1.0 - fraction) + recall_degraded * fraction
        injector = host.device.injector
        faults = None
        if injector is not None or resil is not None:
            faults = {}
            if injector is not None:
                faults["injected"] = injector.summary()
            if resil is not None:
                for event in ("timeouts", "retries", "hedges",
                              "hedge_wins", "read_failures",
                              "deadline_abandons"):
                    faults[event] = host.rcounts.get(event, 0)
                faults["failed_queries"] = tally.failures
                if tracker is not None:
                    faults["degraded"] = DegradedResult(
                        queries=degraded_completions,
                        total=completed, params=degraded_params)
        if telem is not None:
            # Functional-phase cache activity attributable to this run
            # (zero when the plan compile was already cached).
            for name, value in self._cache_counters().items():
                delta = value - cache_base.get(name, 0)
                if delta:
                    telem.counter(name).inc(delta)
        return run_result(self, session, tally, concurrency, params,
                          recall, faults, trace)

    #: Counter names that predate the generic per-kind scheme; kept so
    #: existing dashboards/tests keep their series.
    _COUNTER_ALIASES = {("diskann", "misses"): "cache_diskann_node_misses"}

    def _cache_counters(self) -> dict[str, int]:
        """Cumulative cache counters of the collection's indexes.

        Any index exposing ``cache_stats() -> dict`` is folded in under
        ``cache_<kind>_<stat>`` names (DiskANN node caches, SPANN
        posting-list caches, ...).
        """
        totals: collections.Counter[str] = collections.Counter()
        for segment in self.collection.segments:
            index = segment.index
            stats_fn = getattr(index, "cache_stats", None)
            if stats_fn is not None:
                for stat, value in stats_fn().items():
                    name = self._COUNTER_ALIASES.get(
                        (index.kind, stat), f"cache_{index.kind}_{stat}")
                    totals[name] += value
            cache = getattr(index, "cache", None)
            if cache is not None and hasattr(cache, "hits"):
                totals["cache_page_hits"] += cache.hits
                totals["cache_page_misses"] += cache.misses
        return dict(totals)

