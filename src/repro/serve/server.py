"""The serving layer: admission control, batching, and shedding.

The :class:`Server` turns a :class:`~repro.workload.runner.BenchRunner`
— a query set compiled against one (engine, collection) on the
simulated hardware — into a *service* facing offered load:

1. each tenant's :mod:`arrival model <repro.serve.arrivals>` produces a
   deterministic arrival timeline; the merged schedule is fed to the
   simulation with :meth:`~repro.simkernel.Environment.timeline`, one
   pending timer at a time, and each arrival runs as a plain callback;
2. an arrival is **admitted** into the bounded
   :mod:`admission queue <repro.serve.queueing>` or **rejected** when
   the queue is at its bound (admission control);
3. whenever a concurrency slot frees up, the dispatcher pops queued
   queries in policy order and launches them as a **batch** (up to
   ``batch_cap``), amortizing the engine's fixed per-query CPU cost
   over the dispatched batch — the open-loop analogue of the closed
   loop's static ``min(concurrency, batch_cap)`` amortization; each
   query's service is started with
   :meth:`~repro.simkernel.Environment.spawn`, since nothing joins it;
4. with shedding enabled, a popped query whose SLO deadline has
   already passed is **shed** instead of dispatched — its service
   time would be pure waste, and dropping it is what keeps goodput
   from collapsing past saturation;
5. the concurrency limit is either a static ``max_inflight`` or
   discovered online by the :class:`~repro.serve.ConcurrencyController`
   (AIMD against the SLO target).

Serving is open-loop only; the closed loop is :meth:`BenchRunner.run
<repro.workload.runner.BenchRunner.run>`.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing as t

import numpy as np

from repro.errors import ServeError
from repro.mutate.simproc import (MutationLoad, MutationState,
                                  mutation_stats, start_mutation_load)
from repro.obs import RunTelemetry
from repro.serve.arrivals import ArrivalModel, check_count, check_positive
from repro.serve.controller import AIMDConfig, ConcurrencyController
from repro.serve.queueing import POLICIES, QueuedQuery, make_queue
from repro.serve.result import ServeResult, TenantStats
from repro.workload.metrics import percentiles
from repro.workload.replay import ReplaySession

if t.TYPE_CHECKING:
    from repro.workload.runner import BenchRunner, CompiledQuery


@dataclasses.dataclass(frozen=True)
class TenantLoad:
    """One tenant: its name, offered load, dispatch weight and SLO.

    The one tenant value of a serving run; the tenancy control plane's
    :class:`~repro.tenancy.TenantProfile` is a subclass adding only
    control-plane fields, so a roster of profiles serves as is.
    """

    name: str
    arrivals: ArrivalModel
    #: Fair-queueing weight (relative dispatch share under ``wfq``).
    weight: float = 1.0
    #: Per-tenant SLO deadline; falls back to the config's.
    slo_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant name must be non-empty")
        check_positive("tenant weight", self.weight)
        if self.slo_deadline_s is not None:
            check_positive("SLO deadline", self.slo_deadline_s)


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Everything a serving run needs beyond the runner itself."""

    tenants: tuple[TenantLoad, ...]
    #: Admission-queue policy: ``fifo``, ``wfq``, or ``edf``.
    policy: str = "fifo"
    #: Admission-queue bound; ``None`` = unbounded (never reject).
    queue_bound: int | None = None
    #: Queries per dispatch round; ``None`` = the engine profile's
    #: ``batch_cap``; ``1`` disables batching.
    batch_cap: int | None = None
    #: Static concurrency limit; ``None`` = unbounded (no queueing).
    max_inflight: int | None = None
    #: AIMD controller; when set it owns the limit (``max_inflight``
    #: is ignored) and discovers the knee online.
    controller: AIMDConfig | None = None
    #: Default SLO deadline (arrival -> completion) for goodput.
    slo_deadline_s: float | None = None
    #: Drop queued queries whose deadline already passed at dispatch.
    shed_late: bool = False
    #: Offered-load window; arrivals stop here, in-flight work drains.
    duration_s: float = 1.0
    seed: int = 0
    search_params: dict[str, t.Any] = dataclasses.field(
        default_factory=dict)
    #: Concurrent insert/delete stream plus threshold-triggered
    #: background compaction sharing the device and cores with queries
    #: (see :class:`repro.mutate.MutationLoad`); on a cluster one
    #: stream per shard, on its primary.  ``None`` = read-only.
    mutation: MutationLoad | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServeError("a serve config needs at least one tenant")
        if self.policy not in POLICIES:
            raise ServeError(f"unknown queue policy {self.policy!r}; "
                             f"expected one of {POLICIES}")
        check_positive("duration", self.duration_s)
        for what in ("queue_bound", "batch_cap", "max_inflight"):
            value = getattr(self, what)
            if value is not None:
                check_count(what, value)
        if self.slo_deadline_s is not None:
            check_positive("SLO deadline", self.slo_deadline_s)
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)):
            raise ServeError(f"seed must be an integer: {self.seed!r}")
        if self.shed_late and self.deadline_for(0) is None:
            raise ServeError("shedding needs an SLO deadline")

    def deadline_for(self, tenant: int) -> float | None:
        """The effective SLO deadline of tenant index *tenant*."""
        own = self.tenants[tenant].slo_deadline_s
        return own if own is not None else self.slo_deadline_s

    @property
    def offered_qps(self) -> float:
        """Total mean offered load across the tenants."""
        return sum(ten.arrivals.mean_qps for ten in self.tenants)


@dataclasses.dataclass
class _QueryRecord:
    """Per-query accounting folded into tenant and run stats."""

    tenant: int
    arrival_s: float
    dispatch_s: float = 0.0
    end_s: float = 0.0
    failed: bool = False

    @property
    def latency_s(self) -> float:
        return self.end_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        return self.dispatch_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.end_s - self.dispatch_s


class _Tally:
    """Mutable per-tenant counters during one serving run."""

    def __init__(self) -> None:
        self.arrivals = 0
        self.admitted = 0
        self.rejected = 0
        self.quota_rejected = 0
        self.shed = 0
        self.records: list[_QueryRecord] = []


class Server:
    """Serves one runner's query set under a :class:`ServeConfig`."""

    def __init__(self, runner: "BenchRunner", config: ServeConfig,
                 telemetry: RunTelemetry | bool | None = None) -> None:
        self.runner = runner
        self.config = config
        self.telemetry = (RunTelemetry() if telemetry is True
                          else (telemetry or None))
        self._mutation: tuple[MutationState, ...] = ()

    # -- helpers ----------------------------------------------------------

    def _note(self, event: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.on_event("serve", event, amount)

    # -- control-plane hook points ----------------------------------------
    #
    # All no-ops here; the :class:`repro.tenancy.AutopilotServer`
    # subclass overrides them (and folds its accounting into
    # :meth:`_result`).  Keeping the plain server's behavior in
    # the base methods is what makes "autopilot disabled" trivially
    # bit-identical to PR 5 serving — there is no second code path to
    # drift.

    def _admit(self, tenant: int, when: float) -> bool:
        """Pre-queue admission gate (quota buckets live here)."""
        return True

    def _plan_for(self, session: ReplaySession,
                  query: QueuedQuery) -> "tuple[CompiledQuery, bool]":
        """The plan to replay for *query* (level/tier selection hook)."""
        return session.plan_for(query.index)

    def _on_completion(self, query: QueuedQuery,
                       record: _QueryRecord) -> None:
        """Observation feed for closed-loop controllers."""

    def _on_shed(self, query: QueuedQuery) -> None:
        """Notification that an admitted query was shed at dispatch."""

    def _start_background(self, session: ReplaySession) -> None:
        """Spawn control-plane simprocs before arrivals are scheduled."""

    def _result(self, session: ReplaySession, tallies: list[_Tally],
                batches: int, max_depth: int,
                controller: ConcurrencyController | None,
                final_limit: int | None) -> ServeResult:
        config = self.config
        done = [r for tally in tallies for r in tally.records if r.end_s]
        completed = [r for r in done if not r.failed]
        if not completed:
            raise ServeError("serving run completed no queries; "
                             "offered load or duration too small?")
        # The offered window is the denominator floor — draining a
        # backlog after arrivals stop must not inflate the rate.
        elapsed = max(max(r.end_s for r in completed), config.duration_s)

        def met_slo(record: _QueryRecord) -> bool:
            deadline = config.deadline_for(record.tenant)
            return deadline is None or record.latency_s <= deadline

        def stats(tenant: int, tally: _Tally) -> TenantStats:
            mine = [r for r in tally.records if r.end_s and not r.failed]
            lat = [r.latency_s for r in mine]
            slo_ok = sum(1 for r in mine if met_slo(r))
            nan = float("nan")
            p50, p95, p99 = (percentiles(lat, (50, 95, 99)) if lat
                             else (nan, nan, nan))
            return TenantStats(
                name=config.tenants[tenant].name,
                weight=config.tenants[tenant].weight,
                arrivals=tally.arrivals,
                admitted=tally.admitted,
                rejected=tally.rejected,
                quota_rejected=tally.quota_rejected,
                shed=tally.shed,
                completed=len(mine),
                failed=sum(1 for r in tally.records
                           if r.end_s and r.failed),
                slo_completions=slo_ok,
                goodput_qps=slo_ok / elapsed,
                mean_latency_s=float(np.mean(lat)) if lat else nan,
                p50_latency_s=p50,
                p95_latency_s=p95,
                p99_latency_s=p99,
                mean_queue_s=(float(np.mean([r.queue_s for r in mine]))
                              if mine else nan),
                mean_service_s=(float(np.mean([r.service_s for r in mine]))
                                if mine else nan),
            )

        tenants = tuple(stats(i, tally) for i, tally in enumerate(tallies))
        latencies = [r.latency_s for r in completed]
        p50, p95, p99 = percentiles(latencies, (50, 95, 99))
        slo_total = sum(s.slo_completions for s in tenants)
        self._note("completed", len(completed))
        self._note("slo_completions", slo_total)
        self._note("slo_misses", len(completed) - slo_total)
        return ServeResult(
            engine=self.runner.engine.profile.name,
            index_kind=self.runner.collection.index_spec.kind,
            dataset=self.runner.collection.name,
            policy=config.policy,
            duration_s=elapsed,
            offered_qps=config.offered_qps,
            arrivals=sum(s.arrivals for s in tenants),
            admitted=sum(s.admitted for s in tenants),
            rejected=sum(s.rejected for s in tenants),
            shed=sum(s.shed for s in tenants),
            completed=len(completed),
            failed=sum(s.failed for s in tenants),
            slo_completions=slo_total,
            batches=batches,
            qps=len(completed) / elapsed,
            goodput_qps=slo_total / elapsed,
            mean_latency_s=float(np.mean(latencies)),
            p50_latency_s=p50,
            p95_latency_s=p95,
            p99_latency_s=p99,
            mean_queue_s=float(np.mean([r.queue_s for r in completed])),
            mean_service_s=float(np.mean([r.service_s
                                          for r in completed])),
            max_queue_depth=max_depth,
            tenants=tenants,
            controller_history=(tuple(controller.history)
                                if controller is not None else ()),
            final_limit=final_limit,
            recall=session.recall,
            mutation=(mutation_stats(self._mutation)
                      if self._mutation else None),
            telemetry=self.telemetry,
        )

    # -- open loop --------------------------------------------------------

    def _serve_open(self, session: ReplaySession) -> ServeResult:
        config = self.config
        env, replayer, telem = session.env, session.replayer, self.telemetry
        profile = self.runner.engine.profile
        batch_cap = config.batch_cap or profile.batch_cap
        queue = make_queue(config.policy, config.queue_bound,
                           [ten.weight for ten in config.tenants])
        controller = (ConcurrencyController(config.controller)
                      if config.controller is not None else None)
        tallies = [_Tally() for _ in config.tenants]
        n_queries = len(self.runner.queries)
        state = {"inflight": 0, "batches": 0, "max_depth": 0}

        # The merged arrival schedule: a pure function of (models,
        # duration, seed), sorted by time with the tenant index as the
        # deterministic tie-breaker.
        schedule = sorted(
            (when, tenant)
            for tenant, ten in enumerate(config.tenants)
            for when in ten.arrivals.timeline(config.duration_s,
                                              config.seed, stream=tenant))

        def limit() -> int | None:
            if controller is not None:
                return controller.limit
            return config.max_inflight

        def service(query: QueuedQuery, record: _QueryRecord,
                    fixed_cpu: float):
            plan, cold = self._plan_for(session, query)
            span = (telem.begin_query(query.seq, query.index, query.tenant,
                                      cold, record.arrival_s)
                    if telem is not None else None)
            if span is not None and record.queue_s > 0:
                span.add_stage("queue", record.queue_s)
            failed = yield from replayer.query_proc(plan, span, fixed_cpu)
            record.end_s = env.now
            record.failed = bool(failed)
            if span is not None:
                telem.end_query(span, env.now)
            state["inflight"] -= 1
            if controller is not None and not record.failed:
                # Feed *service* time (dispatch -> completion), not
                # end-to-end latency: the knee is a property of how
                # service time grows with concurrency, and it is what
                # the closed-loop sweep measures.  End-to-end latency
                # includes the queue the controller itself regulates —
                # feeding it back would lock the limit at the floor
                # once any backlog forms (bufferbloat).
                controller.on_completion(record.service_s)
            self._on_completion(query, record)
            dispatch()

        def dispatch() -> None:
            """Form and launch batches while slots and queries remain.

            A plain function (not a process): runs synchronously inside
            the admitting arrival or the completing service, so the
            dispatch decision always sees the freshest queue and limit.
            """
            while len(queue):
                cap = limit()
                slots = (batch_cap if cap is None
                         else min(batch_cap, cap - state["inflight"]))
                if slots <= 0:
                    return
                batch: list[QueuedQuery] = []
                while len(batch) < slots:
                    query = queue.pop()
                    if query is None:
                        break
                    if (config.shed_late
                            and env.now > query.deadline_s):
                        tallies[query.tenant].shed += 1
                        self._note("shed")
                        self._on_shed(query)
                        continue
                    batch.append(query)
                if not batch:
                    return
                state["batches"] += 1
                self._note("batches")
                fixed_cpu = profile.fixed_query_cpu_s / min(
                    len(batch), profile.batch_cap)
                for query in batch:
                    record = _QueryRecord(tenant=query.tenant,
                                          arrival_s=query.arrival_s,
                                          dispatch_s=env.now)
                    tallies[query.tenant].records.append(record)
                    state["inflight"] += 1
                    env.spawn(service(query, record, fixed_cpu))

        def arrival(seq: int) -> None:
            when, tenant = schedule[seq]
            tally = tallies[tenant]
            tally.arrivals += 1
            self._note("arrivals")
            if not self._admit(tenant, when):
                # Cost-priced quota rejection: counted inside the plain
                # ``rejected`` ledger (the accounting identities hold)
                # and attributed separately for the autopilot report.
                tally.rejected += 1
                tally.quota_rejected += 1
                self._note("rejected")
                self._note("quota_rejected")
                return
            deadline = config.deadline_for(tenant)
            query = QueuedQuery(
                seq=seq, tenant=tenant, index=seq % n_queries,
                arrival_s=when,
                deadline_s=(when + deadline if deadline is not None
                            else float("inf")))
            if queue.push(query):
                tally.admitted += 1
                self._note("admitted")
                state["max_depth"] = max(state["max_depth"], len(queue))
                dispatch()
            else:
                tally.rejected += 1
                self._note("rejected")

        env.timeline([when for when, _tenant in schedule], arrival)
        env.run()
        final = limit()
        return self._result(session, tallies, batches=state["batches"],
                            max_depth=state["max_depth"],
                            controller=controller, final_limit=final)

    # -- entry point ------------------------------------------------------

    def serve(self) -> ServeResult:
        """Run the configured serving simulation and return its result."""
        return self.serve_on(self.runner.open_replay(
            self.config.search_params, telemetry=self.telemetry))

    def serve_on(self, session: ReplaySession) -> ServeResult:
        """Serve on an already opened *session* of this server's runner.

        For callers that must arm the session before traffic starts
        (:func:`repro.chaos.run_chaos`); a session serves once.
        """
        if self.config.mutation is not None:
            self._mutation = start_mutation_load(
                session, self.runner, self.config.mutation,
                self.config.duration_s, telemetry=self.telemetry)
        self._start_background(session)
        return self._serve_open(session)
