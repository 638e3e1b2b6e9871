"""The replay core: one session, one closed-loop driver, one result.

The paper measures everything with one protocol (Section III-B): N
closed-loop clients with one in-flight query each, caches dropped
before the run, every query index replayed cold once and warm after.
This module is that protocol, once:

* a **host** is one simulated machine — a
  :class:`~repro.workload.runner.QueryReplayer` holding ``env``,
  ``device``, ``cores`` and ``pool`` (built by
  :func:`~repro.workload.runner.open_host`);
* a :class:`ReplaySession` binds compiled cold/warm plans to one fresh
  timeline: its hosts, the top-level ``replayer`` queries are issued
  to, and the only cold/warm tracker (:meth:`ReplaySession.plan_for`);
* :func:`closed_loop` is the only closed-loop client (callbacks over
  the replayer's ``start``);
* :func:`run_result` / :func:`oom_result` assemble the
  :class:`~repro.workload.metrics.RunResult`.

:meth:`BenchRunner.run <repro.workload.runner.BenchRunner.run>`,
:meth:`ClusterBenchRunner.run
<repro.cluster.runner.ClusterBenchRunner.run>` and the closed-loop
:class:`repro.serve.Server` are thin callers; they differ only in the
session they open, the plan they pick and what they record.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing as t

import numpy as np

from repro.errors import FaultError, WorkloadError, require_int, require_real
from repro.obs import RunTelemetry
from repro.simkernel import Environment, Now, Resource
from repro.workload.metrics import RunResult, percentiles

if t.TYPE_CHECKING:
    from repro.mutate.simproc import MutationStats
    from repro.workload.runner import BenchRunner, QueryReplayer


@dataclasses.dataclass
class ReplaySession:
    """One fresh simulated timeline with compiled plans bound to it.

    Built by a runner's ``open_replay``.  A single-node session has one
    host, which is also its ``replayer``; a cluster session
    (:class:`repro.cluster.runner.ClusterReplaySession`) has one host
    per node and the coordinator as ``replayer``.  Callers drive it
    with :func:`closed_loop`, or issue
    ``session.replayer.start(plan, span, fixed_cpu, then)`` on their
    own schedule and run ``session.env``.
    """

    env: Environment
    hosts: list["QueryReplayer"]
    #: Where queries are issued: ``start(plan, span, fixed_cpu, then)``
    #: (or its process face ``query_proc(plan, span, fixed_cpu)``).
    replayer: t.Any
    cold: list
    warm: list
    recall: float | None
    telemetry: RunTelemetry | None
    _cold_replayed: set[int] = dataclasses.field(default_factory=set,
                                                 init=False)

    def plan_for(self, index: int) -> tuple[t.Any, bool]:
        """The plan to replay for query *index*, tracking warm-up.

        Cold-vs-warm is a per-*index* decision: the first replay of an
        index after the cache drop uses its cold profile, every later
        one the warm profile; returns ``(plan, cold)``.
        """
        cold = index not in self._cold_replayed
        if cold:
            self._cold_replayed.add(index)
        return (self.cold[index] if cold else self.warm[index]), cold

    @property
    def core_pools(self) -> list[Resource]:
        """Every core pool on the timeline; CPU utilisation is their
        mean."""
        return [host.cores for host in self.hosts]


@dataclasses.dataclass
class LoopTally:
    """What one closed loop completed."""

    #: Latency of every successful query, in completion order.
    latencies: list[float] = dataclasses.field(default_factory=list)
    #: Queries whose replay failed permanently.
    failures: int = 0
    last_completion: float = 0.0

    def require_completions(self, all_failed: str) -> None:
        """Raise unless the loop completed at least one query."""
        if self.latencies:
            return
        if self.failures:
            raise FaultError(
                f"all {self.failures} queries failed: {all_failed}")
        raise WorkloadError("run completed no queries; duration too short?")


def check_loop(clients: t.Any, duration_s: t.Any, max_queries: t.Any,
               phase: t.Any) -> None:
    """Raise :class:`~repro.errors.WorkloadError` for a closed loop's
    bad inputs.

    ``clients`` and ``max_queries`` are integers >= 1 and ``phase`` an
    integer (never a ``bool``); ``duration_s`` is a number > 0 —
    ``inf`` included, since ``max_queries`` bounds the run.  The
    runners call this before compiling any plan.
    """
    require_int(WorkloadError, "concurrency", clients, 1)
    require_int(WorkloadError, "max_queries", max_queries, 1)
    require_int(WorkloadError, "phase", phase, None)
    require_real(WorkloadError, "duration_s", duration_s, above=0,
                 at_most=math.inf)


def closed_loop(session: ReplaySession, runner: "BenchRunner",
                clients: int, duration_s: float,
                max_queries: int = 25_000, phase: int = 0,
                pick: t.Callable[[int], tuple[t.Any, bool, t.Any]]
                | None = None,
                record: t.Callable[[t.Any, float, bool, t.Any], None]
                | None = None) -> LoopTally:
    """Run *clients* closed-loop clients on *session* until it drains.

    Each client keeps one query in flight, cycling through the query
    set from ``(ordinal + client_id + phase) % n_queries``; no query is
    issued at or after ``duration_s`` or beyond ``max_queries``.  The
    profile's fixed per-query CPU is amortized over
    ``min(clients, batch_cap)``.

    ``pick(index) -> (plan, cold, tag)`` chooses the plan to replay
    (default: :meth:`ReplaySession.plan_for`, no tag);
    ``record(tag, start_s, failed, span)`` runs at each completion,
    before the span closes.

    A client is two callbacks, not a process: one boot event per client
    issues its first query through ``replayer.start``, and each
    completion issues the next.
    """
    check_loop(clients, duration_s, max_queries, phase)
    env, replayer, telem = session.env, session.replayer, session.telemetry
    plan_for = session.plan_for
    profile = runner.engine.profile
    fixed_cpu = profile.fixed_query_cpu_s / min(clients, profile.batch_cap)
    n_queries = len(runner.queries)
    tally = LoopTally()
    latencies = tally.latencies
    issued = 0
    # True while ``issue`` is inside ``replayer.start``: a query that
    # completes there (a plan with nothing to wait on) lets ``issue``
    # loop instead of recursing into it.
    issuing = False

    def issue(client_id: int, _boot: t.Any = None) -> None:
        nonlocal issued, issuing
        while env.now < duration_s and issued < max_queries:
            ordinal = issued
            issued += 1
            index = (ordinal + client_id + phase) % n_queries
            if pick is None:
                plan, cold = plan_for(index)
                tag = None
            else:
                plan, cold, tag = pick(index)
            span = (telem.begin_query(ordinal, index, client_id, cold,
                                      env.now)
                    if telem is not None else None)
            issuing = True
            replayer.start(plan, span, fixed_cpu, functools.partial(
                complete, client_id, tag, env.now, span))
            if issuing:             # in flight: ``complete`` issues next
                issuing = False
                return

    def complete(client_id: int, tag: t.Any, start: float, span: t.Any,
                 failed: bool) -> None:
        nonlocal issuing
        if failed:
            tally.failures += 1
        else:
            latencies.append(env.now - start)
            tally.last_completion = env.now
        if record is not None:
            record(tag, start, bool(failed), span)
        if span is not None:
            telem.end_query(span, env.now)
        if issuing:
            issuing = False
        else:
            issue(client_id)

    for client_id in range(clients):
        Now(env, functools.partial(issue, client_id))
    env.run()
    # ``issue`` and ``complete`` refer to each other: unlink them, or
    # the session (its block trace can be megabytes) outlives the run
    # until the next full collection.
    issue = complete = None  # noqa: F841
    return tally


def oom_result(runner: "BenchRunner", concurrency: int,
               params: dict[str, t.Any]) -> RunResult:
    """The result of a run the engine refused for lack of memory."""
    return RunResult(
        engine=runner.engine.profile.name,
        index_kind=runner.collection.index_spec.kind,
        dataset=runner.collection.name, concurrency=concurrency,
        completed=0, elapsed_s=0.0, qps=0.0,
        mean_latency_s=float("nan"), p99_latency_s=float("nan"),
        cpu_utilization=0.0, device_utilization=0.0,
        read_bytes=0, write_bytes=0, search_params=params,
        error="out-of-memory")


def run_result(runner: "BenchRunner", session: ReplaySession,
               tally: LoopTally, concurrency: int,
               params: dict[str, t.Any], recall: float | None,
               faults: dict[str, t.Any] | None,
               trace: bool = False,
               mutation: "MutationStats | None" = None) -> RunResult:
    """Assemble the :class:`RunResult` of a drained closed loop.

    Utilisations are means over the session's core pools and devices,
    byte counts sums over its devices.
    """
    latencies = tally.latencies
    p50, p95, p99 = percentiles(latencies, (50, 95, 99))
    elapsed = max(tally.last_completion, 1e-9)
    devices = [host.device for host in session.hosts]
    return RunResult(
        engine=runner.engine.profile.name,
        index_kind=runner.collection.index_spec.kind,
        dataset=runner.collection.name,
        concurrency=concurrency,
        completed=len(latencies),
        elapsed_s=elapsed,
        qps=len(latencies) / elapsed,
        mean_latency_s=float(np.mean(latencies)),
        p99_latency_s=p99,
        p50_latency_s=p50,
        p95_latency_s=p95,
        cpu_utilization=float(np.mean(
            [cores.utilization(elapsed) for cores in session.core_pools])),
        device_utilization=float(np.mean(
            [device.utilization(elapsed) for device in devices])),
        read_bytes=sum(device.bytes_read for device in devices),
        write_bytes=sum(device.bytes_written for device in devices),
        recall=recall,
        search_params=params,
        tracer=devices[0].tracer if trace else None,
        telemetry=session.telemetry,
        faults=faults,
        mutation=mutation,
    )
