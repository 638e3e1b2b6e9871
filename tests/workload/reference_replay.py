"""The host replay as it stood before the callback cursor.

The oracle of ``tests/workload/test_replay_identity.py`` and of the
``closed-loop replay`` section of ``benchmarks/bench_kernels.py`` — do
not optimise.  :func:`closed_loop` (the client generator) and
:class:`ReferenceReplayer`'s ``query_proc``, ``_segment_proc``,
``_read_attempt`` and ``_resilient_read`` are the shipped bodies from
before :meth:`~repro.workload.runner.QueryReplayer.start`, verbatim:
three nested generators per closed-loop query (``client`` ``yield
from`` ``query_proc`` ``yield from`` ``_segment_proc``) and a
sub-generator per resilient read.

:func:`installed` swaps both into the modules that look them up, so a
``BenchRunner.run``, a ``ClusterBenchRunner.run`` or a serving run goes
through the old bodies unchanged otherwise.  The shipped server calls
``replayer.start``; the reference's ``start`` runs the old
``query_proc`` generator inline (:func:`drive`), exactly as the old
server's service generator ``yield from``-ed it.  Never imported by
``src/``.
"""

from __future__ import annotations

import contextlib
import typing as t

from repro.errors import WorkloadError
from repro.simkernel.env import Process
from repro.simkernel.events import Event
from repro.workload.replay import LoopTally, ReplaySession
from repro.workload.runner import CompiledStep, QueryReplayer

if t.TYPE_CHECKING:
    from repro.workload.runner import BenchRunner


class _Inline(Process):
    """A generator run inside the running callback, as ``yield from``
    runs one inside a process: no bootstrap push, and returning calls
    ``then(value)`` instead of pushing a completion event."""

    __slots__ = ("_then",)

    def __init__(self, env, generator, then) -> None:
        Event.__init__(self, env)
        self._generator = generator
        self._then = then
        self._value = None          # the first ``send``: nobody holds self
        self._resume(self)

    def succeed(self, value: t.Any = None) -> Event:
        self._then(value)
        return self


def drive(env, generator, then: t.Callable[[t.Any], None]) -> None:
    """Run *generator* now; ``then(value)`` when it returns — the events
    of ``value = yield from generator`` inside the caller's process."""
    _Inline(env, generator, then)


class ReferenceReplayer(QueryReplayer):
    """A :class:`QueryReplayer` replaying through the old generators."""

    def start(self, plan, span, fixed_cpu, then) -> None:
        drive(self.env, self.query_proc(plan, span, fixed_cpu), then)

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

    def query_proc(self, plan, span=None,
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
    """
    if clients < 1:
        raise WorkloadError(f"concurrency must be >= 1: {clients}")
    env, replayer, telem = session.env, session.replayer, session.telemetry
    plan_for = session.plan_for
    profile = runner.engine.profile
    fixed_cpu = profile.fixed_query_cpu_s / min(clients, profile.batch_cap)
    n_queries = len(runner.queries)
    tally = LoopTally()
    latencies = tally.latencies
    issued = 0

    def client(client_id: int):
        nonlocal issued
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
            start = env.now
            failed = yield from replayer.query_proc(plan, span, fixed_cpu)
            if failed:
                tally.failures += 1
            else:
                latencies.append(env.now - start)
                tally.last_completion = env.now
            if record is not None:
                record(tag, start, bool(failed), span)
            if span is not None:
                telem.end_query(span, env.now)

    for client_id in range(clients):
        env.process(client(client_id))
    env.run()
    return tally


@contextlib.contextmanager
def installed() -> t.Iterator[None]:
    """Replay through the old bodies inside the ``with`` block.

    Every host ``open_host`` builds becomes a :class:`ReferenceReplayer`
    and both runners' closed loops the client generator above.
    """
    import repro.cluster.runner as cluster_runner
    import repro.workload.runner as workload_runner
    swaps = [(workload_runner, "QueryReplayer", ReferenceReplayer),
             (workload_runner, "closed_loop", closed_loop),
             (cluster_runner, "closed_loop", closed_loop)]
    saved = [(module, name, getattr(module, name))
             for module, name, _new in swaps]
    try:
        for module, name, new in swaps:
            setattr(module, name, new)
        yield
    finally:
        for module, name, old in saved:
            setattr(module, name, old)
