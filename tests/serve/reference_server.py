"""The open-loop server as it stood before the lazy arrival timeline.

The oracle of ``tests/serve/test_serve_identity.py`` — do not optimise.
:meth:`ReferenceServer._serve_open` is the shipped body from before
:meth:`~repro.simkernel.Environment.timeline` and
:meth:`~repro.simkernel.Environment.spawn`, verbatim: every arrival is
an ``env.process_at`` of a one-shot generator scheduled before the run
starts, and every service an ``env.process`` nobody joins.  The shipped
server must fire the same effectful callbacks in the same order, so
every result, span and per-query record equals this one's.  Never
imported by ``src/``.
"""

from __future__ import annotations

from repro.serve.controller import ConcurrencyController
from repro.serve.queueing import QueuedQuery, make_queue
from repro.serve.result import ServeResult
from repro.serve.server import Server, _QueryRecord, _Tally
from repro.tenancy.autopilot import AutopilotServer
from repro.workload.replay import ReplaySession


class ReferenceServer(Server):
    """A :class:`~repro.serve.Server` serving through the old arrival path."""

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
                    env.process(service(query, record, fixed_cpu))

        def arrival(seq: int, tenant: int, when: float):
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
            return
            yield  # makes this a generator for process_at

        for seq, (when, tenant) in enumerate(schedule):
            env.process_at(when, arrival(seq, tenant, when))
        env.run()
        final = limit()
        return self._result(session, tallies, batches=state["batches"],
                            max_depth=state["max_depth"],
                            controller=controller, final_limit=final)


class ReferenceAutopilotServer(AutopilotServer):
    """An :class:`~repro.tenancy.AutopilotServer` on the old arrival path."""

    _serve_open = ReferenceServer._serve_open
