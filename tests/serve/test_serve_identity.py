"""The open-loop server's contract: the old arrival path's run, exactly.

:meth:`Server._serve_open` feeds its arrival schedule to the event heap
through :meth:`~repro.simkernel.Environment.timeline` and starts each
service on one boot event that calls the replayer's ``start``.  Only
no-op events may go — two per arrival (the arrival process's completion
and ``process_at``'s relay) and one per dispatched query (its service's
completion) — so on every configuration below the shipped server and
``tests/serve/reference_server.py`` (the ``process_at`` body, verbatim)
must return the same ``repr(ServeResult)``, the same telemetry spans and
counters, and fire the same admissions, dispatches, sheds and
completions at the same simulated instants.
"""

import pytest

from repro.mutate import CompactionPolicy, MutationLoad
from repro.obs.export import render_prometheus
from repro.serve import (AIMDConfig, BurstyArrivals, DiurnalArrivals,
                         PoissonArrivals, ServeConfig, Server, TenantLoad)
from repro.tenancy import (AutopilotServer, PlacementConfig,
                           SloControllerConfig, TenancyConfig)
from repro.workload import BenchRunner

from tests.serve.reference_server import (ReferenceAutopilotServer,
                                          ReferenceServer)
from tests.tenancy.conftest import profile, registry
from tests.workload.test_runner import make_engine

PARAMS = {"ef_search": 16}


class FixedArrivals:
    """An arrival model replaying a fixed schedule, ties included."""

    def __init__(self, times):
        self.times = tuple(times)

    @property
    def mean_qps(self) -> float:
        return len(self.times) / max(self.times[-1], 1e-9)

    def timeline(self, duration_s, seed=0, stream=0):
        return tuple(when for when in self.times if when < duration_s)


class Recording:
    """Logs every effectful server hook with the simulated clock."""

    def _start_background(self, session):
        self.env = session.env
        self.log = []
        super()._start_background(session)

    def _admit(self, tenant, when):
        admitted = super()._admit(tenant, when)
        self.log.append(("admit", self.env.now, tenant, when, admitted))
        return admitted

    def _plan_for(self, session, query):
        plan, cold = super()._plan_for(session, query)
        self.log.append(("dispatch", self.env.now, query.seq,
                         query.index, cold))
        return plan, cold

    def _on_shed(self, query):
        self.log.append(("shed", self.env.now, query.seq))
        super()._on_shed(query)

    def _on_completion(self, query, record):
        self.log.append(("done", self.env.now, query.seq, query.tenant,
                         record.arrival_s, record.dispatch_s,
                         record.end_s, record.failed))
        super()._on_completion(query, record)


class Shipped(Recording, Server):
    pass


class Reference(Recording, ReferenceServer):
    pass


class ShippedAutopilot(Recording, AutopilotServer):
    pass


class ReferenceAutopilot(Recording, ReferenceAutopilotServer):
    pass


def observe(server):
    """Everything observable about one serving run."""
    result = server.serve()
    telem = result.telemetry
    return result, {
        "result": repr(result),
        "log": server.log,
        "now": server.env.now,
        "spans": None if telem is None else [repr(s) for s in telem.spans],
        "compactions": (None if telem is None
                        else [repr(s) for s in telem.compaction_spans]),
        "metrics": None if telem is None else render_prometheus(telem),
    }, server.env.events_processed


def assert_identical(shipped, reference):
    """Equal observations; events exactly the dropped no-ops fewer.

    Returns the shipped server's result and log.
    """
    result, new, new_events = observe(shipped)
    _result, old, old_events = observe(reference)
    assert new == old
    arrivals = sum(1 for entry in new["log"] if entry[0] == "admit")
    dispatched = sum(1 for entry in new["log"] if entry[0] == "dispatch")
    assert arrivals > 0 and dispatched > 0
    assert old_events - new_events == 2 * arrivals + dispatched
    return result, new["log"]


@pytest.fixture(scope="module")
def runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


def config(**overrides):
    base = dict(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=2000.0)),),
        duration_s=0.2, max_inflight=4, search_params=dict(PARAMS))
    base.update(overrides)
    return ServeConfig(**base)


def two_tenants(**arrivals):
    first = arrivals.get("first", PoissonArrivals(rate_qps=2500.0))
    second = arrivals.get("second", PoissonArrivals(rate_qps=1500.0))
    return (TenantLoad("a", first, weight=3.0, slo_deadline_s=0.004),
            TenantLoad("b", second, weight=1.0, slo_deadline_s=0.010))


#: Tied arrival times within a tenant and across the two tenants.
TIED = FixedArrivals([0.0, 0.0, 0.001, 0.001, 0.001, 0.0025, 0.004,
                      0.004, 0.0105, 0.0105, 0.02, 0.05])

CONFIGS = {
    "fifo": lambda: config(),
    "fifo-unbounded": lambda: config(max_inflight=None),
    "wfq": lambda: config(tenants=two_tenants(), policy="wfq",
                          queue_bound=4, max_inflight=1),
    "edf": lambda: config(tenants=two_tenants(), policy="edf",
                          max_inflight=2),
    "no-batching": lambda: config(batch_cap=1, max_inflight=2),
    "aimd": lambda: config(controller=AIMDConfig(
        target_latency_s=0.002, initial=2, window=8)),
    "shed-late": lambda: config(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=6000.0)),),
        max_inflight=2, slo_deadline_s=0.002, shed_late=True),
    "bursty": lambda: config(tenants=(TenantLoad("t", BurstyArrivals(
        base_qps=800.0, burst_qps=8000.0, mean_calm_s=0.03,
        mean_burst_s=0.01)),), queue_bound=32),
    "diurnal": lambda: config(tenants=(TenantLoad("t", DiurnalArrivals(
        peak_qps=5000.0, trough_qps=500.0, period_s=0.1,
        phase=0.25)),), max_inflight=3),
    "tied-arrivals": lambda: config(
        tenants=two_tenants(first=TIED, second=TIED), policy="wfq",
        max_inflight=1),
}


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_serving_matches_the_process_at_reference(runner, name,
                                                  telemetry):
    conf = CONFIGS[name]()
    assert_identical(Shipped(runner, conf, telemetry=telemetry),
                     Reference(runner, conf, telemetry=telemetry))


def test_shedding_and_rejection_paths_are_covered(runner):
    _result, log = assert_identical(
        Shipped(runner, CONFIGS["shed-late"]()),
        Reference(runner, CONFIGS["shed-late"]()))
    assert any(entry[0] == "shed" for entry in log)
    wfq = Shipped(runner, CONFIGS["wfq"]())
    assert wfq.serve().rejected > 0


def test_mutation_load_matches_the_reference(small_data, small_queries,
                                             small_truth):
    load = MutationLoad(
        insert_qps=60_000.0, delete_qps=6_000.0, batch_rows=64,
        policy=CompactionPolicy(delta_rows=3_000, tombstone_fraction=0.5),
        write_amplification=2.0)

    def fresh_runner():
        # Mutation processes allocate device extents: one runner a side.
        return BenchRunner(make_engine(small_data, kind="diskann"),
                           "bench", small_queries, ground_truth=small_truth)

    conf = config(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=4000.0)),),
        duration_s=0.25, max_inflight=8, seed=5,
        search_params={"search_list": 30}, mutation=load)
    result, _log = assert_identical(
        Shipped(fresh_runner(), conf, telemetry=True),
        Reference(fresh_runner(), conf, telemetry=True))
    assert result.mutation.compactions >= 1


def test_autopilot_matches_the_reference(runner):
    reg = registry(
        profile(name="a0", rate=1500.0, group="g0", quota=0.02),
        profile(name="a1", rate=1500.0, group="g0"),
        profile(name="b0", rate=4000.0, group="g1", priority="batch"))
    tenancy = TenancyConfig(
        registry=reg,
        controller=SloControllerConfig(interval_s=0.02, degrade_after=2,
                                       restore_after=4,
                                       min_observations=2),
        placement=PlacementConfig(hot_capacity=1, interval_s=0.03,
                                  min_residency_s=0.03, ewma_alpha=1.0))
    conf = tenancy.serve_config(queue_bound=64, max_inflight=2,
                                duration_s=0.2, seed=11,
                                search_params={"ef_search": 32})
    result, _log = assert_identical(
        ShippedAutopilot(runner, conf, tenancy, telemetry=True),
        ReferenceAutopilot(runner, conf, tenancy, telemetry=True))
    assert result.tenancy.promotions >= 1
    assert result.tenancy.quota_rejected >= 1


def test_heap_holds_one_pending_arrival(runner):
    """10 k arrivals never put more than a handful of events on the heap."""
    depths = []

    class Probe(Server):
        def _start_background(self, session):
            self.env = session.env

        def _admit(self, tenant, when):
            depths.append(len(self.env._heap))
            return True

    result = Probe(runner, config(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=100_000.0)),),
        duration_s=0.1, queue_bound=8, max_inflight=4)).serve()
    assert result.arrivals == len(depths) >= 9_000
    assert max(depths) < 100

