"""Behavioural tests for the serving layer (determinism suite).

The anchor contract: same config + same seed => an identical
:class:`ServeResult`.
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs import RunTelemetry
from repro.serve import (AIMDConfig, PoissonArrivals, ServeConfig, Server,
                         TenantLoad, serve)
from repro.workload import BenchRunner

from tests.workload.test_runner import make_engine


@pytest.fixture(scope="module")
def runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


def open_config(**overrides):
    base = dict(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=2000.0)),),
        duration_s=0.2, max_inflight=4,
        search_params={"ef_search": 16})
    base.update(overrides)
    return ServeConfig(**base)


class TestDeterminism:
    def test_same_seed_same_result(self, runner):
        first = serve(runner, open_config(seed=9))
        second = serve(runner, open_config(seed=9))
        assert first == second

    def test_different_seed_different_arrivals(self, runner):
        first = serve(runner, open_config(seed=1))
        second = serve(runner, open_config(seed=2))
        assert first.p99_latency_s != second.p99_latency_s

    def test_telemetry_does_not_perturb_the_run(self, runner):
        plain = serve(runner, open_config())
        instrumented = serve(runner, open_config(), telemetry=True)
        # ServeResult equality excludes the telemetry field itself.
        assert plain == instrumented
        assert plain.telemetry is None
        assert instrumented.telemetry is not None


class TestOpenLoopBehaviour:
    def test_accounting_identity(self, runner):
        result = serve(runner, open_config())
        assert result.arrivals == result.admitted + result.rejected
        assert result.admitted == (result.completed + result.failed
                                   + result.shed)
        assert result.tenant("t").arrivals == result.arrivals

    def test_bounded_queue_rejects(self, runner):
        result = serve(runner, open_config(
            tenants=(TenantLoad("t", PoissonArrivals(rate_qps=8000.0)),),
            queue_bound=4, max_inflight=1))
        assert result.rejected > 0
        assert result.max_queue_depth <= 4

    def test_shedding_drops_late_queries(self, runner):
        overload = (TenantLoad("t", PoissonArrivals(rate_qps=8000.0)),)
        shed = serve(runner, open_config(
            tenants=overload, policy="edf", max_inflight=2,
            slo_deadline_s=0.002, shed_late=True))
        queued = serve(runner, open_config(
            tenants=overload, max_inflight=2, slo_deadline_s=0.002))
        assert shed.shed > 0 and queued.shed == 0
        assert shed.goodput_qps > queued.goodput_qps

    def test_latency_decomposes_into_queue_plus_service(self, runner):
        result = serve(runner, open_config(
            tenants=(TenantLoad("t", PoissonArrivals(rate_qps=6000.0)),),
            max_inflight=2))
        assert result.mean_queue_s > 0
        assert result.mean_latency_s == pytest.approx(
            result.mean_queue_s + result.mean_service_s)

    def test_queue_stage_appears_in_spans(self, runner):
        telemetry = RunTelemetry()
        serve(runner, open_config(
            tenants=(TenantLoad("t", PoissonArrivals(rate_qps=6000.0)),),
            max_inflight=2), telemetry=telemetry)
        queued = [s for s in telemetry.spans if "queue" in s.stages]
        assert queued
        assert all(s.stages["queue"] > 0 for s in queued)

    def test_serve_counters_reconcile_with_result(self, runner):
        telemetry = RunTelemetry()
        result = serve(runner, open_config(), telemetry=telemetry)
        for event in ("arrivals", "admitted", "completed"):
            assert (telemetry.counter(f"serve_{event}").value
                    == getattr(result, event))

    def test_aimd_controller_adapts(self, runner):
        result = serve(runner, open_config(
            tenants=(TenantLoad("t", PoissonArrivals(rate_qps=6000.0)),),
            max_inflight=None,
            controller=AIMDConfig(target_latency_s=0.01, initial=2,
                                  window=8, ceiling=16)))
        assert result.controller_history
        assert result.final_limit >= 1

    def test_wfq_isolates_light_tenant(self, runner):
        light = TenantLoad("light", PoissonArrivals(rate_qps=200.0),
                           weight=2.0)
        noisy = TenantLoad("noisy", PoissonArrivals(rate_qps=6000.0))
        fifo = serve(runner, open_config(tenants=(light, noisy),
                                         max_inflight=2))
        wfq = serve(runner, open_config(tenants=(light, noisy),
                                        policy="wfq", max_inflight=2))
        assert (wfq.tenant("light").p99_latency_s
                < fifo.tenant("light").p99_latency_s)

    def test_to_dict_round_trips_scalars(self, runner):
        result = serve(runner, open_config())
        data = result.to_dict()
        assert data["qps"] == result.qps
        assert "telemetry" not in data
        assert data["tenants"][0]["name"] == "t"


class TestConfigValidation:
    def tenants(self, model):
        return (TenantLoad("t", model),)

    def test_rejects_empty_and_mixed_tenants(self):
        # "mixed" was closed- with open-loop tenants; serving is
        # open-loop only since 1.13, the id is kept stable.
        with pytest.raises(ServeError):
            ServeConfig(tenants=())

    def test_rejects_bad_knobs(self):
        model = PoissonArrivals(rate_qps=10.0)
        with pytest.raises(ServeError):
            ServeConfig(tenants=self.tenants(model), policy="lifo")
        with pytest.raises(ServeError):
            ServeConfig(tenants=self.tenants(model), duration_s=0.0)
        with pytest.raises(ServeError):
            ServeConfig(tenants=self.tenants(model), batch_cap=0)
        with pytest.raises(ServeError):
            ServeConfig(tenants=self.tenants(model), max_inflight=0)
        with pytest.raises(ServeError):
            ServeConfig(tenants=self.tenants(model), slo_deadline_s=-1.0)
        with pytest.raises(ServeError):
            ServeConfig(tenants=self.tenants(model), shed_late=True)
        with pytest.raises(ServeError):
            TenantLoad("t", model, weight=0.0)

    def test_empty_run_raises(self, small_data, small_queries,
                              small_truth):
        engine = make_engine(small_data)
        runner = BenchRunner(engine, "bench", small_queries,
                             ground_truth=small_truth)
        config = open_config(tenants=(
            TenantLoad("t", PoissonArrivals(rate_qps=1e-6)),))
        with pytest.raises(ServeError):
            Server(runner, config).serve()
