"""Fault injection + resilience through the benchmark runner.

The contracts these tests pin down:

* attaching an **empty** schedule, or an **inert** policy, leaves
  every reported number — and the full block trace — bit-identical to
  a run with nothing attached;
* a single engine is node 0 of a :class:`ChaosSchedule`: its device
  windows reproduce the pinned fault timeline, and every plane an
  engine cannot model is rejected;
* the same (schedule, policy, seed) replayed twice produces the same
  fault timeline and the same counters;
* the three fault ledgers reconcile: what the injector says it injected
  equals what telemetry counted equals what the block trace attributes;
* resilience accounting balances: every timeout became a retry or a
  read failure, and a run where every query fails raises FaultError.
"""

import dataclasses
import hashlib
import math

import pytest

from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.errors import FaultError, WorkloadError
from repro.faults import (ChaosSchedule, CrashPlan, GrayFailure,
                          LatencySpike, NodeKill, PartitionWindow, ReadError,
                          ResiliencePolicy, TailAmplification, Throttle)
from repro.workload import BenchRunner

DURATION = 0.3
PARAMS = {"search_list": 16}


@pytest.fixture(scope="module")
def runner(small_data, small_queries, small_truth):
    # Zero the node caches so demand reads actually reach the device —
    # the injection point faults device reads, not cache hits.
    profile = dataclasses.replace(get_profile("milvus"),
                                  diskann_cache_bytes=0,
                                  diskann_lru_bytes=0)
    engine = VectorEngine(profile)
    engine.create_collection("bench", small_data.shape[1],
                             IndexSpec.of("diskann", R=8, L_build=16),
                             storage_dim=768)
    engine.insert("bench", small_data)
    engine.flush("bench")
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


@pytest.fixture(scope="module")
def baseline(runner):
    return runner.run(2, PARAMS, duration_s=DURATION, trace=True)


HEAVY_WINDOWS = (
    ReadError(0.0, DURATION, probability=0.3, stall_s=0.005),
    LatencySpike(0.05, 0.15, extra_s=0.001),
    Throttle(0.10, 0.25, bandwidth_fraction=0.5))


def heavy_schedule(seed=3):
    """The heavy windows on the engine's device (node 0)."""
    return ChaosSchedule(device_faults=tuple((0, w) for w in HEAVY_WINDOWS),
                         seed=seed)


class TestNoOpEquivalence:
    def test_empty_plan_is_bit_identical(self, runner, baseline):
        result = runner.run(2, PARAMS, duration_s=DURATION, trace=True,
                            chaos=ChaosSchedule())
        assert result.qps == baseline.qps
        assert result.mean_latency_s == baseline.mean_latency_s
        assert result.p99_latency_s == baseline.p99_latency_s
        assert result.completed == baseline.completed
        assert result.read_bytes == baseline.read_bytes
        assert result.tracer.records == baseline.tracer.records
        # No device windows arm no injector: nothing to account.
        assert result.faults is None

    def test_inert_policy_is_bit_identical(self, runner, baseline):
        result = runner.run(2, PARAMS, duration_s=DURATION, trace=True,
                            resilience=ResiliencePolicy())
        assert result.qps == baseline.qps
        assert result.p99_latency_s == baseline.p99_latency_s
        assert result.tracer.records == baseline.tracer.records
        assert result.faults is None


class TestEngineIsNodeZero:
    def test_node0_device_faults_reproduce_the_pinned_timeline(self,
                                                               runner):
        # The single-engine fault timeline these windows produced at
        # seed 3 before the schedule became the engine's fault argument:
        # every draw is keyed by (seed, window position, read ordinal).
        result = runner.run(2, PARAMS, duration_s=DURATION, trace=True,
                            telemetry=True, chaos=heavy_schedule(seed=3))
        assert result.qps == 84.98766399742294
        assert result.p99_latency_s == 0.03796028350000008
        assert result.mean_latency_s == 0.02341376186307699
        assert result.completed == 26
        assert result.read_bytes == 2641920
        assert result.faults == {"injected": {
            "latency_spike": 149, "read_error": 158, "throttle": 283,
            "reads_sampled": 645}}
        assert result.tracer.fault_counts() == {
            "read_error": 158, "latency_spike": 149, "throttle": 283}
        assert len(result.tracer.records) == 645
        assert hashlib.sha256(repr(result.tracer.records).encode()) \
            .hexdigest() == ("96ee1761763185aad5a65cc4fa9953852c1946773"
                             "3c9fc7ba2dc1ea837927f7c")

    @pytest.mark.parametrize("plane", [
        dict(kills=(NodeKill(0, 0.0, 0.1),)),
        dict(partitions=(PartitionWindow((0,), 0.0, 0.1),)),
        dict(grays=(GrayFailure(0, 0.0, 0.1),)),
        dict(crash=CrashPlan.of("save.manifest.write")),
        dict(device_faults=((1, LatencySpike(0.0, 0.1)),)),
    ], ids=["kill", "partition", "gray", "crash", "device-node1"])
    def test_planes_an_engine_cannot_model_are_rejected(self, runner,
                                                        plane):
        # Beside a device fault the engine does model.
        chaos = ChaosSchedule(**plane)
        chaos = dataclasses.replace(chaos, device_faults=(
            (0, LatencySpike(0.0, 0.1)), *chaos.device_faults))
        with pytest.raises(WorkloadError, match="node 0"):
            runner.run(2, PARAMS, duration_s=DURATION, chaos=chaos)
        with pytest.raises(WorkloadError, match="node 0"):
            runner.open_replay(PARAMS, chaos=chaos)

    def test_only_run_honours_degradation(self, runner):
        policy = ResiliencePolicy(degrade=True, latency_budget_s=1e-3)
        with pytest.raises(WorkloadError, match="degrade"):
            runner.open_replay(PARAMS, resilience=policy)


class TestDeterminism:
    def test_same_plan_replays_the_same_timeline(self, runner):
        runs = [runner.run(2, PARAMS, duration_s=DURATION,
                           chaos=heavy_schedule())
                for _ in range(2)]
        assert runs[0].qps == runs[1].qps
        assert runs[0].p99_latency_s == runs[1].p99_latency_s
        assert runs[0].faults["injected"] == runs[1].faults["injected"]

    def test_seed_changes_the_timeline(self, runner):
        a = runner.run(2, PARAMS, duration_s=DURATION,
                       chaos=heavy_schedule(seed=1))
        b = runner.run(2, PARAMS, duration_s=DURATION,
                       chaos=heavy_schedule(seed=2))
        assert a.faults["injected"]["read_error"] \
            != b.faults["injected"]["read_error"]


class TestInjection:
    def test_faults_slow_the_run_down(self, runner, baseline):
        result = runner.run(2, PARAMS, duration_s=DURATION,
                            chaos=heavy_schedule())
        assert result.faults["injected"]["read_error"] > 0
        assert result.p99_latency_s > baseline.p99_latency_s
        assert result.qps < baseline.qps

    @pytest.mark.parametrize("window", [
        lambda: LatencySpike(0.0, 1.0, extra_s=math.nan),
        lambda: LatencySpike(0.0, 1.0, extra_s=math.inf),
        lambda: ReadError(0.0, 1.0, probability=1.0, stall_s=math.nan),
        lambda: TailAmplification(0.0, 1.0, multiplier=math.nan,
                                  probability=1.0),
    ], ids=["nan-spike", "inf-spike", "nan-stall", "nan-multiplier"])
    def test_a_non_finite_magnitude_is_rejected_not_run(self, runner,
                                                         window):
        # NaN used to pass every ``<=`` check and make the faulted run
        # faster than the healthy one (2 805 -> 4 460 QPS); an inf
        # spike died mid-run on a NaN timer delay.
        with pytest.raises(WorkloadError):
            runner.run(4, PARAMS, duration_s=0.2, chaos=ChaosSchedule(
                device_faults=((0, window()),)))

    def test_ledgers_reconcile(self, runner):
        result = runner.run(2, PARAMS, duration_s=DURATION, trace=True,
                            telemetry=True, chaos=heavy_schedule())
        injected = {k: v for k, v in result.faults["injected"].items()
                    if k != "reads_sampled"}
        counted = {
            name[len("fault_injected_"):]: counter.value
            for name, counter in result.telemetry.counters.items()
            if name.startswith("fault_injected_")}
        assert injected == counted
        assert injected == result.tracer.fault_counts()


class TestResilience:
    def test_timeouts_balance_retries_plus_failures(self, runner):
        policy = ResiliencePolicy(read_timeout_s=0.002, max_retries=4,
                                  backoff_base_s=0.0002)
        result = runner.run(2, PARAMS, duration_s=DURATION,
                            chaos=heavy_schedule(), resilience=policy)
        faults = result.faults
        assert faults["timeouts"] > 0
        assert faults["timeouts"] == (faults["retries"]
                                      + faults["read_failures"])

    def test_retries_beat_unmitigated_stalls(self, runner):
        # Stalls dominate the tail; a timeout well under the stall
        # resubmits onto the (likely healthy) re-sampled path.
        stalls = ChaosSchedule(device_faults=(
            (0, ReadError(0.0, DURATION, probability=0.3, stall_s=0.02)),),
            seed=5)
        faulted = runner.run(2, PARAMS, duration_s=DURATION,
                             chaos=stalls)
        resilient = runner.run(
            2, PARAMS, duration_s=DURATION, chaos=stalls,
            resilience=ResiliencePolicy(read_timeout_s=0.002,
                                        max_retries=6,
                                        backoff_base_s=0.0002))
        assert resilient.p99_latency_s < faulted.p99_latency_s

    def test_hedged_reads_are_counted(self, runner):
        policy = ResiliencePolicy(hedge_after_s=0.0002)
        result = runner.run(2, PARAMS, duration_s=DURATION,
                            chaos=heavy_schedule(), resilience=policy)
        assert result.faults["hedges"] > 0
        assert 0 <= result.faults["hedge_wins"] \
            <= result.faults["hedges"]

    def test_degradation_engages_and_is_reported(self, runner):
        policy = ResiliencePolicy(degrade=True, latency_budget_s=1e-6,
                                  degrade_after=1, recover_after=1000,
                                  degrade_factor=0.5)
        result = runner.run(2, PARAMS, duration_s=DURATION,
                            resilience=policy)
        degraded = result.faults["degraded"]
        assert degraded.queries > 0
        assert degraded.total == result.completed
        assert degraded.params["search_list"] == 10   # floored at k
        assert 0.0 < degraded.ratio <= 1.0
        assert 0.0 < result.recall <= 1.0

    def test_all_queries_failing_raises(self, runner):
        # The window outlives the run: reads issued by queries draining
        # after the deadline still land inside it, so no query escapes.
        stalls = ChaosSchedule(device_faults=(
            (0, ReadError(0.0, 100.0, probability=1.0, stall_s=0.05)),))
        policy = ResiliencePolicy(read_timeout_s=0.0005, max_retries=0)
        with pytest.raises(FaultError):
            runner.run(2, PARAMS, duration_s=DURATION, chaos=stalls,
                       resilience=policy)
