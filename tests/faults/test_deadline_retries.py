"""Deadline-aware retries: abandon reads that cannot make the deadline.

``ResiliencePolicy.query_deadline_s`` turns the retry loop deadline-
aware: a retry whose backoff alone would start at-or-after the query's
absolute deadline is abandoned (``deadline_abandons``) instead of
burning device time on an already-lost query.  The regression contract:
under device faults harsh enough to force retries, a tight deadline
produces abandons while the retry accounting still balances (every
timeout becomes a retry or a read failure); without a deadline the
counter stays zero and results are deterministic.
"""

import dataclasses

import pytest

from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.errors import WorkloadError
from repro.faults import ChaosSchedule, ReadError, ResiliencePolicy
from repro.workload import BenchRunner

DURATION = 0.3
PARAMS = {"search_list": 16}


@pytest.fixture(scope="module")
def runner(small_data, small_queries, small_truth):
    # Zero the node caches so demand reads reach the (faulted) device.
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


def stall_plan():
    return ChaosSchedule(device_faults=((0, ReadError(
        0.0, DURATION, probability=0.2, stall_s=0.004)),), seed=3)


def policy(**overrides):
    base = dict(read_timeout_s=0.001, max_retries=3,
                backoff_base_s=0.002, backoff_jitter=0.0)
    base.update(overrides)
    return ResiliencePolicy(**base)


def test_deadline_alone_activates_the_policy():
    assert ResiliencePolicy(query_deadline_s=0.01).active


def test_validation_rejects_non_positive_deadline():
    with pytest.raises(WorkloadError):
        ResiliencePolicy(query_deadline_s=0.0)
    with pytest.raises(WorkloadError):
        ResiliencePolicy(query_deadline_s=-1.0)


def test_tight_deadline_abandons_hopeless_retries(runner):
    blind = runner.run(2, PARAMS, duration_s=DURATION,
                       chaos=stall_plan(), resilience=policy())
    aware = runner.run(2, PARAMS, duration_s=DURATION,
                       chaos=stall_plan(),
                       resilience=policy(query_deadline_s=0.006))
    assert blind.faults["deadline_abandons"] == 0
    assert aware.faults["deadline_abandons"] > 0
    # Abandons are permanent failures, honestly accounted, and the
    # retry ledger still balances: every timeout became a retry or a
    # read failure, under either policy.
    for result in (blind, aware):
        assert result.faults["read_failures"] >= \
            result.faults["deadline_abandons"]
        assert result.faults["timeouts"] == \
            result.faults["retries"] + result.faults["read_failures"]


def test_no_deadline_is_bit_identical_to_the_blind_policy(runner):
    first = runner.run(2, PARAMS, duration_s=DURATION,
                       chaos=stall_plan(), resilience=policy())
    second = runner.run(2, PARAMS, duration_s=DURATION,
                        chaos=stall_plan(), resilience=policy())
    assert first.qps == second.qps
    assert first.p99_latency_s == second.p99_latency_s
    assert {k: v for k, v in first.faults.items() if k != "injected"} \
        == {k: v for k, v in second.faults.items() if k != "injected"}
