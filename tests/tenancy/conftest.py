"""Shared fixtures for the tenancy control-plane suite."""

import pytest

from repro.serve import PoissonArrivals
from repro.tenancy import TenantProfile, TenantRegistry
from repro.workload import BenchRunner

from tests.workload.test_runner import make_engine


@pytest.fixture(scope="module")
def runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


def profile(name="t0", rate=500.0, slo=0.05, floor=0.0, quota=None,
            priority="standard", group=None, weight=1.0, burst=0.25):
    return TenantProfile(
        name, PoissonArrivals(rate_qps=rate), weight=weight,
        slo_deadline_s=slo, recall_floor=floor,
        quota_cost_per_s=quota, quota_burst_s=burst,
        priority=priority, group=group)


def registry(*profiles):
    return TenantRegistry(tuple(profiles))
