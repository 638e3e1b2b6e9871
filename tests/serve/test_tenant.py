"""The shared tenant-identity type and its serve-layer bridges."""

import pytest

from repro.errors import ServeError
from repro.serve import PoissonArrivals, Tenant, TenantLoad
from repro.serve.result import TenantStats


def test_identity_value_semantics():
    assert Tenant("acme", 2.0) == Tenant("acme", 2.0)
    assert Tenant("acme") != Tenant("acme", 2.0)
    assert hash(Tenant("a")) == hash(Tenant("a"))


def test_identity_validation():
    with pytest.raises(ServeError):
        Tenant("")
    with pytest.raises(ServeError):
        Tenant("acme", weight=0.0)
    with pytest.raises(ServeError):
        Tenant("acme", weight=-1.0)


def test_tenant_load_exposes_the_identity():
    load = TenantLoad("acme", PoissonArrivals(rate_qps=10.0), weight=3.0)
    assert load.identity == Tenant("acme", 3.0)


def _stats(**overrides):
    base = dict(name="acme", weight=1.0, arrivals=10, admitted=8,
                rejected=2, shed=1, completed=7, failed=0,
                slo_completions=6, goodput_qps=60.0, mean_latency_s=0.01,
                p50_latency_s=0.01, p95_latency_s=0.02,
                p99_latency_s=0.03, mean_queue_s=0.001,
                mean_service_s=0.009)
    base.update(overrides)
    return TenantStats(**base)


def test_tenant_stats_exposes_the_identity():
    assert _stats(weight=3.0).identity == Tenant("acme", 3.0)


def test_slo_attainment_counts_rejections_against():
    # 6 in-SLO completions out of 10 *offered*, not out of 7 completed.
    assert _stats().slo_attainment == pytest.approx(0.6)
    assert _stats(arrivals=0, admitted=0, rejected=0, shed=0,
                  completed=0, slo_completions=0).slo_attainment == 0.0


def test_tenancy_fields_default_inert():
    stats = _stats()
    assert stats.quota_rejected == 0
    assert stats.degraded == 0
    assert stats.recall is None
