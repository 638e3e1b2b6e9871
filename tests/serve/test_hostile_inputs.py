"""Hostile serving inputs fail eagerly, in the constructor, as ServeError.

Each case used to be accepted and then hang (an infinite window, a NaN
rate in a sampling loop), raise a bare numpy error deep inside
``timeline``, or run with a silently wrong meaning (a NaN deadline
nobody meets, a NaN ``max_inflight`` meaning no limit, a fractional
batch cap).
"""

import math

import pytest

from repro.errors import ServeError
from repro.serve import (BurstyArrivals, DiurnalArrivals, PoissonArrivals,
                         ServeConfig, TenantLoad)
from repro.tenancy import TenantProfile

NAN, INF = math.nan, math.inf

BURSTY = dict(base_qps=100.0, burst_qps=400.0, mean_calm_s=0.2,
              mean_burst_s=0.05)
DIURNAL = dict(peak_qps=200.0, trough_qps=10.0, period_s=1.0, phase=0.0)


def poisson(rate=100.0):
    return PoissonArrivals(rate_qps=rate)


@pytest.mark.parametrize("rate", [NAN, INF], ids=["nan", "inf"])
def test_poisson_rate_must_be_finite(rate):
    with pytest.raises(ServeError):
        poisson(rate)


@pytest.mark.parametrize("field,value", [
    ("base_qps", NAN), ("burst_qps", NAN), ("base_qps", INF),
    ("burst_qps", INF), ("mean_calm_s", NAN), ("mean_burst_s", INF),
], ids=lambda v: str(v))
def test_bursty_rates_and_holding_times_must_be_finite(field, value):
    with pytest.raises(ServeError):
        BurstyArrivals(**{**BURSTY, field: value})


@pytest.mark.parametrize("field,value", [
    ("peak_qps", NAN), ("peak_qps", INF), ("trough_qps", NAN),
    ("period_s", NAN), ("period_s", INF), ("phase", NAN), ("phase", INF),
], ids=lambda v: str(v))
def test_diurnal_rates_period_and_phase_must_be_finite(field, value):
    with pytest.raises(ServeError):
        DiurnalArrivals(**{**DIURNAL, field: value})


@pytest.mark.parametrize("model", [
    poisson(), BurstyArrivals(**BURSTY), DiurnalArrivals(**DIURNAL)],
    ids=["poisson", "bursty", "diurnal"])
@pytest.mark.parametrize("duration", [INF, NAN], ids=["inf", "nan"])
def test_timeline_duration_must_be_finite(model, duration):
    with pytest.raises(ServeError):
        model.timeline(duration)


@pytest.mark.parametrize("weight", [NAN, INF], ids=["nan", "inf"])
def test_tenant_weight_must_be_finite(weight):
    with pytest.raises(ServeError):
        TenantLoad("t", poisson(), weight=weight)


@pytest.mark.parametrize("deadline", [NAN, INF], ids=["nan", "inf"])
def test_tenant_deadline_must_be_finite(deadline):
    with pytest.raises(ServeError):
        TenantLoad("t", poisson(), slo_deadline_s=deadline)


def test_tenant_profile_deadline_must_not_be_nan():
    with pytest.raises(ServeError):
        TenantProfile("t", poisson(), slo_deadline_s=NAN)


def config(**fields):
    return ServeConfig(tenants=(TenantLoad("t", poisson()),), **fields)


@pytest.mark.parametrize("duration", [INF, NAN], ids=["inf", "nan"])
def test_config_duration_must_be_finite(duration):
    with pytest.raises(ServeError):
        config(duration_s=duration)


@pytest.mark.parametrize("deadline", [NAN, INF], ids=["nan", "inf"])
def test_config_deadline_must_be_finite(deadline):
    with pytest.raises(ServeError):
        config(slo_deadline_s=deadline)


@pytest.mark.parametrize("field,value", [
    ("max_inflight", NAN), ("max_inflight", 1.5), ("max_inflight", True),
    ("batch_cap", 2.5), ("batch_cap", True), ("queue_bound", 2.5),
    ("queue_bound", -3), ("queue_bound", 0), ("queue_bound", False),
], ids=lambda v: str(v))
def test_limits_must_be_integers_of_at_least_one(field, value):
    with pytest.raises(ServeError):
        config(**{field: value})


@pytest.mark.parametrize("seed", [1.5, "7", True, None],
                         ids=["float", "str", "bool", "none"])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(ServeError):
        config(seed=seed)


def test_well_formed_limits_still_construct():
    import numpy as np

    conf = config(max_inflight=np.int64(4), batch_cap=2, queue_bound=1,
                  seed=np.int64(3), slo_deadline_s=0.01,
                  duration_s=0.5)
    assert conf.max_inflight == 4 and conf.queue_bound == 1
