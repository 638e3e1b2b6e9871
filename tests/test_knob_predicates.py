"""Every hardened knob site accepts exactly what its old predicate did.

Each site below used to validate a knob with a predicate of its own
module (kept verbatim in :mod:`tests.reference_knobs`); it now calls
:func:`repro.errors.require_int` or :func:`repro.errors.require_real`.
For every value hypothesis draws — Python and numpy integers (signed
and unsigned), ``bool`` and ``np.bool_``, floats with +-0.0, NaN and
+-inf, ``np.float32``, ``Fraction``, ``Decimal``, ``str``, ``None`` and
``complex`` — the site builds exactly when the oracle accepts, and
otherwise raises the site's own typed error, never a bare
``TypeError``.

Two deliberate exceptions, each pinned by its own test:

* ``arrivals.check_positive`` never was hardened (it passed ``True``
  and ``Decimal`` and raised a bare ``TypeError`` on a string); its
  sites now accept exactly its non-bool real values.
* ``IndexParams._require_positive`` skipped ``None`` on every field, so
  ``DiskANNParams(R=None)`` built and the first flush died in a bare
  ``TypeError``; ``None`` now passes only where it is the field's
  default (``nlist``, ``pq_m``, ``n_postings``).
"""

from __future__ import annotations

import decimal
import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.diskann import DiskANNIndex
from repro.cluster.runner import check_knobs
from repro.engines.engine import SearchRequest
from repro.engines.params import (DiskANNParams, HNSWMmapParams,
                                  HNSWParams, IVFParams, SPANNParams)
from repro.errors import (AnnIndexError, ClusterError, EngineError,
                          ReproError, ServeError, SimulationError,
                          StorageError, WorkloadError, require_int,
                          require_real)
from repro.faults import (ChaosSchedule, GrayFailure, LatencySpike,
                          NodeKill, PartitionWindow, ReadError,
                          ResiliencePolicy, TailAmplification, Throttle)
from repro.mutate import CompactionPolicy, MutationLoad
from repro.serve import (BurstyArrivals, DiurnalArrivals, PoissonArrivals,
                         ServeConfig, TenantLoad)
from repro.simkernel import Environment, Resource
from repro.storage import SimSSD, samsung_990pro_4tb
from repro.workload.replay import check_loop
from tests import reference_knobs as ref

SPEC = samsung_990pro_4tb()

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)

#: Hand-picked values every site sees on every run, boundaries included.
EDGES = (0, 1, 2, -1, 7, 2 ** 40, -(2 ** 40), 0.0, -0.0, 0.5, 1.0, 1.5,
         2.0, 1e-300, 1e300, -2.5, math.nan, -math.nan, math.inf,
         -math.inf, True, False, np.True_, np.False_, np.int64(3),
         np.uint64(2 ** 64 - 1), np.int8(-128), np.uint8(0),
         np.float32(0.5), np.float32(math.nan), np.float32(math.inf),
         np.float64(1.0), Fraction(1, 2), Fraction(3, 1), Fraction(-1, 3),
         decimal.Decimal("0.5"), decimal.Decimal("1"),
         decimal.Decimal("NaN"), decimal.Decimal("sNaN"), "1", "0.5", "",
         "nan", None, 1 + 0j, 0.5j, complex(math.nan, 0))


def _numpy_int(dtype):
    info = np.iinfo(dtype)
    return st.integers(int(info.min), int(info.max)).map(dtype)


#: Every kind of value a knob can be handed.  Integers stay within 64
#: bits: the oracles' ``math.isfinite`` raises ``OverflowError`` past a
#: float's range, which the shared checks (comparisons only) do not.
KNOB_VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-(2 ** 63), 2 ** 64 - 1),
    st.sampled_from(NUMPY_INTS).flatmap(_numpy_int),
    st.booleans(), st.booleans().map(np.bool_),
    st.floats(), st.floats(width=32).map(np.float32),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6),
    st.decimals(), st.text(max_size=3), st.none(), st.complex_numbers())


def accepts(check) -> bool:
    """Whether an oracle call returns without raising (any exception —
    the unhardened oracles raise bare ``TypeError``s — counts as no)."""
    try:
        check()
    except Exception:
        return False
    return True


def builds(site, error) -> bool:
    """Whether *site* builds; it may only fail with exactly *error*."""
    try:
        site()
    except ReproError as exc:
        assert type(exc) is error, f"{type(exc).__name__}: {exc}"
        return False
    return True


_DISKANN = {}


def diskann_index() -> DiskANNIndex:
    if not _DISKANN:
        rng = np.random.default_rng(0)
        _DISKANN["index"] = DiskANNIndex(R=8, L_build=16, pq_m=2).build(
            rng.standard_normal((60, 8)).astype(np.float32))
    return _DISKANN["index"]


def diskann_search(**params):
    """One search; large integers are cut down so a huge ``k`` or
    ``search_list`` cannot allocate (either side accepts them)."""
    params = {name: (min(int(v), 16) if isinstance(v, numbers.Integral)
                     and not isinstance(v, (bool, np.bool_)) and v > 16
                     else v) for name, v in params.items()}
    k = params.pop("k", 5)
    return lambda: diskann_index().search(np.ones(8, np.float32), k,
                                          **params)


def diskann_oracle(name, least):
    def oracle(v):
        if (isinstance(v, numbers.Integral)
                and not isinstance(v, (bool, np.bool_)) and v > 16):
            v = min(int(v), 16)
        return accepts(lambda: ref.diskann_count(name, v, least))
    return oracle


TENANT = (TenantLoad("t", PoissonArrivals(100.0)),)
PARAMS = ref.IndexParams()
RETRY = dict(degrade=True, latency_budget_s=0.01)

#: (site id, oracle: value -> accepted, site: value -> call, error).
SITES = [
    # repro.faults.plan: _finite, _fraction
    ("LatencySpike.start_s",
     lambda v: ref._finite(v) and ref._finite(10.0) and 0 <= v < 10.0,
     lambda v: lambda: LatencySpike(v, 10.0), WorkloadError),
    ("LatencySpike.end_s",
     lambda v: ref._finite(0.0) and ref._finite(v) and 0 <= 0.0 < v,
     lambda v: lambda: LatencySpike(0.0, v), WorkloadError),
    ("LatencySpike.extra_s", lambda v: ref._finite(v) and v > 0,
     lambda v: lambda: LatencySpike(0, 1, extra_s=v), WorkloadError),
    ("TailAmplification.multiplier", lambda v: ref._finite(v) and v >= 1.0,
     lambda v: lambda: TailAmplification(0, 1, multiplier=v),
     WorkloadError),
    ("TailAmplification.probability", ref._fraction,
     lambda v: lambda: TailAmplification(0, 1, probability=v),
     WorkloadError),
    ("ReadError.probability", ref._fraction,
     lambda v: lambda: ReadError(0, 1, probability=v), WorkloadError),
    ("ReadError.stall_s", lambda v: ref._finite(v) and v > 0,
     lambda v: lambda: ReadError(0, 1, stall_s=v), WorkloadError),
    ("Throttle.bandwidth_fraction", ref._fraction,
     lambda v: lambda: Throttle(0, 1, bandwidth_fraction=v),
     WorkloadError),
    # repro.faults.schedule: _node_id, _fraction, _finite, the seed
    ("NodeKill.node", ref._node_id,
     lambda v: lambda: NodeKill(v, 0.0, 1.0), WorkloadError),
    ("PartitionWindow.nodes", ref._node_id,
     lambda v: lambda: PartitionWindow((v,), 0.0, 1.0), WorkloadError),
    ("PartitionWindow.drop_fraction", ref._fraction,
     lambda v: lambda: PartitionWindow((1,), 0.0, 1.0, drop_fraction=v),
     WorkloadError),
    ("GrayFailure.node", ref._node_id,
     lambda v: lambda: GrayFailure(v, 0.0, 1.0), WorkloadError),
    ("GrayFailure.slowdown", lambda v: ref._finite(v) and v > 1.0,
     lambda v: lambda: GrayFailure(1, 0.0, 1.0, slowdown=v),
     WorkloadError),
    ("ChaosSchedule.device_faults", ref._node_id,
     lambda v: lambda: ChaosSchedule(
         device_faults=((v, LatencySpike(0.0, 1.0)),)), WorkloadError),
    ("ChaosSchedule.seed", lambda v: accepts(lambda: ref.chaos_seed(v)),
     lambda v: lambda: ChaosSchedule(seed=v), WorkloadError),
    # repro.faults.resilience: _positive, _count, _finite
    *[(f"ResiliencePolicy.{name}",
       lambda v: v is None or ref._positive(v),
       lambda v, name=name: lambda: ResiliencePolicy(**{name: v}),
       WorkloadError)
      for name in ("read_timeout_s", "hedge_after_s", "query_deadline_s")],
    ("ResiliencePolicy.max_retries", lambda v: ref._count(v, 0),
     lambda v: lambda: ResiliencePolicy(max_retries=v), WorkloadError),
    *[(f"ResiliencePolicy.{name}", lambda v: ref._finite(v) and v >= 0,
       lambda v, name=name: lambda: ResiliencePolicy(**{name: v}),
       WorkloadError)
      for name in ("backoff_base_s", "backoff_cap_s")],
    ("ResiliencePolicy.backoff_jitter",
     lambda v: ref._finite(v) and 0.0 <= v <= 1.0,
     lambda v: lambda: ResiliencePolicy(backoff_jitter=v), WorkloadError),
    ("ResiliencePolicy.latency_budget_s", ref._positive,
     lambda v: lambda: ResiliencePolicy(degrade=True, latency_budget_s=v),
     WorkloadError),
    *[(f"ResiliencePolicy.{name}", lambda v: ref._count(v, 1),
       lambda v, name=name: lambda: ResiliencePolicy(**RETRY, **{name: v}),
       WorkloadError)
      for name in ("degrade_after", "recover_after")],
    ("ResiliencePolicy.degrade_factor",
     lambda v: ref._finite(v) and 0.0 < v < 1.0,
     lambda v: lambda: ResiliencePolicy(**RETRY, degrade_factor=v),
     WorkloadError),
    # repro.serve.arrivals.check_count, ServeConfig's seed
    *[(f"ServeConfig.{name}",
       lambda v: v is None or accepts(lambda: ref.check_count("x", v)),
       lambda v, name=name: lambda: ServeConfig(TENANT, **{name: v}),
       ServeError)
      for name in ("queue_bound", "batch_cap", "max_inflight")],
    ("ServeConfig.seed", lambda v: accepts(lambda: ref.serve_seed(v)),
     lambda v: lambda: ServeConfig(TENANT, seed=v), ServeError),
    # repro.engines.engine: _integer, the deadline
    ("SearchRequest.k", lambda v: not (not ref._integer(v) or v <= 0),
     lambda v: lambda: SearchRequest(None, v), EngineError),
    ("SearchRequest.shard",
     lambda v: v is None or not (not ref._integer(v) or v < 0),
     lambda v: lambda: SearchRequest(None, shard=v), EngineError),
    ("SearchRequest.deadline_s",
     lambda v: accepts(lambda: ref.request_deadline(v)),
     lambda v: lambda: SearchRequest(None, deadline_s=v), EngineError),
    # repro.engines.params: _require_positive, _require_int,
    # _require_finite (None: see test_none_passes_only_where_it_is_the_default)
    ("IVFParams.nlist",
     lambda v: accepts(lambda: PARAMS._require_positive(nlist=v)),
     lambda v: lambda: IVFParams(nlist=v), EngineError),
    ("HNSWParams.M",
     lambda v: v is not None and accepts(
         lambda: PARAMS._require_positive(M=v)),
     lambda v: lambda: HNSWParams(M=v), EngineError),
    ("HNSWMmapParams.cache_bytes",
     lambda v: accepts(lambda: PARAMS._require_int("cache_bytes", v, 0,
                                                   ">= 0")),
     lambda v: lambda: HNSWMmapParams(cache_bytes=v), EngineError),
    ("DiskANNParams.alpha",
     lambda v: accepts(lambda: PARAMS._require_finite("alpha", v, 1.0)),
     lambda v: lambda: DiskANNParams(alpha=v), EngineError),
    ("SPANNParams.closure_eps",
     lambda v: accepts(lambda: PARAMS._require_finite("closure_eps", v,
                                                      0.0)),
     lambda v: lambda: SPANNParams(closure_eps=v), EngineError),
    # repro.ann.diskann._count
    ("DiskANNIndex.search k", diskann_oracle("k", 1),
     lambda v: diskann_search(k=v), AnnIndexError),
    ("DiskANNIndex.search search_list", diskann_oracle("search_list", 1),
     lambda v: diskann_search(search_list=v), AnnIndexError),
    ("DiskANNIndex.search beam_width", diskann_oracle("beam_width", 1),
     lambda v: diskann_search(beam_width=v), AnnIndexError),
    ("DiskANNIndex.search prefetch_depth",
     diskann_oracle("prefetch_depth", 0),
     lambda v: diskann_search(prefetch_depth=v), AnnIndexError),
    # the inline numbers.Integral / numbers.Real blocks
    ("Resource capacity",
     lambda v: accepts(lambda: ref.resource_capacity(v)),
     lambda v: lambda: Resource(Environment(), v), SimulationError),
    ("SimSSD request offset",
     lambda v: accepts(lambda: ref.device_request(
         v, 4096, SPEC.max_request_bytes, SPEC.capacity_bytes)),
     lambda v: lambda: SimSSD(Environment(), SPEC).read(v, 4096),
     StorageError),
    ("SimSSD request size",
     lambda v: accepts(lambda: ref.device_request(
         0, v, SPEC.max_request_bytes, SPEC.capacity_bytes)),
     lambda v: lambda: SimSSD(Environment(), SPEC).read(0, v),
     StorageError),
    ("check_loop clients",
     lambda v: accepts(lambda: ref.check_loop(v, 1.0, 10, 0)),
     lambda v: lambda: check_loop(v, 1.0, 10, 0), WorkloadError),
    ("check_loop duration_s",
     lambda v: accepts(lambda: ref.check_loop(1, v, 10, 0)),
     lambda v: lambda: check_loop(1, v, 10, 0), WorkloadError),
    ("check_loop phase",
     lambda v: accepts(lambda: ref.check_loop(1, 1.0, 10, v)),
     lambda v: lambda: check_loop(1, 1.0, 10, v), WorkloadError),
    ("check_knobs hedge_after_s",
     lambda v: accepts(lambda: ref.check_knob_durations(v, None)),
     lambda v: lambda: check_knobs("one", v, None), ClusterError),
    ("check_knobs deadline_s",
     lambda v: accepts(lambda: ref.check_knob_durations(None, v)),
     lambda v: lambda: check_knobs("one", None, v), ClusterError),
    ("MutationLoad.batch_rows", lambda v: accepts(lambda: ref.batch_rows(v)),
     lambda v: lambda: MutationLoad(batch_rows=v), WorkloadError),
    ("CompactionPolicy.delta_rows",
     lambda v: accepts(lambda: ref.delta_rows(v)),
     lambda v: lambda: CompactionPolicy(delta_rows=v), EngineError),
]
SITE_IDS = [site[0] for site in SITES]


def check_site(site, value):
    _name, oracle, call, error = site
    assert builds(call(value), error) == oracle(value), value


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
def test_site_matches_its_oracle_on_edge_values(site):
    for value in EDGES:
        check_site(site, value)


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=KNOB_VALUES)
def test_site_matches_its_oracle(site, value):
    check_site(site, value)


#: Every site that used ``arrivals.check_positive``.
POSITIVE_SITES = [
    ("PoissonArrivals.rate_qps", lambda v: lambda: PoissonArrivals(v)),
    ("BurstyArrivals.burst_qps",
     lambda v: lambda: BurstyArrivals(100.0, v)),
    ("DiurnalArrivals.period_s",
     lambda v: lambda: DiurnalArrivals(200.0, 10.0, period_s=v)),
    ("TenantLoad.weight", lambda v: lambda: TenantLoad("t", TENANT[0]
                                                       .arrivals, v)),
    ("ServeConfig.duration_s",
     lambda v: lambda: ServeConfig(TENANT, duration_s=v)),
]


@pytest.mark.parametrize("site", POSITIVE_SITES,
                         ids=[s[0] for s in POSITIVE_SITES])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=KNOB_VALUES)
def test_check_positive_sites_take_its_real_values_only(site, value):
    """``check_positive`` passed ``True`` and ``Decimal``; now only a
    non-bool real it accepted builds, and the rest raise ServeError."""
    _name, call = site
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    expected = real and accepts(lambda: ref.check_positive("x", value))
    assert builds(call(value), ServeError) == expected


@pytest.mark.parametrize("cls, name, optional", [
    (IVFParams, "nlist", True), (HNSWParams, "M", False),
    (HNSWParams, "ef_construction", False), (DiskANNParams, "R", False),
    (DiskANNParams, "L_build", False), (SPANNParams, "n_postings", True),
    (SPANNParams, "max_replicas", False)])
def test_none_passes_only_where_it_is_the_default(cls, name, optional):
    """``None`` means "the kind picks" only for fields defaulting to it;
    elsewhere it used to build and fail the first flush untyped."""
    assert builds(lambda: cls(**{name: None}), EngineError) == optional


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=KNOB_VALUES, least=st.sampled_from([None, -3, 0, 1, 4096]))
def test_require_int_is_the_integer_rule(value, least):
    integer = (isinstance(value, numbers.Integral)
               and not isinstance(value, (bool, np.bool_)))
    expected = integer and (least is None or value >= least)
    assert builds(lambda: require_int(WorkloadError, "x", value, least),
                  WorkloadError) == expected
    if expected:
        assert type(require_int(WorkloadError, "x", value, least)) is int


INTERVALS = [dict(), dict(above=0), dict(at_least=0), dict(above=0, below=1),
             dict(above=0, at_most=1), dict(at_least=0, at_most=1),
             dict(at_least=1.0), dict(above=0, at_most=math.inf),
             dict(at_least=-math.inf, below=0)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=KNOB_VALUES, bounds=st.sampled_from(INTERVALS))
def test_require_real_is_the_interval_rule(value, bounds):
    real = (isinstance(value, numbers.Real)
            and not isinstance(value, (bool, np.bool_)))
    expected = real and not math.isnan(value)
    if expected:
        low = bounds.get("at_least", bounds.get("above", -math.inf))
        high = bounds.get("at_most", bounds.get("below", math.inf))
        expected = ((value >= low if "at_least" in bounds else value > low)
                    and (value <= high if "at_most" in bounds
                         else value < high))
    assert builds(lambda: require_real(WorkloadError, "x", value, **bounds),
                  WorkloadError) == expected


@pytest.mark.parametrize("bounds, infinity, passes", [
    (dict(above=0), math.inf, False), (dict(), -math.inf, False),
    (dict(above=0, at_most=math.inf), math.inf, True),
    (dict(at_least=-math.inf), -math.inf, True),
    (dict(at_least=-math.inf), math.inf, False)])
def test_infinity_passes_only_a_bound_closed_at_it(bounds, infinity,
                                                   passes):
    assert builds(lambda: require_real(WorkloadError, "x", infinity,
                                       **bounds), WorkloadError) == passes
