"""Hostile numeric knobs never build a config; they raise its typed error.

One table for the configs no other hostile-input suite covers.  Every
numeric field is fed ``True``, ``False``, NaN, +-inf, ``"1"``, ``1.5``
where it counts, ``-1`` where it cannot be negative, ``0`` where it
needs at least 1 (or more than 0), and ``None`` where ``None`` does not
mean "off".  Each must raise exactly the module's own error class —
never a bare ``TypeError``, ``ValueError`` or ``ZeroDivisionError``,
and never a config that builds (``NetworkSpec(base_latency_s=inf)``
used to run a cluster to ``qps 0.0``; ``FioJobSpec(block_size=0)``
ended in ``ZeroDivisionError``; ``k=True`` searched for one hit).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import open_engine
from repro.chaos import SupervisorConfig
from repro.cluster import ClusterTopology
from repro.errors import (ClusterError, EngineError, ReproError,
                          ServeError, SimulationError, TenancyError,
                          WorkloadError)
from repro.faults import ChaosSchedule, CorruptionPlan, CrashPlan
from repro.mutate import CompactionPolicy, MutationLoad
from repro.serve import AIMDConfig, PoissonArrivals
from repro.simkernel.network import NetworkSpec
from repro.storage.fio import FioJobSpec
from repro.tenancy import (PlacementConfig, SloControllerConfig,
                           TenantProfile)

NOT_NUMBERS = (True, False, math.nan, math.inf, -math.inf, "1")

#: Bad values per kind of knob ("?" suffix: ``None`` means off).
BAD = {
    "count": NOT_NUMBERS + (1.5, -1, 0, None),      # an integer >= 1
    "size": NOT_NUMBERS + (1.5, -1, None),          # an integer >= 0
    "seed": NOT_NUMBERS + (1.5, None),              # any integer
    "positive": NOT_NUMBERS + (-1, 0, None),        # finite, > 0
    "nonnegative": NOT_NUMBERS + (-1, None),        # finite, >= 0
    "fraction": NOT_NUMBERS + (-1, 0, 1.5, None),   # in (0, 1]
    "open_fraction": NOT_NUMBERS + (-1, 0, 1, None),  # in (0, 1)
    "unit": NOT_NUMBERS + (-1, 1.5, None),          # in [0, 1]
    "torn": NOT_NUMBERS + (-1, 1, 1.5, None),       # in [0, 1)
}
for _kind in list(BAD):
    BAD[_kind + "?"] = tuple(v for v in BAD[_kind] if v is not None)


def tenant(**fields):
    return TenantProfile("t", PoissonArrivals(100.0), slo_deadline_s=0.05,
                         **fields)


#: (config, its error, {field: kind}).
TABLE = [
    (lambda **f: AIMDConfig(**{"target_latency_s": 0.01, **f}), ServeError,
     {"target_latency_s": "positive", "initial": "count", "window": "count",
      "increase": "count", "decrease": "open_fraction",
      "percentile": "fraction", "floor": "count", "ceiling": "count?"}),
    (SloControllerConfig, TenancyError,
     {"interval_s": "positive", "degrade_after": "count",
      "restore_after": "count", "min_observations": "count"}),
    (SupervisorConfig, WorkloadError,
     {"probe_interval_s": "positive", "probe_timeout_s": "positive",
      "fail_after": "count"}),
    (ClusterTopology, ClusterError,
     {"n_shards": "count", "replicas": "count", "spares": "size",
      "seed": "seed"}),
    (lambda **f: ClusterTopology(
        n_shards=2, sharding="range", **{"rows_per_shard": 10, **f}),
     ClusterError, {"rows_per_shard": "count"}),
    (NetworkSpec, SimulationError,
     {"base_latency_s": "nonnegative", "jitter_s": "nonnegative"}),
    (tenant, TenancyError,
     {"quota_cost_per_s": "positive?", "quota_burst_s": "positive",
      "recall_floor": "unit"}),
    (MutationLoad, WorkloadError,
     {"insert_qps": "nonnegative", "delete_qps": "nonnegative",
      "batch_rows": "count", "rebuild_cpu_per_row_s": "nonnegative",
      "write_amplification": "positive"}),
    (CompactionPolicy, EngineError,
     {"delta_rows": "count", "tombstone_fraction": "fraction"}),
    (FioJobSpec, WorkloadError,
     {"block_size": "count", "numjobs": "count", "iodepth": "count",
      "cpu_cores": "count", "runtime_s": "positive",
      "span_bytes": "count"}),
    (CorruptionPlan, WorkloadError, {"seed": "seed", "flips": "count"}),
    (lambda **f: CrashPlan("save.manifest.write", **f), WorkloadError,
     {"occurrence": "size", "torn_fraction": "torn?", "seed": "seed"}),
    (lambda **f: PlacementConfig(**{"hot_capacity": 2, **f}), TenancyError,
     {"hot_capacity": "count", "interval_s": "positive",
      "min_residency_s": "nonnegative", "ewma_alpha": "fraction"}),
    (lambda **f: ChaosSchedule.seeded(**{"n_nodes": 4, "duration_s": 1.0,
                                         **f}), WorkloadError,
     {"n_nodes": "count", "duration_s": "positive", "outage_s": "positive",
      "kills": "size", "partitions": "size", "grays": "size",
      "device_nodes": "size"}),
]

CASES = [pytest.param(build, error, field, value,
                      id=f"{kind}-{field}={value!r}")
         for build, error, fields in TABLE
         for field, kind in fields.items()
         for value in BAD[kind]]


def raises_exactly(error, call):
    with pytest.raises(ReproError) as caught:
        call()
    assert type(caught.value) is error, (
        f"{type(caught.value).__name__}: {caught.value}")


@pytest.mark.parametrize("build, error, field, value", CASES)
def test_a_hostile_knob_raises_the_config_error(build, error, field, value):
    raises_exactly(error, lambda: build(**{field: value}))


@pytest.mark.parametrize("build, error, fields", [
    pytest.param(build, error, fields, id=error.__name__ + str(i))
    for i, (build, error, fields) in enumerate(TABLE)])
def test_the_defaults_build(build, error, fields):
    build()


@pytest.mark.parametrize("fields", [
    dict(ceiling=2, floor=4), dict(span_bytes=2048),
    dict(block_size=8192, span_bytes=4096)])
def test_bounds_between_knobs_hold(fields):
    """A ceiling under the floor, a span shorter than one block."""
    if "ceiling" in fields:
        raises_exactly(ServeError, lambda: AIMDConfig(0.01, **fields))
    else:
        raises_exactly(WorkloadError, lambda: FioJobSpec(**fields))


def test_an_endless_fio_runtime_is_refused():
    # From the code, run_fio would never return: only construct it.
    raises_exactly(WorkloadError, lambda: FioJobSpec(runtime_s=math.inf))


def test_valid_knobs_still_build():
    AIMDConfig(0.01, initial=np.int64(2), ceiling=8, decrease=0.5,
               percentile=1)
    ClusterTopology(n_shards=np.int64(2), replicas=1, spares=0, seed=-3,
                    network=NetworkSpec(0, 0.0))
    tenant(quota_cost_per_s=None, recall_floor=1)
    FioJobSpec(block_size=4096, span_bytes=4096, runtime_s=0.01)
    CorruptionPlan(seed=-1, flips=np.uint8(2))


@pytest.fixture(scope="module")
def session():
    session = open_engine("milvus")
    session.create("c", dim=4, index="flat", metric="l2")
    rows = np.random.default_rng(0).standard_normal((20, 4))
    session.insert("c", rows.astype(np.float32), flush=True)
    return session


@pytest.mark.parametrize("k", BAD["count"] + (np.float64(2.0),))
def test_collection_search_k_is_a_positive_integer(session, k):
    collection = session.engine.collection("c")
    query = np.ones(4, dtype=np.float32)
    for search in (lambda: collection.search(query, k),
                   lambda: collection.search_batch(query[None], k)):
        with pytest.raises(EngineError, match="k must be positive"):
            search()


def test_collection_search_takes_numpy_integer_k(session):
    collection = session.engine.collection("c")
    query = np.ones(4, dtype=np.float32)
    assert len(collection.search(query, np.int64(3)).ids) == 3
    assert len(collection.search_batch(query[None], np.uint8(2))[0].ids) == 2
