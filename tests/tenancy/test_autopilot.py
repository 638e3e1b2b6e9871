"""AutopilotServer: passivity, determinism, and the recall floor."""

import dataclasses

import numpy as np
import pytest

from repro.ann.flat import FlatIndex
from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.errors import TenancyError
from repro.serve import Server
from repro.tenancy import (AutopilotServer, PlacementConfig,
                           SloControllerConfig, TenancyConfig,
                           build_ladder, serve_autopilot)
from repro.tenancy.study import fingerprint
from repro.workload import BenchRunner

from tests.tenancy.conftest import profile, registry

PARAMS = {"ef_search": 32}


def tenancy_config(reg, **overrides):
    overrides.setdefault("controller", SloControllerConfig(
        interval_s=0.02, degrade_after=2, restore_after=4,
        min_observations=2))
    return TenancyConfig(registry=reg, **overrides)


def two_group_registry(quota=None):
    return registry(
        profile(name="a0", rate=1500.0, group="g0", quota=quota),
        profile(name="a1", rate=1500.0, group="g0"),
        profile(name="b0", rate=4000.0, group="g1", priority="batch"))


def serve_config(tenancy, **overrides):
    base = dict(queue_bound=64, max_inflight=2, duration_s=0.2,
                seed=11, search_params=dict(PARAMS))
    base.update(overrides)
    return tenancy.serve_config(**base)


class TestPassivity:
    def test_disabled_is_bit_identical_to_plain_serve(self, runner):
        tenancy = tenancy_config(two_group_registry(), enabled=False)
        config = serve_config(tenancy)
        plain = Server(runner, config).serve()
        disabled = serve_autopilot(runner, config, tenancy)
        assert fingerprint(disabled) == fingerprint(plain)
        assert disabled.tenancy is None

    def test_telemetry_does_not_perturb_the_run(self, runner):
        tenancy = tenancy_config(two_group_registry())
        config = serve_config(tenancy)
        bare = serve_autopilot(runner, config, tenancy)
        observed = serve_autopilot(runner, config, tenancy,
                                   telemetry=True)
        assert observed.telemetry is not None
        assert fingerprint(observed) == fingerprint(bare)


class TestDeterminism:
    def test_same_seed_runs_bit_identical_with_migrations(self, runner):
        # Roster order puts g0 hot first; g1's 4000 qps outweighs it,
        # so the run must include committed migrations in both
        # directions — their timing is part of the fingerprint.
        tenancy = tenancy_config(
            two_group_registry(),
            placement=PlacementConfig(hot_capacity=1, interval_s=0.03,
                                      min_residency_s=0.03,
                                      ewma_alpha=1.0))
        config = serve_config(tenancy)
        a = serve_autopilot(runner, config, tenancy)
        b = serve_autopilot(runner, config, tenancy)
        assert a.tenancy.promotions >= 1
        assert a.tenancy.demotions >= 1
        assert fingerprint(a) == fingerprint(b)
        assert a.tenancy == b.tenancy


class TestAccounting:
    def test_admission_identities_hold_per_tenant(self, runner):
        tenancy = tenancy_config(two_group_registry())
        result = serve_autopilot(runner, serve_config(tenancy), tenancy)
        for stats in result.tenants:
            assert stats.arrivals == stats.admitted + stats.rejected
            assert stats.quota_rejected <= stats.rejected
            assert stats.admitted >= stats.completed + stats.shed
        assert result.arrivals == sum(s.arrivals for s in result.tenants)
        assert result.completed == sum(s.completed
                                       for s in result.tenants)

    def test_tiny_quota_prices_a_tenant_out(self, runner):
        tenancy = tenancy_config(two_group_registry(quota=1e-4))
        result = serve_autopilot(runner, serve_config(tenancy), tenancy)
        capped = result.tenant("a0")
        assert capped.quota_rejected > 0
        assert result.tenancy.quota_rejected == capped.quota_rejected
        assert result.tenant("a1").quota_rejected == 0


class TestValidation:
    def test_rejects_disabled_and_closed_loop_and_mismatch(self, runner):
        # Closed-loop serve configs no longer exist (1.13); the id is
        # kept stable.
        reg = two_group_registry()
        tenancy = tenancy_config(reg)
        config = serve_config(tenancy)
        with pytest.raises(TenancyError):
            AutopilotServer(runner, config,
                            tenancy_config(reg, enabled=False))
        other = tenancy_config(registry(profile(name="zzz")))
        with pytest.raises(TenancyError):
            AutopilotServer(runner, config, other)

    def test_floor_without_ground_truth_is_rejected(self, runner,
                                                    small_queries):
        # Recall floors are enforced against *measured* ladder recall;
        # a truthless runner cannot honor a positive floor.
        bare = BenchRunner(runner.engine, "bench", small_queries)
        tenancy = tenancy_config(registry(profile(name="a", floor=0.5)))
        with pytest.raises(TenancyError):
            AutopilotServer(bare, serve_config(tenancy), tenancy)


def build_runner(small_data, small_queries, kind, metric):
    if kind == "diskann":
        prof = dataclasses.replace(get_profile("milvus"),
                                   diskann_cache_bytes=0,
                                   diskann_lru_bytes=0)
        engine, params = VectorEngine(prof), {"R": 8, "L_build": 16}
    else:
        engine = VectorEngine("milvus")
        params = {"M": 8, "ef_construction": 40}
    engine.create_collection("bench", small_data.shape[1],
                             IndexSpec.of(kind, metric, **params),
                             storage_dim=768)
    engine.insert("bench", small_data)
    engine.flush("bench")
    flat = FlatIndex(metric=metric).build(small_data)
    truth = np.vstack([flat.search(q, 10).ids for q in small_queries])
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=truth)


class TestRecallFloorProperty:
    """Floors hold by construction for every index kind x metric."""

    @pytest.mark.parametrize("kind,metric", [
        ("hnsw", "cosine"), ("hnsw", "ip"),
        ("diskann", "cosine"), ("diskann", "l2")])
    def test_no_tenant_dips_below_its_floor(self, small_data,
                                            small_queries, kind, metric):
        runner = build_runner(small_data, small_queries, kind, metric)
        search = ({"ef_search": 32} if kind == "hnsw"
                  else {"search_list": 32})
        ladder = build_ladder(runner, search, factor=0.5, max_levels=2)
        # A floor between the deepest rung and the contract: legal,
        # but deep degradation would violate it without the cap.
        lo = min(lvl.recall for lvl in ladder.levels)
        hi = ladder.levels[0].recall
        floors = (hi - 0.25 * (hi - lo), 0.0, lo)
        reg = registry(*(
            profile(name=f"t{i}", rate=2500.0, floor=f,
                    priority="batch" if f == 0.0 else "standard")
            for i, f in enumerate(floors)))
        tenancy = tenancy_config(reg, degrade_factor=0.5, max_levels=2)
        config = serve_config(tenancy, max_inflight=1, duration_s=0.25,
                              search_params=dict(search))
        result = serve_autopilot(runner, config, tenancy)
        assert result.completed > 0
        for stats, floor in zip(result.tenants, floors):
            if stats.completed:
                assert stats.recall is not None
                assert stats.recall >= floor - 1e-9
        assert result.recall is not None
