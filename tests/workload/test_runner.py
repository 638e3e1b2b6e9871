"""Behavioural tests for the benchmark runner on the DES."""

import dataclasses

import numpy as np
import pytest

from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.errors import WorkloadError
from repro.workload import BenchRunner


def make_engine(small_data, engine_name="milvus", kind="hnsw",
                storage_dim=768, **params):
    if kind == "diskann":
        # The 500-vector test graph fits entirely in Milvus's default
        # static node cache; shrink the caches so reads reach the device.
        profile = dataclasses.replace(get_profile(engine_name),
                                      diskann_cache_bytes=0,
                                      diskann_lru_bytes=0)
        engine = VectorEngine(profile)
    else:
        engine = VectorEngine(engine_name)
    if kind == "hnsw" and not params:
        params = {"M": 8, "ef_construction": 40}
    engine.create_collection("bench", small_data.shape[1],
                             IndexSpec.of(kind, **params),
                             storage_dim=storage_dim)
    engine.insert("bench", small_data)
    engine.flush("bench")
    return engine


@pytest.fixture(scope="module")
def hnsw_runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


@pytest.fixture(scope="module")
def diskann_runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data, kind="diskann", R=8, L_build=16)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


class TestMemoryBasedRuns:
    def test_reports_positive_metrics(self, hnsw_runner):
        result = hnsw_runner.run(4, {"ef_search": 16}, duration_s=0.5)
        assert result.qps > 0
        assert result.p99_latency_s > 0
        assert 0 < result.cpu_utilization <= 1.0
        assert result.completed > 0
        assert not result.failed

    def test_no_io_for_memory_index(self, hnsw_runner):
        result = hnsw_runner.run(2, {"ef_search": 16}, duration_s=0.5)
        assert result.read_bytes == 0
        assert result.device_utilization == 0.0

    def test_recall_attached(self, hnsw_runner):
        result = hnsw_runner.run(1, {"ef_search": 32}, duration_s=0.3)
        assert result.recall is not None and result.recall > 0.8

    def test_throughput_grows_with_concurrency(self, hnsw_runner):
        one = hnsw_runner.run(1, {"ef_search": 16}, duration_s=0.5)
        eight = hnsw_runner.run(8, {"ef_search": 16}, duration_s=0.5)
        assert eight.qps > 3 * one.qps

    def test_latency_grows_under_oversubscription(self, hnsw_runner):
        light = hnsw_runner.run(1, {"ef_search": 16}, duration_s=0.5)
        heavy = hnsw_runner.run(256, {"ef_search": 16}, duration_s=0.5)
        assert heavy.p99_latency_s > light.p99_latency_s

    def test_deterministic(self, hnsw_runner):
        a = hnsw_runner.run(4, {"ef_search": 16}, duration_s=0.3)
        b = hnsw_runner.run(4, {"ef_search": 16}, duration_s=0.3)
        assert a.qps == b.qps
        assert a.p99_latency_s == b.p99_latency_s

    def test_phase_changes_interleaving_not_shape(self, hnsw_runner):
        a = hnsw_runner.run(4, {"ef_search": 16}, duration_s=0.3, phase=0)
        b = hnsw_runner.run(4, {"ef_search": 16}, duration_s=0.3, phase=7)
        assert b.qps == pytest.approx(a.qps, rel=0.2)

    def test_max_queries_caps_run(self, hnsw_runner):
        result = hnsw_runner.run(4, {"ef_search": 16}, duration_s=10.0,
                                 max_queries=100)
        assert result.completed <= 100
        assert result.elapsed_s < 10.0

    def test_bad_concurrency_raises(self, hnsw_runner):
        with pytest.raises(WorkloadError):
            hnsw_runner.run(0, {})


class TestStorageBasedRuns:
    def test_diskann_reads_from_device(self, diskann_runner):
        result = diskann_runner.run(2, {"search_list": 16},
                                    duration_s=0.5)
        assert result.read_bytes > 0
        assert result.device_utilization > 0

    def test_trace_collects_4k_records(self, diskann_runner):
        result = diskann_runner.run(1, {"search_list": 16},
                                    duration_s=0.3, trace=True)
        assert result.tracer is not None and len(result.tracer) > 0
        assert all(r.size == 4096 for r in result.tracer.records)
        assert all(r.op == "R" for r in result.tracer.records)

    def test_no_trace_by_default(self, diskann_runner):
        result = diskann_runner.run(1, {"search_list": 16},
                                    duration_s=0.3)
        assert result.tracer is None

    def test_diskann_slower_than_memory_hnsw(self, hnsw_runner,
                                             diskann_runner):
        memory = hnsw_runner.run(1, {"ef_search": 16}, duration_s=0.5)
        storage = diskann_runner.run(1, {"search_list": 16},
                                     duration_s=0.5)
        assert storage.p99_latency_s > memory.p99_latency_s

    def test_higher_search_list_more_io(self, diskann_runner):
        small = diskann_runner.run(1, {"search_list": 10}, duration_s=0.5)
        large = diskann_runner.run(1, {"search_list": 64}, duration_s=0.5)
        assert large.per_query_read_bytes > small.per_query_read_bytes
        assert large.qps < small.qps

    def test_offsets_fall_inside_allocated_file(self, diskann_runner):
        result = diskann_runner.run(1, {"search_list": 16},
                                    duration_s=0.3, trace=True)
        segment = diskann_runner.collection.segments[0]
        base = diskann_runner._segment_bases[segment.segment_id]
        size = segment.index.disk_bytes()
        for record in result.tracer.records:
            assert base <= record.offset < base + size

    def test_plans_share_one_object_per_extent(self, diskann_runner):
        """Plans name the same few sectors thousands of times; every
        mention of an extent is the same tuple, not a copy."""
        cold, warm, _recall = diskann_runner._compile({"search_list": 32})
        extents = [extent for plan in cold + warm
                   for steps in plan.segments for kind, payload in steps
                   if kind in ("io", "pf") for extent in payload]
        assert len(extents) > 4 * len(set(extents))
        assert len({id(extent) for extent in extents}) == len(set(extents))


class TestLoopInputs:
    """Closed-loop inputs fail typed, before any plan compiles."""

    #: Never compiled elsewhere: a rejected run must leave no plans.
    PARAMS = {"search_list": 17}

    def rejects(self, runner, match, *args, **kwargs):
        key = tuple(sorted(self.PARAMS.items()))
        with pytest.raises(WorkloadError, match=match):
            runner.run(*args, **kwargs)
        assert key not in runner._plan_cache

    def test_float_concurrency(self, diskann_runner):
        self.rejects(diskann_runner, "concurrency", 2.0, self.PARAMS)

    def test_bool_concurrency(self, diskann_runner):
        self.rejects(diskann_runner, "concurrency", True, self.PARAMS)

    def test_float_phase(self, diskann_runner):
        self.rejects(diskann_runner, "phase", 2, self.PARAMS, phase=1.5)

    @pytest.mark.parametrize("duration", [float("nan"), -1.0, 0.0, True])
    def test_bad_duration(self, diskann_runner, duration):
        self.rejects(diskann_runner, "duration_s", 2, self.PARAMS,
                     duration_s=duration)

    @pytest.mark.parametrize("max_queries", [2.5, 0, False])
    def test_bad_max_queries(self, diskann_runner, max_queries):
        self.rejects(diskann_runner, "max_queries", 2, self.PARAMS,
                     max_queries=max_queries)

    def test_unbounded_duration_is_bounded_by_max_queries(self,
                                                          diskann_runner):
        result = diskann_runner.run(2, {"search_list": 16},
                                    duration_s=float("inf"), max_queries=5)
        assert result.completed == 5


class TestOomHandling:
    def test_lancedb_oom_reported_not_raised(self, small_data,
                                             small_queries):
        engine = make_engine(small_data, engine_name="lancedb",
                             kind="hnsw-sq", M=8, ef_construction=40)
        runner = BenchRunner(engine, "bench", small_queries)
        result = runner.run(256, {"ef_search": 16}, duration_s=0.2)
        assert result.failed
        assert result.error == "out-of-memory"
        ok = runner.run(8, {"ef_search": 16}, duration_s=0.2)
        assert not ok.failed


class TestStalePlans:
    def test_mutating_the_collection_invalidates_the_runner(
            self, small_data, small_queries):
        # Regression: the plan caches are keyed on search params only,
        # so a runner used to replay pre-mutation plans (same QPS, ids
        # and recall) after the collection changed under it.
        engine = make_engine(small_data[:300], kind="flat")
        runner = BenchRunner(engine, "bench", small_queries)
        runner.run(4, {}, duration_s=0.05)
        engine.insert("bench", small_data[300:])
        engine.flush("bench")
        with pytest.raises(WorkloadError, match="build a new one"):
            runner.run(4, {}, duration_s=0.05)
        with pytest.raises(WorkloadError, match="build a new one"):
            runner.compiled_results({})
        fresh = BenchRunner(engine, "bench", small_queries)
        assert fresh.run(4, {}, duration_s=0.05).completed > 0


class TestEngineOverheads:
    def test_rpc_floor_on_latency(self, small_data, small_queries):
        engine = make_engine(small_data)
        runner = BenchRunner(engine, "bench", small_queries)
        result = runner.run(1, {"ef_search": 4}, duration_s=0.3)
        assert result.mean_latency_s >= engine.profile.rpc_s

    def test_embedded_engine_has_no_rpc_floor(self, small_data,
                                              small_queries):
        lance = make_engine(small_data, engine_name="lancedb",
                            kind="hnsw-sq", M=8, ef_construction=40)
        runner = BenchRunner(lance, "bench", small_queries)
        result = runner.run(1, {"ef_search": 4}, duration_s=0.3)
        # All latency is CPU time; with one client it is mean service.
        assert result.mean_latency_s > 0

    def test_batching_amortizes_fixed_cost(self, small_data,
                                           small_queries):
        weaviate = make_engine(small_data, engine_name="weaviate")
        runner = BenchRunner(weaviate, "bench", small_queries)
        one = runner.run(1, {"ef_search": 16}, duration_s=0.5)
        six = runner.run(6, {"ef_search": 16}, duration_s=0.5)
        # Superlinear: 6 clients > 6x one client's throughput (O-4).
        assert six.qps > 6 * one.qps


class TestSplitRequests:
    """Regression: splitting must never drop the sub-cap remainder.

    An extent of ``n * cap + r`` bytes must compile to n cap-sized
    requests plus one r-byte request — all bytes accounted for.
    """

    def test_uneven_split_keeps_remainder(self, diskann_runner):
        cap = diskann_runner.device_spec.max_request_bytes
        out = diskann_runner._split_requests([(0, 2 * cap + 500)])
        assert out == [(0, cap), (cap, cap), (2 * cap, 500)]

    def test_exact_multiple_has_no_empty_tail(self, diskann_runner):
        cap = diskann_runner.device_spec.max_request_bytes
        out = diskann_runner._split_requests([(4096, 2 * cap)])
        assert out == [(4096, cap), (4096 + cap, cap)]
        assert all(size > 0 for _, size in out)

    def test_sub_cap_requests_pass_through(self, diskann_runner):
        requests = [(0, 4096), (8192, 12288)]
        assert diskann_runner._split_requests(requests) == requests

    def test_total_bytes_preserved(self, diskann_runner):
        cap = diskann_runner.device_spec.max_request_bytes
        requests = [(0, 3 * cap + 1), (10 * cap, cap - 1), (20 * cap, 1)]
        out = diskann_runner._split_requests(requests)
        assert (sum(size for _, size in out)
                == sum(size for _, size in requests))


class TestPrefetchReplay:
    """Prefetch/cache-policy params through the full runner pipeline."""

    PARAMS = {"search_list": 20, "beam_width": 2}

    def test_prefetch_keeps_recall_and_feeds_telemetry(self,
                                                       diskann_runner):
        base = diskann_runner.run(2, dict(self.PARAMS), duration_s=0.5)
        tuned = diskann_runner.run(
            2, dict(self.PARAMS, prefetch_depth=2, cache_policy="hotness"),
            duration_s=0.5, telemetry=True)
        assert tuned.recall == base.recall
        telemetry = tuned.telemetry
        issued = telemetry.counters["prefetch_issued"].value
        useful = telemetry.counters["prefetch_useful"].value
        wasted = telemetry.counters["prefetch_wasted"].value
        assert issued > 0
        assert issued == useful + wasted
        assert telemetry.prefetch_hit_rate == useful / issued
        assert 0.0 <= telemetry.wasted_read_ratio < 1.0
        assert telemetry.counters["device_prefetch_requests"].value > 0

    def test_speculative_reads_show_up_in_trace(self, diskann_runner):
        base = diskann_runner.run(1, dict(self.PARAMS), duration_s=0.3,
                                  trace=True)
        tuned = diskann_runner.run(
            1, dict(self.PARAMS, prefetch_depth=4, cache_policy="lru"),
            duration_s=0.3, trace=True)
        # Speculative reads are real device traffic: the block trace
        # accounts for every byte the result reports.
        assert tuned.read_bytes == tuned.tracer.total_bytes("R")
        assert base.read_bytes == base.tracer.total_bytes("R")

    def test_spans_reconcile_with_device_counters(self, diskann_runner):
        result = diskann_runner.run(
            2, dict(self.PARAMS, prefetch_depth=2, cache_policy="hotness"),
            duration_s=0.3, telemetry=True)
        telemetry = result.telemetry
        assert telemetry.total_read_bytes == result.read_bytes
        span_pf = sum(s.prefetch_requests for s in telemetry.spans)
        assert span_pf == telemetry.counters[
            "device_prefetch_requests"].value
