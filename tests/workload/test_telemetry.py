"""Telemetry integration on the benchmark runner.

Covers the three run-level guarantees of the observability subsystem:
cold-plan replay happens exactly once per query index (the S4 fix),
span-level read bytes reconcile exactly with the run totals and the
block trace, and turning telemetry on does not perturb the simulated
schedule (bit-identical results).
"""

import pytest

from repro.obs import STAGES, RunTelemetry
from repro.workload.replay import ReplaySession

from tests.workload.test_runner import make_engine  # noqa: F401
from repro.workload import BenchRunner


@pytest.fixture(scope="module")
def diskann_runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data, kind="diskann", R=8, L_build=16)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


@pytest.fixture(scope="module")
def hnsw_runner(small_data, small_queries, small_truth):
    engine = make_engine(small_data)
    return BenchRunner(engine, "bench", small_queries,
                       ground_truth=small_truth)


class TestFirstTouch:
    """S4: per-query-index cold replay, not 'first N issued queries'."""

    def test_first_touch_true_exactly_once_per_index(self):
        session = ReplaySession(env=None, hosts=[], replayer=None,
                                cold=["c0", "c1", "c2"],
                                warm=["w0", "w1", "w2"], recall=None,
                                telemetry=None)
        assert [session.plan_for(i) for i in (0, 1, 0, 1, 2, 0)] == [
            ("c0", True), ("c1", True), ("w0", False), ("w1", False),
            ("c2", True), ("w0", False)]

    def test_each_index_replays_cold_exactly_once(self, diskann_runner):
        result = diskann_runner.run(2, {"search_list": 16}, duration_s=0.5,
                                    telemetry=True)
        spans = result.telemetry.spans
        assert len(spans) == result.completed
        cold_counts: dict[int, int] = {}
        for span in spans:
            if span.cold:
                cold_counts[span.index] = cold_counts.get(span.index, 0) + 1
        touched = {span.index for span in spans}
        # Every touched index went cold exactly once -- including indexes
        # first reached late in the run, which the old ordinal-based gate
        # (ordinal < n_queries) replayed warm on their first touch.
        assert cold_counts == {index: 1 for index in touched}
        # The run repeats the query set, so warm replays exist too.
        assert any(not span.cold for span in spans)

    def test_interleaving_still_one_cold_per_index(self, diskann_runner):
        # phase= offsets each client's starting query; cold-replay
        # bookkeeping must follow the query index, not issue order.
        result = diskann_runner.run(4, {"search_list": 16}, duration_s=0.3,
                                    phase=7, telemetry=True)
        cold = [s.index for s in result.telemetry.spans if s.cold]
        assert len(cold) == len(set(cold))


class TestReconciliation:
    def test_span_bytes_match_result_and_trace(self, diskann_runner):
        result = diskann_runner.run(2, {"search_list": 16}, duration_s=0.5,
                                    trace=True, telemetry=True)
        telemetry = result.telemetry
        span_bytes = sum(s.read_bytes for s in telemetry.spans)
        assert span_bytes == result.read_bytes
        assert span_bytes == result.tracer.total_bytes("R")
        assert telemetry.total_read_bytes == span_bytes
        assert telemetry.counter("device_read_bytes").value == span_bytes

    def test_request_counts_match_trace(self, diskann_runner):
        result = diskann_runner.run(1, {"search_list": 16}, duration_s=0.3,
                                    trace=True, telemetry=True)
        spans = result.telemetry.spans
        assert sum(s.read_requests for s in spans) == len(result.tracer)
        assert (result.telemetry.counter("device_read_requests").value
                == len(result.tracer))

    def test_stage_times_cover_latency(self, diskann_runner):
        result = diskann_runner.run(1, {"search_list": 16}, duration_s=0.3,
                                    telemetry=True)
        for span in result.telemetry.spans:
            assert set(span.stages) <= set(STAGES)
            attributed = sum(span.stages.values())
            # Serial single-client run: stages tile the whole latency.
            assert attributed == pytest.approx(span.latency_s, rel=1e-6)

    def test_memory_index_has_no_device_stage_bytes(self, hnsw_runner):
        result = hnsw_runner.run(2, {"ef_search": 16}, duration_s=0.3,
                                 telemetry=True)
        assert all(s.read_bytes == 0 for s in result.telemetry.spans)
        assert result.telemetry.total_read_bytes == 0


class TestZeroOverhead:
    """Telemetry on vs off must be bit-identical (passive observer)."""

    @pytest.mark.parametrize("kwargs", [
        {"concurrency": 4, "params": {"search_list": 16}},
        {"concurrency": 1, "params": {"search_list": 32}},
    ])
    def test_results_bit_identical(self, diskann_runner, kwargs):
        off = diskann_runner.run(kwargs["concurrency"], kwargs["params"],
                                 duration_s=0.4)
        on = diskann_runner.run(kwargs["concurrency"], kwargs["params"],
                                duration_s=0.4, telemetry=True)
        assert on.qps == off.qps
        assert on.mean_latency_s == off.mean_latency_s
        assert on.p99_latency_s == off.p99_latency_s
        assert on.read_bytes == off.read_bytes
        assert on.completed == off.completed
        assert on.elapsed_s == off.elapsed_s

    def test_telemetry_none_by_default(self, diskann_runner):
        result = diskann_runner.run(1, {"search_list": 16}, duration_s=0.2)
        assert result.telemetry is None

    def test_caller_supplied_telemetry_used(self, hnsw_runner):
        telemetry = RunTelemetry()
        result = hnsw_runner.run(1, {"ef_search": 16}, duration_s=0.2,
                                 telemetry=telemetry)
        assert result.telemetry is telemetry
        assert telemetry.spans


class TestCacheCounters:
    def test_diskann_node_cache_counters_recorded(self, small_data,
                                                  small_queries):
        # Caches enabled so hits actually occur (the shared fixture
        # disables them to force device reads).
        import dataclasses

        from repro.engines import IndexSpec, VectorEngine, get_profile
        profile = dataclasses.replace(get_profile("milvus"),
                                      diskann_cache_bytes=1 << 20,
                                      diskann_lru_bytes=1 << 20)
        engine = VectorEngine(profile)
        engine.create_collection("bench", small_data.shape[1],
                                 IndexSpec.of("diskann", R=8, L_build=16),
                                 storage_dim=768)
        engine.insert("bench", small_data)
        engine.flush("bench")
        runner = BenchRunner(engine, "bench", small_queries)
        result = runner.run(1, {"search_list": 16}, duration_s=0.2,
                            telemetry=True)
        counters = result.telemetry.counters
        assert counters["cache_diskann_static_hits"].value > 0
        # Per-query spans carry the functional-phase hit counts too.
        assert sum(s.cache_hits for s in result.telemetry.spans) > 0
