"""Unit tests for metrics containers and aggregation."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.metrics import (RunResult, geometric_mean, percentile,
                                    percentiles, summarize)


def make_result(qps=100.0, p99=0.01, read_bytes=0, completed=100,
                elapsed=1.0, error=None, p50=0.004, p95=0.008):
    return RunResult(
        engine="milvus", index_kind="hnsw", dataset="d", concurrency=1,
        completed=completed, elapsed_s=elapsed, qps=qps,
        mean_latency_s=p99 / 2, p99_latency_s=p99, cpu_utilization=0.5,
        device_utilization=0.0, read_bytes=read_bytes, write_bytes=0,
        p50_latency_s=p50, p95_latency_s=p95, recall=0.9, error=error)


def test_derived_bandwidth_and_volume():
    result = make_result(read_bytes=1000, completed=10, elapsed=2.0)
    assert result.read_bandwidth == 500.0
    assert result.per_query_read_bytes == 100.0


def test_zero_division_guards():
    result = make_result(read_bytes=0, completed=0, elapsed=0.0)
    assert result.read_bandwidth == 0.0
    assert result.per_query_read_bytes == 0.0


def test_failed_flag():
    assert make_result(error="out-of-memory").failed
    assert not make_result().failed


def test_percentile_basic():
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_percentile_validation():
    with pytest.raises(WorkloadError):
        percentile([], 50)
    with pytest.raises(WorkloadError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n", [*range(1, 60), 100, 999, 1000, 12345])
def test_percentiles_are_bit_identical_to_single_calls(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        values = list(rng.lognormal(-6.0, 1.0, size=n))
        single = tuple(percentile(values, q) for q in (50, 95, 99))
        assert percentiles(values, (50, 95, 99)) == single


def test_percentiles_validation():
    with pytest.raises(WorkloadError):
        percentiles([], (50,))
    with pytest.raises(WorkloadError):
        percentiles([1.0], (50, 101))
    assert percentiles([1.0, 2.0, 3.0], ()) == ()


def test_summarize_means_and_stds():
    summary = summarize([make_result(qps=100), make_result(qps=200)])
    assert summary.qps == 150.0
    assert summary.qps_std == 50.0
    assert summary.recall == pytest.approx(0.9)


def test_summarize_aggregates_p50_p95():
    summary = summarize([make_result(p50=0.002, p95=0.010),
                         make_result(p50=0.004, p95=0.020)])
    assert summary.p50_latency_s == pytest.approx(0.003)
    assert summary.p50_latency_std == pytest.approx(0.001)
    assert summary.p95_latency_s == pytest.approx(0.015)
    assert summary.p95_latency_std == pytest.approx(0.005)


def test_summarize_rejects_failures():
    with pytest.raises(WorkloadError):
        summarize([make_result(error="out-of-memory")])
    with pytest.raises(WorkloadError):
        summarize([])


def test_summarize_failure_names_the_run():
    # Regression: the old message said only "cannot summarize failed
    # runs" — no way to tell *which* repetition died, or of what.
    results = [make_result(), make_result(error="out-of-memory"),
               make_result()]
    with pytest.raises(WorkloadError) as exc:
        summarize(results)
    message = str(exc.value)
    assert "run 1 of 3" in message
    assert "'out-of-memory'" in message
    assert "milvus/hnsw" in message


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([3.0]) == pytest.approx(3.0)


def test_geometric_mean_rejects_nonpositive():
    with pytest.raises(WorkloadError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(WorkloadError):
        geometric_mean([])


def test_percentile_fields_default_to_nan():
    # Results recorded before p50/p95 capture carry NaN, and summaries
    # over them stay NaN rather than raising.
    result = RunResult(
        engine="milvus", index_kind="hnsw", dataset="d", concurrency=1,
        completed=10, elapsed_s=1.0, qps=10.0, mean_latency_s=0.005,
        p99_latency_s=0.01, cpu_utilization=0.5, device_utilization=0.0,
        read_bytes=0, write_bytes=0)
    assert math.isnan(result.p50_latency_s)
    assert math.isnan(result.p95_latency_s)
    summary = summarize([result])
    assert math.isnan(summary.p50_latency_s)
    assert math.isnan(summary.p95_latency_s)
