"""Unit tests for report rendering."""

from repro.core.observations import ObservationCheck
from repro.core.report import (format_table, render_fig6,
                               render_observations, render_series_figure,
                               render_table2)


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert lines[0].startswith("a")
    assert "---" in lines[1]
    assert len(lines) == 4
    # Columns align: every 'bbbb'-column entry starts at same offset.
    offsets = {line.find(value) for line, value in
               zip(lines[2:], ["2", "4"])}
    assert len(offsets) == 1


def test_render_series_figure_marks_oom():
    data = {"threads": [1, 2], "datasets": {
        "d": {"setup-a": [10.0, None]}}}
    text = render_series_figure(data, "QPS")
    assert "OOM" in text
    assert "[d]" in text


def test_render_table2():
    table = {"cohere-1m": {"milvus-hnsw": {"ef_search": 14,
                                           "recall": 0.904}}}
    text = render_table2(table)
    assert "cohere-1m" in text
    assert "0.904" in text


def test_render_observations_verdicts():
    checks = [ObservationCheck("O-1", "claim one", "meas", True),
              ObservationCheck("O-2", "claim two", "meas", False)]
    text = render_observations(checks, {"KF-1 something": True})
    assert "HOLDS" in text and "DIFFERS" in text
    assert "KF-1 something" in text


def test_render_fig6():
    data = {"cohere-1m": {1: {"per_query_kib": 20.0, "fraction_4k": 1.0},
                          256: {"per_query_kib": 18.0,
                                "fraction_4k": 0.9999}}}
    text = render_fig6(data)
    assert "20.0" in text and "18.0" in text
    assert "1.0000" in text  # the concurrency-1 4 KiB fraction column


def test_render_telemetry_sections():
    from repro.core.report import render_telemetry
    from repro.obs import RunTelemetry

    telemetry = RunTelemetry()
    for query_id, (cold, read_bytes) in enumerate([(True, 8192),
                                                   (False, 4096)]):
        span = telemetry.begin_query(query_id, query_id, 0, cold,
                                     now=0.01 * query_id)
        seg = span.segment(0)
        seg.cpu_s, seg.device_s, seg.read_bytes = 1e-3, 2e-3, read_bytes
        span.add_stage("rpc", 5e-4)
        telemetry.end_query(span, now=0.01 * query_id + 0.004)
    telemetry.on_device_submit("R", [(0, 8192)])
    telemetry.observe_queue_depth("cores", 1)
    text = render_telemetry(telemetry)
    assert "Stage latency" in text
    assert "Figure 6" in text
    assert "Cold vs warm" in text
    assert "cold" in text and "warm" in text
    assert "device_read_bytes" in text
    assert "Queue depth" in text


def test_render_telemetry_empty_run():
    from repro.core.report import render_telemetry
    from repro.obs import RunTelemetry

    assert render_telemetry(RunTelemetry()) == ""


def test_render_telemetry_prefetch_block():
    from repro.core.report import render_telemetry
    from repro.obs import RunTelemetry

    telemetry = RunTelemetry()
    span = telemetry.begin_query(0, 0, 0, True, now=0.0)
    seg = span.segment(0)
    seg.cpu_s, seg.device_s, seg.read_bytes = 1e-3, 2e-3, 8192
    seg.prefetch_requests, seg.prefetch_bytes = 4, 16384
    seg.prefetch_useful, seg.prefetch_wasted = 3, 1
    telemetry.end_query(span, now=0.004)
    telemetry.on_device_submit("R", [(0, 8192)])
    telemetry.on_device_submit("R", [(0, 16384)], speculative=True)
    text = render_telemetry(telemetry)
    assert "== Prefetch" in text
    assert "prefetch hit rate" in text and "0.750" in text
    assert "wasted read ratio" in text
    assert "device_prefetch_requests" in text
