"""Tests for the command-line interface (fast commands only)."""

import pytest

from repro.cli import build_parser, main
from repro.core.study import studies


def test_fio_command_runs(capsys):
    assert main(["fio"]) == 0
    out = capsys.readouterr().out
    assert "324.3" in out          # paper column present
    assert "KIOPS" in out


def test_tune_command(capsys):
    assert main(["tune", "-s", "milvus-hnsw", "-d", "openai-500k"]) == 0
    out = capsys.readouterr().out
    assert "recall@10" in out


def test_sweep_command(capsys):
    assert main(["sweep", "-s", "milvus-hnsw", "-d", "openai-500k",
                 "--threads", "1,4"]) == 0
    out = capsys.readouterr().out
    assert "QPS" in out and "P99" in out


def test_telemetry_command_exports(capsys, tmp_path):
    jsonl = str(tmp_path / "spans.jsonl")
    prom = str(tmp_path / "metrics.prom")
    assert main(["telemetry", "-s", "milvus-diskann", "-d", "openai-500k",
                 "--threads", "2", "--duration", "0.2",
                 "--jsonl", jsonl, "--prom", prom]) == 0
    out = capsys.readouterr().out
    assert "Stage latency" in out
    assert "reconciliation" in out and "True" in out
    from repro.obs import read_spans_jsonl
    spans = read_spans_jsonl(jsonl)
    assert spans and all(s.read_bytes >= 0 for s in spans)
    with open(prom) as handle:
        assert "repro_query_latency_s_bucket" in handle.read()


def test_unknown_setup_rejected():
    with pytest.raises(SystemExit):
        main(["sweep", "-s", "bogus", "-d", "openai-500k"])


def test_unknown_dataset_rejected():
    with pytest.raises(SystemExit):
        main(["tune", "-s", "milvus-hnsw", "-d", "sift-1b"])


def test_figure_out_of_range(capsys):
    assert main(["figure", "99", "--datasets", "openai-500k"]) == 2


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("fio", "table2", "tune", "sweep", "figure", "telemetry",
                    "study", "prebuild",
                    *(study.name for study in studies())):
        assert command in text


def test_prefetch_command(capsys):
    assert main(["prefetch", "-d", "openai-500k", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "hotness+pf" in out and "lru" in out
    assert "pf hit" in out and "wasted" in out
    assert "recall_identical_across_configs  HOLDS" in out
    # Recall is identical across the three configs of each beam row.
    recalls = {}
    for line in out.splitlines()[3:]:
        parts = line.split()
        if len(parts) >= 8:
            recalls.setdefault(parts[0], set()).add(parts[5])
    assert recalls and all(len(values) == 1 for values in recalls.values())
