"""Self-check of the benchmark (not part of tier-1).

    python -m pytest bench -q

Runs every workload once untraced and once traced (short passes; about
two minutes in all) and checks the contract between ``BENCHMARK.json``,
``metrics.py`` and what ``run.py`` really emits.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, metrics
from bench.trace import LAYERS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(metrics.WORKLOADS))
def records(request, tmp_path_factory):
    """(untraced, traced) records and result lines of one workload."""
    out = {}
    for trace in (0, 1):
        path = tmp_path_factory.mktemp("bench") / f"{trace}.json"
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", request.param,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert done.returncode == 0, done.stderr + done.stdout
        line = json.loads(done.stdout.strip().splitlines()[-1])
        out[trace] = (json.loads(path.read_text()), line)
    return out


def test_benchmark_json_matches_the_catalogue(spec):
    assert spec == metrics.benchmark_json()
    assert len(spec["workloads"]) == 4
    assert len(spec["end_to_end"]) == 7
    assert len(spec["per_layer"]) == 3 * len(LAYERS) + 73 == 115
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_has_a_clock():
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert metric.clock in ("sim", "host")
    assert all(m.moves for m in metrics.PER_LAYER)


def test_every_workload_emits_every_metric(spec, records):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record, line = records[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(line["metrics"][m["name"]]["value"],
                              (int, float))
        assert record["sim_digest"] and record["correct"]
    for m in spec["end_to_end"]:
        assert records[0][1]["metrics"][m["name"]]["value"] > 0


def test_traced_and_untraced_runs_agree_on_the_sim_clock(records):
    assert records[0][0]["sim_digest"] == records[1][0]["sim_digest"]


def test_shares_sum_to_one(records):
    values = {name: m["value"]
              for name, m in records[1][1]["metrics"].items()}
    total = values["bench.untraced_share"] + sum(
        values[f"{layer}.share"] for layer in LAYERS)
    assert total == pytest.approx(1.0, abs=0.01)
    assert values["bench.untraced_share"] >= 0


def test_environment_is_recorded(records):
    for record, _line in records.values():
        env = record["environment"]
        assert {"nproc", "python", "numpy", "blas_threads", "git_commit",
                "seed"} <= set(env)
        assert env["blas_threads"] == "1" and env["seed"] == 3


def test_workloads_separate_the_layers(records):
    record, line = records[1]
    share = {layer: line["metrics"][f"{layer}.share"]["value"]
             for layer in LAYERS}
    calls = {layer: line["metrics"][f"{layer}.calls"]["value"]
             for layer in LAYERS}

    def held(*layers):
        return sum(share[layer] for layer in layers)

    workload = record["workload"]
    if workload == "rq3-sweep":
        assert held("ann.search", "engines", "workload.compile") > 0.5
        assert held("simkernel", "storage") < 0.25
    elif workload == "kf1-replay":
        assert calls["ann.search"] == 0
        assert held("workload.replay", "simkernel", "storage") > 0.8
    elif workload == "serve-cluster":
        assert line["metrics"]["storage.submits"]["value"] == 0
        assert held("serve", "cluster", "tenancy", "simkernel",
                    "workload.replay") > 0.7
    else:
        assert held("ann.build", "mutate", "durability", "engines") > 0.5


def test_compare_verdicts():
    assert compare.host_verdict([10, 10.1, 9.9], [10.2, 10.0, 10.1],
                                "lower", 0.1)[0] == "within-bound"
    assert compare.host_verdict([10, 10.1, 9.9], [12, 12.1, 11.9],
                                "lower", 0.1)[0] == "worse"
    assert compare.host_verdict([10, 10.1, 9.9], [8, 8.1, 7.9],
                                "lower", 0.1)[0] == "better"
    assert compare.host_verdict([10, 14, 6], [10.5, 14, 6],
                                "lower", 0.1)[0] == "unresolved"
    assert compare.sim_verdict([(5.0, 5.0)], "higher")[0] == "equal"
    assert compare.sim_verdict([(5.0, 5.1)], "higher")[0] == "better"
    assert compare.sim_verdict([(5.0, 5.1)], "lower")[0] == "worse"
