"""The paper's own evaluation: one bench per registered artifact.

A loop over :data:`repro.core.study.ARTIFACTS` — build the artifact once
on the paper's axes, print its rendered table, then assert every
observation check attached to it plus the secondary shape claims below
(the paper's prose around each table/figure that is not an O-number).
Every assertion runs inside the parametrised test, so
``--benchmark-only`` drops none, and a failing one does not hide the
rest: the test reports all that differ.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.core.study import ARTIFACTS, artifact
from repro.data.spec import DATASET_NAMES

SMALL = ("cohere-1m", "openai-500k")


def _at(data, dataset, setup, threads):
    return data["datasets"][dataset][setup][data["threads"].index(threads)]


def fio_within_calibration(data):
    """Section III-A: 324.3 KIOPS on one core, 1.3 MIOPS at QD64,
    7.2 GiB/s sequential, sub-100 us QD1 reads."""
    assert data["single_core_4k_kiops"] == pytest.approx(324.3, rel=0.08)
    assert data["deep_queue_4k_miops"] == pytest.approx(1.3, rel=0.10)
    assert data["seq_128k_gib_s"] == pytest.approx(7.2, rel=0.08)
    assert data["qd1_mean_latency_us"] < 100.0


def table2_orderings(table):
    """Every Milvus setup reaches 0.9; DiskANN already at the minimum
    search_list on the small datasets; LanceDB's quantized HNSW needs at
    least Milvus's efSearch; LanceDB IVF-PQ, pinned to Milvus's nprobe,
    falls short (0.64-0.73 in the paper)."""
    for dataset, row in table.items():
        assert row["milvus-ivf"]["recall"] >= 0.9
        assert row["milvus-hnsw"]["recall"] >= 0.9
        assert row["milvus-diskann"]["recall"] >= 0.9
        if dataset in SMALL:
            assert row["milvus-diskann"]["search_list"] == 10
            assert row["milvus-diskann"]["recall"] >= 0.92
        else:
            # Known proxy-scale divergence (see EXPERIMENTS.md): the
            # 10x proxies need a slightly larger candidate list.
            assert row["milvus-diskann"]["search_list"] <= 25
        assert (row["lancedb-hnsw"]["ef_search"]
                >= row["milvus-hnsw"]["ef_search"])
        assert row["lancedb-ivfpq"]["recall"] < 0.9
        assert (row["lancedb-ivfpq"]["nprobe"]
                == row["milvus-ivf"]["nprobe"])


def fig2_lancedb_oom(fig2):
    """The paper could not scale LanceDB-HNSW to 256 threads (OOM)."""
    for dataset, per_setup in fig2["datasets"].items():
        assert per_setup["lancedb-hnsw"][-1] is None, dataset
        assert per_setup["lancedb-hnsw"][0] is not None, dataset


def fig3_latency_grows_with_oversubscription(fig3):
    """Tail latency rises once clients outnumber useful parallelism."""
    for dataset, per_setup in fig3["datasets"].items():
        for setup, series in per_setup.items():
            values = [v for v in series if v is not None]
            assert values[-1] >= values[0], (dataset, setup)


def fig4_cpu_plateaus_with_throughput(fig4):
    """Milvus-IVF/DiskANN CPU plateaus after ~4 threads; Qdrant and
    Weaviate keep converting threads into CPU until ~32."""
    for dataset in fig4["datasets"]:
        for setup in ("milvus-ivf", "milvus-diskann"):
            early = _at(fig4, dataset, setup, 4)
            late = _at(fig4, dataset, setup, 64)
            assert late < 2.0 * early, (dataset, setup, early, late)
        for setup in ("qdrant-hnsw", "weaviate-hnsw"):
            early = _at(fig4, dataset, setup, 4)
            late = _at(fig4, dataset, setup, 32)
            assert late > 2.0 * early, (dataset, setup, early, late)


def fig4_cpu_tracks_throughput(fig4):
    """CPU usage and throughput plateau together for Milvus-DiskANN."""
    # Figure 2 over the same datasets re-reads Figure 4's cached sweeps.
    fig2 = artifact("fig2").build(tuple(fig4["datasets"]))
    for dataset in fig4["datasets"]:
        qps_gain = (_at(fig2, dataset, "milvus-diskann", 256)
                    / _at(fig2, dataset, "milvus-diskann", 4))
        cpu_gain = (_at(fig4, dataset, "milvus-diskann", 256)
                    / _at(fig4, dataset, "milvus-diskann", 4))
        assert abs(qps_gain - cpu_gain) < max(1.0, 0.75 * qps_gain)


def fig5_bandwidth_is_stable(fig5):
    """'The read bandwidth remains stable during the search': past
    warm-up, every non-negligible line varies within 60% of its mean."""
    for dataset, entry in fig5["datasets"].items():
        for concurrency, line in entry["lines"].items():
            series = np.asarray(line["read_mib_s"])[2:]
            if series.size == 0 or series.mean() < 1.0:
                continue
            spread = series.std() / series.mean()
            assert spread < 0.6, (dataset, concurrency, spread)


def fig5_bandwidth_grows_with_concurrency(fig5):
    for dataset, entry in fig5["datasets"].items():
        lines = entry["lines"]
        assert lines[256]["mean_mib_s"] > lines[1]["mean_mib_s"], dataset


def fig6_histogram_shape(fig6):
    """The histogram itself: 4 KiB strictly dominates everywhere."""
    for dataset, per_conc in fig6.items():
        for concurrency, entry in per_conc.items():
            histogram = entry["size_histogram"]
            assert max(histogram, key=histogram.get) == 4096, (
                dataset, concurrency)


def fig7_monotone_decrease(fig7_11):
    """QPS decreases (weakly) as search_list grows, at both levels."""
    for dataset, sweep in fig7_11.items():
        for concurrency in (1, 256):
            qps = [per_conc[concurrency]["qps"]
                   for per_conc in sweep.values()]
            assert all(b <= a * 1.05 for a, b in zip(qps, qps[1:])), (
                dataset, concurrency, qps)


def fig8_monotone_increase(fig7_11):
    for dataset, sweep in fig7_11.items():
        p99 = [per_conc[1]["p99_us"] for per_conc in sweep.values()]
        assert all(b >= a * 0.95 for a, b in zip(p99, p99[1:])), (
            dataset, p99)


def fig9_baseline_and_gain_bands(fig7_11):
    """Recall starts >= 0.9 at search_list=10 and gains 2.0-6.5% by 100."""
    for dataset, sweep in fig7_11.items():
        r10 = sweep[10][1]["recall"]
        r100 = sweep[100][1]["recall"]
        # Proxy-scale divergence (EXPERIMENTS.md): the 10x proxies start
        # slightly below the paper's 0.9 floor at L=10.
        assert r10 >= (0.9 if dataset in SMALL else 0.8), (dataset, r10)
        assert 0.0 <= r100 - r10 <= 0.2, (dataset, r10, r100)


def fig11_volume_outgrows_bandwidth(fig7_11):
    """search_list 10->100 multiplies per-query volume (paper: ~5-6x) at
    least as fast as total bandwidth, since throughput falls meanwhile —
    the paper's contrast between Figures 10 and 11."""
    for dataset, sweep in fig7_11.items():
        for concurrency in (1, 256):
            low, high = sweep[10][concurrency], sweep[100][concurrency]
            ratio = high["per_query_kib"] / max(low["per_query_kib"], 1e-9)
            total_ratio = high["read_mib_s"] / max(low["read_mib_s"], 1e-9)
            assert ratio >= 1.5, (dataset, concurrency, ratio)
            assert ratio >= total_ratio - 0.2, (dataset, concurrency)


def fig12_15_io_volume_flat(fig12_15):
    """Per-query I/O volume barely moves with beam_width: the same nodes
    are visited, only their grouping into rounds changes."""
    for dataset, per_width in fig12_15.items():
        volumes = [entry["per_query_kib"] for entry in per_width.values()]
        if max(volumes) <= 0.5:  # fully cached at this proxy scale
            continue
        assert max(volumes) / max(min(volumes), 1e-9) < 2.0, (
            dataset, volumes)


#: Secondary shape claims per artifact key (every registered key has a row).
SHAPES = {
    "fio": (fio_within_calibration,),
    "table2": (table2_orderings,),
    "fig2": (fig2_lancedb_oom,),
    "fig3": (fig3_latency_grows_with_oversubscription,),
    "fig4": (fig4_cpu_plateaus_with_throughput, fig4_cpu_tracks_throughput),
    "fig5": (fig5_bandwidth_is_stable,
             fig5_bandwidth_grows_with_concurrency),
    "fig6": (fig6_histogram_shape,),
    "fig7_11": (fig7_monotone_decrease, fig8_monotone_increase,
                fig9_baseline_and_gain_bands,
                fig11_volume_outgrows_bandwidth),
    "fig12_15": (fig12_15_io_volume_flat,),
}


@pytest.mark.parametrize("paper", ARTIFACTS, ids=lambda a: a.key)
def test_bench_paper(benchmark, paper):
    data = run_once(benchmark, lambda: paper.build(DATASET_NAMES))
    print("\n" + paper.render(data))
    differing = []
    for check in paper.checks:
        verdict = check(data)
        print(f"{verdict.obs_id}: "
              f"{'HOLDS' if verdict.holds else 'DIFFERS'} — "
              f"{verdict.measured}")
        if not verdict.holds:
            differing.append(f"{verdict.obs_id}: {verdict.measured}")
    for shape in SHAPES[paper.key]:
        try:
            shape(data)
        except AssertionError as error:
            differing.append(f"{shape.__name__}: {error}")
    assert not differing, "\n".join(differing)
