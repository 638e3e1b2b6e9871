"""Unit tests of the observation checkers against synthetic figure data.

Each checker gets hand-built data that should pass, plus a variant that
violates the claim, confirming the checker can actually fail.
"""

import pytest

from repro.core import observations as obs
from repro.errors import ReproError

THREADS = [1, 4, 16, 64, 256]


def series_fig(per_dataset):
    return {"threads": THREADS, "datasets": per_dataset}


def flat_series(value):
    return [value] * len(THREADS)


def qps_series(one, sixteen, final):
    return [one, one * 3, sixteen, final * 0.9, final]


def good_fig2():
    def dataset(scale):
        return {
            "milvus-hnsw": qps_series(100 * scale, 2000 * scale,
                                      4000 * scale),
            "milvus-diskann": qps_series(60 * scale, 1100 * scale,
                                         2000 * scale),
            "milvus-ivf": qps_series(50 * scale, 900 * scale, 1000 * scale),
            "qdrant-hnsw": qps_series(70 * scale, 1300 * scale,
                                      2500 * scale),
            # Weaviate's absolute throughput trails far behind (paper:
            # 1.5-7.1x), so its flat 10x scaling only wins Cohere 10M.
            "weaviate-hnsw": qps_series(40 * scale, 800 * scale,
                                        700 * scale),
            "lancedb-hnsw": [20 * scale, 60, 200, 400, None],
            "lancedb-ivfpq": qps_series(25 * scale, 80 * scale, 90 * scale),
        }
    data = {
        "cohere-1m": dataset(1.0),
        "openai-500k": dataset(1.1),
        "cohere-10m": dataset(0.12),
        "openai-5m": dataset(0.15),
    }
    # Large datasets: Milvus plateaus at 4 threads, others keep scaling.
    for large in ("cohere-10m", "openai-5m"):
        for setup in ("milvus-ivf", "milvus-diskann"):
            base = data[large][setup][1]
            data[large][setup] = [base / 4, base, base * 1.2, base * 1.3,
                                  base * 1.3]
        for setup in ("qdrant-hnsw", "weaviate-hnsw"):
            base = data[large][setup][1]
            data[large][setup] = [base / 4, base, base * 3, base * 6,
                                  base * 6]
    # Weaviate keeps throughput when data grows 10x; Qdrant keeps an
    # intermediate fraction; Milvus the least (O-6).  Factors chosen so
    # Milvus still wins openai-5m (paper: loses only Cohere 10M, O-2).
    keep = {"cohere-10m": (0.12, 0.45), "openai-5m": (0.30, 0.35)}
    for small, large in (("cohere-1m", "cohere-10m"),
                         ("openai-500k", "openai-5m")):
        milvus_keep, qdrant_keep = keep[large]
        data[large]["weaviate-hnsw"][-1] = (
            data[small]["weaviate-hnsw"][-1] * 1.03)
        data[large]["qdrant-hnsw"][-1] = (
            data[small]["qdrant-hnsw"][-1] * qdrant_keep)
        data[large]["milvus-hnsw"][-1] = (
            data[small]["milvus-hnsw"][-1] * milvus_keep)
    return series_fig(data)


class TestFig2Checks:
    def test_o1_holds_on_good_data(self):
        assert obs.check_o1_index_matters(good_fig2()).holds

    def test_o1_fails_when_ivf_beats_diskann(self):
        data = good_fig2()
        data["datasets"]["cohere-1m"]["milvus-ivf"][-1] = 10 ** 9
        assert not obs.check_o1_index_matters(data).holds

    def test_o2_holds_and_fails(self):
        assert obs.check_o2_database_matters(good_fig2()).holds
        data = good_fig2()
        for dataset in data["datasets"].values():
            dataset["qdrant-hnsw"][-1] = dataset["milvus-hnsw"][-1] * 2
        assert not obs.check_o2_database_matters(data).holds

    def test_o3_holds_and_fails(self):
        assert obs.check_o3_lancedb_slowest_single_thread(
            good_fig2()).holds
        data = good_fig2()
        for dataset in data["datasets"].values():
            dataset["lancedb-hnsw"][0] = 10 ** 9
        assert not obs.check_o3_lancedb_slowest_single_thread(data).holds

    def test_o4_superlinear(self):
        assert obs.check_o4_superlinear_scaling(good_fig2()).holds
        data = good_fig2()
        for small in ("cohere-1m", "openai-500k"):
            for setup, values in data["datasets"][small].items():
                if values[0] and values[2]:
                    values[2] = values[0] * 2  # sublinear
        assert not obs.check_o4_superlinear_scaling(data).holds

    def test_o5_plateau(self):
        assert obs.check_o5_milvus_plateaus_early(good_fig2()).holds
        data = good_fig2()
        data["datasets"]["cohere-10m"]["milvus-ivf"][3] = (
            data["datasets"]["cohere-10m"]["milvus-ivf"][1] * 50)
        assert not obs.check_o5_milvus_plateaus_early(data).holds

    def test_o6_dataset_scaling(self):
        assert obs.check_o6_dataset_scaling(good_fig2()).holds
        data = good_fig2()
        data["datasets"]["cohere-10m"]["weaviate-hnsw"][-1] = 1.0
        assert not obs.check_o6_dataset_scaling(data).holds


def good_fig3():
    def dataset():
        return {
            "milvus-hnsw": flat_series(500.0),
            "milvus-diskann": flat_series(900.0),
            "milvus-ivf": flat_series(1500.0),
            "qdrant-hnsw": flat_series(2000.0),
            "weaviate-hnsw": flat_series(8000.0),
        }
    return series_fig({d: dataset() for d in (
        "cohere-1m", "cohere-10m", "openai-500k", "openai-5m")})


class TestFig3Checks:
    def test_o7_ordering(self):
        assert obs.check_o7_latency_ordering(good_fig3()).holds
        data = good_fig3()
        for dataset in data["datasets"].values():
            dataset["milvus-diskann"] = flat_series(5000.0)
        assert not obs.check_o7_latency_ordering(data).holds

    def test_o8_spread(self):
        assert obs.check_o8_latency_spread(good_fig3()).holds
        data = good_fig3()
        for dataset in data["datasets"].values():
            dataset["qdrant-hnsw"] = flat_series(510.0)
            dataset["weaviate-hnsw"] = flat_series(520.0)
        assert not obs.check_o8_latency_spread(data).holds


def good_fig5():
    def entry(mean1, mean256):
        return {"plateau": 4, "lines": {
            1: {"starts": [0.0], "read_mib_s": [mean1], "mean_mib_s": mean1},
            256: {"starts": [0.0], "read_mib_s": [mean256],
                  "mean_mib_s": mean256}}}
    return {"interval_s": 1.0, "datasets": {
        "cohere-1m": entry(5.0, 120.0),
        "openai-500k": entry(6.0, 140.0),
        "cohere-10m": entry(90.0, 170.0),
        "openai-5m": entry(100.0, 190.0),
    }}


class TestFig5Checks:
    def test_o10_no_saturation(self):
        check = obs.check_o10_no_saturation(good_fig5(), 7372.8)
        assert check.holds
        saturated = good_fig5()
        saturated["datasets"]["cohere-1m"]["lines"][256][
            "read_mib_s"] = [7000.0]
        assert not obs.check_o10_no_saturation(saturated, 7372.8).holds

    def test_o12_concurrency_scaling(self):
        assert obs.check_o12_concurrency_bandwidth_scaling(
            good_fig5()).holds
        data = good_fig5()
        data["datasets"]["cohere-1m"]["lines"][256]["mean_mib_s"] = 5.0
        assert not obs.check_o12_concurrency_bandwidth_scaling(data).holds


def good_fig6():
    def entry(v1, v256):
        return {1: {"per_query_kib": v1, "fraction_4k": 1.0,
                    "size_histogram": {4096: 1000}},
                256: {"per_query_kib": v256, "fraction_4k": 0.9999,
                      "size_histogram": {4096: 9999, 8192: 1}}}
    return {"cohere-1m": entry(20.0, 18.0),
            "cohere-10m": entry(170.0, 150.0),
            "openai-500k": entry(25.0, 22.0),
            "openai-5m": entry(250.0, 230.0)}


class TestFig6Checks:
    def test_o13(self):
        assert obs.check_o13_per_query_volume_drops_with_concurrency(
            good_fig6()).holds
        data = good_fig6()
        data["cohere-1m"][256]["per_query_kib"] = 50.0
        assert not (obs.check_o13_per_query_volume_drops_with_concurrency(
            data).holds)

    def test_o14(self):
        assert obs.check_o14_per_query_volume_grows_with_data(
            good_fig6()).holds
        data = good_fig6()
        data["cohere-10m"][1]["per_query_kib"] = 21.0  # no growth
        assert not obs.check_o14_per_query_volume_grows_with_data(
            data).holds

    def test_o15(self):
        assert obs.check_o15_4k_dominance(good_fig6()).holds
        data = good_fig6()
        data["openai-5m"][1]["fraction_4k"] = 0.5
        assert not obs.check_o15_4k_dominance(data).holds


def good_fig7_11():
    def sweep():
        out = {}
        for i, L in enumerate((10, 20, 30, 50, 70, 100)):
            qps1 = 1000 / (1 + i * 0.12)
            out[L] = {
                1: {"qps": qps1, "p99_us": 1000 * (1 + i * 0.16),
                    "recall": min(0.99, 0.90 + 0.04 * (1 - 0.5 ** i)
                                  / (1 - 0.5)),
                    "read_mib_s": 20.0 * (1 + i * 0.45),
                    "per_query_kib": 20.0 * (1 + i * 0.9)},
                256: {"qps": 8000 / (1 + i * 0.25),
                      "p99_us": 30000.0, "recall": None,
                      "read_mib_s": 300.0 * (1 + i * 0.2),
                      "per_query_kib": 18.0 * (1 + i * 0.85)},
            }
        return out
    return {d: sweep() for d in ("cohere-1m", "openai-5m")}


class TestSearchListChecks:
    def test_o16_diminishing(self):
        assert obs.check_o16_diminishing_recall(good_fig7_11()).holds

    def test_o17_18_throughput(self):
        assert obs.check_o17_o18_throughput_cost(good_fig7_11()).holds

    def test_o19_latency(self):
        assert obs.check_o19_latency_cost(good_fig7_11()).holds

    def test_o20_21_bandwidth(self):
        assert obs.check_o20_o21_bandwidth_cost(good_fig7_11(),
                                                7372.8).holds

    def test_failing_variant(self):
        data = good_fig7_11()
        for sweep in data.values():
            sweep[100][1]["qps"] = sweep[10][1]["qps"] * 2  # faster?!
        assert not obs.check_o17_o18_throughput_cost(data).holds


def good_fig12_15():
    return {"cohere-1m": {w: {"qps": 900.0 + (w % 3) * 30,
                              "p99_us": 1000.0, "read_mib_s": 20.0,
                              "per_query_kib": 20.0}
                          for w in (1, 2, 4, 8, 16, 32)}}


class TestBeamWidthCheck:
    def test_o22_flat(self):
        assert obs.check_o22_beamwidth_no_trend(good_fig12_15()).holds
        data = good_fig12_15()
        data["cohere-1m"][32]["qps"] = 10_000.0
        assert not obs.check_o22_beamwidth_no_trend(data).holds


class TestCustomAxes:
    """The checkers read the paper's axis points; a figure built on
    other axes is refused by name, not with a bare lookup error."""

    def test_missing_thread_point_is_a_repro_error(self):
        data = good_fig2()
        data["threads"] = [1, 4, 16]
        for series in data["datasets"]["cohere-1m"].values():
            del series[3:]
        with pytest.raises(ReproError, match="threads=256"):
            obs.check_o1_index_matters(data)

    @pytest.mark.parametrize("check", [
        obs.check_o16_diminishing_recall, obs.check_o17_o18_throughput_cost,
        obs.check_o19_latency_cost, obs.check_o20_o21_bandwidth_cost])
    def test_missing_search_list_point_is_a_repro_error(self, check):
        data = good_fig7_11()
        for sweep in data.values():
            del sweep[100]
        with pytest.raises(ReproError, match="search_list=100"):
            check(data)


class TestKeyFindings:
    def test_conjunctions(self):
        checks = [
            obs.ObservationCheck("O-1", "", "", True),
            obs.ObservationCheck("O-2", "", "", True),
            obs.ObservationCheck("O-7", "", "", True),
            obs.ObservationCheck("O-10", "", "", True),
            obs.ObservationCheck("O-14", "", "", False),
            obs.ObservationCheck("O-15", "", "", True),
        ]
        findings = obs.key_findings(checks)
        assert findings[
            "KF-1 storage-based setups are not necessarily slower"]
        assert not findings[
            "KF-2 DiskANN cannot saturate the SSD; per-query I/O grows "
            "~10x with 10x data"]
