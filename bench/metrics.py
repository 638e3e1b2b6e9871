"""The benchmark's metric catalogue: the names later PRs are judged by.

``BENCHMARK.json`` at the repo root lists these same names with unit and
direction (and, for end-to-end metrics, the regression bound); its fixed
key set has no room for the *clock* a metric is read on or for the
end-to-end metric it should move, so those live here and in README.md.
``python3 -m bench.metrics`` prints the ``BENCHMARK.json`` that matches
this file; ``test_selfcheck.py`` fails when the two drift.

Two clocks, never mixed:

* ``sim`` — produced by the deterministic simulator; the same seed
  gives the same value bit for bit, so two commits compare by equality
  (``compare.py`` does) and a count may back a claim.
* ``host`` — ``time.perf_counter`` / ``ru_maxrss`` on the machine that
  runs the benchmark; compared by medians against a bound.
"""

from __future__ import annotations

import dataclasses
import json

from bench.trace import LAYERS

RUN_SECONDS = 12

#: name -> why it exists (one line each; copied into BENCHMARK.json).
WORKLOADS = {
    "rq3-sweep": "functional-heavy: every RQ3 parameter cell pays real "
                 "DiskANN search and plan compilation, replay is short",
    "kf1-replay": "replay-heavy: plans compiled in set-up, passes run "
                  "only replayer, event loop and device model (KF-1/KF-2)",
    "serve-cluster": "control planes on memory-based IVF: admission, "
                     "scatter-gather and tenancy dominate, zero device I/O",
    "mutate-durable": "writes beside reads: ingest, compaction rebuild, "
                      "save/reopen and read/write device contention",
}


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    clock: str          # "sim" | "host"
    unit: str
    better: str         # "lower" | "higher"
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen.  Seeds differ between the driver's runs, so a
    #: sim metric's bound covers its spread *across seeds*; on one seed
    #: it must not move at all (compare.py checks equality).
    bound: float | None = None
    #: Per-layer only: the end-to-end metric(s) it should move, and on
    #: which workloads.
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "host", "s", "lower", 0.25),
    Metric("host_wall_s", "host", "s", "lower", 0.25),
    Metric("host_search_p50_ms", "host", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "host", "MiB", "lower", 0.10),
    Metric("sim_qps", "sim", "1/s", "higher", 0.20),
    Metric("sim_p99_ms", "sim", "ms", "lower", 0.20),
    Metric("recall_at_10", "sim", "ratio", "higher", 0.10),
)


def _layer_metrics():
    for layer in LAYERS:
        yield Metric(f"{layer}.self_s", "host", "s", "lower",
                     moves="host_wall_s / setup_s by at most this much")
        yield Metric(f"{layer}.calls", "sim", "count", "lower",
                     moves="explains self_s")
        yield Metric(f"{layer}.share", "host", "ratio", "lower",
                     moves="host_wall_s; shares + bench.untraced_share = 1")


def _m(names: str, clock: str, unit: str, better: str, moves: str):
    for name in names.split():
        yield Metric(name, clock, unit, better, moves=moves)


PER_LAYER = (
    *_layer_metrics(),
    # The two the ISSUE lists end to end but which read 0 on some
    # workload, which an end-to-end metric of BENCHMARK.json may not.
    *_m("sim_read_bytes_per_query", "sim", "B", "lower",
        "KF-2 outcome; 0 by construction on serve-cluster"),
    *_m("failed_ops_frac", "sim", "ratio", "lower",
        "(failed + rejected + shed + failed checks) / attempted"),
    *_m("ann.search_us_per_query", "host", "us", "lower",
        "host_wall_s on rq3-sweep; host_search_p50_ms on all; nothing "
        "on kf1-replay passes"),
    *_m("ann.search_p99_ms", "host", "ms", "lower",
        "host_search_p50_ms tail"),
    *_m("ann.batch_speedup", "host", "ratio", "higher",
        "host_wall_s on rq3-sweep (functional pass is batched)"),
    *_m("ann.full_evals_per_query ann.pq_evals_per_query", "sim", "count",
        "lower", "sim_qps, sim_p99_ms (CPU cost) on rq3-sweep, kf1-replay"),
    *_m("ann.io_rounds_per_query ann.io_requests_per_query", "sim",
        "count", "lower",
        "sim_read_bytes_per_query, sim_p99_ms on the DiskANN workloads"),
    *_m("ann.node_cache_hit_ratio", "sim", "ratio", "higher",
        "sim_read_bytes_per_query on the DiskANN workloads"),
    *_m("ann.build_rows_per_s", "host", "rows/s", "higher",
        "setup_s on rq3-sweep, kf1-replay; host_wall_s on mutate-durable"),
    *_m("engines.gather_us_per_query", "host", "us", "lower",
        "host_wall_s on rq3-sweep, mutate-durable"),
    *_m("engines.segments_per_query", "sim", "count", "lower",
        "engines.gather_us_per_query"),
    *_m("engines.insert_rows_per_s", "host", "rows/s", "higher",
        "setup_s on all; host_wall_s on mutate-durable"),
    *_m("workload.compile_ms_per_query", "host", "ms", "lower",
        "host_wall_s on rq3-sweep; setup_s on kf1-replay, serve-cluster"),
    *_m("workload.plan_steps_per_query", "sim", "count", "lower",
        "workload.replay_us_per_sim_query"),
    *_m("workload.replay_us_per_sim_query", "host", "us", "lower",
        "host_wall_s on kf1-replay"),
    *_m("workload.sim_queries_per_host_s", "host", "1/s", "higher",
        "host_wall_s on kf1-replay"),
    *_m("workload.sim_qps_c1 workload.sim_qps_c256", "sim", "1/s",
        "higher", "KF-1 plateau shape beside sim_qps on kf1-replay"),
    *_m("workload.sim_p99_ms_c256", "sim", "ms", "lower",
        "KF-1 tail shape beside sim_p99_ms on kf1-replay"),
    *_m("workload.sim_cpu_utilization", "sim", "ratio", "lower",
        "sim_qps ceiling on the closed-loop workloads"),
    *_m("simkernel.events", "sim", "count", "lower",
        "host time per simulated query on kf1-replay, serve-cluster"),
    *_m("simkernel.events_per_sim_query", "sim", "count", "lower",
        "host time per simulated query on kf1-replay, serve-cluster"),
    *_m("simkernel.events_per_host_s", "host", "1/s", "higher",
        "host_wall_s on kf1-replay, serve-cluster; little on rq3-sweep"),
    *_m("storage.submits storage.requests", "sim", "count", "lower",
        "sim_p99_ms on the DiskANN workloads; 0 on serve-cluster"),
    *_m("storage.read_bytes storage.write_bytes", "sim", "B", "lower",
        "sim_read_bytes_per_query; 0 on serve-cluster"),
    *_m("storage.req_4k_share", "sim", "ratio", "higher",
        "O-15: share of read requests that are 4 KiB"),
    *_m("storage.device_utilization", "sim", "ratio", "lower",
        "sim_p99_ms at high concurrency on kf1-replay"),
    *_m("storage.us_per_submit", "host", "us", "lower",
        "host_wall_s on kf1-replay; none on serve-cluster"),
    *_m("storage.fio_4k_qd1_kiops", "sim", "kiops", "higher",
        "device-model accuracy: 4 KiB random reads, one job on one "
        "core, against the paper's 324.3 KIOPS"),
    *_m("storage.fio_err_vs_paper", "sim", "ratio", "lower",
        "stated beside every simulated speed-up"),
    *_m("serve.arrivals serve.batches", "sim", "count", "higher",
        "sim_qps on serve-cluster, mutate-durable"),
    *_m("serve.rejected serve.shed", "sim", "count", "lower",
        "sim_qps (goodput), failed_ops_frac on serve-cluster"),
    *_m("serve.max_queue_depth", "sim", "count", "lower",
        "sim_p99_ms on serve-cluster"),
    *_m("serve.mean_queue_ms serve.mean_service_ms", "sim", "ms", "lower",
        "sim_p99_ms on serve-cluster"),
    *_m("serve.max_rate_within_slo_qps", "sim", "1/s", "higher",
        "highest of 0.5/0.9/1.2 S that is 99 % on time with no "
        "growing queue"),
    *_m("serve.us_per_arrival", "host", "us", "lower",
        "host_wall_s on serve-cluster"),
    *_m("cluster.legs_per_query", "sim", "count", "lower",
        "sim_p99_ms on serve-cluster (slowest leg sets the time)"),
    *_m("cluster.hedges", "sim", "count", "lower",
        "sim_qps on serve-cluster (duplicate work)"),
    *_m("cluster.hedge_wins", "sim", "count", "higher",
        "sim_p99_ms on serve-cluster"),
    *_m("cluster.merge_overhead_fraction", "sim", "ratio", "lower",
        "sim_p99_ms on serve-cluster"),
    *_m("cluster.sim_qps_c64", "sim", "1/s", "higher",
        "scatter-gather throughput beside sim_qps on serve-cluster"),
    *_m("cluster.us_per_sim_query", "host", "us", "lower",
        "host_wall_s on serve-cluster"),
    *_m("cluster.search_p50_ms", "host", "ms", "lower",
        "functional scatter-gather search; host_wall_s on serve-cluster"),
    *_m("tenancy.quota_rejected tenancy.degrades", "sim", "count",
        "lower", "failed_ops_frac, recall on serve-cluster"),
    *_m("tenancy.restores", "sim", "count", "higher",
        "recall on serve-cluster"),
    *_m("tenancy.attainment", "sim", "ratio", "higher",
        "sim_qps on serve-cluster"),
    *_m("tenancy.us_per_arrival", "host", "us", "lower",
        "host_wall_s on serve-cluster"),
    *_m("mutate.inserted_rows mutate.deleted_rows mutate.compactions",
        "sim", "count", "higher", "amount of write work on mutate-durable"),
    *_m("mutate.sim_wal_bytes mutate.sim_compaction_write_bytes", "sim",
        "B", "lower", "sim_p99_ms on mutate-durable (device contention)"),
    *_m("mutate.compact_s", "host", "s", "lower",
        "host_wall_s on mutate-durable"),
    *_m("durability.save_s durability.load_s", "host", "s", "lower",
        "host_wall_s, setup_s on mutate-durable"),
    *_m("durability.save_mb_per_s", "host", "MB/s", "higher",
        "host_wall_s on mutate-durable"),
    *_m("durability.store_bytes_per_vector_byte", "sim", "ratio", "lower",
        "space cost on mutate-durable"),
    *_m("durability.reopen_identical", "sim", "ratio", "higher",
        "failed_ops_frac on mutate-durable"),
    *_m("obs.telemetry_overhead_frac", "host", "ratio", "lower",
        "host cost of telemetry on the headline cell; sim results equal"),
    *_m("obs.spans", "sim", "count", "lower", "telemetry volume"),
    *_m("bench.untraced_share bench.trace_overhead_frac "
        "bench.pass_spread_frac", "host", "ratio", "lower",
        "quality of the measurement itself"),
    *_m("bench.calib_gemm_ms bench.calib_pyloop_ms", "host", "ms", "lower",
        "machine drift, separable from code drift"),
)


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
