"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro fio                      # Section III-A device baseline
    repro table2                   # tuned parameters + recall
    repro sweep -s milvus-hnsw -d cohere-1m
    repro figure 2                 # any of 2..15
    repro prefetch -d cohere-1m    # cache-policy + prefetch study
    repro serve -d cohere-1m       # open-loop serving study
    repro cluster -d cohere-1m     # distributed cluster study
    repro chaos --quick            # composed faults + self-healing
    repro faults -d cohere-1m      # fault-injection + resilience study
    repro recover --quick          # crash/corruption recovery matrix
    repro study -o report.txt      # everything, with observation checks
    repro prebuild                 # build & cache all collections
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from repro.api import open_bench
from repro.core import figures, report
from repro.core.study import run_study
from repro.core.tuning import tune_setup
from repro.data.spec import DATASET_NAMES, current_scale
from repro.obs import write_prometheus, write_spans_jsonl
from repro.workload.setup import SETUPS


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def cmd_fio(_args: argparse.Namespace) -> int:
    data = figures.ssd_baseline_data()
    print(report.format_table(
        ["metric", "paper", "measured"],
        [["4 KiB randread, 1 core (KIOPS)", "324.3",
          f"{data['single_core_4k_kiops']:.1f}"],
         ["4 KiB randread, QD64 (MIOPS)", "1.3",
          f"{data['deep_queue_4k_miops']:.2f}"],
         ["128 KiB seqread (GiB/s)", "7.2",
          f"{data['seq_128k_gib_s']:.1f}"],
         ["QD1 mean latency (us)", "<100",
          f"{data['qd1_mean_latency_us']:.1f}"]]))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    print(report.render_table2(figures.table2_data(args.datasets)))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    tuned = tune_setup(args.setup, args.dataset)
    print(f"{args.setup} on {args.dataset}: {tuned.param_dict} "
          f"-> recall@10 {tuned.recall:.3f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    results = figures.perf_sweep(args.setup, args.dataset,
                                 threads=args.threads)
    rows = []
    for threads, result in zip(args.threads, results):
        if result is None:
            rows.append([threads, "OOM", "", "", ""])
        else:
            rows.append([threads, f"{result.qps:.0f}",
                         f"{result.p99_latency_s * 1e6:.0f}",
                         f"{100 * result.cpu_utilization:.0f}%",
                         f"{result.read_bandwidth / (1 << 20):.1f}"])
    print(report.format_table(
        ["threads", "QPS", "P99 (us)", "CPU", "read MiB/s"], rows))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    number = args.number
    datasets = args.datasets
    if number == 2:
        print(report.render_series_figure(
            figures.fig2_throughput(datasets), "QPS", 0))
    elif number == 3:
        print(report.render_series_figure(
            figures.fig3_latency(datasets), "P99us", 0))
    elif number == 4:
        print(report.render_series_figure(
            figures.fig4_cpu(), "CPU%", 0))
    elif number == 5:
        print(report.render_fig5(figures.fig5_bandwidth_timeline(datasets)))
    elif number == 6:
        print(report.render_fig6(figures.fig6_per_query_io(datasets)))
    elif number in (7, 8, 9, 10, 11):
        print(report.render_searchlist_sweep(
            figures.fig7_to_11_data(datasets)))
    elif number in (12, 13, 14, 15):
        print(report.render_beamwidth_sweep(
            figures.fig12_to_15_data(datasets)))
    else:
        print(f"no figure {number} in the paper's evaluation",
              file=sys.stderr)
        return 2
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    runner = figures.get_runner(args.setup, args.dataset)
    params = figures.tuned_params(args.setup, args.dataset)
    result = runner.run(args.threads, params, duration_s=args.duration,
                        trace=True, telemetry=True)
    if result.failed:
        print(f"run failed: {result.error}", file=sys.stderr)
        return 1
    telemetry = result.telemetry
    assert telemetry is not None
    print(report.render_telemetry(telemetry))
    span_bytes = telemetry.total_read_bytes
    trace_bytes = result.tracer.total_bytes("R") if result.tracer else 0
    print(f"\nreconciliation: spans {span_bytes} B == "
          f"result {result.read_bytes} B == trace {trace_bytes} B: "
          f"{span_bytes == result.read_bytes == trace_bytes}")
    if args.jsonl:
        write_spans_jsonl(telemetry.spans, args.jsonl)
        print(f"wrote {len(telemetry.spans)} spans to {args.jsonl}",
              file=sys.stderr)
    if args.prom:
        write_prometheus(telemetry, args.prom)
        print(f"wrote prometheus metrics to {args.prom}", file=sys.stderr)
    return 0


def cmd_prefetch(args: argparse.Namespace) -> int:
    data = figures.prefetch_comparison(
        args.dataset, beam_widths=args.beams,
        search_list=args.search_list, concurrency=args.threads)
    print(report.render_prefetch_comparison(data))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.study import SERVE_SETUPS, serving_study
    setups = SERVE_SETUPS[:1] if args.quick else SERVE_SETUPS
    duration = min(args.duration, 0.3) if args.quick else args.duration
    data = serving_study(
        args.dataset, setups=setups,
        duration_s=duration, seed=args.seed,
        progress=lambda m: print(f"[serve] {m}", file=sys.stderr))
    print(report.render_serving_study(data))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_mutate(args: argparse.Namespace) -> int:
    from repro.mutate.study import mutate_study
    duration = min(args.duration, 0.3) if args.quick else args.duration
    data = mutate_study(
        args.dataset, duration_s=duration, seed=args.seed,
        quick=args.quick,
        progress=lambda m: print(f"[mutate] {m}", file=sys.stderr))
    print(report.render_mutate_study(data))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.study import cluster_study
    duration = min(args.duration, 0.25) if args.quick else args.duration
    data = cluster_study(
        args.dataset, duration_s=duration, concurrency=args.threads,
        seed=args.seed, quick=args.quick,
        progress=lambda m: print(f"[cluster] {m}", file=sys.stderr))
    print(report.render_cluster_study(data))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.study import chaos_study
    duration = min(args.duration, 0.25) if args.quick else args.duration
    data = chaos_study(
        args.dataset, index=args.index, duration_s=duration,
        seed=args.seed, quick=args.quick,
        progress=lambda m: print(f"[chaos] {m}", file=sys.stderr))
    print(report.render_chaos_study(data))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_tenancy(args: argparse.Namespace) -> int:
    from repro.tenancy.study import tenancy_study
    duration = min(args.duration, 0.5) if args.quick else args.duration
    data = tenancy_study(
        args.dataset, n_tenants=args.tenants, duration_s=duration,
        seed=args.seed,
        progress=lambda m: print(f"[tenancy] {m}", file=sys.stderr))
    print(report.render_tenancy_study(data))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_faults(args: argparse.Namespace) -> int:
    data = figures.resilience_comparison(
        args.dataset, search_list=args.search_list,
        concurrency=args.threads, duration_s=args.duration,
        seed=args.seed)
    print(report.render_resilience_comparison(data))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.durability.study import run_recover_study
    data = run_recover_study(quick=args.quick, seed=args.seed)
    rows = []
    for row in data["crash_matrix"]:
        torn = "" if row["torn"] is None else f"torn {row['torn']:.0%}"
        rows.append([row["point"], row["occurrence"], torn, row["state"],
                     "yes" if row["repaired_scrub_ok"] else "NO",
                     "yes" if row["resumed_ok"] else "NO"])
    print(report.format_table(
        ["crash point", "occ", "mode", "recovered", "scrub ok",
         "resume ok"], rows))
    torn_wal = data["torn_wal"]
    print(f"\ntorn WAL tail: {torn_wal['recovered']}/"
          f"{torn_wal['appended']} entries recovered, "
          f"{torn_wal['truncated_bytes']} torn bytes truncated")
    rot = data["corruption"]
    print(f"corruption scrub: {rot['detected']}/{rot['injected_files']} "
          f"damaged files attributed; load refused: "
          f"{rot['load_refused']}")
    print("\nverdicts:")
    for name, holds in data["verdicts"].items():
        print(f"  {'PASS' if holds else 'FAIL'}  {name}")
    return 0 if all(data["verdicts"].values()) else 1


def cmd_study(args: argparse.Namespace) -> int:
    results = run_study(datasets=args.datasets,
                        progress=lambda m: print(f"[study] {m}",
                                                 file=sys.stderr))
    if args.out and args.out.endswith(".md"):
        report.write_experiments_md(results, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    elif args.out:
        with open(args.out, "w") as handle:
            handle.write(report.render_study(results) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(report.render_study(results))
    failed = [c.obs_id for c in results.checks if not c.holds]
    if failed:
        print(f"observations differing from the paper: {failed}",
              file=sys.stderr)
    return 0


def cmd_prebuild(args: argparse.Namespace) -> int:
    for dataset in args.datasets:
        for setup in SETUPS:
            print(f"building {setup} on {dataset} "
                  f"(scale={current_scale()})...", file=sys.stderr)
            open_bench(setup, dataset)
    print("all collections built and cached", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Storage-Based Approximate Nearest "
                    "Neighbor Search' (IISWC 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fio", help="device baseline").set_defaults(fn=cmd_fio)

    p = sub.add_parser("table2", help="tuned parameters and recall")
    p.add_argument("--datasets", nargs="+", default=list(DATASET_NAMES),
                   choices=DATASET_NAMES)
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("tune", help="tune one setup's search parameters")
    p.add_argument("-s", "--setup", required=True, choices=tuple(SETUPS))
    p.add_argument("-d", "--dataset", required=True, choices=DATASET_NAMES)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("sweep", help="concurrency sweep of one setup")
    p.add_argument("-s", "--setup", required=True, choices=tuple(SETUPS))
    p.add_argument("-d", "--dataset", required=True, choices=DATASET_NAMES)
    p.add_argument("--threads", type=_parse_ints,
                   default=figures.THREADS)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("figure", help="reproduce one paper figure")
    p.add_argument("number", type=int)
    p.add_argument("--datasets", nargs="+", default=list(DATASET_NAMES),
                   choices=DATASET_NAMES)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser(
        "telemetry", help="one run with query-level telemetry + exports")
    p.add_argument("-s", "--setup", required=True, choices=tuple(SETUPS))
    p.add_argument("-d", "--dataset", required=True, choices=DATASET_NAMES)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--duration", type=float, default=1.0,
                   help="simulated seconds to run (default 1.0)")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="write per-query spans as JSON lines")
    p.add_argument("--prom", default=None, metavar="PATH",
                   help="write Prometheus text-format metrics")
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser(
        "prefetch",
        help="cache-policy + look-ahead prefetch study (beyond the paper)")
    p.add_argument("-d", "--dataset", required=True, choices=DATASET_NAMES)
    p.add_argument("--beams", type=_parse_ints,
                   default=figures.PREFETCH_BEAMS,
                   help="beam_width axis (default 1,2,4,8)")
    p.add_argument("--search-list", type=int, default=50)
    p.add_argument("--threads", type=int, default=4)
    p.set_defaults(fn=cmd_prefetch)

    p = sub.add_parser(
        "serve",
        help="open-loop serving study: admission control, batching, "
             "shedding (beyond the paper)")
    p.add_argument("-d", "--dataset", default="cohere-1m",
                   choices=DATASET_NAMES)
    p.add_argument("--quick", action="store_true",
                   help="first setup only, shorter window (CI smoke)")
    p.add_argument("--duration", type=float, default=0.5,
                   help="simulated seconds per serving run (default 0.5)")
    p.add_argument("--seed", type=int, default=0,
                   help="arrival-timeline seed (default 0)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "mutate",
        help="streaming-mutability study: merged-search identity, "
             "reads under sustained writes, compaction interference "
             "(beyond the paper)")
    p.add_argument("-d", "--dataset", default="cohere-1m",
                   choices=DATASET_NAMES)
    p.add_argument("--quick", action="store_true",
                   help="two index kinds, shorter window (CI smoke)")
    p.add_argument("--duration", type=float, default=0.5,
                   help="simulated seconds per serving run (default 0.5)")
    p.add_argument("--seed", type=int, default=0,
                   help="history + arrival-timeline seed (default 0)")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser(
        "cluster",
        help="distributed cluster study: sharded QPS scaling, fan-out "
             "tails, failover (beyond the paper)")
    p.add_argument("-d", "--dataset", default="cohere-1m",
                   choices=DATASET_NAMES)
    p.add_argument("--quick", action="store_true",
                   help="shorter windows, smaller fan-out axis (CI smoke)")
    p.add_argument("--duration", type=float, default=0.4,
                   help="simulated seconds per run (default 0.4)")
    p.add_argument("--threads", type=int, default=16,
                   help="closed-loop clients per run (default 16)")
    p.add_argument("--seed", type=int, default=0,
                   help="placement/jitter/kill seed (default 0)")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "chaos",
        help="chaos study: composed fault schedules, self-healing "
             "supervisor, invariant oracles, schedule shrinking "
             "(beyond the paper)")
    p.add_argument("-d", "--dataset", default="cohere-1m",
                   choices=DATASET_NAMES)
    p.add_argument("--index", default="diskann",
                   help="index kind on every node (default diskann)")
    p.add_argument("--quick", action="store_true",
                   help="shorter serving window (CI smoke)")
    p.add_argument("--duration", type=float, default=0.4,
                   help="simulated seconds per chaos run (default 0.4)")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule + arrival-timeline seed (default 0)")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "tenancy",
        help="multi-tenant SLO autopilot study: cost-priced quotas, "
             "closed-loop degradation, tiered placement vs the static "
             "sweep (beyond the paper)")
    p.add_argument("-d", "--dataset", default="cohere-1m",
                   choices=DATASET_NAMES)
    p.add_argument("--tenants", type=int, default=100,
                   help="fleet size (default 100)")
    p.add_argument("--quick", action="store_true",
                   help="shorter serving window (CI smoke)")
    p.add_argument("--duration", type=float, default=0.5,
                   help="simulated seconds per serving run (default 0.5)")
    p.add_argument("--seed", type=int, default=0,
                   help="arrival-timeline seed (default 0)")
    p.set_defaults(fn=cmd_tenancy)

    p = sub.add_parser(
        "faults",
        help="fault-injection + resilience study (beyond the paper)")
    p.add_argument("-d", "--dataset", required=True, choices=DATASET_NAMES)
    p.add_argument("--search-list", type=int, default=50)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--duration", type=float, default=1.0,
                   help="simulated seconds per run (default 1.0)")
    p.add_argument("--seed", type=int, default=42,
                   help="fault plan + jitter seed (default 42)")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "recover",
        help="crash-consistency + corruption recovery matrix")
    p.add_argument("--quick", action="store_true",
                   help="reduced matrix (CI smoke)")
    p.add_argument("--seed", type=int, default=42,
                   help="crash/corruption plan seed (default 42)")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("study", help="run the whole evaluation")
    p.add_argument("--datasets", nargs="+", default=list(DATASET_NAMES),
                   choices=DATASET_NAMES)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser("prebuild", help="build and cache all collections")
    p.add_argument("--datasets", nargs="+", default=list(DATASET_NAMES),
                   choices=DATASET_NAMES)
    p.set_defaults(fn=cmd_prebuild)

    return parser


def main(argv: t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
