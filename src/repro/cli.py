"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro fio                      # Section III-A device baseline
    repro table2                   # tuned parameters + recall
    repro sweep -s milvus-hnsw -d cohere-1m
    repro figure 2                 # any of 2..15
    repro serve -d cohere-1m       # one beyond-the-paper study; each
    repro chaos --quick            #   takes -d/--dataset, --quick, --seed
    repro recover --quick --seed 7 #   (see repro.core.study.STUDY_MODULES)
    repro study -o report.txt      # everything, with observation checks
    repro prebuild                 # build & cache all collections
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from repro.api import open_bench
from repro.core import figures, report
from repro.core.study import (Artifact, Study, artifact, figure_artifact,
                              render_study, run_study, studies,
                              write_experiments_md)
from repro.core.tuning import tune_setup
from repro.data.spec import DATASET_NAMES, current_scale
from repro.obs import write_prometheus, write_spans_jsonl
from repro.workload.setup import SETUPS


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _print_artifact(found: Artifact, datasets: t.Sequence[str]) -> int:
    print(found.render(found.build(datasets)))
    return 0


def cmd_fio(_args: argparse.Namespace) -> int:
    return _print_artifact(artifact("fio"), DATASET_NAMES)


def cmd_table2(args: argparse.Namespace) -> int:
    return _print_artifact(artifact("table2"), args.datasets)


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
    found = figure_artifact(args.number)
    if found is None:
        print(f"no figure {args.number} in the paper's evaluation",
              file=sys.stderr)
        return 2
    return _print_artifact(found, args.datasets)


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


def cmd_run_study(args: argparse.Namespace) -> int:
    study: Study = args.study
    seed = {} if args.seed is None else {"seed": args.seed}
    data = study.run(
        getattr(args, "dataset", None), quick=args.quick, **seed,
        progress=lambda m: print(f"[{study.name}] {m}", file=sys.stderr))
    print(study.render(data))
    print("\n" + report.verdict_table(data["verdicts"]))
    return 0 if all(data["verdicts"].values()) else 1


def cmd_study(args: argparse.Namespace) -> int:
    results = run_study(datasets=args.datasets,
                        progress=lambda m: print(f"[study] {m}",
                                                 file=sys.stderr))
    if args.out and args.out.endswith(".md"):
        write_experiments_md(results, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    elif args.out:
        with open(args.out, "w") as handle:
            handle.write(render_study(results) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(render_study(results))
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

    for study in studies():
        p = sub.add_parser(study.name, help=study.title)
        if study.takes_dataset:
            p.add_argument("-d", "--dataset", default="cohere-1m",
                           choices=DATASET_NAMES)
        p.add_argument("--quick", action="store_true",
                       help="the study's reduced preset (CI smoke)")
        p.add_argument("--seed", type=int, default=None,
                       help="study seed (default: the study's own)")
        p.set_defaults(fn=cmd_run_study, study=study)

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
