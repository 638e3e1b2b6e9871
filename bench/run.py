"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload kf1-replay --seed 0
    python3 bench/run.py --workload kf1-replay --seed 0 --trace 1 \\
        --out traced.json --spans spans.jsonl

One process, one thread (BLAS pinned to 1).  ``--trace 0`` (default)
measures the end-to-end metrics with the program untouched; ``--trace
1`` is the separate traced run that gives the per-layer metrics (see
``trace.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--out`` writes the
full record (environment, every sample, ``sim_digest``, the checks)
that ``compare.py`` reads.  Exit status is non-zero when a correctness
check fails.

Everything the run writes goes under ``.bench_tmp/`` of the checkout
and is removed at exit; ``.repro-cache`` is neither read nor written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

#: Set-ups per untraced run; ``setup_s`` is their median, and every
#: set-up is followed by at least one pass (``host_wall_s`` is the
#: median over all passes).
ROUNDS = 3
#: A run is flagged noisy beyond these (machine drift, not code drift).
CALIB_DRIFT, PASS_SPREAD = 0.05, 0.10
PAPER_FIO_KIOPS = 324.3


def _bootstrap() -> None:
    """Pin BLAS threads and put the checkout's own ``src`` first.

    Must run before numpy is imported.  The benchmark measures the
    program of *this* checkout: a ``repro`` importable from elsewhere
    (an installed copy) is refused, and a checkout without ``src/``
    fails here.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[0] = str(ROOT)          # was bench/: ``trace`` would shadow
    sys.path.insert(1, str(ROOT / "src"))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"bench: cannot import the program from {ROOT / 'src'}: "
                 f"{error}")
    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"bench: 'repro' resolves to {origin}, outside this "
                 f"checkout")


def calibrate() -> dict[str, float]:
    """Fixed machine-speed probes: a 512x512 float32 GEMM and a fixed
    pure-Python loop, milliseconds each.

    Interleaved and repeated for about half a second, medians reported:
    on a shared 2-core box single probes of a few milliseconds differ by
    10 % back to back, which would drown the drift they are meant to
    show.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512), dtype=np.float32)
    b = rng.standard_normal((512, 512), dtype=np.float32)
    gemm, loop = [], []
    for _ in range(41):
        start = time.perf_counter()
        for _ in range(4):
            a @ b
        gemm.append((time.perf_counter() - start) / 4)
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i & 7
        loop.append(time.perf_counter() - start)
    return {"gemm_ms": statistics.median(gemm) * 1e3,
            "pyloop_ms": statistics.median(loop) * 1e3}


def environment(seed: int) -> dict:
    import numpy as np
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": commit, "seed": seed,
            "platform": platform.platform()}


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def run_passes(workload, seconds: float, minimum: int, before=None):
    """Repeat the fixed-work pass for about *seconds*: another pass
    starts while that brings the total closer to *seconds*."""
    times, sims, marks = [], [], []
    begun = time.perf_counter()
    while (len(times) < minimum or
           time.perf_counter() - begun + times[-1] / 2 < seconds):
        marks.append(before() if before else None)
        elapsed, sim = timed(workload.run_pass)
        times.append(elapsed)
        sims.append(sim)
    return times, sims, marks


def digest(sim: dict) -> str:
    return hashlib.sha256(json.dumps(
        sim, sort_keys=True, default=repr).encode()).hexdigest()


def spread(values: list[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


# -- the untraced run: end-to-end metrics -----------------------------------

def run_end_to_end(cls, ctx, seconds: float) -> dict:
    """ROUNDS times (set up, passes for a third of *seconds*, latency
    probe): every metric's samples are spread over the whole run, so a
    few noisy seconds on a shared box move no median on their own."""
    setups, pass_s, sims, probe = [], [], [], []
    for _ in range(ROUNDS):
        workload = cls(ctx)
        setups.append(timed(workload.setup)[0])
        times, round_sims, _ = run_passes(workload, seconds / ROUNDS, 1)
        pass_s += times
        sims += round_sims
        probe += workload.probe()
    checks = workload.check(sims)
    sim = sims[-1]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "host_wall_s": (statistics.median(pass_s), len(pass_s)),
        "host_search_p50_ms": (statistics.median(probe) * 1e3, len(probe)),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sim_qps": (sim["sim_qps"], sim["p99_samples"]),
        "sim_p99_ms": (sim["sim_p99_ms"], sim["p99_samples"]),
        "recall_at_10": (sim["recall_at_10"], len(workload.data.queries)),
    }
    return {"values": values, "sim": sim, "checks": checks,
            "setup_s": setups, "pass_s": pass_s}


# -- the traced run: per-layer metrics --------------------------------------

def run_traced(cls, ctx, seconds: float, spans_path: str | None) -> dict:
    from bench import trace
    from bench.metrics import PER_LAYER
    from repro.storage.fio import FioJobSpec, run_fio
    from repro.storage.spec import samsung_990pro_4tb
    from repro.workload.metrics import percentile

    tracer = ctx.tracer
    workload = cls(ctx)
    patches = trace.install(tracer)
    mark = tracer.snapshot()
    workload.setup()
    setup = trace.delta(mark, tracer.snapshot())
    trace.uninstall(tracer, patches)
    plain_s, _, _ = run_passes(workload, seconds / 2, 2)
    patches = trace.install(tracer)
    traced_s, sims, marks = run_passes(workload, seconds / 2, 2,
                                       before=tracer.snapshot)
    after_passes = tracer.snapshot()
    probe = workload.probe()
    trace.uninstall(tracer, patches)
    marks.append(after_passes)
    passes = [trace.delta(a, b) for a, b in zip(marks, marks[1:])]
    last, sim = passes[-1], sims[-1]

    # Untraced extras: batch-vs-sequential speed, the cluster's
    # functional search, telemetry on/off, the fio accuracy probe.
    name, queries = workload.data.spec.name, workload.data.queries
    batch_s = timed(lambda: workload.session.search_batch(
        name, queries, 10, **workload.params))[0]
    single_s = statistics.median(probe) * len(queries)
    cluster_probe = (workload.cluster_probe()
                     if hasattr(workload, "cluster_probe") else [])
    checks = workload.check(sims)
    fio = run_fio(samsung_990pro_4tb(), FioJobSpec(
        pattern="randread", block_size=4096, numjobs=1, iodepth=128,
        cpu_cores=1, runtime_s=0.05))

    out = {m.name: 0.0 for m in PER_LAYER}
    out.update({k: float(v) for k, v in sim.items() if k in out})
    wall = statistics.mean(traced_s)
    n = len(passes)
    for lid, layer in enumerate(trace.LAYERS):
        own = sum(p["self_s"][lid] for p in passes) / n
        out[f"{layer}.self_s"] = setup["self_s"][lid] + own
        out[f"{layer}.calls"] = last["calls"][lid]
        out[f"{layer}.share"] = own / wall
    out["bench.untraced_share"] = 1.0 - sum(
        out[f"{layer}.share"] for layer in trace.LAYERS)
    out["bench.trace_overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    out["bench.pass_spread_frac"] = spread(plain_s)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    total, per_pass = tracer.counts.get, last["counts"].get
    layer_s = dict(zip(trace.LAYERS, tracer.total_s))
    self_s = dict(zip(trace.LAYERS, tracer.self_s))
    works = tracer.works
    hits = sum(w.cache_hits for w in works)
    reads = sum(w.io_requests for w in works)
    out.update({
        "ann.search_us_per_query": ratio(
            layer_s["ann.search"], total("ann.queries", 0), 1e6),
        "ann.search_p99_ms": (percentile(tracer.search_s, 99) * 1e3
                              if tracer.search_s else 0.0),
        "ann.batch_speedup": ratio(single_s, batch_s),
        "ann.full_evals_per_query": ratio(
            sum(w.full_evals for w in works), len(works)),
        "ann.pq_evals_per_query": ratio(
            sum(w.pq_evals for w in works), len(works)),
        "ann.io_rounds_per_query": ratio(
            sum(w.io_rounds for w in works), len(works)),
        "ann.io_requests_per_query": ratio(reads, len(works)),
        "ann.node_cache_hit_ratio": ratio(hits, hits + reads),
        "ann.build_rows_per_s": ratio(total("ann.build_rows", 0),
                                      total("ann.build_s", 0)),
        "engines.gather_us_per_query": ratio(
            total("engines.gather_s", 0), total("engines.queries", 0), 1e6),
        "engines.segments_per_query": ratio(
            total("engines.segments", 0), total("engines.queries", 0)),
        "engines.insert_rows_per_s": ratio(
            total("engines.insert_rows", 0), total("engines.insert_s", 0)),
        "workload.compile_ms_per_query": ratio(
            total("workload.compile_s", 0),
            total("workload.compiled_queries", 0), 1e3),
        "workload.replay_us_per_sim_query": ratio(
            total("workload.run_s", 0), total("workload.run_queries", 0),
            1e6),
        "workload.sim_queries_per_host_s": ratio(
            total("workload.run_queries", 0), total("workload.run_s", 0)),
        "simkernel.events": per_pass("simkernel.events", 0),
        "simkernel.events_per_sim_query": ratio(
            per_pass("simkernel.events", 0),
            per_pass("workload.run_queries", 0)
            + per_pass("cluster.run_queries", 0)
            + per_pass("serve.arrivals", 0)),
        "simkernel.events_per_host_s": ratio(
            total("simkernel.events", 0), total("simkernel.run_s", 0)),
        "storage.submits": per_pass("storage.submits", 0),
        "storage.requests": per_pass("storage.requests", 0),
        "storage.read_bytes": per_pass("storage.read_bytes", 0),
        "storage.write_bytes": per_pass("storage.write_bytes", 0),
        "storage.req_4k_share": ratio(total("storage.read_4k", 0),
                                      total("storage.read_requests", 0)),
        "storage.us_per_submit": ratio(
            self_s["storage"], total("storage.submits", 0), 1e6),
        "storage.fio_4k_qd1_kiops": fio.iops / 1e3,
        "storage.fio_err_vs_paper": abs(
            fio.iops / 1e3 - PAPER_FIO_KIOPS) / PAPER_FIO_KIOPS,
        "serve.us_per_arrival": ratio(
            total("serve.serve_s", 0), total("serve.arrivals", 0), 1e6),
        "cluster.us_per_sim_query": ratio(
            total("cluster.run_s", 0), total("cluster.run_queries", 0),
            1e6),
        "cluster.search_p50_ms": (statistics.median(cluster_probe) * 1e3
                                  if cluster_probe else 0.0),
        "tenancy.us_per_arrival": ratio(
            total("tenancy.serve_s", 0), total("tenancy.arrivals", 0), 1e6),
        "mutate.compact_s": per_pass("mutate.compact_s", 0),
        "durability.save_s": ratio(total("durability.save_s", 0),
                                   total("durability.saves", 0)),
        "durability.load_s": ratio(total("durability.load_s", 0),
                                   total("durability.loads", 0)),
        "obs.telemetry_overhead_frac": (
            workload.telemetry_on_s / workload.telemetry_off_s - 1.0),
        "obs.spans": workload.obs_spans,
    })
    out["durability.save_mb_per_s"] = ratio(
        sim.get("durability.store_bytes", 0) / 1e6,
        out["durability.save_s"])
    if spans_path:
        tracer.write(spans_path)
    broken = [name for name, value in out.items()
              if not math.isfinite(value)]
    if broken:
        raise RuntimeError(f"non-finite per-layer metrics: {broken}")
    return {"values": {k: (v, n) for k, v in out.items()}, "sim": sim,
            "checks": checks, "setup_s": [], "pass_s": plain_s,
            "traced_pass_s": traced_s}


# -- entry point ------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the passes measure "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument("--spans", help="with --trace: write spans here")
    args = parser.parse_args(argv)

    _bootstrap()
    from bench import metrics as catalogue
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, Context, Ops

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    seconds = (args.seconds if args.seconds is not None
               else catalogue.RUN_SECONDS)
    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = Ops()
        ctx = Context(seed=args.seed, workdir=str(workdir),
                      tracer=Tracer(), ops=ops)
        calib = [calibrate()]
        cls = WORKLOADS[args.workload]
        result = (run_traced(cls, ctx, seconds, args.spans) if args.trace
                  else run_end_to_end(cls, ctx, seconds))
        calib.append(calibrate())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()       # unless another run is using it
        except OSError:
            pass

    failed_checks = [check for check in result["checks"] if not check[1]]
    failed = ops.failed + len(failed_checks)
    attempted = ops.attempted + len(result["checks"])
    values = result["values"]
    pass_spread = spread(result["pass_s"])
    drift = max(abs(calib[1][key] / calib[0][key] - 1.0)
                for key in calib[0])
    if args.trace:
        values["failed_ops_frac"] = (
            (failed + ops.refused) / attempted, attempted)
        values["bench.calib_gemm_ms"] = (calib[1]["gemm_ms"], 41)
        values["bench.calib_pyloop_ms"] = (calib[1]["pyloop_ms"], 41)
    wanted = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    metrics = {m.name: {"value": values[m.name][0], "unit": m.unit}
               for m in wanted}
    noisy = drift > CALIB_DRIFT or pass_spread > PASS_SPREAD

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(result['pass_s'])}")
    for m in wanted:
        value, samples = values[m.name]
        print(f"  {m.name:<40} {value:>16.6g} {m.unit:<8} "
              f"[{m.clock}, n={samples}]")
    for name, ok, detail in result["checks"]:
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}  ({detail})")
    print(f"  sim_digest {digest(result['sim'])}")
    print(f"  calibration drift {drift:.3f}  pass spread "
          f"{pass_spread:.3f}  noisy {noisy}")

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": seconds,
            "environment": environment(args.seed),
            "metrics": {m.name: {"value": values[m.name][0],
                                 "unit": m.unit, "clock": m.clock,
                                 "samples": values[m.name][1]}
                        for m in wanted},
            "sim_digest": digest(result["sim"]), "sim": result["sim"],
            "setup_s": result["setup_s"], "pass_s": result["pass_s"],
            "traced_pass_s": result.get("traced_pass_s", []),
            "calibration": calib, "calibration_drift": drift,
            "pass_spread_frac": pass_spread, "noisy": noisy,
            "checks": result["checks"], "attempted": attempted,
            "failed": failed, "refused": ops.refused,
            "correct": not failed_checks,
        }
        Path(args.out).write_text(json.dumps(record, indent=1,
                                             default=repr) + "\n")
    print(json.dumps({"correct": not failed_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failed_checks else 1


if __name__ == "__main__":
    sys.exit(main())
