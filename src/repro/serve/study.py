"""The serving study: the open-loop companion of Figure 2.

The paper's closed-loop sweeps answer "how fast can each setup go";
this study answers what that capacity *means* for a service facing
offered load it does not control.  For each storage-based setup
(Milvus-DiskANN, and SPANN as the what-if engine the paper notes no
database ships):

1. **Saturation probe** — a short closed-loop concurrency sweep
   (repeated with phase offsets and aggregated with
   :func:`~repro.workload.metrics.summarize`) locates the saturation
   QPS and the knee concurrency;
2. **λ sweep** — open-loop Poisson load from 25 % to 120 % of the
   saturation QPS at the knee concurrency: P99 diverges as λ
   approaches the closed-loop saturation while goodput plateaus at
   capacity — the open-loop face of Figure 2's plateau;
3. **Shedding** — at λ = 1.2x saturation, deadline-based load shedding
   (with EDF ordering) versus blind FIFO queueing: shedding lands
   strictly more queries inside the deadline;
4. **Fairness** — a light tenant (10 % of saturation) sharing the
   backend with a noisy neighbor (140 %): weighted fair queueing keeps
   the light tenant's P99 within 2x of its isolated P99, FIFO does
   not;
5. **AIMD** — the concurrency controller discovers the knee online and
   sustains near-saturation throughput at 1.2x offered load.

Every step is seeded and deterministic; the ``verdicts`` dict states
the claims the study demonstrates and is asserted by the CLI and CI.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.core.report import fmt, format_table
from repro.core.study import Study, silent
from repro.data.registry import load_dataset
from repro.engines.engine import IndexSpec, VectorEngine
from repro.serve.arrivals import PoissonArrivals
from repro.serve.controller import AIMDConfig
from repro.serve.result import ServeResult
from repro.serve.server import ServeConfig, Server, TenantLoad
from repro.workload.metrics import Summary, summarize
from repro.workload.runner import BenchRunner
from repro.workload.setup import make_runner

#: The storage-based setups the serving study covers.  ``spann`` is the
#: what-if configuration: the paper observes that no evaluated database
#: supports SPANN, so it runs here on the Milvus profile with the SPANN
#: index enabled (the same construction the capacity planner uses).
SERVE_SETUPS = ("milvus-diskann", "spann")

#: Default search parameters per setup (recall-comparable mid-range
#: operating points; the study is about load, not parameter tuning).
SEARCH_PARAMS: dict[str, dict[str, int]] = {
    "milvus-diskann": {"search_list": 50},
    "spann": {"nprobe": 8},
}

#: Offered load as a fraction of the probed saturation QPS.
LOAD_FRACTIONS = (0.25, 0.5, 0.75, 0.9, 1.05, 1.2)

#: Closed-loop probe concurrencies (a prefix of Figure 2's axis).
PROBE_THREADS = (1, 2, 4, 8, 16)

_runner_cache: dict[tuple, BenchRunner] = {}


def serve_runner(setup: str, dataset_name: str) -> BenchRunner:
    """A (cached) runner for one serving-study setup.

    ``milvus-diskann`` goes through the standard benchmark setup
    machinery; ``spann`` builds the index on a Milvus-profile engine
    with SPANN enabled, since no stock profile supports it.
    """
    key = (setup, dataset_name)
    if key in _runner_cache:
        return _runner_cache[key]
    if setup != "spann":
        runner = make_runner(setup, dataset_name)
    else:
        dataset = load_dataset(dataset_name)
        spec = dataset.spec
        profile = VectorEngine("milvus").profile
        profile = dataclasses.replace(
            profile,
            supported_indexes=profile.supported_indexes + ("spann",))
        engine = VectorEngine(profile)
        engine.create_collection(spec.name, spec.dim,
                                 IndexSpec.of("spann", spec.metric),
                                 storage_dim=spec.storage_dim)
        engine.insert(spec.name, dataset.vectors)
        engine.flush(spec.name)
        runner = BenchRunner(engine, spec.name, dataset.queries,
                             ground_truth=dataset.ground_truth(10),
                             paper_n=spec.paper_n)
    _runner_cache[key] = runner
    return runner


def saturation_probe(runner: BenchRunner, params: dict,
                     threads: t.Sequence[int] = PROBE_THREADS,
                     duration_s: float = 0.25, repetitions: int = 2,
                     ) -> tuple[dict[int, Summary], int, float]:
    """Closed-loop sweep: per-level summaries, knee, saturation QPS.

    Each level runs ``repetitions`` phase-offset repetitions folded by
    :func:`summarize` (the error bars the report shows); the knee is
    the first concurrency after which QPS stops improving by >15 %.
    """
    summaries: dict[int, Summary] = {}
    for concurrency in threads:
        runs = [runner.run(concurrency, params, duration_s=duration_s,
                           phase=rep) for rep in range(repetitions)]
        summaries[concurrency] = summarize(runs)
    knee = threads[-1]
    for i in range(len(threads) - 1):
        if summaries[threads[i + 1]].qps < 1.15 * summaries[threads[i]].qps:
            knee = threads[i]
            break
    saturation = max(s.qps for s in summaries.values())
    return summaries, knee, saturation


def serve_row(result: ServeResult) -> dict[str, t.Any]:
    """One :class:`ServeResult` as a report row (latencies in ms)."""
    return {
        "offered_qps": result.offered_qps,
        "qps": result.qps,
        "goodput_qps": result.goodput_qps,
        "attainment": (result.slo_completions / result.arrivals
                       if result.arrivals else 0.0),
        "recall": result.recall,
        "p50_ms": result.p50_latency_s * 1e3,
        "p99_ms": result.p99_latency_s * 1e3,
        "mean_queue_ms": result.mean_queue_s * 1e3,
        "mean_service_ms": result.mean_service_s * 1e3,
        "arrivals": result.arrivals,
        "completed": result.completed,
        "rejected": result.rejected,
        "shed": result.shed,
        "slo_misses": result.slo_misses,
        "batches": result.batches,
        "max_queue_depth": result.max_queue_depth,
    }


def serving_study(dataset: str = "cohere-1m",
                  setups: t.Sequence[str] = SERVE_SETUPS,
                  duration_s: float = 0.5, seed: int = 0,
                  quick: bool = False,
                  progress: t.Callable[[str], None] = silent) -> dict:
    """Run the full serving study; see the module docstring.

    ``quick`` keeps the first setup only and a 0.3 s serving window.
    """
    if quick:
        setups = tuple(setups)[:1]
        duration_s = min(duration_s, 0.3)
    data: dict[str, t.Any] = {"dataset": dataset, "duration_s": duration_s,
                              "setups": {}}
    verdicts: dict[str, bool] = {}
    for setup in setups:
        progress(f"{setup}: closed-loop saturation probe")
        runner = serve_runner(setup, dataset)
        params = dict(SEARCH_PARAMS.get(setup, {}))
        summaries, knee, saturation = saturation_probe(runner, params)
        # The SLO deadline: generous at the knee's service latency,
        # hopeless once a saturated queue has formed.
        deadline = max(25.0 * summaries[knee].p99_latency_s, 1e-3)

        def open_config(**overrides: t.Any) -> ServeConfig:
            base: dict[str, t.Any] = dict(
                policy="fifo", duration_s=duration_s, seed=seed,
                max_inflight=knee, slo_deadline_s=deadline,
                search_params=params)
            base.update(overrides)
            return ServeConfig(**base)

        def run(config: ServeConfig) -> ServeResult:
            return Server(runner, config).serve()

        progress(f"{setup}: open-loop λ sweep")
        sweep: dict[str, dict] = {}
        for fraction in LOAD_FRACTIONS:
            result = run(open_config(tenants=(
                TenantLoad("all",
                           PoissonArrivals(rate_qps=fraction * saturation)),
            )))
            sweep[f"{fraction:.2f}"] = serve_row(result)

        progress(f"{setup}: shedding at 1.2x saturation")
        overload = (TenantLoad(
            "all", PoissonArrivals(rate_qps=1.2 * saturation)),)
        # At 1.2x saturation queueing delay grows at ~0.2 s per second,
        # so no query is late at dispatch until ~5 deadlines of wall
        # time have passed; give this comparison a window long enough
        # to reach steady overload or shedding never engages.
        shed_window = max(duration_s, 8.0 * deadline)
        queued = run(open_config(tenants=overload,
                                 duration_s=shed_window))
        shedding = run(open_config(tenants=overload, policy="edf",
                                   shed_late=True,
                                   duration_s=shed_window))

        progress(f"{setup}: FIFO vs WFQ under a noisy neighbor")
        # The weight is the tenant's provisioned share: the light
        # tenant offers 10 % of capacity but is provisioned for 2/3 of
        # the dispatch slots, so under WFQ its queries never wait
        # behind more than a fraction of the noisy backlog.  FIFO
        # ignores the provisioning entirely.
        light = TenantLoad("light",
                           PoissonArrivals(rate_qps=0.1 * saturation),
                           weight=2.0)
        noisy = TenantLoad("noisy",
                           PoissonArrivals(rate_qps=1.4 * saturation),
                           weight=1.0)
        isolated = run(open_config(tenants=(light,)))
        fairness = {policy: run(open_config(tenants=(light, noisy),
                                            policy=policy))
                    for policy in ("fifo", "wfq")}

        progress(f"{setup}: AIMD concurrency controller")
        aimd = run(open_config(
            tenants=overload, max_inflight=None, shed_late=True,
            policy="edf",
            controller=AIMDConfig(
                target_latency_s=2.0 * summaries[knee].p99_latency_s,
                initial=2, window=32, ceiling=4 * knee)))

        low, high = sweep[f"{LOAD_FRACTIONS[0]:.2f}"], sweep["1.20"]
        verdicts[f"{setup}:p99_diverges_past_saturation"] = bool(
            high["p99_ms"] > 10.0 * low["p99_ms"])
        verdicts[f"{setup}:goodput_plateaus"] = bool(
            high["goodput_qps"] < 1.25 * max(
                row["goodput_qps"] for row in sweep.values()))
        verdicts[f"{setup}:shedding_raises_goodput"] = bool(
            shedding.goodput_qps > queued.goodput_qps)
        iso_p99 = isolated.tenant("light").p99_latency_s
        wfq_p99 = fairness["wfq"].tenant("light").p99_latency_s
        fifo_p99 = fairness["fifo"].tenant("light").p99_latency_s
        verdicts[f"{setup}:wfq_bounds_light_tenant_p99"] = bool(
            wfq_p99 <= 2.0 * iso_p99)
        verdicts[f"{setup}:fifo_does_not"] = bool(fifo_p99 > 2.0 * iso_p99)
        verdicts[f"{setup}:aimd_sustains_throughput"] = bool(
            aimd.qps >= 0.8 * saturation)

        data["setups"][setup] = {
            "params": params,
            "knee_concurrency": knee,
            "saturation_qps": saturation,
            "slo_deadline_ms": deadline * 1e3,
            "probe": {
                threads: {
                    "qps": s.qps, "qps_std": s.qps_std,
                    "p50_ms": s.p50_latency_s * 1e3,
                    "p50_std_ms": s.p50_latency_std * 1e3,
                    "p95_ms": s.p95_latency_s * 1e3,
                    "p95_std_ms": s.p95_latency_std * 1e3,
                    "p99_ms": s.p99_latency_s * 1e3,
                } for threads, s in summaries.items()},
            "sweep": sweep,
            "shedding": {"queued": serve_row(queued),
                         "shed": serve_row(shedding)},
            "fairness": {
                "isolated_light_p99_ms": iso_p99 * 1e3,
                **{policy: {
                    "light_p99_ms":
                        result.tenant("light").p99_latency_s * 1e3,
                    "light_p99_over_isolated":
                        result.tenant("light").p99_latency_s / iso_p99,
                    "light_goodput_qps":
                        result.tenant("light").goodput_qps,
                    "noisy_p99_ms":
                        result.tenant("noisy").p99_latency_s * 1e3,
                } for policy, result in fairness.items()},
            },
            "aimd": dict(serve_row(aimd),
                         final_limit=aimd.final_limit,
                         adaptations=len(aimd.controller_history)),
        }
    data["verdicts"] = verdicts
    return data


def render_serving_study(data: dict) -> str:
    """Tables for the open-loop serving study (``repro serve``).

    Per setup: the closed-loop saturation probe (with the
    :class:`~repro.workload.metrics.Summary` p50/p95 error bars), the
    offered-load sweep, the shedding comparison, the FIFO-vs-WFQ
    noisy-neighbor table, and the AIMD controller line.
    """
    blocks = [f"[{data['dataset']}] serving study, "
              f"window={data['duration_s']}s"]
    for setup, entry in data["setups"].items():
        probe_rows = [
            [threads,
             f"{s['qps']:.0f} ±{s['qps_std']:.0f}",
             f"{s['p50_ms']:.2f} ±{s['p50_std_ms']:.2f}",
             f"{s['p95_ms']:.2f} ±{s['p95_std_ms']:.2f}",
             f"{s['p99_ms']:.2f}"]
            for threads, s in entry["probe"].items()]
        sweep_rows = [
            [fraction, fmt(row["offered_qps"], 0), fmt(row["qps"], 0),
             fmt(row["goodput_qps"], 0), fmt(row["p50_ms"], 2),
             fmt(row["p99_ms"], 2), fmt(row["mean_queue_ms"], 2),
             row["slo_misses"], row["max_queue_depth"]]
            for fraction, row in entry["sweep"].items()]
        shed_rows = [
            [label, fmt(row["qps"], 0), fmt(row["goodput_qps"], 0),
             row["shed"], row["slo_misses"], fmt(row["p99_ms"], 2)]
            for label, row in entry["shedding"].items()]
        fairness = entry["fairness"]
        fair_rows = [
            [policy,
             fmt(fairness[policy]["light_p99_ms"], 2),
             f"{fairness[policy]['light_p99_over_isolated']:.1f}x",
             fmt(fairness[policy]["light_goodput_qps"], 0),
             fmt(fairness[policy]["noisy_p99_ms"], 2)]
            for policy in ("fifo", "wfq")]
        aimd = entry["aimd"]
        blocks.append("\n".join([
            f"-- {setup} (params={entry['params']}, "
            f"knee={entry['knee_concurrency']}, "
            f"saturation={entry['saturation_qps']:.0f} QPS, "
            f"SLO={entry['slo_deadline_ms']:.1f} ms)",
            "",
            "closed-loop saturation probe:",
            format_table(["threads", "QPS", "p50 ms", "p95 ms", "p99 ms"],
                         probe_rows),
            "",
            "offered-load sweep (fraction of saturation):",
            format_table(["λ/sat", "offered", "QPS", "goodput", "p50 ms",
                          "p99 ms", "queue ms", "late", "depth"],
                         sweep_rows),
            "",
            "shedding at 1.2x saturation:",
            format_table(["config", "QPS", "goodput", "shed", "late",
                          "p99 ms"], shed_rows),
            "",
            "noisy neighbor (light tenant p99 vs isolated "
            f"{fairness['isolated_light_p99_ms']:.2f} ms):",
            format_table(["policy", "light p99 ms", "vs isolated",
                          "light goodput", "noisy p99 ms"], fair_rows),
            "",
            f"AIMD: limit {aimd['final_limit']} after "
            f"{aimd['adaptations']} adaptations, "
            f"qps {aimd['qps']:.0f}, goodput {aimd['goodput_qps']:.0f}",
        ]))
    return "\n\n".join(blocks)


STUDY = Study(
    name="serve",
    title="Open-loop serving (beyond the paper)",
    blurb="The paper's closed-loop sweeps measure capacity; this "
          "study offers the backend Poisson load it does not control "
          "(see docs/SERVING.md).  P99 diverges as λ approaches the "
          "closed-loop saturation while goodput plateaus; deadline "
          "shedding beats blind queueing at 1.2x saturation; "
          "weighted fair queueing isolates a light tenant from a "
          "noisy neighbor where FIFO does not.",
    run=serving_study,
    render=render_serving_study,
)
