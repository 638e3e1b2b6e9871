"""The resilience study: faults vs defences (``repro faults``); see
``docs/FAULT_MODEL.md``."""

from __future__ import annotations

import typing as t

from repro.core.figures import get_runner
from repro.core.report import fmt, format_table
from repro.core.study import Study, silent
from repro.faults.plan import (LatencySpike, ReadError, TailAmplification,
                               Throttle)
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import ChaosSchedule
from repro.workload.metrics import RunResult

#: The three configurations the resilience study compares.
FAULT_STUDY_CONFIGS = ("healthy", "faults", "faults+resilience")


def default_fault_schedule(duration_s: float = 4.0,
                           seed: int = 42) -> ChaosSchedule:
    """The study's reference fault timeline, scaled to the run length.

    A compressed "bad day" for the engine's device (node 0): background
    tail amplification all run long, a housekeeping latency spike early
    on, a transient-read-error storm through the middle, and a thermal
    throttle over the second half — overlapping enough that every
    resilience mechanism gets exercised.
    """
    d = duration_s
    windows = (
        TailAmplification(0.0, d, multiplier=8.0, probability=0.05),
        LatencySpike(0.10 * d, 0.35 * d, extra_s=0.002),
        ReadError(0.20 * d, 0.80 * d, probability=0.02, stall_s=0.02),
        Throttle(0.55 * d, 0.85 * d, bandwidth_fraction=0.25))
    return ChaosSchedule(device_faults=tuple((0, w) for w in windows),
                         seed=seed)


def _fault_reconciliation(result: RunResult) -> dict[str, t.Any]:
    """Cross-check one faulted run's three fault-attribution ledgers.

    The injector's per-kind counts, the telemetry ``fault_injected_*``
    counters, and the block tracer's per-request fault tags must all
    tell the same story; ``timeouts == retries + read_failures`` must
    balance (every timed-out attempt is either retried or gives up).
    """
    injected = {kind: count
                for kind, count in result.faults["injected"].items()
                if kind != "reads_sampled"}
    telemetry = result.telemetry
    from_telemetry = {
        name[len("fault_injected_"):]: counter.value
        for name, counter in telemetry.counters.items()
        if name.startswith("fault_injected_")} if telemetry else {}
    from_trace = (result.tracer.fault_counts()
                  if result.tracer is not None else {})
    timeouts = result.faults.get("timeouts", 0)
    retries = result.faults.get("retries", 0)
    failures = result.faults.get("read_failures", 0)
    return {
        "injected": injected,
        "telemetry": from_telemetry,
        "trace": from_trace,
        "ledgers_agree": injected == from_telemetry == from_trace,
        "timeouts_balance": timeouts == retries + failures,
    }


def resilience_comparison(dataset: str, search_list: int = 50,
                          concurrency: int = 4, duration_s: float = 1.0,
                          seed: int = 42, quick: bool = False,
                          progress: t.Callable[[str], None] = silent,
                          ) -> dict:
    """Healthy vs faulted vs faulted-with-defences on Milvus-DiskANN.

    Three runs over the same query set and the same
    :func:`default_fault_schedule` timeline:

    - ``healthy``           — no faults (the baseline, and the source of
      the device-round P99 that calibrates the hedge delay);
    - ``faults``            — the schedule injected, no defences: the
      tail collapses (stalled reads serialize the beam);
    - ``faults+resilience`` — the same schedule, with per-read timeouts +
      retries, hedged reads after ~3x the healthy round P99, and
      graceful degradation under sustained pressure.

    The expected outcome — asserted under ``verdicts`` — is that the
    defences claw back most of the injected P99 at equal-or-better
    recall@10, and that the three fault-attribution ledgers (injector,
    telemetry counters, block-trace tags) reconcile exactly.  ``quick``
    runs two clients for half a simulated second.
    """
    if quick:
        concurrency = min(concurrency, 2)
        duration_s = min(duration_s, 0.5)
    runner = get_runner("milvus-diskann", dataset)
    params = {"search_list": search_list}
    common = dict(duration_s=duration_s, telemetry=True, trace=True)
    progress("healthy baseline")
    healthy = runner.run(concurrency, params, **common)
    round_p99 = healthy.telemetry.device_round.quantile(0.99)
    schedule = default_fault_schedule(duration_s, seed)
    progress("fault plan, no defences")
    faulted = runner.run(concurrency, params, chaos=schedule, **common)
    policy = ResiliencePolicy(
        read_timeout_s=max(12.0 * round_p99, 1e-4),
        max_retries=6,
        hedge_after_s=max(3.0 * round_p99, 5e-5),
        degrade=True,
        latency_budget_s=max(8.0 * healthy.p99_latency_s, 1e-3),
        degrade_after=4, recover_after=8, degrade_factor=0.7,
        seed=seed)
    progress("fault plan with timeouts, hedging and degradation")
    resilient = runner.run(concurrency, params, chaos=schedule,
                           resilience=policy, **common)

    def row(result: RunResult) -> dict[str, t.Any]:
        entry = {
            "qps": result.qps,
            "mean_us": result.mean_latency_s * 1e6,
            "p99_us": result.p99_latency_s * 1e6,
            "recall": result.recall,
            "completed": result.completed,
        }
        if result.faults is not None:
            for key in ("timeouts", "retries", "hedges", "hedge_wins",
                        "read_failures", "failed_queries"):
                entry[key] = result.faults.get(key, 0)
            degraded = result.faults.get("degraded")
            if degraded is not None:
                entry["degraded_ratio"] = degraded.ratio
                entry["degraded_params"] = degraded.params
        return entry

    data = {
        "dataset": dataset,
        "search_list": search_list,
        "concurrency": concurrency,
        "configs": list(FAULT_STUDY_CONFIGS),
        "rows": {
            "healthy": row(healthy),
            "faults": row(faulted),
            "faults+resilience": row(resilient),
        },
        "plan": schedule.describe()["device_faults"],
        "policy": {
            "read_timeout_s": policy.read_timeout_s,
            "hedge_after_s": policy.hedge_after_s,
            "max_retries": policy.max_retries,
            "latency_budget_s": policy.latency_budget_s,
        },
        "reconciliation": {
            "faults": _fault_reconciliation(faulted),
            "faults+resilience": _fault_reconciliation(resilient),
        },
    }
    data["verdicts"] = {
        "faults_raise_p99":
            faulted.p99_latency_s > healthy.p99_latency_s,
        "resilience_lowers_p99":
            resilient.p99_latency_s < faulted.p99_latency_s,
        # Recall compared at the reported precision (10^-3, as Table II
        # rounds): degradation trades ~1e-5 recall for the tail, which
        # must not show up at the precision every table reports.
        "recall_preserved":
            (resilient.recall is None or faulted.recall is None
             or round(resilient.recall, 3) >= round(faulted.recall, 3)),
        "ledgers_reconcile": all(
            entry["ledgers_agree"] and entry["timeouts_balance"]
            for entry in data["reconciliation"].values()),
    }
    return data


def render_resilience_comparison(data: dict) -> str:
    """Tables for the fault-injection & resilience study."""
    headers = ["config", "qps", "mean us", "p99 us", "recall@10",
               "timeouts", "retries", "hedges", "wins", "failed",
               "degraded"]
    rows = []
    for label in data["configs"]:
        entry = data["rows"][label]
        degraded = entry.get("degraded_ratio")
        rows.append([
            label, fmt(entry["qps"], 0), fmt(entry["mean_us"], 0),
            fmt(entry["p99_us"], 0), fmt(entry["recall"], 3),
            entry.get("timeouts", ""), entry.get("retries", ""),
            entry.get("hedges", ""), entry.get("hedge_wins", ""),
            entry.get("failed_queries", ""),
            "" if degraded is None else f"{degraded:.2%}"])
    policy = data["policy"]
    plan_lines = [
        f"  [{w['start_s']:.2f}s, {w['end_s']:.2f}s) {w['kind']}: "
        + ", ".join(f"{key}={value}" for key, value in w.items()
                    if key not in ("node", "kind", "start_s", "end_s"))
        for w in data["plan"]]
    recon = data["reconciliation"]["faults+resilience"]
    return "\n".join([
        f"[{data['dataset']}] milvus-diskann, "
        f"search_list={data['search_list']}, "
        f"threads={data['concurrency']}",
        "",
        "fault plan:",
        *plan_lines,
        f"policy: timeout={policy['read_timeout_s'] * 1e6:.0f}us "
        f"hedge_after={policy['hedge_after_s'] * 1e6:.0f}us "
        f"retries<={policy['max_retries']} "
        f"latency_budget={policy['latency_budget_s'] * 1e6:.0f}us",
        "",
        format_table(headers, rows),
        "",
        "fault ledger (faults+resilience): "
        f"injector {recon['injected']} == telemetry == trace: "
        f"{recon['ledgers_agree']}",
    ])


STUDY = Study(
    name="faults",
    title="Fault injection & resilience (beyond the paper)",
    blurb="Healthy vs faulted vs defended runs under the reference "
          "fault plan (see docs/FAULT_MODEL.md).  The defences — "
          "read timeouts with retry, hedged reads, graceful "
          "degradation — should recover most of the injected P99 at "
          "equal-or-better recall@10.",
    run=resilience_comparison,
    render=render_resilience_comparison,
)
