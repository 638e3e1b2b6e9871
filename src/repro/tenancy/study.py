"""The tenancy study: the autopilot versus every legal static config.

The serving study (PR 5) showed what one knob setting does under one
offered load; this study asks the fleet question: 100+ heterogeneous
tenants — diurnal tides and bursty MMPP flash crowds, mixed priority
classes, per-tenant latency SLOs and recall floors — offered more load
than the contracted parameters can absorb.

The *static sweep* is the set of configurations an operator could
legally deploy: one degradation-ladder level for everybody, restricted
to levels every tenant's recall floor tolerates (serving the whole
fleet at a level below someone's floor is a broken contract, not a
baseline).  Every legal static saturates at the study's offered load,
so queues grow, latencies blow through the SLOs, and attainment
collapses.

The autopilot serves the *same* offered load with the loops closed:
batch tenants sink to deeper ladder levels than any legal static may
use fleet-wide, token buckets price the flash crowds out before they
occupy cores, and cold placement groups are demoted to quantized
on-disk residency between their tides.  The verdicts assert the
production claim: per-tenant SLO attainment at least as high as every
static in the sweep, aggregate goodput strictly higher than the best
of them, no recall floor ever violated — and, separately, that the
disabled control plane is bit-identical to plain ``repro.serve``.

Every run is seeded and deterministic; the ``verdicts`` dict is
asserted by the CLI and CI.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.core.report import fmt, format_table
from repro.core.study import Study, silent
from repro.serve.arrivals import BurstyArrivals, DiurnalArrivals
from repro.serve.result import ServeResult
from repro.serve.server import ServeConfig, Server
from repro.serve.study import (SEARCH_PARAMS, saturation_probe, serve_row,
                               serve_runner)
from repro.tenancy.autopilot import (AutopilotServer, TenancyConfig,
                                     serve_autopilot)
from repro.tenancy.controller import (DegradationLadder,
                                      SloControllerConfig, build_ladder)
from repro.tenancy.costmodel import plan_cost_prior
from repro.tenancy.placement import PlacementConfig
from repro.tenancy.registry import TenantProfile, TenantRegistry

if t.TYPE_CHECKING:
    from repro.workload.runner import BenchRunner

#: The storage-based setup the tenancy study drives (the same cached
#: runner the serving study uses).
TENANCY_SETUP = "milvus-diskann"

#: Fleet mix per priority class: (fraction, SLO in knee-p99 multiples,
#: target ladder cap).  Interactive floors pin the fleet-wide legal
#: static at a shallow level; batch floors (0.0) give the autopilot
#: the headroom no legal static has.
CLASS_MIX = (
    ("interactive", 0.2, 10.0, 1),
    ("standard", 0.4, 20.0, 2),
    ("batch", 0.4, 40.0, None),          # None = the ladder's deepest
)

#: Offered load over the *best legal static*'s estimated capacity.
OVERLOAD = 1.3

#: Quota headroom: each tenant's token bucket refills at this multiple
#: of its mean offered cost at contracted (level 0) prices, so quotas
#: bite only the flash crowds, not the steady tide.
QUOTA_HEADROOM = 2.5

#: Placement-group count and hot-tier budget (groups, not tenants).
#: Groups are class-homogeneous bands of consecutive tenants, so batch
#: groups (recall floor 0) are demotable while interactive/standard
#: groups stay pinned hot; the budget leaves a couple of floating hot
#: slots for the warmth ranking to churn between batch tides.
N_GROUPS = 20
HOT_CAPACITY = 14


def _floor_for(ladder: DegradationLadder, cap: int | None) -> float:
    """A recall floor that caps a tenant at ladder level *cap*."""
    if cap is None or cap >= ladder.deepest:
        return 0.0
    here = ladder.levels[cap].recall
    below = ladder.levels[cap + 1].recall
    if here is None or below is None or below >= here:
        return 0.0
    return below + 0.6 * (here - below)


def build_fleet(ladder: DegradationLadder, total_qps: float,
                knee_p99_s: float, n_tenants: int,
                duration_s: float) -> TenantRegistry:
    """The 100+-tenant roster: diurnal tides plus bursty flash crowds.

    Deterministic by construction (no RNG: shares follow a Zipf-like
    harmonic ramp, classes and arrival families interleave round-robin,
    diurnal phases spread evenly), so the same study arguments always
    build the same registry.
    """
    shares = [1.0 / (1.0 + (i % 10)) for i in range(n_tenants)]
    scale = total_qps / sum(shares)
    classes: list[tuple[str, float, int | None]] = []
    for name, fraction, slo_mult, cap in CLASS_MIX:
        classes.extend([(name, slo_mult, cap)]
                       * max(1, round(fraction * n_tenants)))
    band = max(1, n_tenants // N_GROUPS)
    profiles = []
    for i in range(n_tenants):
        rate = shares[i] * scale
        priority, slo_mult, cap = classes[i % len(classes)]
        group = i // band
        if i % 5 < 3:
            # The slow tide: one full cycle per half-window; group
            # members share a phase so whole groups peak together at
            # staggered times of "day" (coherent placement tides).
            arrivals: t.Any = DiurnalArrivals(
                peak_qps=1.8 * rate, trough_qps=0.2 * rate,
                period_s=duration_s / 2.0,
                phase=(group % N_GROUPS) / N_GROUPS)
        else:
            # The flash crowd: calm at 0.625x, bursting to 2.5x with
            # a 20% burst duty cycle (mean stays at ``rate``).
            arrivals = BurstyArrivals(
                base_qps=0.625 * rate, burst_qps=2.5 * rate,
                mean_calm_s=0.08, mean_burst_s=0.02)
        profiles.append(TenantProfile(
            f"t{i:03d}", arrivals, weight=max(rate, 1e-6),
            slo_deadline_s=slo_mult * knee_p99_s,
            recall_floor=_floor_for(ladder, cap),
            quota_cost_per_s=None,       # buckets priced in below
            priority=priority,
            group=f"g{group:02d}"))
    return TenantRegistry(tuple(profiles))


def fingerprint(result: ServeResult) -> str:
    """A bitwise-comparison fingerprint of a full :class:`ServeResult`.

    ``repr`` renders every float at shortest-round-trip precision, so
    two equal fingerprints mean bit-identical results down to the
    per-tenant stats — including tenants whose empty latency windows
    are NaN, which plain ``==`` would (correctly, but uselessly here)
    report as unequal.
    """
    return repr(result)


def _class_attainment(result: ServeResult,
                      registry: TenantRegistry) -> dict[str, float]:
    sums: dict[str, list[int]] = {}
    for prof, stats in zip(registry.profiles, result.tenants):
        hit, offered = sums.setdefault(prof.priority, [0, 0])
        sums[prof.priority] = [hit + stats.slo_completions,
                               offered + stats.arrivals]
    return {name: (hit / offered if offered else 0.0)
            for name, (hit, offered) in sums.items()}


def tenancy_study(dataset: str = "cohere-1m", n_tenants: int = 100,
                  duration_s: float = 0.5, seed: int = 0,
                  quick: bool = False,
                  progress: t.Callable[[str], None] = silent) -> dict:
    """Run the full tenancy study; see the module docstring.

    ``quick`` caps the serving window at 0.5 s — the default, so the
    quick preset *is* the full study (it runs in seconds).
    """
    if quick:
        duration_s = min(duration_s, 0.5)
    progress("closed-loop saturation probe")
    runner: "BenchRunner" = serve_runner(TENANCY_SETUP, dataset)
    params = dict(SEARCH_PARAMS[TENANCY_SETUP])
    summaries, knee, saturation = saturation_probe(
        runner, params, threads=(2, 4, 8), repetitions=1)
    knee_p99 = summaries[knee].p99_latency_s

    progress("precompiling the degradation ladder")
    ladder = build_ladder(runner, params, factor=0.5, max_levels=3)
    spec = runner.device_spec
    priors = [plan_cost_prior(lvl.warm, spec) for lvl in ladder.levels]

    # The fleet and its offered load: 1.3x the estimated capacity of
    # the *best legal static* — the deepest fleet-wide level every
    # recall floor tolerates.
    interactive_cap = min(1, ladder.deepest)
    legal_max = interactive_cap
    capacity_legal = saturation * priors[0] / priors[legal_max]
    total_qps = OVERLOAD * capacity_legal
    registry = build_fleet(ladder, total_qps, knee_p99, n_tenants,
                           duration_s)
    registry = TenantRegistry(tuple(
        dataclasses.replace(
            p, quota_cost_per_s=QUOTA_HEADROOM
            * p.arrivals.mean_qps * priors[0],
            quota_burst_s=0.2)
        for p in registry.profiles))

    tenancy = TenancyConfig(
        registry=registry,
        controller=SloControllerConfig(
            interval_s=duration_s / 20.0, degrade_after=2,
            restore_after=6, min_observations=4),
        placement=PlacementConfig(
            hot_capacity=HOT_CAPACITY,
            interval_s=duration_s / 10.0,
            min_residency_s=duration_s / 5.0),
        degrade_factor=0.5, max_levels=3)

    def config_for(level: int) -> ServeConfig:
        return tenancy.serve_config(
            policy="wfq", queue_bound=256, shed_late=True,
            max_inflight=knee, duration_s=duration_s, seed=seed,
            search_params=dict(ladder.levels[level].params))

    data: dict[str, t.Any] = {
        "dataset": dataset, "duration_s": duration_s,
        "n_tenants": len(registry), "knee_concurrency": knee,
        "saturation_qps": saturation,
        "offered_qps": sum(p.arrivals.mean_qps
                           for p in registry.profiles),
        "legal_static_levels": list(range(legal_max + 1)),
        "ladder": [{"level": lvl.level, "params": lvl.params,
                    "recall": lvl.recall,
                    "prior_cost_ms": priors[lvl.level] * 1e3}
                   for lvl in ladder.levels],
        "statics": {}, "classes": {},
    }

    statics: dict[int, ServeResult] = {}
    for level in range(legal_max + 1):
        progress(f"static sweep: fleet-wide level {level}")
        statics[level] = Server(runner, config_for(level)).serve()
        data["statics"][str(level)] = serve_row(statics[level])

    progress("autopilot run (same offered load)")
    autopilot = AutopilotServer(runner, config_for(0), tenancy).serve()
    assert autopilot.tenancy is not None
    data["autopilot"] = dict(
        serve_row(autopilot),
        quota_rejected=autopilot.tenancy.quota_rejected,
        degrades=autopilot.tenancy.degrades,
        restores=autopilot.tenancy.restores,
        floor_capped=autopilot.tenancy.floor_capped,
        promotions=autopilot.tenancy.promotions,
        demotions=autopilot.tenancy.demotions,
        hot_groups=autopilot.tenancy.hot_groups,
        cold_groups=autopilot.tenancy.cold_groups,
        cost_error=autopilot.tenancy.cost_error,
        intervals=autopilot.tenancy.intervals)
    data["classes"] = {
        "autopilot": _class_attainment(autopilot, registry),
        "best_static": _class_attainment(statics[legal_max], registry),
    }

    progress("disabled-autopilot bit-identity check")
    disabled = serve_autopilot(
        runner, config_for(0),
        TenancyConfig(registry=registry, enabled=False))
    plain = Server(runner, config_for(0)).serve()

    floors_ok = all(
        stats.recall is None or prof.recall_floor <= 0.0
        or stats.recall >= prof.recall_floor - 1e-9
        for prof, stats in zip(registry.profiles, autopilot.tenants))
    auto_attainment = data["autopilot"]["attainment"]
    best_static_goodput = max(row["goodput_qps"]
                              for row in data["statics"].values())
    verdicts = {
        "attainment_beats_every_static": bool(all(
            auto_attainment >= row["attainment"]
            for row in data["statics"].values())),
        "goodput_beats_best_static": bool(
            autopilot.goodput_qps > best_static_goodput),
        "no_recall_floor_violated": bool(floors_ok),
        "disabled_bit_identical": bool(
            fingerprint(disabled) == fingerprint(plain)),
    }
    data["verdicts"] = verdicts
    return data


def render_tenancy_study(data: dict) -> str:
    """Tables for the tenancy study (``repro tenancy``).

    The degradation ladder, the static sweep vs the autopilot at the
    same offered load, the control-plane ledger, and the per-class
    SLO attainment split.
    """
    ladder_rows = [[rung["level"], rung["params"],
                    fmt(rung["recall"], 4),
                    fmt(rung["prior_cost_ms"], 3)]
                   for rung in data["ladder"]]

    def run_row(label: str, row: dict) -> list:
        return [label, f"{row['attainment']:.1%}",
                fmt(row["goodput_qps"], 0), fmt(row["qps"], 0),
                fmt(row["p50_ms"], 1), fmt(row["p99_ms"], 1),
                row["rejected"], row["shed"], fmt(row["recall"], 3)]

    rows = [run_row(f"static L{level}", row)
            for level, row in data["statics"].items()]
    rows.append(run_row("autopilot", data["autopilot"]))
    auto = data["autopilot"]
    classes = data["classes"]
    class_rows = [[name, f"{classes['autopilot'][name]:.1%}",
                   f"{classes['best_static'][name]:.1%}"]
                  for name in classes["autopilot"]]
    legal = ", ".join(f"L{lv}" for lv in data["legal_static_levels"])
    return "\n".join([
        f"[{data['dataset']}] tenancy study, {data['n_tenants']} tenants, "
        f"window={data['duration_s']}s",
        f"offered {data['offered_qps']:.0f} qps against a saturation of "
        f"{data['saturation_qps']:.0f} qps (knee "
        f"{data['knee_concurrency']}); legal statics: {legal}",
        "",
        "precompiled degradation ladder:",
        format_table(["level", "params", "recall@10", "prior cost ms"],
                     ladder_rows),
        "",
        "same offered load, fleet-wide statics vs the autopilot:",
        format_table(["config", "attainment", "goodput", "qps", "p50 ms",
                      "p99 ms", "rejected", "shed", "recall@10"], rows),
        "",
        f"control plane: {auto['intervals']} intervals, "
        f"{auto['degrades']} degrades / {auto['restores']} restores "
        f"({auto['floor_capped']} capped at a recall floor), "
        f"{auto['quota_rejected']} quota-rejected",
        f"placement: {auto['promotions']} promotions, "
        f"{auto['demotions']} demotions, "
        f"{auto['hot_groups']} hot / {auto['cold_groups']} cold at end",
        f"cost model: mean prediction error "
        f"{auto['cost_error']:.1%} over completions",
        "",
        "per-class SLO attainment:",
        format_table(["class", "autopilot", "best static"], class_rows),
    ])


STUDY = Study(
    name="tenancy",
    title="Multi-tenant SLO autopilot (beyond the paper)",
    blurb="`repro.tenancy` wraps the serving layer in a per-tenant "
          "control plane — cost-priced admission against token-bucket "
          "quotas, a closed AIMD quality loop over a precompiled "
          "degradation ladder, and hot/cold tiered placement streaming "
          "migrations through the shared SSD (see "
          "[docs/TENANCY.md](docs/TENANCY.md)).  The study offers a "
          "100-tenant fleet (diurnal + bursty arrivals, "
          "interactive/standard/batch classes with per-class SLOs and "
          "recall floors) ~1.3x the saturation throughput of the best "
          "*legal* fleet-wide static configuration, then compares the "
          "autopilot against every legal static at the same offered "
          "load.  The autopilot sinks batch tenants (zero recall floor) "
          "to the deep ladder levels the fleet-wide statics cannot "
          "legally use — interactive floors pin the legal statics at "
          "L1 — and spends the freed capacity on the SLO-bearing "
          "classes, so it wins *per class* as well as in aggregate "
          "while every floor holds (note the aggregate recall@10 is "
          "*lower* by design: it is completion-weighted over legally "
          "degraded answers).",
    run=tenancy_study,
    render=render_tenancy_study,
)
