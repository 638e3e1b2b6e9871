"""The chaos study: composed faults, self-healing, and the oracles.

The ``repro chaos`` command injects a composed
:class:`~repro.faults.ChaosSchedule` — node kills, a network
partition, a gray failure, SSD fault windows, and a write-path crash —
into a replicated serving cluster (2 shards x 2 replicas + 2 spares)
under open-loop arrivals and a streaming mutation load, and audits
every run with the invariant-oracle battery:

1. **healthy baseline** — the empty schedule plus an inert supervisor:
   every oracle passes, and the run is *bit-identical* to a plain
   ``Server(ClusterBenchRunner).serve()`` with the same config — the
   whole chaos layer is provably passive when armed with nothing;
2. **unsupervised chaos** — the composed schedule with no supervisor:
   availability degrades (the kill+partition overlap blacks out both
   shards at once, so queries *fail*), and every failure is attributed
   to its fault kind across three reconciled ledgers;
3. **supervised chaos** — the same schedule with the
   :class:`~repro.chaos.supervisor.Supervisor` probing: the gray node
   and both killed nodes are detected and their replicas rebuilt onto
   spares (a vacated node later re-enters the spare pool), queries
   fail over to the rebuilt replicas, and the full oracle battery —
   conservation, attribution, replica op-log prefix consistency, the
   recall floor — holds with zero violations while MTTR is measured
   per recovery.  Run twice from scratch, the two runs are
   bit-identical (same-seed determinism for the entire chaos stack);
4. **post-chaos quiesce** — the scarred cluster (supervisor-rebuilt
   replicas in rotation) takes functional inserts/deletes and a
   compaction, then: a crash injected into its snapshot save recovers
   to committed-old or committed-new, never a hybrid; ``repair`` makes
   the store scrub clean; and the cluster answers **bit-identically**
   to a never-faulted cluster fed the same op sequence;
5. **shrinking** — a composed schedule known to violate availability
   (one fatal kill among gray/device/late-kill/partition decoys) is
   ddmin-shrunk (:mod:`repro.chaos.shrink`) to the single kill that
   matters, re-running the deterministic harness as the probe.

During the partition window the supervisor *also* declares the severed
nodes failed and finds no spare left — it degrades gracefully (counts
``no_spare``) rather than thrashing, and the partitioned replicas
return to service when the window lifts.  That is deliberate: a
supervisor cannot distinguish a partitioned node from a dead one, and
the oracles hold either way.
"""

from __future__ import annotations

import tempfile
import typing as t

import numpy as np

from repro.chaos.oracles import (check_convergence, check_crash_state,
                                 cluster_fingerprint, engine_fingerprint)
from repro.chaos.runner import ChaosRunResult, run_chaos
from repro.chaos.shrink import shrink_schedule
from repro.chaos.supervisor import Supervisor, SupervisorConfig
from repro.cluster.cluster import Cluster
from repro.cluster.runner import ClusterBenchRunner
from repro.cluster.study import build_cluster
from repro.cluster.topology import ClusterTopology
from repro.core.report import fmt, format_table
from repro.core.study import Study, silent
from repro.durability import load_engine, repair, save_engine, scrub
from repro.engines.engine import IndexSpec
from repro.errors import FaultError, InjectedCrash
from repro.faults.crash import CrashInjector, CrashPlan
from repro.faults.gray import GrayFailure
from repro.faults.nodes import NodeKill
from repro.faults.partition import PartitionWindow
from repro.faults.plan import LatencySpike, ReadError
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import ChaosSchedule
from repro.mutate import MutationLoad
from repro.serve.arrivals import PoissonArrivals
from repro.serve.server import ServeConfig, Server, TenantLoad

#: Search parameters of the chaos cluster (the cluster study's
#: mid-range operating point; recall-comparable, untuned).
CHAOS_PARAMS: dict[str, t.Any] = {"search_list": 50}

#: Degraded-mode recall may not drop more than this below healthy.
RECALL_FLOOR = 0.05


def _demo_schedule(duration_s: float) -> ChaosSchedule:
    """The study's composed schedule, scaled to the serving window.

    Choreographed against the 2x2(+2 spares) topology (shard 0 on
    nodes 0/1, shard 1 on nodes 2/3) so each plane's effect is
    predictable: a gray node early, SSD faults on another replica, a
    permanent kill, a transient kill, and a partition whose overlap
    with the kills blacks out *both* shards at once — the window where
    an unsupervised cluster must fail queries and a supervised one,
    having rebuilt replicas onto spares, must not.
    """
    d = duration_s
    return ChaosSchedule(
        kills=(NodeKill(0, 0.30 * d, 1.05 * d),
               NodeKill(2, 0.45 * d, 0.70 * d)),
        partitions=(PartitionWindow((1, 3), 0.55 * d, 0.70 * d),),
        grays=(GrayFailure(1, 0.05 * d, 0.20 * d, slowdown=16.0),),
        device_faults=(
            (2, LatencySpike(0.10 * d, 0.30 * d, extra_s=0.0005)),
            (2, ReadError(0.10 * d, 0.30 * d, probability=0.02,
                          stall_s=0.005)),
        ),
        crash=CrashPlan.of("save.manifest.write"),
    )


def _fingerprint(result) -> tuple:
    """Scalar fingerprint of a ServeResult for bitwise comparison."""
    return (result.arrivals, result.admitted, result.rejected,
            result.shed, result.completed, result.failed,
            result.slo_completions, result.qps, result.goodput_qps,
            result.mean_latency_s, result.p50_latency_s,
            result.p95_latency_s, result.p99_latency_s, result.recall)


def _chaos_fingerprint(run: ChaosRunResult) -> tuple:
    """The full chaos-stack fingerprint: serving + ledgers + healing."""
    replayer = run.session.replayer
    return (_fingerprint(run.result), run.recall, run.failure_causes,
            dict(sorted(replayer.ccounts.items())),
            dict(sorted(run.supervisor.counts.items())),
            tuple((e.node, e.shard, e.spare, e.detected_s, e.restored_s)
                  for e in run.supervisor.events))


def _row(run: ChaosRunResult) -> dict[str, t.Any]:
    row = run.describe()
    counts = run.session.replayer.ccounts
    row["events"] = {key: counts.get(key, 0)
                     for key in ("failovers", "partition_drops",
                                 "gray_delays", "replica_errors",
                                 "shards_missed")}
    row["supervisor"] = dict(sorted(run.supervisor.counts.items()))
    return row


def _mutate_ops(cluster: Cluster, name: str, dim: int,
                seed: int) -> None:
    """The deterministic functional op sequence of the quiesce phase."""
    rng = np.random.default_rng(seed + 101)
    extra = rng.standard_normal((96, dim)).astype(np.float32)
    cluster.insert(name, extra)
    cluster.delete(name, range(0, 80, 7))
    cluster.flush(name)
    cluster.compact(name)


def chaos_study(dataset: str = "cohere-1m", index: str = "diskann",
                duration_s: float = 0.4, seed: int = 0,
                quick: bool = False,
                progress: t.Callable[[str], None] = silent,
                ) -> dict:
    """Run the full chaos study; see the module docstring.

    ``quick`` serves 0.25 s windows.
    """
    if quick:
        duration_s = min(duration_s, 0.25)
    k = 10
    params = dict(CHAOS_PARAMS)
    topo = ClusterTopology(n_shards=2, replicas=2, spares=2, seed=seed)
    schedule = _demo_schedule(duration_s)
    resilience = ResiliencePolicy(read_timeout_s=0.002, max_retries=2,
                                  seed=seed)
    load = MutationLoad()
    data: dict[str, t.Any] = {
        "dataset": dataset, "index": index, "duration_s": duration_s,
        "params": params, "schedule": schedule.describe(),
    }
    verdicts: dict[str, bool] = {}

    def fresh_runner() -> tuple[ClusterBenchRunner, t.Any]:
        cluster, ds = build_cluster(dataset, topo, index)
        truth = ds.ground_truth(k)
        return ClusterBenchRunner(cluster, ds.spec.name, ds.queries,
                                  ground_truth=truth, k=k,
                                  paper_n=ds.spec.paper_n), ds

    # -- 1. healthy baseline + passivity -----------------------------------
    progress("healthy: empty schedule, inert supervisor")
    runner, ds = fresh_runner()
    spec = ds.spec
    calibrate = runner.run(16, params, duration_s=min(duration_s, 0.15))
    config = ServeConfig(
        policy="fifo", duration_s=duration_s, seed=seed,
        max_inflight=16, search_params=params,
        tenants=(TenantLoad("all", PoissonArrivals(
            rate_qps=0.6 * calibrate.qps)),))
    healthy = run_chaos(runner, config, ChaosSchedule(),
                        telemetry=True, resilience=resilience)
    data["healthy"] = _row(healthy)
    verdicts["healthy_oracles_pass"] = healthy.ok

    progress("passivity: plain cluster serve vs empty-schedule chaos")
    plain_runner, _ = fresh_runner()
    plain = Server(plain_runner, config, telemetry=True).serve()
    verdicts["chaos_passivity_bit_identical"] = bool(
        _fingerprint(healthy.result) == _fingerprint(plain))
    data["passivity"] = {
        "chaos": _fingerprint(healthy.result),
        "plain": _fingerprint(plain),
    }
    verdicts["seeded_schedule_reproducible"] = bool(
        ChaosSchedule.seeded(4, duration_s, seed=seed + 5)
        == ChaosSchedule.seeded(4, duration_s, seed=seed + 5))

    # -- 2. unsupervised chaos ---------------------------------------------
    progress("chaos: composed schedule, no supervisor")
    un_runner, _ = fresh_runner()
    unsupervised = run_chaos(
        un_runner, config, schedule, telemetry=True,
        resilience=resilience, mutation=load)
    data["unsupervised"] = _row(unsupervised)
    verdicts["unsupervised_availability_degrades"] = bool(
        unsupervised.result.failed > 0)
    verdicts["unsupervised_failures_attributed"] = bool(
        unsupervised.result.failed > 0
        and sum(unsupervised.failure_causes.values())
        == unsupervised.result.failed
        and all(r.ok for r in unsupervised.oracles
                if r.name == "failure_attribution"))

    # -- 3. supervised chaos, twice (determinism) ---------------------------
    supervised_runs: list[ChaosRunResult] = []
    for attempt in ("a", "b"):
        progress(f"chaos: supervised run {attempt}")
        sup_runner, _ = fresh_runner()
        supervised_runs.append(run_chaos(
            sup_runner, config, schedule,
            supervisor=Supervisor(SupervisorConfig()),
            telemetry=True, resilience=resilience, mutation=load,
            healthy_recall=healthy.recall, recall_floor=RECALL_FLOOR))
    supervised = supervised_runs[0]
    data["supervised"] = _row(supervised)
    data["tail_amplification"] = (
        supervised.result.p99_latency_s
        / max(healthy.result.p99_latency_s, 1e-12))
    verdicts["supervised_oracles_pass"] = supervised.ok
    verdicts["supervisor_rereplicates"] = bool(
        len(supervised.supervisor.events) >= 2)
    verdicts["supervisor_measurable_mttr"] = bool(
        supervised.mttr_s is not None and supervised.mttr_s > 0)
    verdicts["supervisor_masks_failures"] = bool(
        supervised.result.failed == 0)
    verdicts["same_seed_bit_identical"] = bool(
        _chaos_fingerprint(supervised_runs[0])
        == _chaos_fingerprint(supervised_runs[1]))

    # -- 4. post-chaos quiesce: crash, repair, convergence ------------------
    progress("quiesce: functional mutation + crashed save + convergence")
    chaos_cluster = supervised.session.cluster
    eng = chaos_cluster.engine_for(chaos_cluster.primary(0))
    probes = ds.queries[:16]
    with tempfile.TemporaryDirectory() as root:
        prints_old = engine_fingerprint(eng, spec.name, probes, k)
        save_engine(eng, root)
        _mutate_ops(chaos_cluster, spec.name, spec.dim, seed)
        prints_new = engine_fingerprint(eng, spec.name, probes, k)
        crashed = False
        try:
            save_engine(eng, root, crash=CrashInjector(schedule.crash))
        except InjectedCrash:
            crashed = True
        recovered = load_engine(root)
        prints_rec = engine_fingerprint(recovered, spec.name, probes, k)
        state = ("old" if prints_rec == prints_old
                 else "new" if prints_rec == prints_new else "hybrid")
        crash_report = check_crash_state(state)
        repair(root)
        scrub_ok = scrub(root).ok
    data["crash"] = {"crashed": crashed, "state": state,
                     "repaired_scrub_ok": scrub_ok,
                     "detail": crash_report.detail}
    verdicts["crash_old_or_new"] = bool(crashed and crash_report.ok
                                        and scrub_ok)

    progress("quiesce: never-faulted cluster, same op sequence")
    fresh_cluster, _ = build_cluster(dataset, topo, index)
    _mutate_ops(fresh_cluster, spec.name, spec.dim, seed)
    convergence = check_convergence(
        cluster_fingerprint(chaos_cluster, spec.name, probes, k),
        cluster_fingerprint(fresh_cluster, spec.name, probes, k))
    data["convergence"] = convergence.detail
    verdicts["post_chaos_convergence_bit_identical"] = convergence.ok

    from repro.chaos.oracles import check_replica_consistency
    consistency = check_replica_consistency(chaos_cluster, spec.name,
                                            probes, k)
    data["replica_consistency"] = consistency.detail
    verdicts["replica_oplog_prefix_consistent"] = consistency.ok

    # -- 5. shrink a violating schedule to its minimal reproducer -----------
    progress("shrink: ddmin over a violating composed schedule")
    rng = np.random.default_rng(seed + 77)
    mini_x = rng.standard_normal((160, 16), dtype=np.float32)
    mini_queries = rng.standard_normal((12, 16), dtype=np.float32)
    culprit = NodeKill(0, 0.005, 0.05)
    noisy = ChaosSchedule(
        kills=(culprit, NodeKill(0, 0.2, 0.25)),
        partitions=(PartitionWindow((0,), 0.5, 0.6),),
        grays=(GrayFailure(0, 0.0, 0.01, slowdown=2.0),),
        device_faults=((0, LatencySpike(0.0, 0.01, extra_s=0.0002)),))

    def violates(sub: ChaosSchedule) -> bool:
        cluster = Cluster(ClusterTopology(n_shards=1, seed=seed),
                          "milvus", seed=seed)
        cluster.create("mini", 16, IndexSpec.of("flat", "l2"))
        cluster.insert("mini", mini_x)
        cluster.flush("mini")
        mini = ClusterBenchRunner(cluster, "mini", mini_queries, k=5)
        try:
            result = mini.run(2, {}, duration_s=0.03, chaos=sub)
        except FaultError:
            return True
        return (result.faults or {}).get("failed_queries", 0) > 0

    minimal, shrink_probes = shrink_schedule(noisy, violates)
    elements = minimal.elements()
    data["shrink"] = {
        "initial_elements": len(noisy.elements()),
        "minimal_elements": len(elements),
        "probes": shrink_probes,
        "minimal": minimal.describe(),
    }
    verdicts["shrinker_minimizes"] = bool(
        len(elements) == 1 and elements[0][0] == "kill"
        and elements[0][1] == culprit)

    data["verdicts"] = verdicts
    return data


def _schedule_lines(schedule: dict) -> list[str]:
    """One line per fault element of a described ChaosSchedule."""
    lines = []
    for kill in schedule["kills"]:
        lines.append(f"  kill       node {kill['node']}  "
                     f"[{kill['start_s']:.2f}s, {kill['end_s']:.2f}s)")
    for window in schedule["partitions"]:
        nodes = ",".join(str(n) for n in window["nodes"])
        lines.append(f"  partition  nodes {nodes}  "
                     f"[{window['start_s']:.2f}s, "
                     f"{window['end_s']:.2f}s)")
    for gray in schedule["grays"]:
        lines.append(f"  gray       node {gray['node']}  "
                     f"[{gray['start_s']:.2f}s, {gray['end_s']:.2f}s) "
                     f"slowdown={gray['slowdown']:.0f}x")
    for window in schedule["device_faults"]:
        detail = ", ".join(
            f"{key}={value}" for key, value in window.items()
            if key not in ("node", "kind", "start_s", "end_s"))
        lines.append(f"  device     node {window['node']}  "
                     f"[{window['start_s']:.2f}s, "
                     f"{window['end_s']:.2f}s) {window['kind']}: "
                     f"{detail}")
    if schedule["crash"] is not None:
        crash = schedule["crash"]
        lines.append(f"  crash      {crash['point']} "
                     f"(occurrence {crash['occurrence']})")
    return lines


def render_chaos_study(data: dict) -> str:
    """Tables for the chaos study (``repro chaos``).

    The composed schedule, the healthy/unsupervised/supervised run
    comparison, the failure-attribution and supervisor ledgers, the
    post-chaos quiesce lines (crash state, convergence, replica
    consistency), and the shrinker line.
    """
    def run_row(label: str, row: dict) -> list:
        mttr = row["mttr_s"]
        return [label, row["completed"], row["failed"], row["shed"],
                fmt(row["p50_latency_s"] * 1e3, 2),
                fmt(row["p99_latency_s"] * 1e3, 2),
                fmt(row["goodput_qps"], 0), fmt(row["recall"], 3),
                row["recoveries"],
                "" if mttr is None else f"{mttr * 1e3:.1f}"]

    rows = [run_row(label, data[key]) for label, key in (
        ("healthy", "healthy"),
        ("unsupervised", "unsupervised"),
        ("supervised", "supervised"))]
    causes = ", ".join(
        f"{kind}={count}" for kind, count in
        data["unsupervised"]["failure_causes"].items()) or "none"
    events = ", ".join(f"{key}={value}" for key, value in
                       data["supervised"]["events"].items())
    supervisor = ", ".join(f"{key}={value}" for key, value in
                           data["supervised"]["supervisor"].items())
    crash = data["crash"]
    shrink = data["shrink"]
    minimal = _schedule_lines(shrink["minimal"])
    return "\n".join([
        f"[{data['dataset']}] chaos study, {data['index']} "
        f"(params={data['params']}), window={data['duration_s']}s",
        "",
        "composed schedule:",
        *_schedule_lines(data["schedule"]),
        "",
        "open-loop serving under chaos (same offered load):",
        format_table(["config", "completed", "failed", "shed", "p50 ms",
                      "p99 ms", "goodput", "recall@10", "recoveries",
                      "mttr ms"], rows),
        "",
        f"failure attribution (unsupervised): {causes}",
        f"chaos events (supervised): {events}",
        f"supervisor ledger: {supervisor}",
        f"tail amplification (supervised p99 / healthy p99): "
        f"{data['tail_amplification']:.2f}x",
        "",
        "post-chaos quiesce on the scarred cluster:",
        f"  crashed save recovered committed-{crash['state']}; "
        f"repaired store scrubs clean: "
        f"{'yes' if crash['repaired_scrub_ok'] else 'NO'}",
        f"  vs never-faulted cluster, same ops: "
        f"{data['convergence']}",
        f"  replica op logs: {data['replica_consistency']}",
        "",
        f"shrink: {shrink['initial_elements']} elements -> "
        f"{shrink['minimal_elements']} in {shrink['probes']} probes; "
        f"minimal reproducer:",
        *minimal,
    ])


STUDY = Study(
    name="chaos",
    title="Chaos engineering (beyond the paper)",
    blurb="`repro.chaos` composes every fault plane — node kills, a "
          "network partition, a gray failure, SSD fault windows, a "
          "write-path crash — into one seeded schedule injected "
          "against the replicated cluster under open-loop load and "
          "streaming mutation (see docs/CHAOS.md).  Unsupervised, "
          "the kill+partition overlap blacks out both shards and "
          "availability degrades with every failure attributed; "
          "with the self-healing supervisor probing, replicas are "
          "rebuilt onto spares and zero queries fail while the full "
          "invariant-oracle battery holds; a violating schedule "
          "ddmin-shrinks to its minimal reproducer.",
    run=chaos_study,
    render=render_chaos_study,
)
