"""The cluster study: what sharding buys and what fan-out costs.

The paper characterizes storage-based ANN on one node; this study (the
``repro cluster`` command) asks what happens when the same engines are
sharded and replicated across simulated nodes behind a scatter-gather
coordinator:

1. **Identity** — an N=1, R=1 cluster answers bit-identically (ids
   *and* distances) to a single engine fed the same data, pinning down
   that the distributed layer adds no functional drift;
2. **QPS scaling** — a fixed 480k-row corpus hash-sharded across
   N ∈ {1, 2, 4} single-replica nodes, closed-loop at fixed client
   count, with the exact (flat-scan) index whose per-shard cost is
   proportional to the shard's rows: each node scans 1/N of the data
   on its own cores and device, so latency — and with it closed-loop
   aggregate QPS — scales near-linearly (≥ 3x at N=4) at *exactly*
   equal recall.  The corpus must dwarf the per-query constants (rpc
   halves on the coordinator and on every leg, interconnect hops, the
   merge): sharding only the paper datasets' CI-scale slices leaves
   those constants dominant and the curve flat — Amdahl, not a bug.
   (Graph indexes spend ~constant work per shard regardless of shard
   size, so scatter-gather buys them latency and capacity via
   replicas, not per-query work reduction — which is why this
   experiment pins the work-∝-rows case);
3. **Tail amplification** — per-shard work held *constant* while the
   fan-out N grows through {1, 2, 4, 8}: the coordinator waits for the
   slowest of N scatter legs, so P99 climbs with N even though each
   shard's own latency distribution is unchanged — the measured
   P99-vs-N fan-out curve.  The legs are storage-based DiskANN beams
   (multi-round device reads whose queueing is the variance source)
   over a jittery fabric; in-memory legs with near-constant CPU cost
   show almost no amplification, which is itself a finding;
4. **Failover** — seeded node-kill windows (``repro.faults``) on an
   R=2 cluster: mid-flight queries fail over to the surviving replica,
   nothing is lost, recall is unchanged;
5. **Quorum / hedging / deadlines** — quorum reads engage replica
   waits; hedged requests fire after a latency threshold and race both
   copies; a partial-result deadline returns merges over the shards
   that made it, reported as a ``DegradedResult`` with
   completion-weighted recall;
6. **Migration** — a shard replica streams to a spare node while the
   cluster serves queries, contending for devices and interconnect,
   then routing cuts over;
7. **Serving** — the unmodified :mod:`repro.serve` admission/batching
   layer drives the cluster coordinator (open-loop Poisson arrivals),
   showing the serving and cluster layers compose.

Every step is seeded and deterministic; the ``verdicts`` dict states
the claims the study demonstrates and is asserted by the CLI and CI.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.runner import ClusterBenchRunner
from repro.cluster.topology import ClusterTopology
from repro.core.report import fmt, format_table
from repro.core.study import Study, silent
from repro.data.groundtruth import exact_knn
from repro.data.registry import load_dataset
from repro.engines.engine import IndexSpec
from repro.errors import FaultError
from repro.faults.schedule import ChaosSchedule
from repro.serve.arrivals import PoissonArrivals
from repro.simkernel.network import NetworkSpec
from repro.serve.server import ServeConfig, Server, TenantLoad
from repro.serve.study import serve_row
from repro.workload.metrics import RunResult
from repro.workload.replay import closed_loop

#: Shard counts of the aggregate-QPS scaling experiment.
SCALING_FANOUTS = (1, 2, 4)

#: Rows in the scaling experiment's synthetic corpus — sized so the
#: per-shard scan dominates the fixed per-query costs even at N=4.
SCALING_ROWS = 480_000

#: Shard counts of the constant-per-shard tail-amplification curve.
TAIL_FANOUTS = (1, 2, 4, 8)

#: Search parameters of the sharded DiskANN setup (the same mid-range
#: operating point the serving study uses; recall-comparable, untuned).
CLUSTER_PARAMS: dict[str, t.Any] = {"search_list": 50}


def build_cluster(dataset_name: str, topology: ClusterTopology,
                  index: str = "diskann", profile: str = "milvus",
                  ) -> tuple[Cluster, "t.Any"]:
    """A cluster with the named dataset sharded across its nodes.

    Returns ``(cluster, dataset)``; the collection carries the
    dataset's name and metric, built with *index* on every replica.
    """
    dataset = load_dataset(dataset_name)
    spec = dataset.spec
    cluster = Cluster(topology, profile, seed=spec.seed)
    cluster.create_collection(spec.name, spec.dim,
                              IndexSpec.of(index, spec.metric),
                              storage_dim=spec.storage_dim)
    cluster.insert(spec.name, dataset.vectors)
    cluster.flush(spec.name)
    return cluster, dataset


def _synthetic(per_shard: int, n_shards: int, dim: int, n_queries: int,
               k: int, seed: int) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """Fixed per-shard-work corpus: rows grow with the fan-out."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((per_shard * n_shards, dim),
                            dtype=np.float32)
    queries = rng.standard_normal((n_queries, dim), dtype=np.float32)
    truth = exact_knn(X, queries, k, "l2")
    return X, queries, truth


def _row(result: RunResult) -> dict[str, t.Any]:
    row = {
        "qps": result.qps,
        "completed": result.completed,
        "recall": result.recall,
        "p50_ms": (result.p50_latency_s or 0.0) * 1e3,
        "p99_ms": result.p99_latency_s * 1e3,
        "cpu_utilization": result.cpu_utilization,
        "device_utilization": result.device_utilization,
    }
    if result.faults:
        row["faults"] = {key: value
                         for key, value in result.faults.items()
                         if key != "degraded"}
        degraded = result.faults.get("degraded")
        if degraded is not None:
            row["degraded_ratio"] = degraded.ratio
    return row


def cluster_study(dataset: str = "cohere-1m", index: str = "diskann",
                  duration_s: float = 0.4, concurrency: int = 16,
                  seed: int = 0, quick: bool = False,
                  progress: t.Callable[[str], None] = silent,
                  ) -> dict:
    """Run the full cluster study; see the module docstring.

    ``quick`` runs 0.25 s windows and drops the widest fan-out.
    """
    if quick:
        duration_s = min(duration_s, 0.25)
    k = 10
    params = dict(CLUSTER_PARAMS)
    data: dict[str, t.Any] = {
        "dataset": dataset, "index": index, "duration_s": duration_s,
        "concurrency": concurrency, "params": params,
    }
    verdicts: dict[str, bool] = {}

    # -- 1. N=1/R=1 identity against a single engine ----------------------
    progress("identity: N=1/R=1 cluster vs single engine")
    single_topo = ClusterTopology(n_shards=1, replicas=1, seed=seed)
    cluster1, ds = build_cluster(dataset, single_topo, index)
    spec = ds.spec
    engine = cluster1.engine_for(cluster1.primary(0))
    probes = ds.queries[:32]
    solo = engine.search_batch(spec.name, probes, k, **params)
    via_cluster = cluster1.search_batch(spec.name, probes, k, **params)
    identical = all(
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.dists, b.dists)
        for a, b in zip(solo, via_cluster))
    verdicts["single_shard_bit_identical"] = bool(identical)
    data["identity"] = {"queries": len(probes), "identical": identical}

    # -- 2. aggregate QPS scaling ------------------------------------------
    # Work-∝-rows legs over a corpus big enough that the per-shard
    # scan dwarfs the fixed per-query costs (see the module
    # docstring); flat scan keeps recall pinned at 1.0 for every N.
    truth = ds.ground_truth(k)
    sX, s_queries, s_truth = _synthetic(SCALING_ROWS, 1, dim=48,
                                        n_queries=96, k=k, seed=seed + 23)
    scaling: dict[str, dict] = {}
    for n in SCALING_FANOUTS:
        progress(f"scaling: {n} shard(s), {concurrency} clients")
        cluster = Cluster(ClusterTopology(n_shards=n, seed=seed),
                          "milvus", seed=seed)
        cluster.create_collection("scaling", sX.shape[1],
                                  IndexSpec.of("flat", "l2"))
        cluster.insert("scaling", sX)
        cluster.flush("scaling")
        runner = ClusterBenchRunner(cluster, "scaling", s_queries,
                                    ground_truth=s_truth, k=k)
        scaling[str(n)] = _row(runner.run(concurrency, {},
                                          duration_s=min(duration_s,
                                                         0.25)))
    base, wide = scaling["1"], scaling[str(SCALING_FANOUTS[-1])]
    speedup = wide["qps"] / max(base["qps"], 1e-9)
    data["scaling"] = scaling
    data["speedup_at_max_fanout"] = speedup
    verdicts["qps_scales_3x_at_4_shards"] = bool(speedup >= 3.0)
    verdicts["scaling_recall_equal"] = bool(
        max(row["recall"] for row in scaling.values())
        - min(row["recall"] for row in scaling.values()) <= 0.02)

    # -- 3. fan-out tail amplification -------------------------------------
    # Storage-based legs on a jittery fabric: each sub-query is a
    # multi-round DiskANN beam whose device queueing (16 clients per
    # node) is the per-leg variance the max-of-N gather amplifies.
    # The index is built cheap (small R / L_build) — only the latency
    # *distribution* matters here, not recall.
    fanouts = TAIL_FANOUTS[:-1] if quick else TAIL_FANOUTS
    tail_net = NetworkSpec(base_latency_s=50e-6, jitter_s=150e-6)
    tail_duration = min(duration_s, 0.15)
    tail: dict[str, dict] = {}
    for n in fanouts:
        progress(f"tail: fan-out {n}, constant per-shard work")
        X, queries, gt = _synthetic(600, n, dim=48, n_queries=128,
                                    k=k, seed=seed + 17)
        topo = ClusterTopology(n_shards=n, seed=seed, network=tail_net)
        cluster = Cluster(topo, "milvus", seed=seed)
        cluster.create_collection("tail", X.shape[1],
                                  IndexSpec.of("diskann", "l2", R=16,
                                               L_build=32, alpha=1.2))
        cluster.insert("tail", X)
        cluster.flush("tail")
        runner = ClusterBenchRunner(cluster, "tail", queries,
                                    ground_truth=gt, k=k)
        result = runner.run(16, {"search_list": 24},
                            duration_s=tail_duration)
        tail[str(n)] = dict(_row(result),
                            amplification=result.p99_latency_s * 1e3)
    base_p99 = tail["1"]["p99_ms"]
    for row in tail.values():
        row["amplification"] = row["p99_ms"] / max(base_p99, 1e-9)
    data["tail"] = tail
    verdicts["fanout_amplifies_tail"] = bool(
        tail[str(fanouts[-1])]["p99_ms"] > 1.05 * base_p99)

    # -- 4.-7. replication: failover, quorum, hedging, deadline, move ------
    progress("replication: building the N=2 R=2 (+1 spare) cluster")
    rep_topo = ClusterTopology(n_shards=2, replicas=2, spares=1,
                               seed=seed)
    rep_cluster, _ = build_cluster(dataset, rep_topo, index)
    rep_runner = ClusterBenchRunner(rep_cluster, spec.name, ds.queries,
                                    ground_truth=truth, k=k,
                                    paper_n=spec.paper_n)
    healthy = rep_runner.run(concurrency, params, duration_s=duration_s)
    data["replicated_healthy"] = _row(healthy)

    progress("replication: failover under seeded node kills")
    kills = ChaosSchedule.seeded(
        rep_topo.n_shards * rep_topo.replicas, duration_s, seed=seed + 1,
        kills=4, outage_s=duration_s / 8, partitions=0, grays=0,
        device_nodes=0)
    failover = rep_runner.run(concurrency, params, duration_s=duration_s,
                              chaos=kills)
    data["failover"] = _row(failover)
    faults = failover.faults or {}
    verdicts["failover_masks_node_kills"] = bool(
        faults.get("failovers", 0) > 0
        and faults.get("failed_queries", 0) == 0)
    verdicts["failover_preserves_recall"] = bool(
        failover.recall is not None and healthy.recall is not None
        and failover.recall >= healthy.recall - 0.02)

    progress("replication: quorum reads")
    quorum = rep_runner.run(concurrency, params, duration_s=duration_s,
                            consistency="quorum")
    data["quorum"] = _row(quorum)
    verdicts["quorum_reads_engage"] = bool(
        (quorum.faults or {}).get("quorum_waits", 0) > 0)

    progress("replication: hedged requests")
    # Hedge against slow *legs*, not slow queries: the threshold sits
    # below the median end-to-end latency (which includes rpc halves
    # and the merge), so straggling shard requests get a backup fired
    # at the other replica.
    hedged = rep_runner.run(concurrency, params, duration_s=duration_s,
                            hedge_after_s=0.3 * healthy.p50_latency_s)
    data["hedging"] = _row(hedged)
    verdicts["hedging_engages"] = bool(
        (hedged.faults or {}).get("hedges", 0) > 0)

    progress("replication: partial-result deadline")
    # The interesting deadline sits between "the fastest shard made it"
    # and "every shard made it"; where that is depends on the queueing
    # at this concurrency, so scan a few multiples of the healthy P50
    # and keep the first run where some gathers were actually cut.
    deadline = None
    factor = None
    for factor in (1.0, 0.8, 1.3, 0.6, 1.6):
        try:
            candidate = rep_runner.run(
                concurrency, params, duration_s=duration_s,
                deadline_s=factor * healthy.p50_latency_s)
        except FaultError:
            continue  # every shard missed it: too tight, try another
        if deadline is None:
            deadline = candidate
        if (candidate.faults or {}).get("partial_results", 0) > 0:
            deadline = candidate
            break
    assert deadline is not None, "no deadline factor completed queries"
    data["deadline"] = dict(_row(deadline), p50_factor=factor)
    dl_faults = deadline.faults or {}
    degraded = dl_faults.get("degraded")
    verdicts["deadline_returns_partials"] = bool(
        dl_faults.get("partial_results", 0) > 0 and degraded is not None)
    verdicts["degraded_recall_reported"] = bool(
        degraded is not None and deadline.recall is not None
        and deadline.recall < (healthy.recall or 1.0))

    progress("replication: shard migration while serving")
    spare = rep_topo.total_nodes - 1
    session = rep_runner.open_replay(params)
    session.env.process_at(duration_s / 3, session.migrate(0, 0, spare))
    served = len(closed_loop(session, rep_runner, 4,
                             duration_s).latencies)
    migrated_to = session.routing[0][0]
    data["migration"] = {
        "queries_served": served,
        "migrations": session.replayer.ccounts.get("migrations", 0),
        "moved_to_node": migrated_to,
        "spare_node": spare,
    }
    verdicts["migration_while_serving"] = bool(
        session.replayer.ccounts.get("migrations", 0) == 1
        and migrated_to == spare and served > 0)

    progress("serving: open-loop admission over the coordinator")
    serve_conf = ServeConfig(
        policy="fifo", duration_s=duration_s, seed=seed,
        max_inflight=concurrency, search_params=params,
        tenants=(TenantLoad("all", PoissonArrivals(
            rate_qps=0.6 * healthy.qps)),))
    serve_result = Server(rep_runner, serve_conf).serve()
    data["serving"] = serve_row(serve_result)
    verdicts["coordinator_serves_open_loop"] = bool(
        serve_result.qps > 0 and serve_result.arrivals > 0)

    data["verdicts"] = verdicts
    return data


def render_cluster_study(data: dict) -> str:
    """Tables for the distributed cluster study (``repro cluster``).

    The N=1 identity line, the aggregate-QPS scaling table, the
    constant-per-shard P99-vs-N tail-amplification curve, the
    replication rows (failover, quorum, hedging, deadline), and the
    migration and serving lines.
    """
    def run_row(label: str, row: dict) -> list:
        faults = row.get("faults", {})
        notes = ", ".join(f"{key}={value}"
                          for key, value in sorted(faults.items())
                          if value)
        if row.get("degraded_ratio") is not None:
            notes = (notes + (", " if notes else "")
                     + f"degraded={row['degraded_ratio']:.1%}")
        return [label, fmt(row["qps"], 0), fmt(row["recall"], 3),
                fmt(row["p50_ms"], 2), fmt(row["p99_ms"], 2), notes]

    scaling_rows = [
        [n, fmt(row["qps"], 0),
         f"{row['qps'] / max(data['scaling']['1']['qps'], 1e-9):.2f}x",
         fmt(row["recall"], 3), fmt(row["p99_ms"], 2),
         f"{row['cpu_utilization']:.0%}"]
        for n, row in data["scaling"].items()]
    tail_rows = [
        [n, fmt(row["p50_ms"], 2), fmt(row["p99_ms"], 2),
         f"{row['amplification']:.2f}x"]
        for n, row in data["tail"].items()]
    rep_rows = [run_row(label, data[key]) for label, key in (
        ("healthy R=2", "replicated_healthy"),
        ("node kills", "failover"),
        ("quorum", "quorum"),
        ("hedged", "hedging"),
        ("deadline", "deadline"))]
    migration = data["migration"]
    serving = data["serving"]
    return "\n".join([
        f"[{data['dataset']}] cluster study, {data['index']} "
        f"(params={data['params']}), window={data['duration_s']}s, "
        f"{data['concurrency']} clients",
        "",
        f"identity: N=1/R=1 cluster vs single engine over "
        f"{data['identity']['queries']} queries: "
        f"{'bit-identical' if data['identity']['identical'] else 'DRIFT'}",
        "",
        "aggregate QPS scaling (480k-row flat corpus sharded across "
        "N nodes):",
        format_table(["shards", "QPS", "speedup", "recall@10", "p99 ms",
                      "CPU"], scaling_rows),
        "",
        "fan-out tail amplification (constant per-shard work):",
        format_table(["fan-out", "p50 ms", "p99 ms", "p99 vs N=1"],
                     tail_rows),
        "",
        "replication (N=2, R=2):",
        format_table(["config", "QPS", "recall@10", "p50 ms", "p99 ms",
                      "events"], rep_rows),
        "",
        f"migration: replica (shard 0, replica 0) -> node "
        f"{migration['moved_to_node']} while serving "
        f"{migration['queries_served']} queries "
        f"({migration['migrations']} move)",
        f"serving over the coordinator: offered "
        f"{serving['offered_qps']:.0f} QPS -> {serving['qps']:.0f} QPS, "
        f"goodput {serving['goodput_qps']:.0f}, "
        f"p99 {serving['p99_ms']:.2f} ms, "
        f"{serving['rejected']} rejected",
    ])


STUDY = Study(
    name="cluster",
    title="Distributed cluster (beyond the paper)",
    blurb="The paper's engines run on one node; this study shards "
          "and replicates them across simulated nodes behind a "
          "scatter-gather coordinator (see docs/CLUSTER.md).  "
          "Aggregate QPS scales near-linearly with the shard count "
          "at equal recall; holding per-shard work constant, P99 "
          "climbs with the fan-out (the coordinator waits for the "
          "slowest leg); replica failover masks seeded node kills; "
          "an N=1/R=1 cluster is bit-identical to a single engine.",
    run=cluster_study,
    render=render_cluster_study,
)
