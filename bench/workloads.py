"""The four study-shaped workloads.

Each workload is a class with the same five steps — ``setup`` (timed as
``setup_s``), ``run_pass`` (timed as ``host_wall_s``; fixed work, run
several times), ``probe`` (sequential ``Session.search`` latencies),
``check`` (the always-on correctness oracles) and ``replay_headline``
(the headline cell once more, with or without telemetry).  They call the
program only through its public functions and receive nothing but the
inputs generated from ``--seed``.

Why these four: each gives most of its pass to a different group of
layers, so a change to one layer has a workload that exercises it and
one that bypasses it (see README.md for the measured shares).

Sizes are smaller than the paper-proxy "tiny" geometry (n = 2000/4000)
because one invocation sets up three times and must end within about
25 s; the DiskANN node-cache budgets are scaled by the same factor so
the cached share of the index — and with it bytes per query — keeps the
proxy's shape.

All load is *simulated*: closed-loop clients and open-loop arrival
timelines live on the simulator's clock, so the load generator cannot
run late — lateness is 0 by construction.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
import typing as t

import numpy as np

from repro.api import Session, open_cluster, open_engine, open_saved
from repro.cluster import ClusterTopology
from repro.data.groundtruth import exact_knn, recall_at_k
from repro.data.spec import DatasetSpec, get_spec
from repro.data.synthetic import make_dataset_vectors, make_queries
from repro.engines.profiles import EngineProfile, milvus_profile
from repro.mutate import CompactionPolicy, MutationLoad
from repro.obs import RunTelemetry
from repro.serve import (BurstyArrivals, PoissonArrivals, ServeConfig,
                         Server, TenantLoad)
import repro.tenancy
from repro.tenancy import (SloControllerConfig, TenancyConfig,
                           TenantRegistry, build_ladder, plan_cost_prior)
from repro.tenancy.study import build_fleet

if t.TYPE_CHECKING:
    from bench.trace import Tracer

K = 10
#: Added to ``--seed`` so benchmark data never coincides with the
#: datasets the studies and tests generate (spec seeds 11-14).
SEED_BASE = 1000


@dataclasses.dataclass
class Ops:
    """Operations attempted / failed / refused over the whole run.

    ``failed`` is breakage — simulated queries that failed, OOM cells,
    correctness checks that did not hold.  ``refused`` is policy: the
    admission rejections and deadline sheds of an intentionally
    overloaded open loop; they count against goodput and in
    ``failed_ops_frac``, not as failures of the run.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0

    def closed(self, result) -> None:
        """Account one closed-loop :class:`RunResult`."""
        lost = (result.faults or {}).get("failed_queries", 0)
        self.attempted += result.completed + lost + result.failed
        self.failed += lost + result.failed

    def served(self, result) -> None:
        """Account one :class:`ServeResult`."""
        self.attempted += result.arrivals
        self.failed += result.failed
        self.refused += result.rejected + result.shed


@dataclasses.dataclass
class Context:
    """What a workload gets from the driver script."""

    seed: int
    workdir: str
    tracer: "Tracer"
    ops: Ops


@dataclasses.dataclass
class Data:
    spec: DatasetSpec
    vectors: np.ndarray
    queries: np.ndarray
    truth: np.ndarray


def make_data(ctx: Context, dataset: str, n: int, n_queries: int,
              truth_rows: int | None = None) -> Data:
    """Generate vectors, queries and exact top-k from the run's seed."""
    base = get_spec(dataset, "tiny")
    spec = dataclasses.replace(
        base, n=n, n_queries=n_queries, seed=SEED_BASE + ctx.seed,
        n_clusters=max(16, int(round(n ** 0.5 / 2))))
    with ctx.tracer.span("data"):
        vectors = make_dataset_vectors(spec)
        queries = make_queries(spec, vectors)
        truth = exact_knn(vectors[:truth_rows], queries, K, spec.metric)
    return Data(spec, vectors, queries, truth)


def scaled_profile(data: Data) -> EngineProfile:
    """Milvus with the DiskANN cache budgets shrunk like the data."""
    scale = data.spec.n / get_spec(data.spec.name, "tiny").n
    profile = milvus_profile()
    return dataclasses.replace(
        profile,
        diskann_cache_bytes=int(profile.diskann_cache_bytes * scale),
        diskann_lru_bytes=int(profile.diskann_lru_bytes * scale))


def build_diskann(data: Data, rows: int | None = None) -> Session:
    session = open_engine(scaled_profile(data))
    session.create(data.spec.name, dim=data.spec.dim, index="diskann",
                   metric=data.spec.metric,
                   storage_dim=data.spec.storage_dim)
    session.insert(data.spec.name, data.vectors[:rows], flush=True)
    return session


def plan_steps(runner, params: dict) -> float:
    """Mean replay steps per warm plan (the plan compiler's output)."""
    warm = runner.open_replay(params).warm
    return sum(len(steps) for plan in warm
               for steps in plan.segments) / len(warm)


#: Closed loops replay a fixed number of queries, not a fixed simulated
#: time, so a pass is the same amount of host work on every seed; the
#: window only has to be long enough never to end the run first.
UNBOUNDED_S = 3600.0


def replay(runner, concurrency: int, params: dict, queries: int,
           **options):
    """One closed-loop run of exactly *queries* simulated queries."""
    return runner.run(concurrency, params, duration_s=UNBOUNDED_S,
                      max_queries=queries, **options)


def closed_cell(result) -> dict[str, float]:
    return {"qps": result.qps, "p99_ms": result.p99_latency_s * 1e3,
            "completed": result.completed,
            "read_bytes_per_query": result.per_query_read_bytes,
            "recall": result.recall}


def closed_signature(result) -> tuple:
    """Every simulated number of a closed-loop run, for equality."""
    return (result.completed, result.elapsed_s, result.qps,
            result.mean_latency_s, result.p50_latency_s,
            result.p99_latency_s, result.cpu_utilization,
            result.device_utilization, result.read_bytes,
            result.write_bytes, result.recall, result.error)


def serve_signature(result) -> str:
    """``repr`` excludes telemetry and renders floats round-trip."""
    return repr(result)


def conserved(result) -> bool:
    return result.arrivals == (result.completed + result.rejected
                               + result.shed + result.failed)


#: Queries in the batch-versus-sequential check.
SAMPLE = 20


def batch_equals_sequential(session, name: str, queries: np.ndarray,
                            params: dict) -> bool:
    sample = queries[:SAMPLE]
    batch = session.search_batch(name, sample, K, **params)
    single = [session.search(name, query, K, **params) for query in sample]
    return all(np.array_equal(a.ids, b.ids)
               and np.array_equal(a.dists, b.dists)
               for a, b in zip(batch, single))


Check = tuple[str, bool, str]


class Workload:
    """Common shape; see the module docstring."""

    name: str
    #: Search parameters of the headline cell and the latency probe.
    params: dict[str, t.Any]
    recall_floor: float
    #: Times the latency probe goes over the query set.
    probe_rounds: int
    #: Set by ``setup`` (or the last pass): what the probe and the
    #: common checks search.
    session: Session
    data: Data

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict[str, t.Any]:
        raise NotImplementedError

    def replay_headline(self, telemetry: RunTelemetry | None) -> t.Any:
        """The headline cell's simulated signature, replayed once."""
        raise NotImplementedError

    def probe(self) -> list[float]:
        """Host seconds of sequential ``Session.search`` calls."""
        name, out = self.data.spec.name, []
        for _ in range(self.probe_rounds):
            for query in self.data.queries:
                start = time.perf_counter()
                self.session.search(name, query, K, **self.params)
                out.append(time.perf_counter() - start)
        self.ctx.ops.attempted += len(out)
        return out

    def check(self, passes: list[dict[str, t.Any]]) -> list[Check]:
        """The always-on oracles; workloads extend the list."""
        ops = self.ctx.ops
        recall = passes[-1]["recall_at_10"]
        # Timed too: the traced run reports the host cost of telemetry.
        telemetry = RunTelemetry()
        start = time.perf_counter()
        off = self.replay_headline(None)
        self.telemetry_off_s = time.perf_counter() - start
        on = self.replay_headline(telemetry)
        self.telemetry_on_s = (time.perf_counter() - start
                               - self.telemetry_off_s)
        checks = [
            ("recall_floor", recall >= self.recall_floor,
             f"recall@10 {recall:.4f} vs floor {self.recall_floor}"),
            ("batch_equals_sequential",
             batch_equals_sequential(self.session, self.data.spec.name,
                                     self.data.queries, self.params),
             f"search_batch vs search on {SAMPLE} queries"),
            ("passes_identical",
             all(sim == passes[0] for sim in passes[1:]),
             f"{len(passes)} passes, sim results equal"),
            ("replay_repeats", off == passes[-1]["headline_signature"],
             "headline cell replayed again in-process"),
            ("telemetry_passive", on == off,
             f"telemetry on vs off, {len(telemetry.spans)} spans"),
        ]
        ops.attempted += 2 * SAMPLE
        self.obs_spans = len(telemetry.spans)
        return checks


class Rq3Sweep(Workload):
    """Functional-heavy: the paper's RQ3 parameter sweep (Figs 7-15).

    Every cell pays real index search (cold + warm functional pass) and
    plan compilation, and replays only briefly.
    """

    name = "rq3-sweep"
    params = {"search_list": 100}
    recall_floor = 0.95
    probe_rounds = 4
    N, N_QUERIES = 800, 48
    SEARCH_LISTS = (10, 50, 100)
    BEAM_WIDTHS = (1, 8)             # at search_list = 100
    CONCURRENCY = 16
    CELL_QUERIES, HEADLINE_QUERIES = 64, 1100    # replayed per cell

    def setup(self) -> None:
        self.data = make_data(self.ctx, "openai-500k", self.N,
                              self.N_QUERIES)
        self.session = build_diskann(self.data)

    def run_pass(self) -> dict[str, t.Any]:
        data, ops = self.data, self.ctx.ops
        runner = self.session.bench_runner(
            data.spec.name, data.queries, ground_truth=data.truth,
            k=K, paper_n=data.spec.paper_n)
        cells = [{"search_list": sl} for sl in self.SEARCH_LISTS]
        cells += [{"search_list": 100, "beam_width": beam}
                  for beam in self.BEAM_WIDTHS]
        sim: dict[str, t.Any] = {"cells": {}}
        for params in cells:
            runner.compiled_results(params)
            ops.attempted += 2 * len(data.queries)
            headline = params == self.params
            result = replay(
                runner, self.CONCURRENCY, params,
                self.HEADLINE_QUERIES if headline else self.CELL_QUERIES)
            ops.closed(result)
            key = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
            sim["cells"][key] = closed_cell(result)
            if headline:
                sim.update(headline_metrics(result))
        sim["workload.plan_steps_per_query"] = plan_steps(runner,
                                                          self.params)
        self.runner = runner
        return sim

    def replay_headline(self, telemetry):
        return closed_signature(replay(
            self.runner, self.CONCURRENCY, self.params,
            self.HEADLINE_QUERIES, telemetry=telemetry))


def headline_metrics(result) -> dict[str, t.Any]:
    """End-to-end sim metrics of a closed-loop headline cell."""
    return {"sim_qps": result.qps,
            "sim_p99_ms": result.p99_latency_s * 1e3,
            "p99_samples": result.completed,
            "sim_read_bytes_per_query": result.per_query_read_bytes,
            "recall_at_10": result.recall,
            "storage.device_utilization": result.device_utilization,
            "workload.sim_cpu_utilization": result.cpu_utilization,
            "headline_signature": closed_signature(result)}


class Kf1Replay(Workload):
    """Replay-heavy: KF-1/KF-2 concurrency scaling (Figs 2-6).

    Plans are compiled in set-up; the passes run no index search at
    all, only the replayer, the event loop and the device model.
    """

    name = "kf1-replay"
    params = {"search_list": 100}
    recall_floor = 0.95
    probe_rounds = 3
    N, N_QUERIES = 800, 100
    LEVELS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    HEADLINE_C = 16
    HEADLINE_QUERIES = 1400

    @staticmethod
    def level_queries(c: int) -> int:
        """At least four rounds of every client, 100 at c = 1."""
        return max(min(400, 100 * c), 4 * c)

    def setup(self) -> None:
        data = self.data = make_data(self.ctx, "cohere-1m", self.N,
                                     self.N_QUERIES)
        self.session = build_diskann(data)
        self.runner = self.session.bench_runner(
            data.spec.name, data.queries, ground_truth=data.truth,
            k=K, paper_n=data.spec.paper_n)
        self.runner.compiled_results(self.params)
        self.ctx.ops.attempted += 2 * len(data.queries)
        self.steps = plan_steps(self.runner, self.params)

    def run_pass(self) -> dict[str, t.Any]:
        sim: dict[str, t.Any] = {"levels": {}}
        for c in self.LEVELS:
            headline = c == self.HEADLINE_C
            result = replay(
                self.runner, c, self.params,
                self.HEADLINE_QUERIES if headline
                else self.level_queries(c), trace=headline)
            self.ctx.ops.closed(result)
            sim["levels"][str(c)] = closed_cell(result)
            if headline:
                sim.update(headline_metrics(result))
                sizes = [rec.size for rec in result.tracer.records]
                sim["traced_4k_share"] = (
                    sum(size == 4096 for size in sizes) / len(sizes))
        levels = sim["levels"]
        sim["workload.sim_qps_c1"] = levels["1"]["qps"]
        sim["workload.sim_qps_c256"] = levels["256"]["qps"]
        sim["workload.sim_p99_ms_c256"] = levels["256"]["p99_ms"]
        sim["workload.plan_steps_per_query"] = self.steps
        return sim

    def replay_headline(self, telemetry):
        return closed_signature(replay(
            self.runner, self.HEADLINE_C, self.params,
            self.HEADLINE_QUERIES, telemetry=telemetry))


class ServeCluster(Workload):
    """Control planes on a memory-based index (Milvus-IVF).

    IVF issues no device reads and its kernels are cheap, so admission,
    queueing, scatter-gather and the tenancy loops dominate; this is
    the bypass workload for storage and DiskANN-search changes.
    """

    name = "serve-cluster"
    params = {"nprobe": 8}
    recall_floor = 0.8
    probe_rounds = 10
    N, N_QUERIES = 4000, 200
    #: Offered rate as a share of the probed saturation S: simulated
    #: seconds served at it.  0.9 S carries the headline P99 and gets
    #: the long window.
    RATES = {0.5: 2.0, 0.9: 5.0, 1.2: 2.0}
    FLEET_S = 1.0                    # simulated seconds
    CLUSTER_LEVELS = {16: 400, 64: 600}   # clients: queries replayed
    HEDGE_AFTER_S = 0.002
    N_TENANTS = 100

    def setup(self) -> None:
        data = self.data = make_data(self.ctx, "cohere-1m", self.N,
                                     self.N_QUERIES)
        spec, ops = data.spec, self.ctx.ops
        self.session = open_engine("milvus")
        self.cluster = open_cluster(
            ClusterTopology(n_shards=4, replicas=2), "milvus")
        for deployment in (self.session, self.cluster):
            deployment.create(spec.name, dim=spec.dim, index="ivf",
                              metric=spec.metric,
                              storage_dim=spec.storage_dim)
            deployment.insert(spec.name, data.vectors, flush=True)
        common = dict(ground_truth=data.truth, k=K, paper_n=spec.paper_n)
        self.runner = self.session.bench_runner(spec.name, data.queries,
                                                **common)
        self.cluster_runner = self.cluster.bench_runner(
            spec.name, data.queries, **common)
        self.runner.compiled_results(self.params)
        self.cluster_runner.open_replay(self.params)
        ops.attempted += 4 * len(data.queries)
        ladder = build_ladder(self.runner, self.params, factor=0.5,
                              max_levels=3)
        probe = self.runner.run(16, self.params, duration_s=1.0)
        ops.closed(probe)
        # The SLO hangs on the probe's median, not its P99: that P99
        # has 28 samples beyond it and swings 12 % between seeds, and
        # every shed decision and the headline P99 would swing with it.
        self.saturation, self.slo_s = probe.qps, 6 * probe.p50_latency_s
        self.steps = plan_steps(self.runner, self.params)
        # The fleet of the tenancy study, priced so quotas bite only
        # the flash crowds (2.5x each tenant's mean offered cost).
        prior = plan_cost_prior(ladder.levels[0].warm,
                                self.runner.device_spec)
        fleet = build_fleet(ladder, 1.2 * self.saturation,
                            probe.p99_latency_s, self.N_TENANTS,
                            self.FLEET_S)
        registry = TenantRegistry(tuple(
            dataclasses.replace(
                p, quota_burst_s=0.2,
                quota_cost_per_s=2.5 * p.arrivals.mean_qps * prior)
            for p in fleet.profiles))
        self.tenancy = TenancyConfig(
            registry=registry,
            controller=SloControllerConfig(
                interval_s=self.FLEET_S / 20, degrade_after=2,
                restore_after=6, min_observations=4),
            degrade_factor=0.5, max_levels=3)

    def _serve_config(self, fraction: float) -> ServeConfig:
        share = fraction * self.saturation / 8
        tenants = tuple(
            TenantLoad(f"poisson{i}", PoissonArrivals(rate_qps=share))
            for i in range(4)) + tuple(
            TenantLoad(f"bursty{i}", BurstyArrivals(
                base_qps=0.625 * share, burst_qps=2.5 * share,
                mean_calm_s=0.08, mean_burst_s=0.02))
            for i in range(4))
        return ServeConfig(
            tenants=tenants, policy="wfq", queue_bound=256,
            max_inflight=16, slo_deadline_s=self.slo_s, shed_late=True,
            duration_s=self.RATES[fraction], seed=0,
            search_params=dict(self.params))

    def run_pass(self) -> dict[str, t.Any]:
        ops = self.ctx.ops
        sim: dict[str, t.Any] = {"rates": {}, "cluster": {}}
        served = {}
        for fraction in self.RATES:
            result = Server(self.runner,
                            self._serve_config(fraction)).serve()
            ops.served(result)
            served[fraction] = result
            sim["rates"][str(fraction)] = {
                "offered_qps": result.offered_qps,
                "goodput_qps": result.goodput_qps,
                "p99_ms": result.p99_latency_s * 1e3,
                "on_time_fraction": result.goodput_ratio,
                "drained_s": result.duration_s,
                "conserved": conserved(result)}
        within = [
            fraction * self.saturation for fraction, result
            in served.items()
            # Refused arrivals miss the limit, so 99 % on time is the
            # P99 test; a backlog still draining after the window plus
            # one deadline is a growing queue.
            if result.goodput_ratio >= 0.99
            and result.duration_s <= self.RATES[fraction] + self.slo_s]
        over, knee = served[1.2], served[0.9]
        sim.update({
            "sim_qps": over.goodput_qps,
            "sim_p99_ms": knee.p99_latency_s * 1e3,
            "p99_samples": knee.completed,
            "sim_read_bytes_per_query": 0.0,
            "recall_at_10": over.recall,
            "headline_signature": serve_signature(over),
            "storage.device_utilization": 0.0,
            "workload.plan_steps_per_query": self.steps,
            "serve.arrivals": sum(r.arrivals for r in served.values()),
            "serve.rejected": sum(r.rejected for r in served.values()),
            "serve.shed": sum(r.shed for r in served.values()),
            "serve.batches": sum(r.batches for r in served.values()),
            "serve.max_queue_depth": max(r.max_queue_depth
                                         for r in served.values()),
            "serve.mean_queue_ms": knee.mean_queue_s * 1e3,
            "serve.mean_service_ms": knee.mean_service_s * 1e3,
            "serve.max_rate_within_slo_qps": max(within, default=0.0),
        })

        for c, queries in self.CLUSTER_LEVELS.items():
            telemetry = RunTelemetry() if c == 16 else None
            result = replay(
                self.cluster_runner, c, self.params, queries,
                hedge_after_s=self.HEDGE_AFTER_S, telemetry=telemetry)
            ops.closed(result)
            sim["cluster"][str(c)] = closed_cell(result)
            if telemetry is not None:
                spans = telemetry.spans
                merge = sum(s.stages.get("merge", 0.0) for s in spans)
                sim["cluster.legs_per_query"] = (
                    telemetry.counter("cluster_fanout").value / len(spans))
                sim["cluster.hedges"] = result.faults["hedges"]
                sim["cluster.hedge_wins"] = result.faults["hedge_wins"]
                sim["cluster.merge_overhead_fraction"] = merge / sum(
                    s.latency_s for s in spans)
        sim["cluster.sim_qps_c64"] = sim["cluster"]["64"]["qps"]

        config = self.tenancy.serve_config(
            policy="wfq", queue_bound=256, shed_late=True,
            max_inflight=16, duration_s=self.FLEET_S, seed=0,
            search_params=dict(self.params))
        # Through the module attribute, so the traced run's wrapper of
        # ``serve_autopilot`` is the one called.
        fleet = repro.tenancy.serve_autopilot(self.runner, config,
                                              self.tenancy)
        ops.served(fleet)
        sim["fleet"] = {"goodput_qps": fleet.goodput_qps,
                        "p99_ms": fleet.p99_latency_s * 1e3,
                        "recall": fleet.recall,
                        "conserved": conserved(fleet)}
        sim["tenancy.quota_rejected"] = fleet.tenancy.quota_rejected
        sim["tenancy.degrades"] = fleet.tenancy.degrades
        sim["tenancy.restores"] = fleet.tenancy.restores
        sim["tenancy.attainment"] = fleet.goodput_ratio
        return sim

    def replay_headline(self, telemetry):
        return serve_signature(Server(
            self.runner, self._serve_config(1.2),
            telemetry=telemetry).serve())

    def cluster_probe(self) -> list[float]:
        """Host seconds of functional scatter-gather searches."""
        out = []
        for query in self.data.queries:
            start = time.perf_counter()
            self.cluster.search(self.data.spec.name, query, K,
                                **self.params)
            out.append(time.perf_counter() - start)
        self.ctx.ops.attempted += len(out)
        return out

    def check(self, passes):
        conserved_all = all(
            cell["conserved"] for sim in passes
            for cell in (*sim["rates"].values(), sim["fleet"]))
        return super().check(passes) + [
            ("serve_conservation", conserved_all,
             "arrivals == completed + rejected + shed + failed"),
            ("no_device_io", passes[-1]["sim_read_bytes_per_query"] == 0,
             "a memory-based index reads nothing from the device")]


class MutateDurable(Workload):
    """Writes beside reads: ingest, compaction rebuild, persistence and
    read/write contention on the device, through the same engine, index
    and storage code as the read-only workloads."""

    name = "mutate-durable"
    params = {"search_list": 50}
    recall_floor = 0.9
    probe_rounds = 4
    N, BASE_ROWS, N_QUERIES = 320, 240, 64
    ROUNDS, INSERT_ROWS, DELETE_ROWS = 4, 20, 6
    BATCH_QUERIES, SINGLE_QUERIES = 16, 5
    SERVE_S, READ_QUERIES = 0.8, 150   # simulated seconds; queries
    #: Of the base index's closed-loop saturation.  Milvus admits four
    #: DiskANN queries at a time, and beside this write stream the
    #: served rate saturates near 0.65 S; 0.4 S keeps the queue short,
    #: so P99 shows device contention, not a backlog that grows.
    READ_LOAD = 0.4
    #: Threshold low enough for three compactions inside SERVE_S.
    LOAD = MutationLoad(insert_qps=20_000, delete_qps=2_000,
                        policy=CompactionPolicy(delta_rows=3_000))

    def setup(self) -> None:
        data = self.data = make_data(self.ctx, "openai-500k", self.N,
                                     self.N_QUERIES,
                                     truth_rows=self.BASE_ROWS)
        base = build_diskann(data, rows=self.BASE_ROWS)
        self.base_path = os.path.join(self.ctx.workdir, "base")
        shutil.rmtree(self.base_path, ignore_errors=True)
        base.save(self.base_path)
        probe = base.run_bench(
            data.spec.name, data.queries, concurrency=16,
            search_params=self.params, duration_s=0.5,
            paper_n=data.spec.paper_n)
        self.ctx.ops.closed(probe)
        self.ctx.ops.attempted += self.BASE_ROWS + 1
        self.saturation = probe.qps
        # Which rows each round deletes: drawn from the rows that exist
        # by then, from the run's seed.
        rng = np.random.default_rng(SEED_BASE + self.ctx.seed)
        self.deletes = [
            rng.choice(self.BASE_ROWS + (r + 1) * self.INSERT_ROWS,
                       self.DELETE_ROWS, replace=False)
            for r in range(self.ROUNDS)]

    def run_pass(self) -> dict[str, t.Any]:
        data, ops = self.data, self.ctx.ops
        name, queries = data.spec.name, data.queries
        session = open_saved(self.base_path)
        next_row, deleted = self.BASE_ROWS, set()
        for r in range(self.ROUNDS):
            rows = data.vectors[next_row:next_row + self.INSERT_ROWS]
            session.insert(name, rows)
            next_row += len(rows)
            session.delete(name, self.deletes[r])
            deleted.update(int(row) for row in self.deletes[r])
            session.search_batch(name, queries[:self.BATCH_QUERIES], K,
                                 **self.params)
            for query in queries[:self.SINGLE_QUERIES]:
                session.search(name, query, K, **self.params)
            ops.attempted += (len(rows) + self.DELETE_ROWS
                              + self.BATCH_QUERIES + self.SINGLE_QUERIES)
        session.compact(name)
        before = session.search_batch(name, queries, K, **self.params)
        after_path = os.path.join(self.ctx.workdir, "after")
        shutil.rmtree(after_path, ignore_errors=True)
        session.save(after_path)
        reopened = open_saved(after_path)
        after = reopened.search_batch(name, queries, K, **self.params)
        ops.attempted += 3 + 2 * len(queries)
        identical = all(np.array_equal(a.ids, b.ids)
                        and np.array_equal(a.dists, b.dists)
                        for a, b in zip(before, after))

        live = np.asarray(sorted(set(range(next_row)) - deleted))
        truth = live[exact_knn(data.vectors[live], queries, K,
                               data.spec.metric)]
        recall = recall_at_k(truth, [r.ids for r in after], K)
        store_bytes = sum(
            os.path.getsize(os.path.join(folder, entry))
            for folder, _dirs, entries in os.walk(after_path)
            for entry in entries)

        self.session = reopened
        self.runner = reopened.bench_runner(name, queries, k=K,
                                            paper_n=data.spec.paper_n)
        served = Server(self.runner, self._serve_config()).serve()
        ops.served(served)
        mutation = served.mutation
        # A ServeResult carries no device byte count; the same
        # post-compaction plans replayed closed-loop give bytes/query.
        reads = replay(self.runner, 16, self.params, self.READ_QUERIES)
        ops.closed(reads)
        return {
            "sim_qps": served.goodput_qps,
            "sim_p99_ms": served.p99_latency_s * 1e3,
            "p99_samples": served.completed,
            "sim_read_bytes_per_query": reads.per_query_read_bytes,
            "recall_at_10": recall,
            "headline_signature": serve_signature(served),
            "conserved": conserved(served),
            "storage.device_utilization": reads.device_utilization,
            "workload.plan_steps_per_query": plan_steps(self.runner,
                                                        self.params),
            "serve.arrivals": served.arrivals,
            "serve.rejected": served.rejected,
            "serve.shed": served.shed,
            "serve.batches": served.batches,
            "serve.max_queue_depth": served.max_queue_depth,
            "serve.mean_queue_ms": served.mean_queue_s * 1e3,
            "serve.mean_service_ms": served.mean_service_s * 1e3,
            "serve.max_rate_within_slo_qps": 0.0,
            "mutate.inserted_rows": next_row - self.BASE_ROWS,
            "mutate.deleted_rows": len(deleted),
            "mutate.compactions": mutation.compactions,
            "mutate.sim_wal_bytes": mutation.wal_bytes,
            "mutate.sim_compaction_write_bytes":
                mutation.compaction_write_bytes,
            "durability.store_bytes": store_bytes,
            "durability.store_bytes_per_vector_byte":
                store_bytes / data.vectors[live].nbytes,
            "durability.reopen_identical": float(identical),
        }

    def _serve_config(self) -> ServeConfig:
        return ServeConfig(
            tenants=(TenantLoad("readers", PoissonArrivals(
                rate_qps=self.READ_LOAD * self.saturation)),),
            max_inflight=16, duration_s=self.SERVE_S, seed=0,
            search_params=dict(self.params), mutation=self.LOAD)

    def replay_headline(self, telemetry):
        return serve_signature(Server(
            self.runner, self._serve_config(),
            telemetry=telemetry).serve())

    def check(self, passes):
        last = passes[-1]
        return super().check(passes) + [
            ("reopen_identical",
             all(sim["durability.reopen_identical"] == 1.0
                 for sim in passes),
             "full query set bit-identical before/after save + reopen"),
            ("serve_conservation",
             all(sim["conserved"] for sim in passes),
             "arrivals == completed + rejected + shed + failed"),
            ("compactions", last["mutate.compactions"] >= 3,
             f"{last['mutate.compactions']} simulated compactions")]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Rq3Sweep, Kf1Replay, ServeCluster,
                              MutateDurable)}
