"""The mutability study: reads under sustained writes (``repro mutate``).

The paper benchmarks build-then-query snapshots; production vector
databases answer queries *while* ingesting.  This study measures what
streaming mutability costs on the same simulated hardware, in two
parts:

1. **Functional identity** — for each index kind, an interleaved
   insert/delete/flush history is searched through the snapshot+delta
   merge path and compared bit-for-bit (ids *and* distances) against a
   freshly built index over the same live rows; then the collection is
   compacted and compared again.  This is the tentpole invariant of
   :mod:`repro.mutate` (property-tested exhaustively in
   ``tests/mutate``); the study demonstrates it on every kind it runs.
2. **Interference** — an open-loop Poisson read load at a fraction of
   the probed saturation QPS runs twice: read-only, and concurrently
   with a :class:`~repro.mutate.MutationLoad` whose WAL flushes and
   threshold-triggered background compactions share the device and
   cores.  Reported: recall (unchanged — the merge is bit-identical),
   P99 and goodput with and without writes, and query latency inside
   vs outside the compaction windows — the interference window the
   span telemetry makes visible.

Every number is seeded and deterministic; the ``verdicts`` dict is
asserted by the CLI exit code and CI.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.core.report import fmt, format_table
from repro.core.study import Study, silent
from repro.data.synthetic import make_vectors
from repro.engines.engine import IndexSpec, VectorEngine
from repro.engines.profiles import get_profile
from repro.mutate.policy import CompactionPolicy
from repro.mutate.simproc import MutationLoad
from repro.serve.arrivals import PoissonArrivals
from repro.serve.result import ServeResult
from repro.serve.server import ServeConfig, Server, TenantLoad
from repro.serve.study import serve_row
from repro.workload.setup import make_runner

#: (kind, build params, exact search params) — parameters chosen so
#: every base-index search is exhaustive over its candidate structure,
#: making the merged-vs-rebuilt comparison exact for ties too.
IDENTITY_ROWS = 160
IDENTITY_SETUPS: tuple[tuple[str, dict, dict], ...] = (
    ("flat", {}, {}),
    ("ivf", {"nlist": 8}, {"nprobe": 8}),
    ("ivf-pq", {"nlist": 8, "pq_m": 4}, {"nprobe": 8}),
    ("hnsw", {"M": 16, "ef_construction": 200},
     {"ef_search": IDENTITY_ROWS}),
    ("diskann", {"R": 32, "L_build": 64, "alpha": 1.2},
     {"search_list": IDENTITY_ROWS}),
    ("spann", {"n_postings": 8}, {"nprobe": 8, "prune_eps": 10.0}),
)


def _identity_engine() -> VectorEngine:
    profile = get_profile("milvus")
    profile = dataclasses.replace(
        profile,
        supported_indexes=profile.supported_indexes + ("spann", "ivf-pq"))
    return VectorEngine(profile, seed=0)


def identity_check(kind: str, build: dict, search: dict, metric: str,
                   seed: int = 0) -> dict[str, t.Any]:
    """One interleaved history vs a fresh rebuild, pre and post compact.

    Returns per-kind verdict material: whether every query's (ids,
    dists) matched bit-for-bit through the merge path, and again after
    compaction.
    """
    dim = 16
    base = make_vectors(IDENTITY_ROWS - 40, dim, n_clusters=6,
                        seed=seed, latent_dim=6)
    data = np.vstack([base, base[:40]])        # duplicates: tie coverage
    rng = np.random.default_rng(seed + 1)
    queries = (data[rng.integers(0, len(data), size=8)]
               + rng.standard_normal((8, dim)).astype(np.float32) * 0.05)

    spec = IndexSpec.of(kind, metric=metric, **build)
    eng = _identity_engine()
    col = eng.create_collection("m", dim, spec)
    col.insert(data[:100])
    col.flush()
    col.insert(data[100:140])
    dead = [3, 17, 60, 99, 101, 139, 150]
    col.delete(dead)
    col.insert(data[140:])                     # unsealed delta rows
    live = sorted(set(range(len(data))) - set(dead))

    ref = _identity_engine().create_collection(
        "r", dim, IndexSpec.of(kind, metric=metric, **build))
    ref.insert(data[live])
    ref.flush()

    def matches() -> bool:
        for q in queries:
            got = col.search(q, 10, **search)
            want = ref.search(q, 10, **search)
            mapped = np.asarray([live[i] for i in want.ids],
                                dtype=np.int64)
            if not (np.array_equal(got.ids, mapped)
                    and np.array_equal(got.dists, want.dists)):
                return False
        return True

    merged_ok = matches()
    stats = col.compact()
    compacted_ok = matches() and len(col.tombstones) == 0
    return {"kind": kind, "metric": metric, "live_rows": len(live),
            "merged_identical": merged_ok,
            "compacted_identical": compacted_ok,
            "rows_dropped": stats["rows_dropped"]}


def _window_split(result: ServeResult) -> dict[str, t.Any]:
    """Query latencies inside vs outside the compaction windows."""
    spans = result.telemetry.spans
    stats = result.mutation
    inside = [s.latency_s for s in spans
              if stats.in_window(s.start_s, s.end_s)]
    outside = [s.latency_s for s in spans
               if not stats.in_window(s.start_s, s.end_s)]
    mean = lambda xs: float(np.mean(xs)) if xs else float("nan")  # noqa: E731
    return {"in_window_queries": len(inside),
            "out_window_queries": len(outside),
            "in_window_mean_ms": mean(inside) * 1e3,
            "out_window_mean_ms": mean(outside) * 1e3}


def mutate_study(dataset: str = "cohere-1m", duration_s: float = 0.5,
                 seed: int = 0, quick: bool = False,
                 progress: t.Callable[[str], None] = silent) -> dict:
    """Run the full mutability study; see the module docstring.

    ``quick`` checks two index kinds under one metric and serves a
    0.3 s window.
    """
    if quick:
        duration_s = min(duration_s, 0.3)
    data: dict[str, t.Any] = {"dataset": dataset, "duration_s": duration_s,
                              "seed": seed}
    verdicts: dict[str, bool] = {}

    setups = IDENTITY_SETUPS[:2] if quick else IDENTITY_SETUPS
    metrics = ("l2",) if quick else ("l2", "cosine")
    rows = []
    for kind, build, search in setups:
        for metric in metrics:
            progress(f"identity: {kind}/{metric}")
            rows.append(identity_check(kind, build, search, metric,
                                       seed=seed))
    data["identity"] = rows
    verdicts["merged_search_bit_identical"] = all(
        r["merged_identical"] for r in rows)
    verdicts["compaction_preserves_identity"] = all(
        r["compacted_identical"] for r in rows)

    progress("interference: closed-loop saturation probe")
    runner = make_runner("milvus-diskann", dataset)
    params = {"search_list": 50}
    probe = runner.run(8, params, duration_s=min(duration_s, 0.2))
    offered = 0.6 * probe.qps
    deadline = max(20.0 * probe.p99_latency_s, 1e-3)
    data["probe"] = {"qps": probe.qps,
                     "p99_ms": probe.p99_latency_s * 1e3,
                     "offered_qps": offered,
                     "slo_deadline_ms": deadline * 1e3}

    def run(mutation: MutationLoad | None) -> ServeResult:
        config = ServeConfig(
            tenants=(TenantLoad("readers",
                                PoissonArrivals(rate_qps=offered)),),
            duration_s=duration_s, seed=seed, max_inflight=8,
            slo_deadline_s=deadline, search_params=params,
            mutation=mutation)
        return Server(runner, config, telemetry=True).serve()

    # Sized so the delta threshold trips a few times per window and
    # each compaction re-reads the whole (growing) base snapshot.
    load = MutationLoad(
        insert_qps=50_000.0, delete_qps=5_000.0, batch_rows=64,
        policy=CompactionPolicy(delta_rows=4_000,
                                tombstone_fraction=0.5),
        rebuild_cpu_per_row_s=5e-6, write_amplification=2.0)
    data["load"] = {
        "insert_qps": load.insert_qps, "delete_qps": load.delete_qps,
        "batch_rows": load.batch_rows,
        "delta_rows_threshold": load.policy.delta_rows,
        "tombstone_fraction": load.policy.tombstone_fraction}

    progress("interference: read-only baseline")
    baseline = run(None)
    progress("interference: sustained inserts+deletes")
    mutated = run(load)
    stats = mutated.mutation

    data["baseline"] = serve_row(baseline)
    data["mutated"] = dict(
        serve_row(mutated),
        inserted_rows=stats.inserted_rows,
        deleted_rows=stats.deleted_rows,
        wal_mib=stats.wal_bytes / 2**20,
        compactions=stats.compactions,
        compaction_windows_ms=[
            [start * 1e3, end * 1e3]
            for start, end in stats.compaction_windows],
        compaction_read_mib=stats.compaction_read_bytes / 2**20,
        compaction_write_mib=stats.compaction_write_bytes / 2**20)
    window = _window_split(mutated)
    data["window"] = window

    compact_hist = mutated.telemetry.stage_latency.get("compact")
    verdicts["compaction_triggered"] = stats.compactions >= 1
    verdicts["compact_stage_in_spans"] = (
        compact_hist is not None
        and compact_hist.count == stats.compactions
        and len(mutated.telemetry.compaction_spans) == stats.compactions)
    verdicts["writes_inflate_p99"] = bool(
        mutated.p99_latency_s > baseline.p99_latency_s)
    verdicts["compaction_window_visible"] = bool(
        window["in_window_queries"] > 0
        and window["out_window_queries"] > 0
        and window["in_window_mean_ms"] > window["out_window_mean_ms"])
    verdicts["recall_unchanged"] = mutated.recall == baseline.recall

    data["verdicts"] = verdicts
    return data


def render_mutate_study(data: dict) -> str:
    """Tables for the streaming-mutability study (``repro mutate``).

    The per-kind merged-search identity table, the read-only vs
    read+write interference comparison, the compaction ledger with its
    windows, and the in-vs-out-of-window latency split.
    """
    identity_rows = [
        [row["kind"], row["metric"], row["live_rows"],
         "bit-identical" if row["merged_identical"] else "DRIFT",
         "bit-identical" if row["compacted_identical"] else "DRIFT"]
        for row in data["identity"]]
    probe = data["probe"]
    load = data["load"]
    base, mut = data["baseline"], data["mutated"]
    compare_rows = [
        [label, fmt(row["qps"], 0), fmt(row["goodput_qps"], 0),
         fmt(row["recall"], 3), fmt(row["p50_ms"], 2),
         fmt(row["p99_ms"], 2), row["slo_misses"]]
        for label, row in (("read-only", base), ("reads+writes", mut))]
    window = data["window"]
    windows = ", ".join(f"{start:.0f}-{end:.0f}"
                        for start, end in mut["compaction_windows_ms"])
    return "\n".join([
        f"[{data['dataset']}] mutability study, "
        f"window={data['duration_s']}s, seed={data['seed']}",
        "",
        "merged search (snapshot + delta - tombstones) vs fresh "
        "rebuild over the live rows:",
        format_table(["kind", "metric", "live rows", "merged",
                      "after compaction"], identity_rows),
        "",
        f"offered load: {probe['offered_qps']:.0f} QPS "
        f"(0.6x the {probe['qps']:.0f} QPS closed-loop saturation), "
        f"SLO {probe['slo_deadline_ms']:.1f} ms",
        f"write stream: {load['insert_qps']:.0f} inserts/s + "
        f"{load['delete_qps']:.0f} deletes/s, compaction at "
        f"{load['delta_rows_threshold']} delta rows",
        "",
        format_table(["config", "QPS", "goodput", "recall@10", "p50 ms",
                      "p99 ms", "late"], compare_rows),
        "",
        f"mutation ledger: {mut['inserted_rows']} rows in / "
        f"{mut['deleted_rows']} deleted, "
        f"{mut['wal_mib']:.1f} MiB WAL, "
        f"{mut['compactions']} compactions "
        f"({mut['compaction_read_mib']:.0f} MiB read, "
        f"{mut['compaction_write_mib']:.0f} MiB written)",
        f"compaction windows (ms): {windows}",
        f"query latency: {window['in_window_mean_ms']:.2f} ms mean "
        f"inside the windows ({window['in_window_queries']} queries) vs "
        f"{window['out_window_mean_ms']:.2f} ms outside "
        f"({window['out_window_queries']})",
    ])


STUDY = Study(
    name="mutate",
    title="Streaming mutability (beyond the paper)",
    blurb="The paper benchmarks build-then-query snapshots; "
          "`repro.mutate` answers queries while ingesting (see "
          "docs/MUTABILITY.md).  A merged snapshot + delta − tombstones "
          "search is bit-identical to a fresh rebuild over the live "
          "rows, before and after compaction; a sustained write stream "
          "sharing the device inflates read P99 at unchanged recall, "
          "and the compaction windows are visible in per-query "
          "latency.",
    run=mutate_study,
    render=render_mutate_study,
)
