"""The recovery study: exercise the crash x corruption matrix.

``repro recover`` builds a small real engine (sealed segments *and*
unsealed growing rows, deletes, payloads), then attacks its durable
store every way the fault layer knows how, checking the three recovery
invariants the durability design promises:

1. **Crash consistency** — for every declared crash point (and
   occurrence, and torn-write variant) injected during ``save``, a
   subsequent ``load()`` returns exactly the prior committed state or
   exactly the new one, never a hybrid — decided by bit-comparing query
   results (ids *and* distances) against both reference engines.
2. **Scrub completeness** — after seeded byte flips in committed
   files, ``scrub()`` attributes damage in 100% of the corrupted
   files, and ``load()`` refuses the store.
3. **Recovery fidelity** — an engine recovered after a crash (plus
   ``repair()``) answers queries bit-identically to a never-crashed
   engine in the same state, and a torn WAL tail is truncated to the
   longest valid prefix.

The study is deterministic under its seed; ``--quick`` shrinks the
matrix for CI smoke use.
"""

from __future__ import annotations

import shutil
import tempfile
import typing as t
from pathlib import Path

import numpy as np

from repro.core.report import format_table
from repro.core.study import Study, silent
from repro.data.synthetic import make_vectors
from repro.durability import (SAVE_CRASH_POINTS, load_wal, repair,
                              save_engine, scrub, WalAppender)
from repro.durability.store import load_engine
from repro.engines.engine import IndexSpec, VectorEngine
from repro.errors import CorruptionError, InjectedCrash
from repro.faults.crash import CorruptionPlan, CrashInjector, CrashPlan


def _fingerprint(engine: VectorEngine, queries: np.ndarray,
                 ) -> list[tuple[bytes, bytes]]:
    """Bit-exact search results: (ids, dists) bytes per query."""
    out = []
    for query in queries:
        result = engine.search("docs", query, 5, ef_search=40)
        out.append((result.ids.tobytes(), result.dists.tobytes()))
    return out


def _build_engine(data: np.ndarray, extra: np.ndarray) -> VectorEngine:
    engine = VectorEngine("milvus")
    engine.create_collection(
        "docs", data.shape[1],
        IndexSpec.of("hnsw", M=8, ef_construction=32), storage_dim=64)
    engine.insert("docs", data,
                  payloads=[{"group": int(i % 3)}
                            for i in range(len(data))])
    engine.flush("docs")
    engine.insert("docs", extra)    # unsealed rows: the WAL-replay path
    engine.delete("docs", [0, 1, int(len(data))])
    return engine


def _crash_cells(quick: bool) -> list[tuple[str, int, float | None]]:
    cells: list[tuple[str, int, float | None]] = []
    for point in SAVE_CRASH_POINTS:
        occurrences = (0,) if quick or point.startswith("save.manifest") \
            or point == "save.cleanup" else (0, 2)
        for occurrence in occurrences:
            cells.append((point, occurrence, None))
            if point.endswith(".write") and (not quick
                                             or point == "save.manifest.write"):
                cells.append((point, occurrence, 0.5))
    return cells


def run_recover_study(dataset: str | None = None, quick: bool = False,
                      seed: int = 42,
                      progress: t.Callable[[str], None] = silent,
                      ) -> dict[str, t.Any]:
    """Run the full crash x corruption matrix; returns report data.

    *dataset* is ignored: the study attacks a small synthetic engine it
    builds itself.
    """
    n = 120 if quick else 240
    data = make_vectors(n, 16, n_clusters=8, seed=seed, latent_dim=6)
    extra = make_vectors(24, 16, n_clusters=4, seed=seed + 1,
                         latent_dim=6)
    rng = np.random.default_rng(seed)
    queries = data[rng.integers(0, n, size=4 if quick else 8)]

    crash_rows = []
    workdir = Path(tempfile.mkdtemp(prefix="repro-recover-"))
    try:
        for point, occurrence, torn in _crash_cells(quick):
            progress(f"crash at {point} (occurrence {occurrence})")
            root = workdir / f"{point}-{occurrence}-{torn}"
            old_engine = _build_engine(data, extra)
            save_engine(old_engine, root)
            old_prints = _fingerprint(old_engine, queries)
            # Mutations that visibly move every query's top-k: delete
            # the current best hit of query 0 and insert exact
            # duplicates of all queries — otherwise "old" and "new"
            # would be indistinguishable and the matrix vacuous.
            best = old_engine.search("docs", queries[0], 1,
                                     ef_search=40).ids
            old_engine.delete("docs", [int(best[0])])
            old_engine.insert("docs", queries)
            new_prints = _fingerprint(old_engine, queries)
            if new_prints == old_prints:
                raise AssertionError(
                    "recover study: old and new states fingerprint "
                    "identically; the matrix would prove nothing")
            injector = CrashInjector(
                CrashPlan.of(point, occurrence, torn_fraction=torn))
            crashed = False
            try:
                save_engine(old_engine, root, crash=injector)
            except InjectedCrash:
                crashed = True
            recovered = load_engine(root)
            prints = _fingerprint(recovered, queries)
            state = ("old" if prints == old_prints else
                     "new" if prints == new_prints else "HYBRID")
            repair(root)
            healthy = scrub(root).ok
            # A recovered engine must be able to carry on: complete the
            # interrupted save and land bit-identically on the new state.
            save_engine(recovered if state == "old" else old_engine, root)
            resumed = (_fingerprint(load_engine(root), queries)
                       == (old_prints if state == "old" else new_prints))
            crash_rows.append({
                "point": point, "occurrence": occurrence, "torn": torn,
                "crashed": crashed, "state": state,
                "repaired_scrub_ok": healthy, "resumed_ok": resumed})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    progress("torn WAL tail + seeded corruption")
    torn_wal = _torn_wal_case(seed)
    corruption = _corruption_case(data, quick, seed)
    verdicts = {
        "crash_consistency": all(
            row["crashed"] and row["state"] in ("old", "new")
            for row in crash_rows),
        "repair_restores_health": all(
            row["repaired_scrub_ok"] for row in crash_rows),
        "bit_identical_resume": all(
            row["resumed_ok"] for row in crash_rows),
        "wal_torn_tail_recovery": torn_wal["ok"],
        "corruption_detection": corruption["ok"],
    }
    return {"crash_matrix": crash_rows, "torn_wal": torn_wal,
            "corruption": corruption, "verdicts": verdicts,
            "quick": quick, "seed": seed}


def _torn_wal_case(seed: int) -> dict[str, t.Any]:
    """Append entries, tear the last record, recover the prefix."""
    from repro.engines.wal import WriteAheadLog
    workdir = Path(tempfile.mkdtemp(prefix="repro-recover-wal-"))
    try:
        path = workdir / "wal.log"
        wal = WriteAheadLog()
        vector = np.arange(8, dtype=np.float32)
        injector = CrashInjector(
            CrashPlan.of("wal.append.write", occurrence=5,
                         torn_fraction=0.5))
        appender = WalAppender(path, crash=injector)
        appended = 0
        try:
            for i in range(8):
                appender.append(wal.append("insert", i, vector))
                appended += 1
        except InjectedCrash:
            pass
        size_before = path.stat().st_size
        recovered = load_wal(path)
        return {"appended": appended, "recovered": len(recovered),
                "truncated_bytes": size_before - path.stat().st_size,
                "ok": (len(recovered) == appended
                       and path.stat().st_size < size_before
                       and [e.row_id for e in recovered.entries]
                       == list(range(appended)))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _corruption_case(data: np.ndarray, quick: bool,
                     seed: int) -> dict[str, t.Any]:
    """Flip committed bytes; scrub must attribute every damaged file."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-recover-rot-"))
    try:
        detected = 0
        injected_files = 0
        load_refused = True
        rounds = 2 if quick else 6
        for round_ in range(rounds):
            root = workdir / f"rot{round_}"
            engine = _build_engine(data, data[:16])
            save_engine(engine, root)
            plan = CorruptionPlan(seed=seed + round_, flips=4)
            damaged = {c.file for c in plan.apply(root)}
            injected_files += len(damaged)
            report = scrub(root)
            flagged = {finding.file for finding in report.corruptions}
            detected += len(damaged & flagged)
            try:
                # The plan only ever flips committed bytes, so a load
                # that does not refuse has deserialized bit rot.
                load_engine(root)
                load_refused = False
            except CorruptionError:
                pass
        return {"injected_files": injected_files, "detected": detected,
                "load_refused": load_refused,
                "ok": detected == injected_files and load_refused}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def render_recover_study(data: dict) -> str:
    """The crash matrix plus the torn-WAL and corruption lines."""
    rows = []
    for row in data["crash_matrix"]:
        torn = "" if row["torn"] is None else f"torn {row['torn']:.0%}"
        rows.append([row["point"], row["occurrence"], torn, row["state"],
                     "yes" if row["repaired_scrub_ok"] else "NO",
                     "yes" if row["resumed_ok"] else "NO"])
    torn_wal = data["torn_wal"]
    rot = data["corruption"]
    return "\n".join([
        format_table(["crash point", "occ", "mode", "recovered",
                      "scrub ok", "resume ok"], rows),
        "",
        f"torn WAL tail: {torn_wal['recovered']}/"
        f"{torn_wal['appended']} entries recovered, "
        f"{torn_wal['truncated_bytes']} torn bytes truncated",
        f"corruption scrub: {rot['detected']}/{rot['injected_files']} "
        f"damaged files attributed; load refused: "
        f"{rot['load_refused']}",
    ])


STUDY = Study(
    name="recover",
    title="Crash & corruption recovery (beyond the paper)",
    blurb="`repro.durability` persists an engine as checksummed record "
          "files under a versioned manifest whose atomic rename is the "
          "single commit point (see docs/DURABILITY.md).  A crash "
          "injected at every declared point of a save recovers to "
          "exactly the old or exactly the new committed state, never a "
          "hybrid; `repair` makes the store scrub clean and the "
          "interrupted save resumes bit-identically; a torn WAL tail "
          "truncates to its longest valid prefix; seeded byte flips "
          "are attributed to every damaged file and refuse to load.",
    run=run_recover_study,
    render=render_recover_study,
    takes_dataset=False,
)
