"""Compaction behaviour: merge, policy gating, accounting, commit."""

import numpy as np
import pytest

from repro.api import open_engine, open_saved
from repro.engines.engine import IndexSpec, VectorEngine
from repro.errors import EngineError
from repro.mutate import (CompactionPolicy, DeltaLog, Tombstones,
                          compact_collection, compact_engine)
from repro.obs import RunTelemetry

from tests.mutate.conftest import EXACT_SETUPS, mutate_profile


def build_collection(pool, kind="hnsw", metric="l2", **build):
    spec = IndexSpec.of(kind, metric=metric, **build)
    collection = VectorEngine(mutate_profile(), seed=0).create_collection(
        "mut", pool.shape[1], spec)
    collection.insert(pool[:64])
    collection.flush()
    collection.insert(pool[64:])
    collection.delete([2, 9, 70])
    return collection


class TestCompactMerge:
    @pytest.mark.parametrize("kind,build,search",
                             EXACT_SETUPS, ids=lambda s: str(s)[:12])
    def test_compacted_state_matches_fresh_build(self, pool, pool_queries,
                                                 kind, build, search):
        collection = build_collection(pool, kind, **build)
        live = sorted(set(range(len(pool))) - {2, 9, 70})
        collection.compact()
        ref = VectorEngine(mutate_profile(), seed=0).create_collection(
            "ref", pool.shape[1],
            IndexSpec.of(kind, metric="l2", **build))
        ref.insert(pool[live])
        ref.flush()
        for q in pool_queries:
            got = collection.search(q, 10, **search)
            want = ref.search(q, 10, **search)
            mapped = np.asarray([live[i] for i in want.ids],
                                dtype=np.int64)
            assert np.array_equal(got.ids, mapped)
            assert np.array_equal(got.dists, want.dists)

    def test_compact_drops_tombstones_and_truncates_wal(self, pool):
        collection = build_collection(pool)
        assert len(collection.tombstones) == 3
        assert collection.wal.pending()
        stats = collection.compact()
        assert stats["rows_dropped"] == 3
        assert stats["rows_kept"] == len(pool) - 3
        assert len(collection.tombstones) == 0
        assert not collection.wal.pending()
        assert not collection.wal.entries
        assert len(collection.growing) == 0
        assert collection.total_rows == len(pool) - 3

    def test_compact_reports_io_accounting(self, pool):
        collection = build_collection(pool)
        before = sum(seg.vectors.nbytes + seg.index.disk_bytes()
                     for seg in collection.segments)
        stats = collection.compact()
        assert stats["bytes_read"] >= before
        assert stats["bytes_written"] > 0
        assert stats["segments_before"] == 1
        assert stats["segments_after"] >= 1

    def test_compact_everything_deleted(self, pool):
        collection = build_collection(pool)
        collection.delete(range(len(pool)))
        stats = collection.compact()
        assert stats["rows_kept"] == 0
        assert collection.total_rows == 0
        assert collection.segments == []


class TestPolicy:
    def test_thresholds(self):
        policy = CompactionPolicy(delta_rows=10, tombstone_fraction=0.5)
        assert not policy.should_compact(9, 0, 100)
        assert policy.should_compact(10, 0, 100)
        assert policy.should_compact(0, 50, 100)
        assert not policy.should_compact(0, 49, 100)
        assert not policy.should_compact(0, 0, 0)

    @pytest.mark.parametrize("kwargs", [
        {"delta_rows": 0}, {"tombstone_fraction": 0.0},
        {"tombstone_fraction": 1.5}, {"delta_rows": 2.5},
        {"delta_rows": True}])
    def test_validation(self, kwargs):
        with pytest.raises(EngineError):
            CompactionPolicy(**kwargs)


class TestDeltaLog:
    def test_accounting(self, pool):
        collection = build_collection(pool)
        log = DeltaLog(collection)
        assert log.pending_inserts == len(pool) - 64
        assert log.pending_deletes == 3
        assert log.nbytes == sum(e.entry_bytes() for e in log.entries())
        assert log.nbytes > 0
        assert "DeltaLog" in repr(log)
        collection.compact()
        assert DeltaLog(collection).pending_inserts == 0
        assert DeltaLog(collection).nbytes == 0


class TestTombstones:
    def test_set_semantics_and_helpers(self):
        dead = Tombstones([3, 7])
        assert dead.alive([2, 3, 7, 8]).tolist() == [True, False,
                                                     False, True]
        assert dead.filter([2, 3, 7, 8]) == [2, 8]
        assert isinstance(dead, set)

    def test_survives_durability_roundtrip(self, pool, tmp_path):
        session = open_engine()
        session.create("d", dim=pool.shape[1], index="flat")
        session.insert("d", pool[:10], flush=True)
        session.delete("d", [1, 3])
        session.save(str(tmp_path / "store"))
        loaded = open_saved(str(tmp_path / "store"))
        tombs = loaded.collection("d").tombstones
        assert isinstance(tombs, Tombstones)
        assert sorted(tombs) == [1, 3]


class TestCompactEngine:
    def test_policy_gates_the_merge(self, pool):
        collection = build_collection(pool)
        engine = collection_engine(collection)
        lazy = CompactionPolicy(delta_rows=10_000,
                                tombstone_fraction=0.99)
        assert compact_engine(engine, "mut", policy=lazy) is None
        assert len(collection.tombstones) == 3
        eager = CompactionPolicy(delta_rows=1)
        report = compact_engine(engine, "mut", policy=eager)
        assert report is not None
        assert report.rows_dropped == 3
        assert not report.committed

    def test_commit_via_manifest_swap(self, pool, tmp_path):
        collection = build_collection(pool)
        engine = collection_engine(collection)
        root = tmp_path / "store"
        report = compact_engine(engine, "mut", path=root)
        assert report.committed
        loaded = open_saved(str(root))
        assert len(loaded.collection("mut").tombstones) == 0
        q = pool[5]
        want = collection.search(q, 5)
        got = loaded.collection("mut").search(q, 5)
        assert np.array_equal(want.ids, got.ids)
        assert np.array_equal(want.dists, got.dists)

    def test_telemetry_counters(self, pool):
        collection = build_collection(pool)
        engine = collection_engine(collection)
        telemetry = RunTelemetry()
        report = compact_collection(collection, telemetry=telemetry)
        counters = telemetry.summary()["counters"]
        assert counters["mutate_compactions"] == 1
        assert counters["mutate_compacted_rows_kept"] == report.rows_kept
        assert (counters["mutate_compacted_rows_dropped"]
                == report.rows_dropped)
        assert engine is not None


def collection_engine(collection):
    """Wrap an orphan test collection in an engine that owns it."""
    engine = VectorEngine(mutate_profile(), seed=0)
    engine._collections[collection.name] = collection
    return engine
