"""The checksummed segment store: save/load, versioning, scrub, repair."""

import numpy as np
import pytest

from repro.data.synthetic import make_vectors
from repro.durability import (MANIFEST_NAME, load_engine, read_manifest,
                              repair, save_engine, scrub)
from repro.engines.engine import IndexSpec, VectorEngine
from repro.errors import (CorruptionError, DurabilityError,
                          RecoveryError)
from repro.faults.crash import CorruptionPlan
from repro.obs import RunTelemetry
from tests.durability.reference_crc32c import crc32c as byte_loop_crc32c


@pytest.fixture(scope="module")
def vectors():
    return make_vectors(160, 16, n_clusters=6, seed=11, latent_dim=6)


@pytest.fixture
def engine(vectors):
    engine = VectorEngine("milvus")
    engine.create_collection("docs", 16,
                             IndexSpec.of("hnsw", M=8, ef_construction=32),
                             storage_dim=64)
    engine.insert("docs", vectors[:120],
                  payloads=[{"group": int(i % 4)} for i in range(120)])
    engine.flush("docs")
    engine.insert("docs", vectors[120:])   # unsealed rows (WAL replay)
    engine.delete("docs", [2, 125])
    return engine


def assert_same_answers(a, b, vectors, params=None):
    params = params or {"ef_search": 40}
    for query in vectors[:8]:
        ra = a.search("docs", query, 5, **params)
        rb = b.search("docs", query, 5, **params)
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)


class TestSaveLoad:
    def test_roundtrip_is_bit_identical(self, engine, vectors, tmp_path):
        root = tmp_path / "engine.db"
        engine.save(root)
        recovered = VectorEngine.load(root)
        assert_same_answers(engine, recovered, vectors)
        assert recovered.collection("docs").payloads.get(1) == {"group": 1}
        assert recovered.collection("docs").tombstones == {2, 125}

    def test_growing_rows_come_back_via_wal_replay(self, engine,
                                                   tmp_path):
        root = tmp_path / "engine.db"
        engine.save(root)
        recovered = VectorEngine.load(root)
        collection = recovered.collection("docs")
        assert len(collection.growing) == 40
        assert collection.num_rows == engine.collection("docs").num_rows
        # Row ids keep advancing from where the saved engine stopped.
        new = recovered.insert("docs", np.zeros((1, 16), dtype=np.float32))
        assert int(new[0]) == engine.collection("docs")._next_row_id

    def test_resave_bumps_version_and_cleans_old_files(self, engine,
                                                       tmp_path):
        root = tmp_path / "engine.db"
        engine.save(root)
        first = {p.name for p in root.iterdir()}
        engine.insert("docs", np.ones((1, 16), dtype=np.float32))
        engine.save(root)
        second = {p.name for p in root.iterdir()}
        assert read_manifest(root).version == 2
        assert all(name.startswith("v000002-") for name in
                   second - {MANIFEST_NAME})
        assert not (first - {MANIFEST_NAME}) & second

    def test_load_missing_store_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            load_engine(tmp_path / "nope.db")

    def test_save_onto_a_file_raises_and_keeps_it(self, engine, tmp_path):
        blob = tmp_path / "engine.db"
        blob.write_bytes(b"somebody's only copy")
        with pytest.raises(DurabilityError, match="not a store directory"):
            engine.save(blob)
        assert blob.read_bytes() == b"somebody's only copy"
        with pytest.raises(RecoveryError):
            VectorEngine.load(blob)

    def test_empty_engine_roundtrips(self, tmp_path):
        engine = VectorEngine("qdrant", seed=3)
        engine.save(tmp_path / "empty.db")
        recovered = VectorEngine.load(tmp_path / "empty.db")
        assert recovered.list_collections() == []
        assert recovered.profile.name == "qdrant"
        assert recovered.seed == 3

    def test_telemetry_counts_save_load_and_replay(self, engine,
                                                   tmp_path):
        telemetry = RunTelemetry()
        save_engine(engine, tmp_path / "e.db", telemetry=telemetry)
        load_engine(tmp_path / "e.db", telemetry=telemetry)
        counters = {name: c.value
                    for name, c in telemetry.counters.items()}
        assert counters["durability_saves"] == 1
        assert counters["durability_loads"] == 1
        # 40 inserts + 2 post-flush deletes replayed past the checkpoint.
        assert counters["durability_wal_replayed"] == 42


class TestCrcCompatibility:
    """The vectorised CRC-32C is a speed-up, not a format change."""

    @pytest.mark.parametrize("seed_side", ["writer", "reader"])
    def test_stores_cross_between_the_seed_crc_and_this_one(
            self, engine, vectors, tmp_path, monkeypatch, seed_side):
        import repro.durability.record
        import repro.durability.store

        def use_byte_loop():
            for module in (repro.durability.record, repro.durability.store):
                monkeypatch.setattr(module, "crc32c", byte_loop_crc32c)

        root = tmp_path / "engine.db"
        if seed_side == "writer":
            use_byte_loop()
        engine.save(root)
        monkeypatch.undo()
        if seed_side == "reader":
            use_byte_loop()
        report = scrub(root)
        assert report.ok and report.records_checked > 1
        assert_same_answers(engine, VectorEngine.load(root), vectors)


class TestScrubAndRepair:
    def test_clean_store_scrubs_ok(self, engine, tmp_path):
        engine.save(tmp_path / "e.db")
        report = scrub(tmp_path / "e.db")
        assert report.ok
        assert report.files_checked >= 4
        assert report.records_checked > 1

    @pytest.mark.parametrize("seed", range(5))
    def test_scrub_attributes_every_injected_corruption(self, engine,
                                                        tmp_path, seed):
        root = tmp_path / "e.db"
        engine.save(root)
        damaged = {c.file for c in
                   CorruptionPlan(seed=seed, flips=4).apply(root)}
        report = scrub(root)
        assert not report.ok
        flagged = {finding.file for finding in report.corruptions}
        assert damaged <= flagged

    def test_load_refuses_corrupted_store(self, engine, tmp_path):
        root = tmp_path / "e.db"
        engine.save(root)
        CorruptionPlan(seed=1, flips=3).apply(root)
        with pytest.raises(CorruptionError):
            load_engine(root)

    def test_missing_committed_file_is_flagged_and_refused(self, engine,
                                                           tmp_path):
        root = tmp_path / "e.db"
        engine.save(root)
        victim = next(p for p in root.iterdir()
                      if p.name.endswith("-wal.rec"))
        victim.unlink()
        assert any(f.kind == "missing-file"
                   for f in scrub(root).corruptions)
        with pytest.raises(CorruptionError):
            load_engine(root)

    def test_repair_removes_orphans_but_not_committed_files(self, engine,
                                                            tmp_path):
        root = tmp_path / "e.db"
        engine.save(root)
        (root / "v000009-stray.rec").write_bytes(b"leftover")
        (root / "MANIFEST.tmp").write_bytes(b"torn")
        report = repair(root)
        assert set(report.removed) == {"v000009-stray.rec",
                                       "MANIFEST.tmp"}
        assert scrub(root).ok
        assert VectorEngine.load(root).list_collections() == ["docs"]

    def test_scrub_scans_data_files_even_with_damaged_manifest(
            self, engine, tmp_path):
        root = tmp_path / "e.db"
        engine.save(root)
        seg = next(p for p in sorted(root.iterdir())
                   if "-seg" in p.name)
        blob = bytearray(seg.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        seg.write_bytes(bytes(blob))
        manifest = root / MANIFEST_NAME
        manifest.write_bytes(b"not a manifest")
        kinds = {(f.file, f.kind) for f in scrub(root).corruptions}
        assert (MANIFEST_NAME, "manifest-unreadable") in kinds
        assert any(file == seg.name for file, _ in kinds)
