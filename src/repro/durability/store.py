"""The crash-consistent segment store: versioned manifest + record files.

On-disk layout of one saved :class:`~repro.engines.engine.VectorEngine`
(``<root>`` is the path handed to ``save``)::

    <root>/
      MANIFEST                  one framed JSON record: the commit point
      v000001-engine.rec        engine metadata (profile, seed)
      v000001-c0000-meta.rec    collection 0: config, payloads, tombstones
      v000001-c0000-seg0000.rec one sealed segment (vectors + index)
      v000001-c0000-seg0001.rec
      v000001-c0000-wal.rec     the collection's record-framed WAL

Every ``.rec`` file is a sequence of checksummed frames
(:mod:`repro.durability.record`); the unsealed (growing) rows are *not*
stored as a file — they are rebuilt at load time by replaying WAL
entries past ``checkpointed_through``, the way a real log-structured
engine recovers its memtable.

**Commit-point argument.**  A save never touches the previous
version's files: it writes a fresh ``v<N+1>-*`` file set (each via
temp + fsync + atomic rename), then atomically renames the new
``MANIFEST`` over the old one, then deletes the files the new manifest
no longer references.  The manifest rename is therefore the *single*
commit point: a crash anywhere before it leaves the old ``MANIFEST``
naming only old files (all still present — cleanup happens after
commit); a crash after it leaves the new ``MANIFEST`` naming only new
files (all already fsynced — they were written first).  ``load`` reads
only what the manifest names, so it observes exactly the old state or
exactly the new one, never a hybrid; at worst some orphaned files from
the interrupted save linger until ``repair()``.

``scrub`` verifies every manifest-referenced byte (file lengths,
file-level CRC32C, every record frame) and attributes damage to a file
and record; ``repair`` removes the orphans a crash can strand.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import re
import typing as t
from pathlib import Path

from repro.durability.atomic import TMP_SUFFIX, atomic_write_bytes
from repro.durability.record import crc32c, frame, frame_all, read_frames, \
    scan_frames
from repro.durability.walio import wal_from_payloads, wal_payloads
from repro.errors import (CorruptionError, DurabilityError, RecoveryError)

if t.TYPE_CHECKING:
    from repro.engines.engine import VectorEngine
    from repro.faults.crash import CrashInjector
    from repro.obs.telemetry import RunTelemetry

#: The manifest file name — the store's commit point.
MANIFEST_NAME = "MANIFEST"

#: On-disk format version this code writes (and the only one it reads).
FORMAT = 1

_VERSION_PREFIX = re.compile(r"^v(\d{6})-")


@dataclasses.dataclass(frozen=True)
class ManifestEntry:
    """One committed file: name, role, and its expected bytes."""

    name: str
    role: str            # "engine-meta" | "collection-meta" | "segment" | "wal"
    nbytes: int
    crc: int
    collection: str | None = None
    segment_id: int | None = None


@dataclasses.dataclass(frozen=True)
class Manifest:
    """The committed state: format, version, and the exact file set."""

    format: int
    version: int
    entries: tuple[ManifestEntry, ...]

    def to_bytes(self) -> bytes:
        return json.dumps(
            {"format": self.format, "version": self.version,
             "entries": [dataclasses.asdict(e) for e in self.entries]},
            sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, data: bytes, *, source: str = MANIFEST_NAME,
                   ) -> "Manifest":
        try:
            raw = json.loads(data.decode())
            entries = tuple(ManifestEntry(**e) for e in raw["entries"])
            manifest = cls(int(raw["format"]), int(raw["version"]), entries)
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptionError(
                f"{source}: manifest does not decode: {exc}",
                file=source, record=0) from exc
        if manifest.format != FORMAT:
            raise DurabilityError(
                f"{source}: format {manifest.format} is not {FORMAT}")
        return manifest

    def entry(self, role: str, collection: str | None = None,
              ) -> ManifestEntry:
        found = [e for e in self.entries
                 if e.role == role and e.collection == collection]
        if len(found) != 1:
            raise CorruptionError(
                f"manifest names {len(found)} {role!r} files for "
                f"collection {collection!r}, expected 1",
                file=MANIFEST_NAME)
        return found[0]


def read_manifest(root: str | Path) -> Manifest:
    """The committed manifest of the store at *root* (strict)."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise RecoveryError(
            f"{root}: no committed {MANIFEST_NAME}; nothing to recover")
    records = read_frames(path.read_bytes(), source=MANIFEST_NAME)
    if len(records) != 1:
        raise CorruptionError(
            f"{MANIFEST_NAME}: expected 1 record, found {len(records)}",
            file=MANIFEST_NAME)
    return Manifest.from_bytes(records[0])


def _scan_version(root: Path) -> int:
    """Highest version number visible in the directory's file names."""
    best = 0
    for path in root.iterdir():
        match = _VERSION_PREFIX.match(path.name)
        if match:
            best = max(best, int(match.group(1)))
    return best


def _pickled(obj: t.Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def save_engine(engine: "VectorEngine", path: str | Path, *,
                crash: "CrashInjector | None" = None,
                telemetry: "RunTelemetry | None" = None) -> Manifest:
    """Persist *engine* at *path* as a new committed store version."""
    root = Path(path)
    if root.exists() and not root.is_dir():
        raise DurabilityError(
            f"{root}: not a store directory; refusing to replace a file "
            f"that save did not write")
    root.mkdir(parents=True, exist_ok=True)
    version = _scan_version(root) + 1
    prefix = f"v{version:06d}-"
    entries: list[ManifestEntry] = []

    def put(name: str, payloads: t.Sequence[bytes], role: str,
            collection: str | None = None,
            segment_id: int | None = None) -> None:
        data = frame_all(payloads)
        atomic_write_bytes(root / name, data, crash=crash,
                           label="save.data")
        entries.append(ManifestEntry(name, role, len(data), crc32c(data),
                                     collection, segment_id))

    put(f"{prefix}engine.rec",
        [_pickled({"profile": engine.profile, "seed": engine.seed})],
        "engine-meta")
    for index, (name, collection) in enumerate(
            engine._collections.items()):
        stem = f"{prefix}c{index:04d}"
        put(f"{stem}-meta.rec",
            [_pickled({"name": name, "dim": collection.dim,
                       "storage_dim": collection.storage_dim,
                       "index_spec": collection.index_spec,
                       "seed": collection.seed,
                       "tombstones": set(collection.tombstones),
                       "next_row_id": collection._next_row_id,
                       "payloads": collection.payloads})],
            "collection-meta", name)
        for segment in collection.segments:
            put(f"{stem}-seg{segment.segment_id:04d}.rec",
                [_pickled(segment)], "segment", name, segment.segment_id)
        put(f"{stem}-wal.rec", wal_payloads(collection.wal), "wal", name)

    manifest = Manifest(FORMAT, version, tuple(entries))
    atomic_write_bytes(root / MANIFEST_NAME, frame(manifest.to_bytes()),
                       crash=crash, label="save.manifest")
    # -- committed: everything below is post-commit housekeeping ---------
    if crash is not None:
        crash.reached("save.cleanup")
    keep = {entry.name for entry in manifest.entries} | {MANIFEST_NAME}
    for stray in root.iterdir():
        if stray.is_file() and stray.name not in keep:
            stray.unlink()
    if telemetry is not None:
        telemetry.on_event("durability", "saves")
        telemetry.on_event("durability", "records_written",
                           sum(1 for _ in manifest.entries))
    return manifest


def _verified_records(root: Path, entry: ManifestEntry) -> list[bytes]:
    """Read one committed file, enforcing its manifest fingerprint."""
    path = root / entry.name
    if not path.exists():
        raise CorruptionError(f"{entry.name}: committed file is missing",
                              file=entry.name)
    data = path.read_bytes()
    if len(data) != entry.nbytes:
        raise CorruptionError(
            f"{entry.name}: {len(data)} bytes on disk, manifest says "
            f"{entry.nbytes}", file=entry.name)
    records = read_frames(data, source=entry.name)
    if crc32c(data) != entry.crc:
        raise CorruptionError(
            f"{entry.name}: file checksum mismatch", file=entry.name)
    return records


def load_engine(path: str | Path, *,
                telemetry: "RunTelemetry | None" = None) -> "VectorEngine":
    """Recover the committed engine state of the store at *path*."""
    from repro.engines.engine import Collection, VectorEngine
    root = Path(path)
    manifest = read_manifest(root)
    engine_meta = pickle.loads(
        _verified_records(root, manifest.entry("engine-meta"))[0])
    engine = VectorEngine(engine_meta["profile"], engine_meta["seed"])
    metas = [e for e in manifest.entries if e.role == "collection-meta"]
    replayed = 0
    for meta_entry in metas:
        meta = pickle.loads(_verified_records(root, meta_entry)[0])
        name = meta["name"]
        collection = Collection(name, meta["dim"], meta["index_spec"],
                                engine.profile, meta["storage_dim"],
                                seed=meta["seed"])
        collection.payloads = meta["payloads"]
        from repro.mutate.tombstones import Tombstones
        collection.tombstones = Tombstones(meta["tombstones"])
        collection._next_row_id = meta["next_row_id"]
        segment_entries = sorted(
            (e for e in manifest.entries
             if e.role == "segment" and e.collection == name),
            key=lambda e: e.segment_id)
        collection.segments = [
            pickle.loads(_verified_records(root, e)[0])
            for e in segment_entries]
        wal = wal_from_payloads(
            _verified_records(root, manifest.entry("wal", name)),
            source=manifest.entry("wal", name).name)
        collection.wal = wal
        # Replay unsealed mutations to rebuild the growing buffer: the
        # payload/tombstone snapshots already include their effects, so
        # re-applying those parts is idempotent by construction.
        for entry in wal.entries:
            if entry.sequence <= wal.checkpointed_through:
                continue
            if entry.op == "insert":
                collection.growing.append(entry.row_id, entry.vector)
                if entry.row_id not in collection.tombstones:
                    collection.payloads.put(entry.row_id, entry.payload)
            else:
                collection.tombstones.add(entry.row_id)
                collection.payloads.delete(entry.row_id)
            replayed += 1
        engine._collections[name] = collection
    if telemetry is not None:
        telemetry.on_event("durability", "loads")
        if replayed:
            telemetry.on_event("durability", "wal_replayed", replayed)
    return engine


# -- scrub / repair ------------------------------------------------------

#: Finding kinds that mean committed data is damaged (vs. merely untidy).
CORRUPTION_KINDS = ("missing-file", "length-mismatch", "bad-magic",
                    "bad-crc", "torn-frame", "manifest-unreadable")


@dataclasses.dataclass(frozen=True)
class ScrubFinding:
    """One problem the scrubber attributed: which file, which record."""

    file: str
    kind: str
    record: int | None = None
    detail: str = ""

    @property
    def is_corruption(self) -> bool:
        return self.kind in CORRUPTION_KINDS


@dataclasses.dataclass(frozen=True)
class ScrubReport:
    """Everything a full store verification found."""

    findings: tuple[ScrubFinding, ...]
    files_checked: int
    records_checked: int

    @property
    def corruptions(self) -> tuple[ScrubFinding, ...]:
        return tuple(f for f in self.findings if f.is_corruption)

    @property
    def ok(self) -> bool:
        """True when every committed byte verified (orphans allowed)."""
        return not self.corruptions


def scrub(path: str | Path, *,
          telemetry: "RunTelemetry | None" = None) -> ScrubReport:
    """Verify every committed byte of the store at *path*.

    Checks, per manifest-referenced file: existence, exact length,
    file-level CRC32C, and every record frame — attributing each
    failure to a file and (when determinable) a record index.
    Unreferenced files are reported as ``orphan-file`` findings, which
    do not make the store unhealthy (``repair`` removes them).
    """
    root = Path(path)
    findings: list[ScrubFinding] = []
    files_checked = 0
    records_checked = 0
    manifest: Manifest | None = None
    try:
        manifest = read_manifest(root)
        files_checked += 1   # the manifest itself parsed and verified
    except CorruptionError as exc:
        findings.append(ScrubFinding(MANIFEST_NAME, "manifest-unreadable",
                                     exc.record, str(exc)))
    by_name = ({e.name: e for e in manifest.entries}
               if manifest is not None else {})
    for name in sorted(by_name):
        if not (root / name).exists():
            findings.append(ScrubFinding(name, "missing-file"))
    # Every record file is self-verifying (each frame carries its own
    # CRC), so frames are scanned even when the manifest is damaged —
    # one flipped manifest byte must not mask damage elsewhere.
    scannable = sorted(p.name for p in root.iterdir() if p.is_file()
                       and p.name != MANIFEST_NAME
                       and not p.name.endswith(TMP_SUFFIX)
                       ) if root.is_dir() else []
    for name in scannable:
        files_checked += 1
        data = (root / name).read_bytes()
        records, valid_bytes, problem = scan_frames(data)
        records_checked += len(records)
        entry = by_name.get(name)
        if problem is not None:
            findings.append(ScrubFinding(name, problem, len(records),
                                         f"byte offset {valid_bytes}"))
        elif entry is not None and len(data) != entry.nbytes:
            findings.append(ScrubFinding(
                name, "length-mismatch", None,
                f"{len(data)} bytes vs manifest {entry.nbytes}"))
        elif entry is not None and crc32c(data) != entry.crc:
            findings.append(ScrubFinding(name, "bad-crc"))
        if entry is None and manifest is not None:
            findings.append(ScrubFinding(name, "orphan-file"))
    if root.is_dir():
        for stray in sorted(root.iterdir()):
            if stray.is_file() and stray.name.endswith(TMP_SUFFIX):
                findings.append(ScrubFinding(stray.name, "orphan-file"))
    report = ScrubReport(tuple(findings), files_checked, records_checked)
    if telemetry is not None:
        telemetry.on_event("durability", "scrubs")
        telemetry.on_event("durability", "records_verified", records_checked)
        if report.corruptions:
            telemetry.on_event("durability", "scrub_findings",
                               len(report.corruptions))
    return report


@dataclasses.dataclass(frozen=True)
class RepairReport:
    """What ``repair`` cleaned up."""

    removed: tuple[str, ...]


def repair(path: str | Path, *,
           telemetry: "RunTelemetry | None" = None) -> RepairReport:
    """Remove the orphans an interrupted save can strand.

    Deletes in-flight temp files and files no longer (or never)
    referenced by the committed manifest.  Never touches a referenced
    file: damage to committed data is *detected* (by ``scrub``/``load``)
    but cannot be regenerated from a single copy, so it is surfaced,
    not silently "fixed".  Stores without any committed manifest only
    lose their temp files — data files are kept for forensics.
    """
    root = Path(path)
    try:
        manifest: Manifest | None = read_manifest(root)
    except (RecoveryError, CorruptionError):
        manifest = None
    referenced = {MANIFEST_NAME}
    if manifest is not None:
        referenced |= {entry.name for entry in manifest.entries}
    removed = []
    for stray in sorted(root.iterdir()) if root.is_dir() else []:
        if not stray.is_file() or stray.name in referenced:
            continue
        if manifest is not None or stray.name.endswith(TMP_SUFFIX):
            stray.unlink()
            removed.append(stray.name)
    if telemetry is not None and removed:
        telemetry.on_event("durability", "repair_removed", len(removed))
    return RepairReport(tuple(removed))
