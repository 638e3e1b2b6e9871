"""Record-framed write-ahead-log files: append, snapshot, recover.

A WAL file is a sequence of framed records (see
:mod:`repro.durability.record`), each carrying one of:

* ``("entry", WalEntry)`` — one logged mutation;
* ``("checkpoint", through)`` — everything with ``sequence <= through``
  is durable in the main store.

Two writers share the format: :func:`save_wal` snapshots a whole
in-memory log atomically (temp + fsync + rename), and
:class:`WalAppender` appends one fsynced record per mutation — the
shape whose tail a power cut can tear.  :func:`load_wal` recovers
either: it accepts the longest valid prefix, *truncates* a torn tail in
place (an incomplete frame at EOF is a write that never completed, so
dropping it is exactly what a real log replay does), and refuses
mid-file damage — a complete frame failing its checksum is corruption,
not a torn write, and silently dropping everything after it would lose
acknowledged mutations.

Replay semantics live with the engine loader
(:func:`repro.durability.store.load_engine`): entries with
``sequence > checkpointed_through`` are re-applied to rebuild the
unsealed (growing) rows.
"""

from __future__ import annotations

import os
import pickle
import typing as t
from pathlib import Path

from repro.durability.atomic import atomic_write_bytes
from repro.durability.record import frame, scan_frames
from repro.engines.wal import WalEntry, WriteAheadLog
from repro.errors import CorruptionError

if t.TYPE_CHECKING:
    from repro.faults.crash import CrashInjector
    from repro.obs.telemetry import RunTelemetry


def wal_payloads(wal: WriteAheadLog) -> list[bytes]:
    """The record payloads of a full snapshot of *wal*."""
    payloads = [pickle.dumps(("entry", entry),
                             protocol=pickle.HIGHEST_PROTOCOL)
                for entry in wal.entries]
    payloads.append(pickle.dumps(("checkpoint", wal.checkpointed_through),
                                 protocol=pickle.HIGHEST_PROTOCOL))
    return payloads


def wal_from_payloads(payloads: t.Sequence[bytes], *,
                      source: str = "<wal>") -> WriteAheadLog:
    """Rebuild an in-memory log from decoded record payloads."""
    wal = WriteAheadLog()
    entries: list[WalEntry] = []
    through = -1
    for index, payload in enumerate(payloads):
        try:
            kind, value = pickle.loads(payload)
        except Exception as exc:
            raise CorruptionError(
                f"{source}: record {index} does not decode: {exc}",
                file=source, record=index) from exc
        if kind == "entry":
            entries.append(value)
        elif kind == "checkpoint":
            through = max(through, int(value))
        else:
            raise CorruptionError(
                f"{source}: record {index} has unknown kind {kind!r}",
                file=source, record=index)
    wal._entries = entries
    wal.checkpointed_through = through
    wal._next_sequence = max(
        [through + 1] + [entry.sequence + 1 for entry in entries])
    return wal


def save_wal(wal: WriteAheadLog, path: str | Path, *,
             crash: "CrashInjector | None" = None) -> None:
    """Atomically snapshot *wal* to a record-framed file."""
    data = b"".join(frame(payload) for payload in wal_payloads(wal))
    atomic_write_bytes(path, data, crash=crash, label="wal.save")


def load_wal(path: str | Path, *, repair_torn: bool = True,
             telemetry: "RunTelemetry | None" = None) -> WriteAheadLog:
    """Recover a log file, truncating a torn tail.

    ``repair_torn=False`` turns the torn-tail case into a
    :class:`~repro.errors.CorruptionError` instead of a truncation
    (for read-only inspection of a suspect file).
    """
    path = Path(path)
    data = path.read_bytes()
    payloads, valid_bytes, problem = scan_frames(data)
    if problem == "torn-frame" and repair_torn:
        with open(path, "r+b") as handle:
            handle.truncate(valid_bytes)
        if telemetry is not None:
            telemetry.on_event("durability", "torn_tail_truncated")
    elif problem is not None:
        raise CorruptionError(
            f"{path.name}: {problem} at record {len(payloads)} "
            f"(byte offset {valid_bytes})",
            file=path.name, record=len(payloads))
    return wal_from_payloads(payloads, source=path.name)


class WalAppender:
    """Append-only writer: one fsynced framed record per mutation.

    This is the write shape a crash can tear mid-record — the crash
    points ``wal.append.write`` (before the record's bytes reach the
    file; a torn plan leaves a prefix) and ``wal.append.fsync``
    (written but not yet durable) let the recovery tests generate
    exactly that file state for :func:`load_wal` to repair.
    """

    def __init__(self, path: str | Path,
                 crash: "CrashInjector | None" = None) -> None:
        self.path = Path(path)
        self.crash = crash
        self.path.touch(exist_ok=True)

    def _append(self, payload: t.Any) -> None:
        data = frame(pickle.dumps(payload,
                                  protocol=pickle.HIGHEST_PROTOCOL))
        if self.crash is not None:
            self.crash.reached("wal.append.write", self.path, data,
                               append=True)
        with open(self.path, "ab") as handle:
            handle.write(data)
            handle.flush()
            if self.crash is not None:
                self.crash.reached("wal.append.fsync", self.path, data)
            os.fsync(handle.fileno())

    def append(self, entry: WalEntry) -> None:
        self._append(("entry", entry))

    def checkpoint(self, through: int) -> None:
        self._append(("checkpoint", through))
