"""A write-ahead log for durability and log-size accounting.

Two roles:

* **functional durability** — every mutation (insert/delete) is
  appended before being applied; a collection can be rebuilt by
  replaying the log, and the log persists to a checksummed,
  record-framed file (:mod:`repro.durability.walio`) whose recovery
  truncates torn tails;
* **size accounting** — each entry estimates its serialized size
  (:meth:`WalEntry.entry_bytes`), summed by
  :meth:`WriteAheadLog.total_bytes` and by :attr:`DeltaLog.nbytes
  <repro.mutate.DeltaLog.nbytes>` (the bytes a recovery would replay).
  No simulated device write is sized from it: the timing layer's WAL
  flushes are sized by :class:`~repro.mutate.MutationLoad`
  (``ROW_BYTES`` per inserted row, ``TOMBSTONE_BYTES`` per delete; see
  :mod:`repro.mutate.simproc`).

Checkpointing and truncation are *separate* operations.
``checkpoint()`` records that everything logged so far is durable in
the main store (segments); it does not forget anything — ``entries``,
``total_bytes()``, and replay-from-log keep the full retained history.
``truncate()`` is the explicit space-reclaim step that drops entries a
checkpoint has already covered.  (They used to be fused, which made the
log silently forget history while ``checkpointed_through`` claimed
otherwise.)
"""

from __future__ import annotations

import dataclasses
import typing as t
from pathlib import Path

from repro.errors import EngineError


@dataclasses.dataclass(frozen=True)
class WalEntry:
    """One logged mutation."""

    sequence: int
    op: str                       # "insert" | "delete"
    row_id: int
    vector: t.Any = None          # np.ndarray for inserts
    payload: dict | None = None

    def entry_bytes(self) -> int:
        """Serialized size estimate (header + vector + payload)."""
        size = 32
        if self.vector is not None:
            size += self.vector.nbytes
        if self.payload is not None:
            size += 64 + 16 * len(self.payload)
        return size


class WriteAheadLog:
    """Append-only mutation log with checkpointing and truncation."""

    def __init__(self) -> None:
        self._entries: list[WalEntry] = []
        self._next_sequence = 0
        self.checkpointed_through = -1

    def append(self, op: str, row_id: int, vector: t.Any = None,
               payload: dict | None = None) -> WalEntry:
        if op not in ("insert", "delete"):
            raise EngineError(f"unknown WAL op: {op}")
        entry = WalEntry(self._next_sequence, op, row_id, vector, payload)
        self._next_sequence += 1
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> t.Sequence[WalEntry]:
        return self._entries

    def pending(self) -> list[WalEntry]:
        """Entries newer than the last checkpoint."""
        return [e for e in self._entries
                if e.sequence > self.checkpointed_through]

    def checkpoint(self) -> None:
        """Mark all current entries durable in the main store.

        Entries are retained — call :meth:`truncate` to reclaim them.
        """
        if self._entries:
            self.checkpointed_through = self._entries[-1].sequence

    def truncate(self) -> int:
        """Drop entries already covered by a checkpoint.

        Returns how many entries were reclaimed; entries newer than
        ``checkpointed_through`` always survive.
        """
        kept = [e for e in self._entries
                if e.sequence > self.checkpointed_through]
        dropped = len(self._entries) - len(kept)
        self._entries = kept
        return dropped

    def total_bytes(self) -> int:
        return sum(e.entry_bytes() for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- real persistence --------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Atomically snapshot the log to a record-framed file.

        Temp file + fsync + rename: a crash mid-save leaves the
        previous snapshot intact (see :mod:`repro.durability.walio`).
        """
        from repro.durability.walio import save_wal
        save_wal(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "WriteAheadLog":
        """Recover a log file, truncating a torn tail if present."""
        from repro.durability.walio import load_wal
        return load_wal(path)
