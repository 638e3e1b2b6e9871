"""Compaction execution: merge the delta, commit via manifest swap.

The functional merge itself lives on the collection
(:meth:`~repro.engines.engine.Collection.compact`): live rows from the
base snapshot and the delta buffer are re-sealed into fresh segments
with the same segmentation plan and seeds a fresh build would use, so
post-compaction searches are bit-identical to a from-scratch index
over the live rows.  This module wraps that merge with policy gating,
telemetry, and the **durable commit**: saving the engine afterwards
writes a new versioned file set and swaps the manifest atomically —
the single commit point the durability layer guarantees — so a crash
anywhere during the commit leaves either the pre-compaction store
(whose WAL replay restores the delta) or the post-compaction one,
never a hybrid (``tests/mutate/test_crash.py``).
"""

from __future__ import annotations

import dataclasses
import typing as t
from pathlib import Path

from repro.mutate.delta import DeltaLog
from repro.mutate.policy import CompactionPolicy

if t.TYPE_CHECKING:
    from repro.engines.engine import Collection, VectorEngine
    from repro.obs import RunTelemetry


@dataclasses.dataclass(frozen=True)
class CompactionReport:
    """What one compaction did."""

    collection: str
    rows_kept: int
    rows_dropped: int
    segments_before: int
    segments_after: int
    #: Logical snapshot+delta bytes the merge read.
    bytes_read: int
    #: Logical bytes of the new snapshot written.
    bytes_written: int
    #: Was the new snapshot committed (manifest swap) to a store path?
    committed: bool = False


def compact_collection(collection: "Collection",
                       telemetry: "RunTelemetry | None" = None,
                       ) -> CompactionReport:
    """Merge *collection*'s delta into a fresh snapshot (in memory)."""
    stats = collection.compact()
    report = CompactionReport(collection=collection.name,
                              committed=False, **stats)
    if telemetry is not None:
        telemetry.on_event("mutate", "compactions")
        telemetry.on_event("mutate", "compacted_rows_kept", report.rows_kept)
        telemetry.on_event("mutate", "compacted_rows_dropped",
                           report.rows_dropped)
    return report


def compact_engine(engine: "VectorEngine", name: str,
                   path: str | Path | None = None,
                   policy: CompactionPolicy | None = None,
                   telemetry: "RunTelemetry | None" = None,
                   ) -> CompactionReport | None:
    """Compact collection *name*, optionally gated and committed.

    With a *policy*, the merge only runs when the collection's
    :class:`~repro.mutate.delta.DeltaLog` state crosses a threshold —
    returns ``None`` otherwise.  With a *path*, the compacted engine
    is saved there afterwards: the versioned-manifest swap is the
    durable commit point of the new snapshot.

    >>> import numpy as np
    >>> from repro.api import open_engine
    >>> from repro.mutate import CompactionPolicy, compact_engine
    >>> session = open_engine("milvus")
    >>> _ = session.create("docs", dim=4, index="flat")
    >>> _ = session.insert("docs", np.eye(4, dtype=np.float32),
    ...                    flush=True)
    >>> _ = session.insert("docs", np.eye(4, dtype=np.float32))
    >>> session.delete("docs", [0, 1])
    2
    >>> lazy = CompactionPolicy(delta_rows=1000, tombstone_fraction=0.9)
    >>> compact_engine(session.engine, "docs", policy=lazy) is None
    True
    >>> report = compact_engine(session.engine, "docs")
    >>> report.rows_kept, report.rows_dropped
    (6, 2)
    >>> len(session.collection("docs").tombstones)
    0
    """
    collection = engine.collection(name)
    if policy is not None:
        log = DeltaLog(collection)
        if not policy.should_compact(log.pending_inserts,
                                     log.pending_deletes,
                                     collection.total_rows):
            return None
    report = compact_collection(collection, telemetry=telemetry)
    if path is not None:
        engine.save(path)
        report = dataclasses.replace(report, committed=True)
        if telemetry is not None:
            telemetry.on_event("mutate", "compaction_commits")
    return report
