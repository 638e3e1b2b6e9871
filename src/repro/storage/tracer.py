"""Block-layer I/O tracing.

Equivalent of the paper's bpftrace probe on the ``block_rq_issue``
tracepoint (Section III-A): every request submitted to the simulated
device is recorded with its submission timestamp, direction, offset, and
size.  The analysis helpers in :mod:`repro.trace` consume these records
to build the paper's bandwidth and request-size figures.
"""

from __future__ import annotations

import typing as t


class TraceRecord(t.NamedTuple):
    """One ``block_rq_issue`` event."""

    timestamp: float
    op: str          # "R" or "W"
    offset: int      # bytes from device start
    size: int        # bytes
    #: Fault kind(s) injected into this request ("+"-joined when several
    #: windows overlap), or None for a healthy request.  This is the
    #: per-request attribution that lets a trace reconcile against the
    #: injector's per-kind counters.
    fault: str | None = None


class BlockTracer:
    """Accumulates :class:`TraceRecord` entries during a run.

    Tracing can be switched off (``enabled=False``) for experiments that
    only need performance numbers, mirroring how the paper only traces
    the I/O-characterization runs.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: list[TraceRecord] = []

    def record(self, timestamp: float, op: str, offset: int,
               size: int, fault: str | None = None) -> None:
        """Record one request issue; no-op when tracing is disabled."""
        if self.enabled:
            self._records.append(TraceRecord(timestamp, op, offset, size,
                                             fault))

    def clear(self) -> None:
        """Drop all accumulated records (start of a new run)."""
        self._records.clear()

    @property
    def records(self) -> t.Sequence[TraceRecord]:
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- simple aggregations ---------------------------------------------

    def total_bytes(self, op: str | None = None) -> int:
        """Sum of request sizes, optionally filtered by direction."""
        return sum(r.size for r in self._records
                   if op is None or r.op == op)

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault attribution: records per fault kind.

        A record hit by several overlapping windows carries a
        "+"-joined kind string and counts once per component kind, so
        these totals reconcile with the injector's per-kind counters.
        """
        counts: dict[str, int] = {}
        for record in self._records:
            if record.fault is not None:
                for kind in record.fault.split("+"):
                    counts[kind] = counts.get(kind, 0) + 1
        return counts

    def window(self, start: float, end: float) -> list[TraceRecord]:
        """Records with ``start <= timestamp < end``."""
        return [r for r in self._records if start <= r.timestamp < end]
