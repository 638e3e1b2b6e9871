"""When to compact: thresholds over the delta log and tombstones.

Compaction trades a burst of read+write I/O (and index-rebuild CPU)
for a smaller merge surface: fewer unsealed rows scanned brute-force
per query, fewer tombstones crowding the top-k escalation.  The policy
is deliberately beaver-simple — size thresholds, no feedback loops —
so compaction timing stays a pure function of the mutation history
and same-seed runs compact at identical simulated times.
"""

from __future__ import annotations

import dataclasses

from repro.errors import EngineError, require_int, require_real


@dataclasses.dataclass(frozen=True)
class CompactionPolicy:
    """Threshold trigger for merging the delta into a new snapshot.

    Compaction fires when *either* threshold is crossed:

    * ``delta_rows``: unsealed rows in the delta buffer — the
      brute-force scan cost every query pays;
    * ``tombstone_fraction``: tombstoned fraction of stored rows —
      dead weight the escalation logic must over-fetch past.

    >>> policy = CompactionPolicy(delta_rows=100,
    ...                           tombstone_fraction=0.25)
    >>> policy.should_compact(delta_rows=99, tombstones=0,
    ...                       total_rows=1000)
    False
    >>> policy.should_compact(delta_rows=100, tombstones=0,
    ...                       total_rows=1000)
    True
    >>> policy.should_compact(delta_rows=0, tombstones=300,
    ...                       total_rows=1000)
    True
    """

    #: Unsealed-row count that triggers a merge.
    delta_rows: int = 10_000
    #: Tombstoned fraction of stored rows that triggers a merge.
    tombstone_fraction: float = 0.2

    def __post_init__(self) -> None:
        require_int(EngineError, "delta_rows threshold", self.delta_rows, 1)
        require_real(EngineError, "tombstone_fraction",
                     self.tombstone_fraction, above=0, at_most=1)

    def should_compact(self, delta_rows: int, tombstones: int,
                       total_rows: int) -> bool:
        """Does the current (delta, tombstone) state warrant a merge?"""
        if delta_rows >= self.delta_rows:
            return True
        if total_rows > 0 and (tombstones / total_rows
                               >= self.tombstone_fraction):
            return True
        return False
