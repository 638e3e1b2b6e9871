"""Sealed segments: the unit of storage and search inside a collection.

Vector databases ingest into a mutable growing buffer and periodically
seal it into immutable *segments*, each carrying its own index — the
architecture of Milvus (and, with larger segments, Qdrant).  A query
searches every sealed segment plus the growing buffer and merges the
per-segment top-k.  Segment count is what couples dataset size to
per-query work, the mechanism behind the paper's O-5/O-6 scaling
observations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.distance import prepare_queries, top_k
from repro.ann.scoring import delta_kernel
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import EngineError


@dataclasses.dataclass
class Segment:
    """An immutable slice of a collection with its own index."""

    segment_id: int
    row_ids: np.ndarray          # global row ids, parallel to vectors
    vectors: np.ndarray
    index: VectorIndex

    def __post_init__(self) -> None:
        if len(self.row_ids) != len(self.vectors):
            raise EngineError(
                f"segment {self.segment_id}: {len(self.row_ids)} ids vs "
                f"{len(self.vectors)} vectors")

    @property
    def n(self) -> int:
        return len(self.row_ids)

    def search(self, query: np.ndarray, k: int,
               **params) -> SearchResult:
        """Search this segment; result ids are *global* row ids."""
        result = self.index.search(query, k, **params)
        return SearchResult(ids=self.row_ids[result.ids], work=result.work,
                            dists=result.dists)

    def search_batch(self, queries: np.ndarray, k: int,
                     **params) -> list[SearchResult]:
        """Batched :meth:`search`; one result per query, global ids."""
        results = self.index.search_batch(queries, k, **params)
        return [SearchResult(ids=self.row_ids[result.ids],
                             work=result.work, dists=result.dists)
                for result in results]

    def memory_bytes(self) -> int:
        return int(self.vectors.nbytes + self.row_ids.nbytes
                   + self.index.memory_bytes())


class GrowingBuffer:
    """The mutable tail of a collection: the in-memory delta buffer.

    Unsealed rows are scored by brute force.  When bound to the
    collection's index *kind*, the scan runs through the kind-matched
    :func:`~repro.ann.scoring.delta_kernel`, so a delta row's reported
    distance carries the exact bits the sealed index would report for
    it — the invariant that makes a merged base+delta search
    bit-identical to a fresh build over the same rows (see
    ``docs/MUTABILITY.md``).  An unbound buffer (``kind=None``) scans
    through the exact kernel.
    """

    def __init__(self, dim: int, metric: str, kind: str | None = None,
                 pq_m: int | None = None, seed: int = 0) -> None:
        self.dim = dim
        self.metric = metric
        self.kind = kind
        self.pq_m = pq_m
        self.seed = seed
        self._row_ids: list[int] = []
        self._vectors: list[np.ndarray] = []
        self._scorer = None
        self._scorer_rows = -1

    def __len__(self) -> int:
        return len(self._row_ids)

    def append(self, row_id: int, vector: np.ndarray) -> None:
        if vector.shape != (self.dim,):
            raise EngineError(
                f"vector shape {vector.shape} != ({self.dim},)")
        self._row_ids.append(row_id)
        self._vectors.append(np.asarray(vector, dtype=np.float32))

    def _score(self, queries: np.ndarray) -> np.ndarray:
        """Kind-matched ``(B, n)`` distances over the unsealed rows."""
        if self._scorer is None or self._scorer_rows != len(self._row_ids):
            self._scorer = delta_kernel(
                self.kind, self.metric, np.vstack(self._vectors),
                pq_m=self.pq_m, seed=self.seed)
            self._scorer_rows = len(self._row_ids)
        return self._scorer(prepare_queries(queries, self.metric))

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Brute-force scan of unsealed rows (global ids)."""
        query = np.asarray(query, dtype=np.float32)
        return self.search_batch(query.reshape(1, -1), k)[0]

    def search_batch(self, queries: np.ndarray,
                     k: int) -> list[SearchResult]:
        """Batched :meth:`search`; one result per query, in order."""
        queries = np.asarray(queries, dtype=np.float32)
        if not self._row_ids:
            return [SearchResult(ids=np.empty(0, dtype=np.int64),
                                 work=WorkProfile())
                    for _ in range(queries.shape[0])]
        all_dists = self._score(queries)
        ids = np.asarray(self._row_ids, dtype=np.int64)
        results = []
        for row in range(queries.shape[0]):
            work = WorkProfile()
            work.add_cpu(full_evals=len(self._row_ids))
            order = top_k(all_dists[row], k)
            results.append(SearchResult(
                ids=ids[order], work=work,
                dists=all_dists[row][order].astype(np.float32)))
        return results

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return (row_ids, vectors) for sealing."""
        if not self._row_ids:
            raise EngineError("drain() on an empty growing buffer")
        ids = np.asarray(self._row_ids, dtype=np.int64)
        vectors = np.vstack(self._vectors)
        self._row_ids.clear()
        self._vectors.clear()
        return ids, vectors


def plan_segments(n: int, vector_bytes: int,
                  segment_bytes: int | None) -> list[tuple[int, int]]:
    """Split *n* rows into [start, stop) ranges by segment capacity.

    ``segment_bytes`` of None (monolithic engines) yields one range.
    """
    if n <= 0:
        raise EngineError(f"cannot plan segments for n={n}")
    if segment_bytes is None:
        return [(0, n)]
    rows_per_segment = max(1, segment_bytes // max(1, vector_bytes))
    return [(start, min(start + rows_per_segment, n))
            for start in range(0, n, rows_per_segment)]
