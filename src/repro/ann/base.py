"""Common interface of all ANN indexes in this library."""

from __future__ import annotations

import abc
import contextlib
import typing as t

import numpy as np

from repro.ann.workprofile import SearchResult
from repro.errors import AnnIndexError


class VectorIndex(abc.ABC):
    """A built-once, searched-many index over a fixed vector set.

    Dynamic insertion/deletion is handled one level up, by the engines'
    segment management (the way Milvus seals immutable segments), so the
    index layer can stay simple and immutable.
    """

    #: Human-readable kind, e.g. "ivf", "hnsw", "diskann".
    kind: str = "abstract"
    #: Whether searching reads from storage (True) or memory only.
    storage_based: bool = False

    def __init__(self, metric: str = "l2") -> None:
        self.metric = metric
        self._built = False

    @property
    def built(self) -> bool:
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise AnnIndexError(f"{self.kind} index searched before build()")

    @abc.abstractmethod
    def build(self, X: np.ndarray) -> "VectorIndex":
        """Construct the index over the rows of *X*."""

    @abc.abstractmethod
    def search(self, query: np.ndarray, k: int, **params) -> SearchResult:
        """Return the ids of the ~k nearest rows plus the work done."""

    def search_batch(self, queries: np.ndarray, k: int,
                     **params) -> list[SearchResult]:
        """Search a ``(B, dim)`` batch; one result per query, in order.

        Results are bit-identical to calling :meth:`search` on each row
        in sequence — the contract the batch-equivalence property suite
        enforces for every index kind.  Subclasses with vectorizable
        scans (flat, IVF) override this to amortize kernel work across
        the batch; the default simply loops.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise AnnIndexError(
                f"query batch must be 2D (B, dim): {queries.shape}")
        return [self.search(query, k, **params) for query in queries]

    def reuse_traversals(self) -> t.ContextManager[None]:
        """A scope in which a repeated search may reuse its traversal.

        A plan compile searches the query set twice (cold, then warm);
        indexes whose traversal does not depend on their cache state
        (DiskANN) override this to search each query once and replay
        only the cache accounting the second time.  The default does
        nothing.
        """
        return contextlib.nullcontext()

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Resident memory footprint of the built index."""

    def disk_bytes(self) -> int:
        """On-disk footprint; zero for memory-based indexes."""
        return 0
