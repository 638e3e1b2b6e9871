"""Common interface of all ANN indexes in this library."""

from __future__ import annotations

import abc
import contextlib
import typing as t

import numpy as np

from repro.ann.workprofile import SearchResult
from repro.errors import AnnIndexError

T = t.TypeVar("T")


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
    #: Searches awaiting their second use; an instance attribute only
    #: inside :meth:`_search_once`.
    _traversals: dict[tuple, t.Any] | None = None

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

        A plan compile searches the query set twice (cold, then warm).
        An index whose search reads no cache state searches once per
        compile: it overrides this with :meth:`_search_once`, and its
        warm pass takes the cold pass's search back.  The default
        searches every time.
        """
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _search_once(self) -> t.Iterator[None]:
        """The :meth:`reuse_traversals` of an index that searches once.

        Inside, :meth:`_reused` stores a search the first time its key
        is asked for and hands it back (and forgets it) the second
        time.  The memo is deleted on exit, so nothing outlives the
        scope (or reaches a pickle); a nested scope shares the outer
        one.
        """
        if self._traversals is not None:
            yield
            return
        self._traversals = {}
        try:
            yield
        finally:
            del self._traversals

    def _reused(self, key: tuple, search: t.Callable[[], T]) -> T:
        """``search()``, taken from the memo of a :meth:`_search_once`
        scope when the same *key* was searched there before."""
        memo = self._traversals
        if memo is None:
            return search()
        found = memo.pop(key, None)
        if found is None:
            found = memo[key] = search()
        return found

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Resident memory footprint of the built index."""

    def disk_bytes(self) -> int:
        """On-disk footprint; zero for memory-based indexes."""
        return 0
