"""Exact brute-force index; the recall baseline for everything else."""

from __future__ import annotations

import typing as t

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.distance import (make_batch_kernel, prepare, prepare_queries,
                                prepare_query, top_k_batch)
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import AnnIndexError


class FlatIndex(VectorIndex):
    """Scans the entire dataset; exact but O(n) per query.

    Like every index here, cosine data is prepared to the ``l2n``
    representation, so its reported distances merge consistently with
    other indexes' results across a collection's segments.
    """

    kind = "flat"

    def __init__(self, metric: str = "l2") -> None:
        super().__init__(metric)
        self._X: np.ndarray | None = None
        self._imetric = "l2"
        self._x_sq: np.ndarray | None = None

    def build(self, X: np.ndarray) -> "FlatIndex":
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[0] == 0:
            raise AnnIndexError(f"flat index needs non-empty 2D data: {X.shape}")
        self._X, self._imetric = prepare(X, self.metric)
        self._x_sq = (np.einsum("ij,ij->i", self._X, self._X)
                      if self._imetric == "l2" else None)
        self._built = True
        return self

    def search(self, query: np.ndarray, k: int, **params) -> SearchResult:
        # A batch of one: the scan runs through the same fixed-width
        # batch kernel as search_batch, which keeps the two paths
        # bit-identical (see make_batch_kernel).
        self._require_built()
        query = prepare_query(query, self.metric)
        return self._search(query.reshape(1, -1), k, params)[0]

    def search_batch(self, queries: np.ndarray, k: int,
                     **params) -> list[SearchResult]:
        """One matrix-matrix scan scores the whole batch at once."""
        self._require_built()
        return self._search(prepare_queries(queries, self.metric), k,
                            params)

    def reuse_traversals(self) -> t.ContextManager[None]:
        """No cache state reaches a scan: a compile scans each batch
        once (see :meth:`VectorIndex.reuse_traversals`)."""
        return self._search_once()

    def _search(self, prepared: np.ndarray, k: int,
                params: dict) -> list[SearchResult]:
        if params:
            raise AnnIndexError(f"flat index takes no search params: {params}")
        return self._reused((prepared.tobytes(), k),
                            lambda: self._scan(prepared, k))

    def _scan(self, prepared: np.ndarray, k: int) -> list[SearchResult]:
        dists = make_batch_kernel(
            self._X, self._imetric,
            x_sq=self._x_sq)(prepared, slice(None))
        orders = top_k_batch(dists, k)
        results = []
        for row in range(prepared.shape[0]):
            work = WorkProfile()
            work.add_cpu(full_evals=self._X.shape[0])
            order = orders[row]
            results.append(SearchResult(
                ids=order, work=work,
                dists=dists[row, order].astype(np.float32)))
        return results

    def memory_bytes(self) -> int:
        self._require_built()
        return self._X.nbytes
