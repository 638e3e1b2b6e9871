"""IVF: the cluster-based index of paper Section II-B (Figure 1a).

Vectors are k-means clustered into ``nlist`` cells; a query compares
against all centroids, picks the ``nprobe`` closest cells, and scans
them exhaustively.  Two variants exist in the paper's testbed:

* **memory-based raw IVF** (Milvus-IVF): full-precision vectors in RAM;
* **storage-based IVF-PQ** (LanceDB-IVF): product-quantized posting
  lists that live on disk and are read per probe.

``faiss``'s guideline ``nlist = 4 * sqrt(n)`` (paper Section III-C) is
the default.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.distance import (make_batch_kernel, prepare, prepare_queries,
                                 prepare_query, top_k, top_k_batch)
from repro.ann.kmeans import kmeans
from repro.ann.pq import ProductQuantizer
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import AnnIndexError
from repro.storage.spec import PAGE_SIZE


def default_nlist(n: int) -> int:
    """The faiss guideline the paper follows: ``4 * sqrt(n)``."""
    return max(1, int(round(4 * math.sqrt(n))))


class IVFIndex(VectorIndex):
    """Inverted-file index, optionally product-quantized and on disk."""

    kind = "ivf"

    def __init__(self, metric: str = "l2", nlist: int | None = None,
                 quantizer: ProductQuantizer | None = None,
                 on_disk: bool = False, record_bytes: int | None = None,
                 train_points: int = 20_000, seed: int = 0) -> None:
        """
        Args:
            nlist: number of cells; defaults to ``4 * sqrt(n)`` at build.
            quantizer: when given, posting lists hold PQ codes and
                search uses asymmetric-distance scans (LanceDB-IVF-PQ).
            on_disk: posting lists live on storage; every probed cell
                costs a read of its extent.
            record_bytes: on-disk bytes per posting-list entry; defaults
                to the PQ code size (+id) or the raw vector size (+id).
            train_points: k-means training sample cap.
        """
        super().__init__(metric)
        self.nlist = nlist
        self.quantizer = quantizer
        self.on_disk = on_disk
        self.record_bytes = record_bytes
        self.train_points = train_points
        self.seed = seed
        self.storage_based = on_disk
        self.centroids: np.ndarray | None = None
        self._X: np.ndarray | None = None        # prepared vectors
        self._imetric: str = "l2"
        self._lists: list[np.ndarray] = []       # ids per cell
        self._codes: list[np.ndarray] = []       # PQ codes per cell
        self._extents: list[tuple[int, int]] = []  # on-disk (offset, size)
        self._disk_bytes = 0
        self._x_sq: np.ndarray | None = None     # row norms for l2 kernels
        self._c_sq: np.ndarray | None = None     # centroid norms for l2

    # -- construction -----------------------------------------------------

    def build(self, X: np.ndarray) -> "IVFIndex":
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[0] == 0:
            raise AnnIndexError(f"IVF needs non-empty 2D data: {X.shape}")
        X, self._imetric = prepare(X, self.metric)
        self._X = X
        n, dim = X.shape
        if self.nlist is None:
            self.nlist = default_nlist(n)
        if self.nlist > n:
            raise AnnIndexError(f"nlist {self.nlist} exceeds dataset size {n}")

        rng = np.random.default_rng(self.seed)
        sample = X if n <= self.train_points else (
            X[rng.choice(n, self.train_points, replace=False)])
        self.centroids, _ = kmeans(sample, self.nlist, seed=self.seed)
        assignments = self._assign_blocked(X)

        if self.quantizer is not None:
            if not self.quantizer.trained:
                self.quantizer.train(sample)
            all_codes = self.quantizer.encode(X)

        if self.record_bytes is None:
            self.record_bytes = 8 + (
                self.quantizer.code_bytes() if self.quantizer is not None
                else dim * 4)

        offset = 0
        for cell in range(self.nlist):
            ids = np.flatnonzero(assignments == cell).astype(np.int64)
            self._lists.append(ids)
            if self.quantizer is not None:
                self._codes.append(all_codes[ids])
            size = max(PAGE_SIZE,
                       -(-len(ids) * self.record_bytes // PAGE_SIZE)
                       * PAGE_SIZE)
            self._extents.append((offset, size))
            offset += size
        self._disk_bytes = offset if self.on_disk else 0
        if self._imetric == "l2":
            self._x_sq = np.einsum("ij,ij->i", X, X)
            self._c_sq = np.einsum("ij,ij->i", self.centroids,
                                   self.centroids)
        self._built = True
        return self

    def _assign_blocked(self, X: np.ndarray,
                        block: int = 4096) -> np.ndarray:
        from repro.ann.distance import pairwise
        out = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], block):
            stop = min(start + block, X.shape[0])
            out[start:stop] = pairwise(X[start:stop], self.centroids,
                                       "l2").argmin(axis=1)
        return out

    # -- search -----------------------------------------------------------

    def search(self, query: np.ndarray, k: int, *,
               nprobe: int = 8) -> SearchResult:
        # A batch of one: both paths share _scan, whose fixed-width GEMM
        # blocks make each query's result independent of its batchmates.
        self._require_built()
        query = prepare_query(query, self.metric)
        return self._scan(query.reshape(1, -1), k, nprobe)[0]

    def search_batch(self, queries: np.ndarray, k: int, *,
                     nprobe: int = 8) -> list[SearchResult]:
        """Batched search; the centroid scan runs as one GEMM and each
        probed cell is scored once for every query that probes it."""
        self._require_built()
        return self._scan(prepare_queries(queries, self.metric), k, nprobe)

    def _scan(self, Q: np.ndarray, k: int, nprobe: int) -> list[SearchResult]:
        if nprobe < 1:
            raise AnnIndexError(f"nprobe must be >= 1: {nprobe}")
        nprobe = min(nprobe, self.nlist)
        n_queries = Q.shape[0]

        centroid_dists = make_batch_kernel(
            self.centroids, self._imetric,
            x_sq=self._c_sq)(Q, slice(None))
        probes = top_k_batch(centroid_dists, nprobe)

        # Invert probes so each cell is scored once per batch, for
        # exactly the queries that probe it.
        probe_rows = probes.tolist()
        cell_rows: dict[int, list[int]] = {}
        for row, row_probes in enumerate(probe_rows):
            for cell in row_probes:
                cell_rows.setdefault(cell, []).append(row)

        if self.quantizer is not None:
            tables = self.quantizer.adc_tables(Q)
        else:
            kernel = make_batch_kernel(
                self._X, self._imetric,
                x_sq=self._x_sq)

        scores: dict[tuple[int, int], np.ndarray] = {}
        for cell, rows in cell_rows.items():
            cell_ids = self._lists[cell]
            if len(cell_ids) == 0:
                continue
            if self.quantizer is not None:
                block = ProductQuantizer.adc_distances_batch(
                    tables[rows], self._codes[cell])
            else:
                block = kernel(Q[rows], cell_ids)
            for pos, row in enumerate(rows):
                scores[row, cell] = block[pos]

        results = []
        for row, row_probes in enumerate(probe_rows):
            work = WorkProfile()
            work.add_cpu(full_evals=self.nlist)
            if self.on_disk:
                work.add_io([self._extents[cell] for cell in row_probes])
            chunks, idarrs, evals = [], [], 0
            for cell in row_probes:
                cell_ids = self._lists[cell]
                if len(cell_ids) == 0:
                    continue
                chunks.append(scores[row, cell])
                idarrs.append(cell_ids)
                evals += len(cell_ids)
            # One merged CPU step; add_cpu folds consecutive CPU work
            # anyway, so this equals the per-cell accounting it replaces.
            if self.quantizer is not None:
                work.add_cpu(table_builds=1, pq_evals=evals)
            elif evals:
                work.add_cpu(full_evals=evals)
            if not chunks:
                results.append(SearchResult(
                    ids=np.empty(0, dtype=np.int64), work=work,
                    dists=np.empty(0, dtype=np.float32)))
                continue
            all_dists = np.concatenate(chunks)
            all_ids = np.concatenate(idarrs)
            order = top_k(all_dists, k)
            results.append(SearchResult(
                ids=all_ids[order], work=work,
                dists=all_dists[order].astype(np.float32)))
        return results

    # -- footprints --------------------------------------------------------

    def memory_bytes(self) -> int:
        self._require_built()
        total = self.centroids.nbytes
        if self.on_disk:
            return total  # posting lists live on the device
        total += self._X.nbytes
        total += sum(c.nbytes for c in self._codes)
        return total

    def disk_bytes(self) -> int:
        self._require_built()
        return self._disk_bytes

    def list_sizes(self) -> np.ndarray:
        """Posting-list populations (used in ablations and tests)."""
        self._require_built()
        return np.asarray([len(ids) for ids in self._lists])
