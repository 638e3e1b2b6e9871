"""Product quantization (Jegou et al., paper ref [46]).

Splits vectors into ``m`` subspaces, learns a small codebook per
subspace, and represents each vector by ``m`` one-byte codes.  DiskANN
keeps exactly these codes in memory to steer the on-disk graph search;
LanceDB's storage-based IVF index stores them in its posting lists.

Asymmetric distance computation (ADC): per query, a (m x k) table of
query-to-codeword distances is built once, after which each encoded
vector's distance is ``m`` table lookups.
"""

from __future__ import annotations

import numpy as np

from repro.ann.kmeans import kmeans
from repro.errors import AnnIndexError


class ProductQuantizer:
    """Trainable PQ codec with ADC search support."""

    def __init__(self, dim: int, m: int = 8, nbits: int = 8,
                 seed: int = 0) -> None:
        if dim % m != 0:
            raise AnnIndexError(f"dim {dim} not divisible into {m} subspaces")
        if not 1 <= nbits <= 8:
            raise AnnIndexError(f"nbits must be in [1, 8]: {nbits}")
        self.dim = dim
        self.m = m
        self.dsub = dim // m
        self.ksub = 1 << nbits
        self.seed = seed
        #: Codewords actually learned; < ksub when the training set has
        #: fewer rows than codewords (set by :meth:`train`).
        self.ksub_effective = self.ksub
        self.codebooks: np.ndarray | None = None  # (m, ksub_effective, dsub)

    @property
    def trained(self) -> bool:
        return self.codebooks is not None

    def train(self, X: np.ndarray) -> "ProductQuantizer":
        """Learn per-subspace codebooks from training vectors."""
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise AnnIndexError(f"bad training shape {X.shape} for dim "
                              f"{self.dim}")
        # With fewer training rows than codewords, only that many
        # distinct centroids exist; storing duplicated padding rows made
        # the 1-D grid encoder's searchsorted edges ambiguous, so the
        # codebooks hold exactly the learned codewords instead.
        ksub = min(self.ksub, X.shape[0])
        self.ksub_effective = ksub
        self.codebooks = np.zeros((self.m, ksub, self.dsub),
                                  dtype=np.float32)
        for sub in range(self.m):
            block = X[:, sub * self.dsub:(sub + 1) * self.dsub]
            if self.dsub == 1:
                # 1-D codebooks: quantile grids are near-optimal and far
                # cheaper than Lloyd iterations.
                qs = np.linspace(0.0, 1.0, ksub)
                centroids = np.quantile(block[:, 0], qs).astype(
                    np.float32).reshape(-1, 1)
            else:
                centroids, _ = kmeans(block, ksub, seed=self.seed + sub)
            self.codebooks[sub] = centroids
        return self

    def _require_trained(self) -> None:
        if not self.trained:
            raise AnnIndexError("product quantizer used before train()")

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Quantize rows of *X* to (n, m) uint8 codes."""
        self._require_trained()
        X = np.asarray(X, dtype=np.float32)
        single = X.ndim == 1
        X = X.reshape(-1, self.dim)
        codes = np.empty((X.shape[0], self.m), dtype=np.uint8)
        for sub in range(self.m):
            block = X[:, sub * self.dsub:(sub + 1) * self.dsub]
            if self.dsub == 1:
                grid = self.codebooks[sub][:, 0]
                order = np.argsort(grid, kind="stable")
                edges = (grid[order][1:] + grid[order][:-1]) / 2.0
                codes[:, sub] = order[np.searchsorted(edges, block[:, 0])]
            else:
                # (n, ksub) distances via expansion
                diffs = block[:, None, :] - self.codebooks[sub][None, :, :]
                codes[:, sub] = np.einsum("nkd,nkd->nk", diffs,
                                          diffs).argmin(axis=1)
        return codes[0] if single else codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        self._require_trained()
        codes = np.asarray(codes, dtype=np.uint8).reshape(-1, self.m)
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for sub in range(self.m):
            out[:, sub * self.dsub:(sub + 1) * self.dsub] = (
                self.codebooks[sub][codes[:, sub]])
        return out

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """Per-query table of squared distances to every codeword."""
        self._require_trained()
        query = np.asarray(query, dtype=np.float32).reshape(self.dim)
        table = np.empty((self.m, self.codebooks.shape[1]),
                         dtype=np.float32)
        for sub in range(self.m):
            diff = self.codebooks[sub] - query[sub * self.dsub:
                                               (sub + 1) * self.dsub]
            table[sub] = np.einsum("kd,kd->k", diff, diff)
        return table

    def adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """``(B, m, ksub_effective)`` ADC tables for a batch of queries.

        Row ``b`` is bit-identical to ``adc_table(queries[b])``: the
        broadcast einsum reduces each (codeword, query) pair exactly as
        the per-query loop does.
        """
        self._require_trained()
        queries = np.asarray(queries, dtype=np.float32).reshape(
            -1, self.dim)
        if self.dsub == 1:
            # A one-term sum is the term: skip einsum's length-1 axis
            # (squared in place — a second table-sized buffer costs
            # more in page faults than the arithmetic).
            diffs = self.codebooks[None, :, :, 0] - queries[:, :, None]
            return np.multiply(diffs, diffs, out=diffs)
        diffs = (self.codebooks[None, :, :, :]
                 - queries.reshape(-1, self.m, 1, self.dsub))
        return np.einsum("bmkd,bmkd->bmk", diffs, diffs)

    @staticmethod
    def adc_distances(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Squared distances of encoded vectors to the table's query."""
        codes = np.asarray(codes, dtype=np.uint8).reshape(-1, table.shape[0])
        return table[np.arange(table.shape[0])[None, :], codes].sum(axis=1)

    @staticmethod
    def adc_distances_batch(tables: np.ndarray,
                            codes: np.ndarray) -> np.ndarray:
        """``(B, n)`` ADC distances: every query's table against a
        contiguous uint8 code block.

        The per-code ``(subspace, codeword)`` lookups are flattened into
        one index block shared by every query, so each query's gather is
        a single ``take`` from its raveled table; the reduction then
        runs over that contiguous ``(n, m)`` gather so row ``b`` stays
        bit-identical to ``adc_distances(tables[b], codes)`` (a 3-D
        ``sum(axis=2)`` accumulates in a different order and is *not*).
        """
        n_queries, m, ksub = tables.shape
        codes = np.asarray(codes, dtype=np.uint8).reshape(-1, m)
        flat = np.arange(m)[None, :] * ksub + codes        # (n, m)
        out = np.empty((n_queries, codes.shape[0]), dtype=tables.dtype)
        for b in range(n_queries):
            out[b] = tables[b].ravel()[flat].sum(axis=1)
        return out

    def code_bytes(self) -> int:
        """Bytes per encoded vector."""
        return self.m
