"""SPANN: the cluster-based storage index (Chen et al., paper ref [29]).

The paper's background section contrasts two storage-based index
families: graph-based (DiskANN, which it measures) and cluster-based
(SPANN, which none of its databases support).  Implementing SPANN makes
the comparison the paper cites from [30] reproducible here:

* vectors are partitioned into many *posting lists*; each list is laid
  out contiguously on the SSD, matching its access granularity;
* the centroids stay in memory under an HNSW index for fast candidate
  selection (paper Section II-B: "the centroids can be further managed
  by a graph index");
* **boundary replication**: a vector joins every cluster whose centroid
  is within ``(1 + closure_eps)`` of its nearest centroid, up to
  ``max_replicas`` (8 in SPANN) — higher recall at the price of space
  amplification;
* **query-time pruning**: posting lists whose centroid is farther than
  ``(1 + prune_eps)`` of the closest selected centroid are skipped.

A query costs one centroid search (memory) plus a *single parallel
round* of posting-list reads — large sequential requests instead of
DiskANN's dependent chain of 4 KiB reads.
"""

from __future__ import annotations

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.distance import make_kernel, prepare, prepare_query, top_k
from repro.ann.hnsw import HNSWIndex
from repro.ann.kmeans import kmeans
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import AnnIndexError
from repro.prefetch import CachePolicy, make_policy
from repro.storage.spec import PAGE_SIZE


class SPANNIndex(VectorIndex):
    """Centroids in memory (HNSW), replicated posting lists on disk."""

    kind = "spann"
    storage_based = True

    def __init__(self, metric: str = "l2", n_postings: int | None = None,
                 max_replicas: int = 8, closure_eps: float = 0.15,
                 storage_dim: int | None = None,
                 centroid_ef_construction: int = 100,
                 list_cache_bytes: int = 0, cache_policy: str = "hotness",
                 seed: int = 0) -> None:
        """
        Args:
            n_postings: number of posting lists (default n/64, min 8).
            max_replicas: replication cap for boundary vectors (SPANN
                replicates up to 8x, paper Section II-B).
            closure_eps: a vector replicates into clusters whose
                centroid distance is within (1+eps) of its nearest.
            storage_dim: nominal on-disk dimensionality.
            list_cache_bytes: memory budget for caching hot posting
                lists (0 disables); probes of cached cells cost no I/O.
            cache_policy: admission/eviction policy of the list cache
                ("hotness" keeps the most-probed cells resident).
        """
        if max_replicas < 1 or closure_eps < 0:
            raise AnnIndexError(
                f"bad SPANN params: replicas={max_replicas} "
                f"eps={closure_eps}")
        if list_cache_bytes < 0:
            raise AnnIndexError(
                f"negative list cache budget: {list_cache_bytes}")
        super().__init__(metric)
        self.n_postings = n_postings
        self.max_replicas = max_replicas
        self.closure_eps = closure_eps
        self.storage_dim = storage_dim
        self.centroid_ef_construction = centroid_ef_construction
        self.list_cache_bytes = list_cache_bytes
        self.cache_policy = cache_policy
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self.centroid_index: HNSWIndex | None = None
        self._X: np.ndarray | None = None
        self._imetric = "l2"
        self._lists: list[np.ndarray] = []
        self._extents: list[tuple[int, int]] = []
        self._disk_bytes = 0
        self._replicas = 0
        self._list_cache: CachePolicy = make_policy("lru", 0)
        self.list_hits = 0
        self.list_misses = 0

    # -- construction -----------------------------------------------------

    def build(self, X: np.ndarray) -> "SPANNIndex":
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[0] == 0:
            raise AnnIndexError(f"SPANN needs non-empty 2D data: {X.shape}")
        self._X, self._imetric = prepare(X, self.metric)
        n, dim = self._X.shape
        if self.storage_dim is None:
            self.storage_dim = dim
        if self.n_postings is None:
            self.n_postings = max(8, n // 64)
        if self.n_postings > n:
            raise AnnIndexError(
                f"n_postings {self.n_postings} exceeds dataset size {n}")

        rng = np.random.default_rng(self.seed)
        sample = self._X if n <= 20_000 else (
            self._X[rng.choice(n, 20_000, replace=False)])
        self.centroids, _ = kmeans(sample, self.n_postings, seed=self.seed)
        self.centroid_index = HNSWIndex(
            metric=self._imetric if self._imetric != "l2n" else "l2",
            M=8, ef_construction=self.centroid_ef_construction,
            seed=self.seed).build(self._prepare_centroids())

        members: list[list[int]] = [[] for _ in range(self.n_postings)]
        kernel = make_kernel(self.centroids, "l2")
        replicas = 0
        for row in range(n):
            dists = kernel(self._X[row], slice(None))
            order = top_k(dists, self.max_replicas)
            nearest = float(dists[order[0]])
            threshold = (1.0 + self.closure_eps) ** 2 * max(nearest, 1e-12)
            for cell in order:
                if float(dists[cell]) <= threshold or cell == order[0]:
                    members[int(cell)].append(row)
                    replicas += 1
        self._replicas = replicas

        record_bytes = 8 + 4 * self.storage_dim
        offset = 0
        for cell in range(self.n_postings):
            ids = np.asarray(members[cell], dtype=np.int64)
            self._lists.append(ids)
            size = max(PAGE_SIZE,
                       -(-len(ids) * record_bytes // PAGE_SIZE) * PAGE_SIZE)
            self._extents.append((offset, size))
            offset += size
        self._disk_bytes = offset
        self._build_list_cache()
        self._built = True
        return self

    def _build_list_cache(self) -> None:
        """Size the hot posting-list cache in whole-extent entries.

        Extents vary in size, so the byte budget is converted to an
        entry capacity using the mean extent size — an approximation
        that keeps the policy layer byte-agnostic.
        """
        if self.list_cache_bytes <= 0 or not self._extents:
            self._list_cache = make_policy("lru", 0)
            self._mean_extent = 0
            return
        self._mean_extent = max(PAGE_SIZE,
                                self._disk_bytes // len(self._extents))
        capacity = self.list_cache_bytes // self._mean_extent
        self._list_cache = make_policy(self.cache_policy, capacity)

    def reset_dynamic_cache(self) -> None:
        """Drop the posting-list cache (pre-run ``drop_caches``)."""
        self._list_cache.clear()

    def cache_stats(self) -> dict[str, int]:
        """Cumulative posting-list cache counters (telemetry)."""
        return {"list_hits": self.list_hits,
                "misses": self.list_misses}

    def _prepare_centroids(self) -> np.ndarray:
        # Centroids of l2n-prepared data are not unit vectors; index
        # them under plain L2, which ranks identically for our use.
        return np.ascontiguousarray(self.centroids, dtype=np.float32)

    # -- search -----------------------------------------------------------

    @staticmethod
    def degrade_search_params(params: dict, factor: float,
                              k: int) -> dict:
        """Shrunken search params for graceful degradation.

        Probing fewer posting lists (``nprobe`` scaled by *factor*,
        floored at 1) is SPANN's lever for shedding device load under
        pressure: each dropped list is one fewer storage read round.
        ``prune_eps`` and cache knobs pass through unchanged.
        """
        out = dict(params)
        if "nprobe" in out:
            out["nprobe"] = max(1, int(out["nprobe"] * factor))
        return out

    def search(self, query: np.ndarray, k: int, *, nprobe: int = 8,
               prune_eps: float = 0.3) -> SearchResult:
        """Top-k via nprobe posting lists (after distance pruning)."""
        self._require_built()
        if nprobe < 1:
            raise AnnIndexError(f"nprobe must be >= 1: {nprobe}")
        nprobe = min(nprobe, self.n_postings)
        query = prepare_query(query, self.metric)
        work = WorkProfile()

        # Centroid candidates via the in-memory HNSW (paper Fig. 1a's
        # graph-managed centroids).
        centroid_hits = self.centroid_index.search(
            query, nprobe, ef_search=max(2 * nprobe, 16))
        work.steps.extend(centroid_hits.work.steps)
        selected = centroid_hits.ids
        dists = centroid_hits.dists
        # Query-time pruning against the closest selected centroid.
        closest = float(dists[0])
        keep = [int(cell) for cell, d in zip(selected, dists)
                if float(d) <= (1.0 + prune_eps) ** 2 * max(closest, 1e-12)]

        requests, hits = [], 0
        for cell in keep:
            if cell in self._list_cache:
                self._list_cache.touch(cell)
                self.list_hits += 1
                hits += 1
            else:
                self.list_misses += 1
                requests.append(self._extents[cell])
                self._list_cache.admit(cell)
        work.add_io(requests, cache_hits=hits)

        nonempty = [cell for cell in keep if len(self._lists[cell])]
        if not nonempty:
            return SearchResult(ids=np.empty(0, dtype=np.int64), work=work,
                                dists=np.empty(0, dtype=np.float32))
        # One contiguous gather scores every surviving posting list in a
        # single kernel call (the lists were concatenated on disk anyway).
        all_ids = np.concatenate([self._lists[cell] for cell in nonempty])
        all_dists = make_kernel(self._X, self._imetric)(query, all_ids)
        work.add_cpu(full_evals=len(all_ids))
        # Replicas deduplicate to their best distance: sort by (id, dist)
        # and keep the first row of each id run.
        order = np.lexsort((all_dists, all_ids))
        sorted_ids = all_ids[order]
        sorted_dists = all_dists[order]
        first = np.ones(len(sorted_ids), dtype=bool)
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        uniq_ids = sorted_ids[first]
        uniq_dists = sorted_dists[first]
        sel = top_k(uniq_dists, k)
        return SearchResult(ids=uniq_ids[sel], work=work,
                            dists=uniq_dists[sel].astype(np.float32))

    # -- footprints --------------------------------------------------------

    def memory_bytes(self) -> int:
        self._require_built()
        return int(self.centroids.nbytes
                   + self.centroid_index.memory_bytes()
                   + len(self._list_cache) * self._mean_extent)

    def disk_bytes(self) -> int:
        self._require_built()
        return self._disk_bytes

    def space_amplification(self) -> float:
        """On-disk replicas per vector (SPANN's cost, paper II-B)."""
        self._require_built()
        return self._replicas / self._X.shape[0]
