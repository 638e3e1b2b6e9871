"""DiskANN: the storage-based graph index of paper Section II-B.

Faithful to the architecture of Subramanya et al. [68] as deployed in
Milvus:

* a **Vamana graph** whose nodes (full-precision vector + adjacency
  list) live in a sector-aligned file on the SSD;
* **product-quantized codes of every vector in memory**, used to rank
  candidates during traversal;
* **beam search**: each iteration picks the ``beam_width`` closest
  unvisited candidates from the ``search_list``-sized candidate list and
  fetches their sectors in parallel — reading a small beam of 4 KiB
  pages costs about the same as one page on NVMe;
* a **static node cache** (BFS neighbourhood of the medoid) plus an
  **LRU node cache**, mirroring Milvus's DiskANN cache budget; cached
  nodes cost no I/O.

Searches return the exact block requests they would issue, so the engine
layer can replay them against the simulated device and the block tracer
sees the 4 KiB-dominated random-read stream the paper reports (O-15).
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.distance import prepare_query
from repro.ann.pq import ProductQuantizer
from repro.ann.vamana import VamanaGraph, build_vamana
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import AnnIndexError
from repro.prefetch import (CachePolicy, LookaheadPrefetcher, PrefetchStats,
                            make_policy)
from repro.storage.spec import PAGE_SIZE


@dataclasses.dataclass(frozen=True)
class DiskLayout:
    """Sector-aligned placement of graph nodes in the index file.

    ``storage_dim`` is the *nominal* vector dimensionality used for
    record sizing (768 or 1536 in the paper's datasets), which may be
    larger than the intrinsic dimension of the simulated vectors; this
    preserves the paper's on-disk geometry — a 768-d node fits in one
    4 KiB sector, a 1536-d node spans two.
    """

    storage_dim: int
    R: int
    sector: int = PAGE_SIZE

    @property
    def node_bytes(self) -> int:
        # full vector + degree word + R neighbour ids
        return 4 * self.storage_dim + 4 + 4 * self.R

    @property
    def nodes_per_sector(self) -> int:
        return max(1, self.sector // self.node_bytes)

    @property
    def sectors_per_node(self) -> int:
        return -(-self.node_bytes // self.sector)

    def node_requests(self, node: int) -> tuple[tuple[int, int], ...]:
        """(offset, size) reads needed to fetch one node.

        Multi-sector nodes are read as separate 4 KiB requests, matching
        the pure-4 KiB streams observed at the block layer (O-15).
        """
        if self.node_bytes <= self.sector:
            sector = node // self.nodes_per_sector
            return ((sector * self.sector, self.sector),)
        first = node * self.sectors_per_node
        return tuple((s * self.sector, self.sector)
                     for s in range(first, first + self.sectors_per_node))

    def total_bytes(self, n: int) -> int:
        if self.node_bytes <= self.sector:
            return -(-n // self.nodes_per_sector) * self.sector
        return n * self.sectors_per_node * self.sector


class DiskANNIndex(VectorIndex):
    """PQ-in-memory, graph-on-SSD index with beam search."""

    kind = "diskann"
    storage_based = True

    def __init__(self, metric: str = "l2", R: int = 32, L_build: int = 96,
                 alpha: float = 1.3, pq_m: int | None = None,
                 storage_dim: int | None = None, cache_bytes: int = 0,
                 lru_bytes: int = 0, seed: int = 0) -> None:
        """
        Args:
            R: graph degree bound.
            L_build: construction candidate-list size.
            alpha: RobustPrune relaxation.
            pq_m: PQ subspaces; defaults to one per dimension, which
                keeps PQ-steered recall at search_list=10 in the 0.93+
                band the paper's Table II reports.
            storage_dim: nominal on-disk dimensionality (default: the
                data's real dimension).
            cache_bytes: static BFS node-cache budget.
            lru_bytes: dynamic LRU node-cache budget.
        """
        super().__init__(metric)
        self.R = R
        self.L_build = L_build
        self.alpha = alpha
        self.pq_m = pq_m
        self.storage_dim = storage_dim
        self.cache_bytes = cache_bytes
        self.lru_bytes = lru_bytes
        self.seed = seed
        self.graph: VamanaGraph | None = None
        self.pq: ProductQuantizer | None = None
        self.codes: np.ndarray | None = None
        self.layout: DiskLayout | None = None
        self._static_cache: frozenset[int] = frozenset()
        self._policy_name = "lru"
        self._node_cache: CachePolicy = make_policy("lru", 0)
        self._lru_capacity = 0
        self.static_hits = 0
        self.lru_hits = 0
        self.cache_misses = 0
        self.prefetch_stats = PrefetchStats()

    # -- construction -----------------------------------------------------

    def build(self, X: np.ndarray) -> "DiskANNIndex":
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[0] == 0:
            raise AnnIndexError(f"DiskANN needs non-empty 2D data: {X.shape}")
        dim = X.shape[1]
        if self.storage_dim is None:
            self.storage_dim = dim
        if self.pq_m is None:
            self.pq_m = dim

        self.graph = build_vamana(X, self.metric, self.R, self.L_build,
                                  self.alpha, self.seed)
        # PQ is trained on the *prepared* vectors so its asymmetric
        # distances rank consistently with the graph's internal metric.
        prepared = self.graph.X
        self.pq = ProductQuantizer(dim, m=self.pq_m, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        n = prepared.shape[0]
        sample = prepared if n <= 20_000 else (
            prepared[rng.choice(n, 20_000, replace=False)])
        self.pq.train(sample)
        self.codes = self.pq.encode(prepared)
        self.layout = DiskLayout(self.storage_dim, self.R)
        self._build_caches(n)
        self._built = True
        return self

    def _build_caches(self, n: int) -> None:
        node_bytes = self.layout.node_bytes
        static_count = min(n, self.cache_bytes // node_bytes)
        cached: list[int] = []
        if static_count > 0:
            seen = {self.graph.medoid}
            queue = collections.deque([self.graph.medoid])
            while queue and len(cached) < static_count:
                node = queue.popleft()
                cached.append(node)
                for nid in self.graph.neighbors[node].tolist():
                    if nid not in seen:
                        seen.add(nid)
                        queue.append(nid)
        self._static_cache = frozenset(cached)
        self._lru_capacity = self.lru_bytes // node_bytes
        self._node_cache = self._make_node_cache(self._policy_name)

    def _make_node_cache(self, policy: str) -> CachePolicy:
        """The dynamic node cache under *policy* (pins for hotness)."""
        pinned: tuple[int, ...] = ()
        if policy == "hotness" and self._lru_capacity > 0:
            pinned = self._pin_candidates(
                max(1, self._lru_capacity // 4))
        return make_policy(policy, self._lru_capacity, pinned)

    def _pin_candidates(self, budget: int) -> tuple[int, ...]:
        """Entry point + high-degree hubs outside the static cache.

        These are the nodes every traversal crosses; pinning them in
        the hotness cache keeps them resident across ``drop_caches``.
        """
        ranked = [self.graph.medoid] + self.graph.high_degree_nodes(
            budget + len(self._static_cache) + 1)
        pinned: list[int] = []
        for nid in ranked:
            if nid in self._static_cache or nid in pinned:
                continue
            pinned.append(nid)
            if len(pinned) >= budget:
                break
        return tuple(pinned)

    def set_cache_policy(self, policy: str) -> None:
        """Switch the dynamic node cache's policy (resets its content)."""
        self._require_built()
        if policy == self._policy_name:
            return
        if policy not in ("lru", "hotness"):
            raise AnnIndexError(f"unknown cache policy {policy!r}")
        self._policy_name = policy
        self._node_cache = self._make_node_cache(policy)

    @property
    def cache_policy(self) -> str:
        """Name of the active dynamic-cache policy."""
        return self._policy_name

    def reset_dynamic_cache(self) -> None:
        """Empty the dynamic node cache (start of a fresh measured run).

        Under the hotness policy, pinned nodes and the frequency memory
        survive — the profiled-hotness semantics of GoVector: a dropped
        cache refills hot-first instead of thrashing from scratch.
        """
        self._node_cache.clear()

    def resize_caches(self, cache_bytes: int, lru_bytes: int) -> None:
        """Re-provision the node caches of a built index.

        Used by cache-budget ablations: the graph and PQ codes are
        untouched, only the static BFS cache and the LRU capacity are
        rebuilt for the new budgets.
        """
        self._require_built()
        if cache_bytes < 0 or lru_bytes < 0:
            raise AnnIndexError(
                f"negative cache budgets: {cache_bytes}/{lru_bytes}")
        self.cache_bytes = cache_bytes
        self.lru_bytes = lru_bytes
        self._build_caches(self.graph.n)

    # -- search -----------------------------------------------------------

    @staticmethod
    def degrade_search_params(params: dict, factor: float,
                              k: int) -> dict:
        """Shrunken search params for graceful degradation.

        Under sustained device pressure the resilience layer trades
        breadth for a bounded tail: ``search_list`` shrinks by *factor*
        (floored at ``k`` — the candidate list can never return fewer
        than the asked top-k) and ``beam_width`` shrinks alongside
        (floored at 1), so each dependent round puts fewer reads on a
        device that is already struggling to serve them.  All other
        knobs (prefetch, cache policy) pass through unchanged.
        """
        out = dict(params)
        if "search_list" in out:
            out["search_list"] = max(k, int(out["search_list"] * factor))
        if "beam_width" in out:
            out["beam_width"] = max(1, int(out["beam_width"] * factor))
        return out

    def search(self, query: np.ndarray, k: int, *, search_list: int = 10,
               beam_width: int = 4, prefetch_depth: int = 0,
               cache_policy: str | None = None) -> SearchResult:
        """Beam search with ``search_list`` candidates and I/O accounting.

        ``search_list`` is the paper's tunable L (candidate list size),
        ``beam_width`` its W — the number of unvisited candidates whose
        node sectors are fetched in parallel per iteration.

        ``prefetch_depth`` > 0 enables look-ahead prefetching: each
        round also issues speculative reads for up to that many of the
        best-ranked unvisited candidates *beyond* the beam — the likely
        next frontier.  ``cache_policy`` switches the dynamic node
        cache ("lru" or "hotness") before searching.  Neither parameter
        changes the traversal: returned ids and distances are
        bit-identical across all settings.
        """
        self._require_built()
        if search_list < 1 or beam_width < 1:
            raise AnnIndexError(
                f"bad params: search_list={search_list} "
                f"beam_width={beam_width}")
        if prefetch_depth < 0:
            raise AnnIndexError(f"bad prefetch_depth: {prefetch_depth}")
        if cache_policy is not None:
            self.set_cache_policy(cache_policy)
        search_list = max(search_list, k)
        query = prepare_query(query, self.metric)
        work = WorkProfile()
        prefetcher = (LookaheadPrefetcher(prefetch_depth,
                                          self.prefetch_stats)
                      if prefetch_depth > 0 else None)

        table = self.pq.adc_table(query)
        work.add_cpu(table_builds=1)
        medoid = self.graph.medoid
        medoid_dist = float(ProductQuantizer.adc_distances(
            table, self.codes[medoid:medoid + 1])[0])
        work.add_cpu(pq_evals=1)

        candidates: list[tuple[float, int]] = [(medoid_dist, medoid)]
        in_candidates = {medoid}
        visited: set[int] = set()
        exact: dict[int, float] = {}

        while True:
            unvisited = [nid for _d, nid in candidates
                         if nid not in visited]
            frontier = unvisited[:beam_width]
            if not frontier:
                break
            requests: dict[tuple[int, int], None] = {}
            hits = 0
            prefetch_hits = 0
            for nid in frontier:
                visited.add(nid)
                if nid in self._static_cache:
                    hits += 1
                    self.static_hits += 1
                elif nid in self._node_cache:
                    self._node_cache.touch(nid)
                    hits += 1
                    self.lru_hits += 1
                elif prefetcher is not None and prefetcher.consume(nid):
                    # Landed (or landing) speculatively: no demand read,
                    # but the round must join the in-flight speculation.
                    prefetch_hits += 1
                    self._node_cache.admit(nid)
                else:
                    self.cache_misses += 1
                    for request in self.layout.node_requests(nid):
                        requests[request] = None
                    self._node_cache.admit(nid)
            if prefetch_hits:
                work.add_prefetch_join()
            if prefetcher is not None:
                speculated = prefetcher.plan(
                    unvisited[beam_width:],
                    lambda nid: (nid in self._static_cache
                                 or nid in self._node_cache))
                speculative: dict[tuple[int, int], None] = {}
                for nid in speculated:
                    for request in self.layout.node_requests(nid):
                        speculative[request] = None
                work.add_prefetch(list(speculative))
            if requests or hits or prefetch_hits:
                work.add_io(list(requests), cache_hits=hits,
                            prefetch_hits=prefetch_hits)

            # Full-precision distances of the fetched nodes (their raw
            # vectors arrived with the sectors) — DiskANN's re-ranking.
            full = self.graph.kernel(
                query, np.asarray(frontier, dtype=np.int64))
            work.add_cpu(full_evals=len(frontier))
            for d, nid in zip(full, frontier):
                exact[nid] = float(d)

            fresh: list[int] = []
            for nid in frontier:
                for neighbor in self.graph.neighbors[nid]:
                    neighbor = int(neighbor)
                    if neighbor not in in_candidates:
                        in_candidates.add(neighbor)
                        fresh.append(neighbor)
            if fresh:
                pq_dists = ProductQuantizer.adc_distances(
                    table, self.codes[np.asarray(fresh, dtype=np.int64)])
                work.add_cpu(pq_evals=len(fresh))
                candidates.extend(
                    (float(d), nid) for d, nid in zip(pq_dists, fresh))
                candidates.sort()
                del candidates[search_list:]
                in_candidates = {nid for _d, nid in candidates} | visited

        best = sorted(exact.items(), key=lambda item: item[1])[:k]
        ids = np.asarray([nid for nid, _d in best], dtype=np.int64)
        dists = np.asarray([d for _nid, d in best], dtype=np.float32)
        if prefetcher is not None:
            work.prefetch_wasted = prefetcher.finish()
            work.prefetch_issued = (work.prefetch_hits
                                    + work.prefetch_wasted)
        return SearchResult(ids=ids, work=work, dists=dists)

    # -- footprints --------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident set: PQ codes + codebooks + node caches.

        The LRU term is its current *occupancy*, not its capacity —
        right after :meth:`reset_dynamic_cache` the dynamic cache holds
        nothing and charges nothing, which is what concurrency-OOM
        modeling needs.  Capacity planners that budget for a fully
        warmed cache should use :attr:`lru_capacity_bytes`.
        """
        self._require_built()
        total = self.codes.nbytes + self.pq.codebooks.nbytes
        total += len(self._static_cache) * self.layout.node_bytes
        total += len(self._node_cache) * self.layout.node_bytes
        return total

    @property
    def lru_capacity_bytes(self) -> int:
        """Provisioned (budgeted) size of the LRU node cache."""
        self._require_built()
        return self._lru_capacity * self.layout.node_bytes

    def cache_stats(self) -> dict[str, int]:
        """Cumulative node-cache + prefetch counters (telemetry)."""
        stats = self.prefetch_stats
        return {"static_hits": self.static_hits,
                "lru_hits": self.lru_hits,
                "misses": self.cache_misses,
                "prefetch_issued": stats.issued,
                "prefetch_useful": stats.useful,
                "prefetch_wasted": stats.wasted}

    def disk_bytes(self) -> int:
        self._require_built()
        return self.layout.total_bytes(self.graph.n)
