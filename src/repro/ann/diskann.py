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

How the search is fast without moving a bit
-------------------------------------------
Every RQ3 cell is a functional pass through :meth:`DiskANNIndex.search`,
so each beam round is a handful of array calls, and for every index,
query and parameter set it returns the ids, distance bits, work steps
and cache effects of the textbook loop over Python tuples and sets
(kept in ``tests/ann/reference_diskann.py``;
``tests/ann/test_diskann_identity.py`` holds the two together).

* **The candidate list is two parallel arrays sorted by (dist, id)** —
  ``np.lexsort((ids, dists))`` is the order a sort of ``(dist, id)``
  tuples gives, ties included.  The frontier is the first
  ``beam_width`` unvisited *positions*.
* **Membership is two boolean maps local to the call** (visited; in the
  list or visited).  An id truncated out of the list is unmarked unless
  visited, so it can re-enter and be re-scored — ``pq_evals`` counts
  that.  A full list is only merged with the neighbours that tie or
  beat its worst entry: the others would be truncated straight out.
* **One ADC gather per round**, reduced over a contiguous ``(rows, m)``
  block (the shape whose bits ``ProductQuantizer.adc_distances``
  produces), and **one exact-kernel call per round on that round's
  rows**: a one-row gather goes through BLAS ``gemv`` and rounds
  differently from ``gemm``, so rounds are neither batched nor padded.
* **Traversal, then accounting.**  The path through the graph (ids,
  distance bits, ``pq_evals``, ``full_evals``) depends on no cache, so
  :meth:`DiskANNIndex._traverse` records it per round and
  :meth:`DiskANNIndex._account` walks it through the static/dynamic
  node caches and the prefetcher afterwards, steps in the seed's order.
* **Nothing is cached on the index outside a compile.**  Segments are
  pickled whole into the durable store and the index cache; per-query
  constants are derived inside the call, and no table proportional to
  ``n * pq_m`` exists beside ``codes``.  Only inside
  :meth:`DiskANNIndex.reuse_traversals` — a plan compile's cold and
  warm passes — does the index hold traversals, and the scope deletes
  them on exit.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import numbers
import typing as t

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


def _count(name: str, value: t.Any, minimum: int) -> int:
    """*value* as an int >= *minimum*; bools, floats and None refused."""
    if type(value) is not int:          # the common case skips the ABC
        if isinstance(value, bool) or not isinstance(value,
                                                     numbers.Integral):
            raise AnnIndexError(
                f"{name} must be >= {minimum}, an integer: {value!r}")
        value = int(value)
    if value < minimum:
        raise AnnIndexError(
            f"{name} must be >= {minimum}, an integer: {value}")
    return value


class Traversal(t.NamedTuple):
    """One beam search's path, independent of every cache.

    Round ``r`` expanded the next ``widths[r]`` entries of ``visits``
    and PQ-scored ``scored[r]`` fresh neighbours; ``tails`` holds, per
    round, the ``tail_widths[r]`` unvisited list entries ranked beyond
    the beam (the look-ahead prefetcher's candidates), recorded only
    for searches that prefetch.
    """

    visits: np.ndarray                  # int64, in visit order
    dists: np.ndarray                   # exact distances, parallel
    widths: list[int]                   # per round
    scored: list[int]                   # per round
    tails: np.ndarray | None            # int64, rounds concatenated
    tail_widths: list[int] | None       # per round


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
        sector = self.sector
        per_node = self.sectors_per_node
        if per_node == 1:
            return ((node // self.nodes_per_sector * sector, sector),)
        first = node * per_node
        return tuple((s * sector, sector)
                     for s in range(first, first + per_node))

    def total_bytes(self, n: int) -> int:
        if self.node_bytes <= self.sector:
            return -(-n // self.nodes_per_sector) * self.sector
        return n * self.sectors_per_node * self.sector


class DiskANNIndex(VectorIndex):
    """PQ-in-memory, graph-on-SSD index with beam search."""

    kind = "diskann"
    storage_based = True
    #: Traversals awaiting their second use; an instance attribute only
    #: inside :meth:`reuse_traversals`.
    _traversals: dict[tuple, Traversal] | None = None

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

        The search is a cache-independent traversal
        (:meth:`_traverse`) followed by the stateful accounting walk
        over its rounds (:meth:`_account`); inside
        :meth:`reuse_traversals` a traversal is searched once and its
        second use only walks the accounting.
        """
        self._require_built()
        k = _count("k", k, 1)
        search_list = _count("search_list", search_list, 1)
        beam_width = _count("beam_width", beam_width, 1)
        prefetch_depth = _count("prefetch_depth", prefetch_depth, 0)
        if cache_policy is not None:
            self.set_cache_policy(cache_policy)
        search_list = max(search_list, k)
        query = prepare_query(query, self.metric)
        record_tails = prefetch_depth > 0
        memo = self._traversals
        if memo is None:
            path = self._traverse(query, search_list, beam_width,
                                  record_tails)
        else:
            key = (query.tobytes(), search_list, beam_width, record_tails)
            path = memo.pop(key, None)
            if path is None:
                path = memo[key] = self._traverse(query, search_list,
                                                  beam_width, record_tails)
        work = self._account(path, prefetch_depth)
        # Stable: equal distances keep their visit order.
        best = np.argsort(path.dists, kind="stable")[:k]
        return SearchResult(ids=path.visits[best], work=work,
                            dists=path.dists[best].astype(np.float32))

    @contextlib.contextmanager
    def reuse_traversals(self) -> t.Iterator[None]:
        """Search each (query, search_list, beam_width) once in here.

        The first search of a key stores its traversal, the next one
        takes it back and runs only the cache/prefetch accounting and
        the top-k cut — what a compile's warm pass needs, since its
        traversals are the cold pass's.  The memo is deleted on exit,
        so nothing outlives the scope (or reaches a pickle); a nested
        scope shares the outer one.
        """
        if self._traversals is not None:
            yield
            return
        self._traversals = {}
        try:
            yield
        finally:
            del self._traversals

    def _traverse(self, query: np.ndarray, search_list: int,
                  beam_width: int, record_tails: bool) -> Traversal:
        """The beam search's path, which no cache state can change."""
        # Per-query constants: derived here, never stored on the index.
        codes = self.codes
        neighbors = self.graph.neighbors
        kernel = self.graph.kernel
        table = self.pq.adc_tables(query[None])[0]
        flat_table = table.ravel()
        offsets = np.arange(table.shape[0]) * table.shape[1]

        def pq_distances(rows: np.ndarray) -> np.ndarray:
            # One take over a contiguous (rows, m) gather, reduced along
            # m: the bits ProductQuantizer.adc_distances produces.
            return flat_table.take(
                codes.take(rows, axis=0) + offsets).sum(axis=1)

        medoid = self.graph.medoid
        # The candidate list: parallel arrays sorted by (dist, id).
        ids = np.array([medoid], dtype=np.int64)
        dists = pq_distances(ids)
        n = self.graph.n
        expanded = np.zeros(n, dtype=bool)      # visited
        known = np.zeros(n, dtype=bool)         # in the list, or visited
        known[medoid] = True
        visit_order: list[int] = []
        visit_dists: list[np.ndarray] = []
        widths: list[int] = []
        scored: list[int] = []
        ranked: list[np.ndarray] = []

        while True:
            unvisited = (~expanded[ids]).nonzero()[0]
            if not unvisited.size:
                break
            frontier_ids = ids[unvisited[:beam_width]]
            frontier = frontier_ids.tolist()
            expanded[frontier_ids] = True
            if record_tails:
                ranked.append(ids[unvisited[beam_width:]])

            # Full-precision distances of the fetched nodes (their raw
            # vectors arrived with the sectors) — DiskANN's re-ranking.
            # One call per round on that round's rows: a one-row gather
            # rounds differently from a many-row one (gemv vs gemm), so
            # rounds are neither batched nor padded.
            visit_dists.append(kernel(query, frontier_ids))
            visit_order.extend(frontier)

            adjacent = np.concatenate([neighbors[nid] for nid in frontier])
            fresh = adjacent[~known[adjacent]]
            if len(frontier) > 1 and fresh.size > 1:
                # Two frontier nodes may share a neighbour (one node's
                # adjacency array never repeats an id).
                fresh.sort()
                first = np.empty(fresh.size, dtype=bool)
                first[0] = True
                np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
                fresh = fresh[first]
            widths.append(len(frontier))
            scored.append(fresh.size)
            if not fresh.size:
                continue
            fresh_dists = pq_distances(fresh)
            if ids.size == search_list:
                # A full list only admits what ties or beats its worst
                # entry; the rest would be sorted in and truncated
                # straight out again, unmarked, free to re-enter (and be
                # re-scored) later.  Most late rounds admit nothing.
                entering = fresh_dists <= dists[-1]
                if not entering.any():
                    continue
                fresh = fresh[entering]
                fresh_dists = fresh_dists[entering]
            known[fresh] = True
            ids = np.concatenate((ids, fresh))
            dists = np.concatenate((dists, fresh_dists))
            order = np.lexsort((ids, dists))
            if order.size > search_list:
                # Ids truncated out of the list may re-enter too,
                # unless they were already visited.
                dropped = ids[order[search_list:]]
                known[dropped] = expanded[dropped]
                order = order[:search_list]
            ids = ids[order]
            dists = dists[order]

        return Traversal(
            visits=np.asarray(visit_order, dtype=np.int64),
            dists=np.concatenate(visit_dists), widths=widths, scored=scored,
            tails=np.concatenate(ranked) if record_tails else None,
            tail_widths=([tail.size for tail in ranked] if record_tails
                         else None))

    def _account(self, path: Traversal, prefetch_depth: int) -> WorkProfile:
        """Walk *path*'s rounds through the caches and the prefetcher.

        Hits, admissions, speculation and the ``WorkProfile`` steps in
        round order, frontier order, on Python ints — everything about a
        search that depends on what earlier searches left cached.
        """
        work = WorkProfile()
        work.add_cpu(pq_evals=1, table_builds=1)
        static_cache = self._static_cache
        node_cache = self._node_cache
        node_requests = self.layout.node_requests
        prefetcher = None
        if prefetch_depth > 0:
            prefetcher = LookaheadPrefetcher(prefetch_depth,
                                             self.prefetch_stats)
            tails = path.tails.tolist()
            tail_widths = path.tail_widths

            def resident(nid: int) -> bool:
                return nid in static_cache or nid in node_cache
        visits = path.visits.tolist()
        static_hits = lru_hits = misses = 0
        start = tail_start = 0
        for round_, (width, scored) in enumerate(zip(path.widths,
                                                     path.scored)):
            requests: dict[tuple[int, int], None] = {}
            hits = 0
            prefetch_hits = 0
            for nid in visits[start:start + width]:
                if nid in static_cache:
                    hits += 1
                    static_hits += 1
                elif nid in node_cache:
                    node_cache.touch(nid)
                    hits += 1
                    lru_hits += 1
                elif prefetcher is not None and prefetcher.consume(nid):
                    # Landed (or landing) speculatively: no demand read,
                    # but the round must join the in-flight speculation.
                    prefetch_hits += 1
                    node_cache.admit(nid)
                else:
                    misses += 1
                    for request in node_requests(nid):
                        requests[request] = None
                    node_cache.admit(nid)
            start += width
            if prefetch_hits:
                work.add_prefetch_join()
            if prefetcher is not None:
                tail_end = tail_start + tail_widths[round_]
                speculated = prefetcher.plan(tails[tail_start:tail_end],
                                             resident)
                tail_start = tail_end
                speculative: dict[tuple[int, int], None] = {}
                for nid in speculated:
                    for request in node_requests(nid):
                        speculative[request] = None
                work.add_prefetch(list(speculative))
            if requests or hits or prefetch_hits:
                work.add_io(list(requests), cache_hits=hits,
                            prefetch_hits=prefetch_hits)
            work.add_cpu(full_evals=width, pq_evals=scored)
        self.static_hits += static_hits
        self.lru_hits += lru_hits
        self.cache_misses += misses
        if prefetcher is not None:
            work.prefetch_wasted = prefetcher.finish()
            work.prefetch_issued = (work.prefetch_hits
                                    + work.prefetch_wasted)
        return work

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
