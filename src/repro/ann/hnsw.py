"""HNSW: the memory-based graph index of Malkov & Yashunin (paper [54]).

A hierarchy of navigable-small-world layers; search greedily descends
the upper layers and then runs a best-first expansion with a candidate
list of size ``ef`` on the bottom layer (paper Figure 1b).  Build-time
parameters ``M`` and ``efConstruction`` follow the paper's settings
(M=16, efConstruction=200, Table II).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.distance import make_kernel, prepare, prepare_query
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import AnnIndexError


class _EvalCounter:
    """Counts distance evaluations during one search or insert.

    When *log* is given, the ids of every evaluated node are appended
    to it — the mmap adapter uses this to derive page accesses.
    """

    __slots__ = ("count", "log")

    def __init__(self, log: list | None = None) -> None:
        self.count = 0
        self.log = log

    def add(self, ids) -> None:
        self.count += len(ids)
        if self.log is not None:
            self.log.extend(int(i) for i in ids)


class HNSWIndex(VectorIndex):
    """Hierarchical navigable small-world graph."""

    kind = "hnsw"

    def __init__(self, metric: str = "l2", M: int = 16,
                 ef_construction: int = 200, seed: int = 0) -> None:
        if M < 2:
            raise AnnIndexError(f"M must be >= 2: {M}")
        super().__init__(metric)
        self.M = M
        self.M0 = 2 * M                      # bottom layer allows 2M links
        self.ef_construction = ef_construction
        self.seed = seed
        self._mult = 1.0 / math.log(M)
        self._X: np.ndarray | None = None
        #: adjacency[level][node] -> list[int]; upper levels are sparse
        #: dicts keyed by node id.
        self._layers: list[dict[int, list[int]]] = []
        self._entry: int = -1
        self._node_levels: np.ndarray | None = None

    # The distance kernel is a closure and cannot be pickled; drop it on
    # serialization and rebuild it on load (IndexStore caches indexes).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_kern", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._X is not None:
            self._kern = make_kernel(self._X, self._imetric)

    # -- construction -----------------------------------------------------

    def build(self, X: np.ndarray) -> "HNSWIndex":
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[0] == 0:
            raise AnnIndexError(f"HNSW needs non-empty 2D data: {X.shape}")
        self._X, self._imetric = prepare(X, self.metric)
        self._kern = make_kernel(self._X, self._imetric)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self._node_levels = np.minimum(
            (-np.log(rng.uniform(size=n)) * self._mult).astype(np.int64), 31)
        top = int(self._node_levels.max())
        self._layers = [dict() for _ in range(top + 1)]
        for node in range(n):
            self._insert(node)
        self._freeze_adjacency()
        self._built = True
        return self

    def _freeze_adjacency(self) -> None:
        """Convert adjacency lists to int64 arrays once inserts finish.

        Search then gathers neighbour vectors through contiguous index
        arrays instead of Python lists, which is what the fancy-indexing
        fast path in numpy wants.
        """
        for layer in self._layers:
            for node, links in layer.items():
                layer[node] = np.asarray(links, dtype=np.int64)

    def _insert(self, node: int) -> None:
        level = int(self._node_levels[node])
        query = self._X[node]
        for lc in range(level + 1):
            self._layers[lc][node] = []
        if self._entry < 0:
            self._entry = node
            return
        counter = _EvalCounter()
        entry = self._entry
        entry_level = int(self._node_levels[self._entry])
        for lc in range(entry_level, level, -1):
            entry = self._greedy_step(query, entry, lc, counter)
        for lc in range(min(level, entry_level), -1, -1):
            candidates = self._search_layer(query, [entry], lc,
                                            self.ef_construction, counter)
            m_max = self.M0 if lc == 0 else self.M
            neighbors = self._select_neighbors(query, candidates, self.M)
            self._layers[lc][node] = [nid for _d, nid in neighbors]
            for _d, nid in neighbors:
                links = self._layers[lc][nid]
                links.append(node)
                if len(links) > m_max:
                    link_dists = self._kern(self._X[nid], links)
                    pruned = self._select_neighbors(
                        self._X[nid],
                        [(float(d), c) for d, c in zip(link_dists, links)],
                        m_max)
                    self._layers[lc][nid] = [c for _d, c in pruned]
            entry = candidates[0][1]
        if level > entry_level:
            self._entry = node

    def _greedy_step(self, query: np.ndarray, entry: int, level: int,
                     counter: _EvalCounter) -> int:
        """Greedy walk to the local minimum on one upper layer."""
        current = entry
        current_dist = float(self._kern(query, [current])[0])
        counter.add([current])
        improved = True
        while improved:
            improved = False
            links = self._layers[level].get(current)
            if links is None or len(links) == 0:
                break
            dists = self._kern(query, links)
            counter.add(links)
            best = int(dists.argmin())
            if dists[best] < current_dist:
                current = int(links[best])
                current_dist = float(dists[best])
                improved = True
        return current

    def _search_layer(self, query: np.ndarray, entries: list[int],
                      level: int, ef: int,
                      counter: _EvalCounter) -> list[tuple[float, int]]:
        """Best-first expansion; returns ef candidates sorted by distance.

        This is steps 2-4 of the paper's Figure 1b: maintain the top-ef
        candidate list L and the visited set V, expanding the closest
        unvisited candidate until L stabilizes.
        """
        entry_dists = self._kern(query, entries)
        counter.add(entries)
        visited = set(entries)
        candidates = [(float(d), e) for d, e in zip(entry_dists, entries)]
        heapq.heapify(candidates)                      # min-heap to expand
        results = [(-d, e) for d, e in candidates]     # max-heap to trim
        heapq.heapify(results)
        while candidates:
            dist, node = heapq.heappop(candidates)
            if dist > -results[0][0] and len(results) >= ef:
                break
            neighbors = self._layers[level].get(node)
            if neighbors is None or len(neighbors) == 0:
                continue
            fresh = [int(nid) for nid in neighbors if int(nid) not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            fresh = np.asarray(fresh, dtype=np.int64)
            dists = self._kern(query, fresh)
            counter.add(fresh)
            for d, nid in zip(dists, fresh):
                d = float(d)
                if len(results) < ef or d < -results[0][0]:
                    heapq.heappush(candidates, (d, nid))
                    heapq.heappush(results, (-d, nid))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-d, nid) for d, nid in results)

    def _select_neighbors(self, query: np.ndarray,
                          candidates: list[tuple[float, int]],
                          m: int) -> list[tuple[float, int]]:
        """Diversity heuristic of the HNSW paper (select_neighbors_heuristic).

        A candidate is kept only if it is closer to the query than to
        every already-kept neighbour, which spreads links in different
        directions and keeps the graph navigable.
        """
        kept: list[tuple[float, int]] = []
        for dist, nid in sorted(candidates):
            if len(kept) >= m:
                break
            if not kept:
                kept.append((dist, nid))
                continue
            kept_ids = [c for _d, c in kept]
            to_kept = self._kern(self._X[nid], kept_ids)
            if np.all(dist <= to_kept):
                kept.append((dist, nid))
        if not kept:  # pathological ties: fall back to plain nearest
            kept = sorted(candidates)[:m]
        return kept

    # -- search -----------------------------------------------------------

    def search(self, query: np.ndarray, k: int, *,
               ef_search: int = 64,
               access_log: list | None = None) -> SearchResult:
        """Search the graph; *access_log* optionally collects the ids of
        every node whose vector was read (for paged/mmap storage)."""
        self._require_built()
        if k < 1:
            raise AnnIndexError(f"k must be >= 1: {k}")
        if ef_search < 1:
            raise AnnIndexError(f"ef_search must be >= 1: {ef_search}")
        ef = max(ef_search, k)
        query = prepare_query(query, self.metric)
        counter = _EvalCounter(access_log)
        entry = self._entry
        for lc in range(int(self._node_levels[self._entry]), 0, -1):
            entry = self._greedy_step(query, entry, lc, counter)
        candidates = self._search_layer(query, [entry], 0, ef, counter)
        ids = np.asarray([nid for _d, nid in candidates[:k]], dtype=np.int64)
        dists = np.asarray([d for d, _nid in candidates[:k]],
                           dtype=np.float32)
        work = WorkProfile()
        work.add_cpu(full_evals=counter.count)
        return SearchResult(ids=ids, work=work, dists=dists)

    # -- footprints --------------------------------------------------------

    def memory_bytes(self) -> int:
        self._require_built()
        links = sum(len(neighbors) for layer in self._layers
                    for neighbors in layer.values())
        return self._X.nbytes + links * 4 + len(self._X) * 8

    def graph_degree_stats(self) -> tuple[float, int]:
        """(mean, max) bottom-layer out-degree; used by invariant tests."""
        self._require_built()
        degrees = [len(v) for v in self._layers[0].values()]
        return float(np.mean(degrees)), int(np.max(degrees))
