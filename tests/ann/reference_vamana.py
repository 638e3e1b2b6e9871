"""The seed's Vamana construction, kept verbatim as the identity oracle.

``greedy_search``, ``robust_prune`` and ``build_vamana`` below are the
bodies ``src/repro/ann/vamana.py`` had before the array-native rewrite:
one padded GEMM per hop, one per kept edge, numpy adjacency throughout.
``tests/ann/test_vamana_identity.py`` requires the shipped builder to
reproduce their output bit for bit; ``benchmarks/bench_kernels.py``
times the shipped builder against them.  Do not optimise this file.
"""

from __future__ import annotations

import heapq
import typing as t

import numpy as np

from repro.ann.distance import make_kernel, prepare
from repro.ann.vamana import VamanaGraph
from repro.errors import AnnIndexError

Kernel = t.Callable[[np.ndarray, t.Any], np.ndarray]


def greedy_search(neighbors: list[np.ndarray], kernel: Kernel, start: int,
                  query: np.ndarray,
                  L: int) -> tuple[list[tuple[float, int]],
                                   list[tuple[float, int]]]:
    """Best-first search keeping an L-sized candidate list.

    Returns ``(top_L_candidates, all_visited)`` both as (distance, id)
    lists sorted by distance.  Used by the index build; the DiskANN
    *search* path re-implements this loop with beams and I/O accounting.
    """
    start_dist = float(kernel(query, [start])[0])
    visited: dict[int, float] = {}
    frontier = [(start_dist, start)]
    best: list[tuple[float, int]] = [(-start_dist, start)]
    seen = {start}
    while frontier:
        dist, node = heapq.heappop(frontier)
        if len(best) >= L and dist > -best[0][0]:
            break
        visited[node] = dist
        fresh = [nid for nid in neighbors[node] if nid not in seen]
        if not fresh:
            continue
        seen.update(fresh)
        dists = kernel(query, fresh)
        for d, nid in zip(dists, fresh):
            d = float(d)
            if len(best) < L or d < -best[0][0]:
                heapq.heappush(frontier, (d, nid))
                heapq.heappush(best, (-d, nid))
                if len(best) > L:
                    heapq.heappop(best)
    top = sorted((-d, nid) for d, nid in best)
    return top, sorted((d, nid) for nid, d in visited.items())


def robust_prune(X: np.ndarray, kernel: Kernel, node: int,
                 candidates: list[tuple[float, int]], alpha: float,
                 R: int) -> np.ndarray:
    """DiskANN's RobustPrune: diverse out-edges with alpha slack.

    Keeps the closest candidate, then discards every candidate that is
    ``alpha`` times closer to a kept neighbour than to the node itself;
    repeats until R edges are kept.  Distances must be non-negative.
    """
    pool: dict[int, float] = {}
    for dist, nid in candidates:
        if nid != node:
            pool.setdefault(int(nid), float(dist))
    kept: list[int] = []
    order = sorted(pool.items(), key=lambda item: item[1])
    alive = {nid for nid, _d in order}
    for nid, _dist in order:
        if len(kept) >= R:
            break
        if nid not in alive:
            continue
        kept.append(nid)
        alive.discard(nid)
        if not alive:
            break
        rest = list(alive)
        to_kept = kernel(X[nid], rest)
        for other, d_between in zip(rest, to_kept):
            if alpha * float(d_between) <= pool[other]:
                alive.discard(other)
    return np.asarray(kept, dtype=np.int64)


def build_vamana(X: np.ndarray, metric: str = "l2", R: int = 32,
                 L_build: int = 64, alpha: float = 1.2,
                 seed: int = 0) -> VamanaGraph:
    """Two-pass Vamana construction (alpha=1 pass, then alpha pass)."""
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[0] == 0:
        raise AnnIndexError(f"Vamana needs non-empty 2D data: {X.shape}")
    if alpha < 1.0:
        raise AnnIndexError(f"alpha must be >= 1.0: {alpha}")
    if metric == "ip":
        raise AnnIndexError(
            "Vamana needs non-negative distances; use l2 or cosine")
    X, internal_metric = prepare(X, metric)
    kernel = make_kernel(X, internal_metric)
    n = X.shape[0]
    R = min(R, max(1, n - 1))
    rng = np.random.default_rng(seed)

    medoid = int(kernel(X.mean(axis=0), slice(None)).argmin())
    neighbors: list[np.ndarray] = []
    for node in range(n):
        choices = rng.choice(n, size=min(R, n - 1), replace=False)
        neighbors.append(choices[choices != node].astype(np.int64))

    passes = (1.0, alpha) if alpha > 1.0 else (1.0,)
    for pass_alpha in passes:
        for node in rng.permutation(n):
            node = int(node)
            _top, visited = greedy_search(neighbors, kernel, medoid,
                                          X[node], L_build)
            pool = list(visited)
            if len(neighbors[node]):
                current_dists = kernel(X[node], neighbors[node])
                pool.extend((float(d), int(nid)) for d, nid in
                            zip(current_dists, neighbors[node]))
            neighbors[node] = robust_prune(X, kernel, node, pool,
                                           pass_alpha, R)
            for nid in neighbors[node]:
                nid = int(nid)
                if node in neighbors[nid]:
                    continue
                if len(neighbors[nid]) < R:
                    neighbors[nid] = np.append(neighbors[nid], node)
                else:
                    extended = np.append(neighbors[nid], node)
                    cand_dists = kernel(X[nid], extended)
                    cand = [(float(d), int(c)) for d, c in
                            zip(cand_dists, extended)]
                    neighbors[nid] = robust_prune(X, kernel, nid, cand,
                                                  pass_alpha, R)
    return VamanaGraph(X, internal_metric, neighbors, medoid, R)
