"""Vamana: the graph construction behind DiskANN (paper [68]).

A single-layer proximity graph built in two passes of greedy-search +
RobustPrune with a relaxation factor ``alpha`` > 1, which keeps a few
long-range edges so searches starting at the medoid converge in few
hops — the property that makes the graph viable on storage.

RobustPrune's multiplicative slack requires *non-negative* distances,
so graphs are always built on the prepared representation from
:func:`repro.ann.distance.prepare` (cosine becomes squared-L2 on unit
vectors); raw inner product is rejected.

How the build is fast without moving an edge
--------------------------------------------
The textbook loop scores a handful of gathered rows per hop (~100 hops
per inserted node) and once more per kept edge, which in numpy is one
padded GEMM and a dozen temporaries each time.  The loop below asks
for the same numbers in bulk and keeps its bookkeeping in plain Python
ints and floats; for every ``(X, metric, R, L_build, alpha, seed)`` it
returns the medoid and adjacency arrays — values, order, dtype — the
textbook loop returns (``tests/ann/test_vamana_identity.py`` holds it
to the seed implementation kept in ``tests/ann/reference_vamana.py``).

* **The build's query is a dataset row.**  Every ``_BLOCK`` consecutive
  nodes of the insertion order get their row kernels from
  :func:`~repro.ann.distance.make_row_kernels`: on the cosine path one
  call scores the block against all of ``X`` and the greedy search
  *looks distances up*.  The looked-up bits are the ones a per-hop
  gather would have produced because
  :func:`~repro.ann.distance.make_kernel` scores a row from its content
  and the query alone; the one exception, a gather of exactly one row
  (another BLAS route, another rounding), is still issued for real.
  ``l2`` rows come from the row kernel's own ``diff`` formula, gathered
  per hop: the norm expansion of ``make_batch_kernel`` rounds
  differently, and the ``diff`` formula over all of ``X`` would cost
  more than the gathers it saves.
* **Adjacency is ``list[list[int]]``** while the graph is mutable and
  is frozen to ``int64`` arrays once at the end.
* **Admission stays sequential.**  A neighbour enters the candidate
  list iff it beats the bound *as left by the neighbours before it*;
  filtering a hop's neighbours against the bound at hop start admits a
  superset whenever a distance ties the bound (duplicated vectors).
* **RobustPrune scores a block of candidates per call.**  The padded
  GEMM is sixteen columns wide whether one is used or all, so the next
  sixteen surviving candidates are scored against the survivors in one
  call and the keep loop becomes boolean-mask updates in float64 (the
  textbook compares ``alpha * float(d)`` with a Python float).
"""

from __future__ import annotations

import typing as t
from heapq import heappop, heappush, heappushpop

import numpy as np

from repro.ann.distance import make_kernel, make_row_kernels, prepare
from repro.errors import AnnIndexError

Kernel = t.Callable[[np.ndarray, t.Any], np.ndarray]

#: Nodes whose row kernels are bound together: one padded GEMM's worth
#: of queries, which keeps the build's scratch at a few ``_BLOCK * n``
#: float32 rows (under 8 MiB at n = 40 000).
_BLOCK = 16


class VamanaGraph:
    """The built graph: adjacency lists, the medoid, prepared vectors."""

    def __init__(self, X: np.ndarray, internal_metric: str,
                 neighbors: list[np.ndarray], medoid: int, R: int) -> None:
        self.X = X
        self.internal_metric = internal_metric
        self.neighbors = neighbors
        self.medoid = medoid
        self.R = R
        self.kernel: Kernel = make_kernel(X, internal_metric)

    # The kernel closure cannot be pickled; rebuild it on load.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("kernel", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.kernel = make_kernel(self.X, self.internal_metric)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def degree_stats(self) -> tuple[float, int]:
        degrees = [len(nbrs) for nbrs in self.neighbors]
        return float(np.mean(degrees)), int(np.max(degrees))

    def high_degree_nodes(self, count: int) -> list[int]:
        """The *count* best-connected nodes (in+out degree, desc).

        High in-degree hubs are the traversal magnets every beam search
        crosses; the hotness cache pins them so they survive cache
        drops.  Ties break on node id for determinism.
        """
        if count <= 0:
            return []
        out_degree = np.fromiter(map(len, self.neighbors), dtype=np.int64,
                                 count=self.n)
        in_degree = np.bincount(np.concatenate(self.neighbors),
                                minlength=self.n)
        order = np.lexsort((np.arange(self.n), -(out_degree + in_degree)))
        return order[:count].tolist()


def greedy_search(neighbors: t.Sequence[t.Sequence[int]], kernel: Kernel,
                  start: int, query: np.ndarray,
                  L: int) -> tuple[list[tuple[float, int]],
                                   list[tuple[float, int]]]:
    """Best-first search keeping an L-sized candidate list.

    Returns ``(top_L_candidates, all_visited)`` both as (distance, id)
    lists sorted by distance.  Used by the index build; the DiskANN
    *search* path re-implements this loop with beams and I/O accounting.

    *neighbors* may hold arrays or plain lists of ids; *kernel* returns
    an array, or a list of Python floats (the build passes a lookup
    into precomputed rows).
    """
    start_dist = float(kernel(query, [start])[0])
    visited: list[tuple[float, int]] = []
    frontier = [(start_dist, start)]
    best: list[tuple[float, int]] = [(-start_dist, start)]
    seen = {start}
    # ``bound`` is the worst distance in ``best`` and ``room`` how many
    # more entries ``best`` takes before it holds L.
    bound, room = start_dist, L - 1
    while frontier:
        hop = heappop(frontier)
        if room <= 0 and hop[0] > bound:
            break
        visited.append(hop)
        fresh = [nid for nid in neighbors[hop[1]] if nid not in seen]
        if not fresh:
            continue
        seen.update(fresh)
        dists = kernel(query, fresh)
        if not isinstance(dists, list):
            dists = dists.tolist()
        # Each neighbour is admitted against the bound its predecessors
        # left behind, never against the bound at hop start.
        for d, nid in zip(dists, fresh):
            if room > 0:
                heappush(best, (-d, nid))
                room -= 1
            elif d < bound:
                heappushpop(best, (-d, nid))
            else:
                continue
            heappush(frontier, (d, nid))
            bound = -best[0][0]
    visited.sort()
    return sorted((-d, nid) for d, nid in best), visited


def robust_prune(X: np.ndarray, kernel: Kernel, node: int,
                 candidates: t.Iterable[tuple[float, int]], alpha: float,
                 R: int) -> np.ndarray:
    """DiskANN's RobustPrune: diverse out-edges with alpha slack.

    Keeps the closest candidate, then discards every candidate that is
    ``alpha`` times closer to a kept neighbour than to the node itself;
    repeats until R edges are kept.  Distances must be non-negative.
    A *kernel* that advertises ``block_width`` (see
    :func:`~repro.ann.distance.make_kernel`) is handed that many
    candidate rows per call; any other is called one query at a time.
    """
    pool: dict[int, float] = {}
    for dist, nid in candidates:
        if nid != node:
            pool.setdefault(nid, dist)
    ids = np.fromiter(pool, dtype=np.int64, count=len(pool))
    limit = np.fromiter(pool.values(), dtype=np.float64, count=len(pool))
    # Stable: candidates at equal distance stay in first-seen order.
    order = np.argsort(limit, kind="stable")
    ids, limit = ids[order], limit[order]
    kept: list[int] = []
    # ``ids``/``limit`` shrink to the candidates still in play, closest
    # first; each round scores as many of them as one call does for
    # free against all of them.
    width = getattr(kernel, "block_width", 1)
    while ids.size and len(kept) < R:
        if ids.size > 2:
            # dead[b, j]: keeping ids[b] discards ids[j].  float64
            # before the multiply, like ``alpha * float(d)``.
            head = X[ids[:width]] if width > 1 else X[ids[0]]
            between = np.atleast_2d(kernel(head, ids)).astype(np.float64)
            dead = alpha * between <= limit
        alive = np.ones(ids.size, dtype=bool)
        for b in range(min(width, ids.size)):
            if not alive[b]:
                continue
            kept.append(ids[b])
            alive[b] = False
            left = np.count_nonzero(alive)
            if left == 0 or len(kept) == R:
                return np.array(kept, dtype=np.int64)
            if left == 1:
                # A one-row gather: its own BLAS route, its own bits.
                between = kernel(X[ids[b]], ids[alive])
                if alpha * float(between[0]) <= limit[alive][0]:
                    return np.array(kept, dtype=np.int64)
            else:
                alive &= ~dead[b]
        ids, limit = ids[alive], limit[alive]
    return np.array(kept, dtype=np.int64)


def build_vamana(X: np.ndarray, metric: str = "l2", R: int = 32,
                 L_build: int = 64, alpha: float = 1.2,
                 seed: int = 0) -> VamanaGraph:
    """Two-pass Vamana construction (alpha=1 pass, then alpha pass)."""
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[0] == 0:
        raise AnnIndexError(f"Vamana needs non-empty 2D data: {X.shape}")
    if R < 1 or L_build < 1:
        raise AnnIndexError(
            f"Vamana needs R >= 1 and L_build >= 1: R={R} L_build={L_build}")
    if alpha < 1.0:
        raise AnnIndexError(f"alpha must be >= 1.0: {alpha}")
    if metric == "ip":
        raise AnnIndexError(
            "Vamana needs non-negative distances; use l2 or cosine")
    if not np.isfinite(X).all():
        bad = int(np.isfinite(X).all(axis=1).argmin())
        raise AnnIndexError(
            f"Vamana needs finite vectors: row {bad} holds NaN or inf")
    X, internal_metric = prepare(X, metric)
    kernel = make_kernel(X, internal_metric)
    row_kernels = make_row_kernels(X, internal_metric)
    n = X.shape[0]
    R = min(R, max(1, n - 1))
    rng = np.random.default_rng(seed)

    medoid = int(kernel(X.mean(axis=0), slice(None)).argmin())
    neighbors: list[list[int]] = []
    for node in range(n):
        choices = rng.choice(n, size=min(R, n - 1), replace=False)
        neighbors.append(choices[choices != node].tolist())

    passes = (1.0, alpha) if alpha > 1.0 else (1.0,)
    for pass_alpha in passes:
        order = rng.permutation(n)
        for start in range(0, n, _BLOCK):
            block = order[start:start + _BLOCK]
            for node, score in zip(block.tolist(), row_kernels(block)):
                _top, pool = greedy_search(
                    neighbors, lambda _query, ids: score(ids), medoid,
                    None, L_build)
                if neighbors[node]:
                    pool.extend(zip(score(neighbors[node]),
                                    neighbors[node]))
                kept = robust_prune(X, kernel, node, pool, pass_alpha,
                                    R).tolist()
                neighbors[node] = kept
                for nid in kept:
                    back = neighbors[nid]
                    if node in back:
                        continue
                    if len(back) < R:
                        back.append(node)
                    else:
                        extended = back + [node]
                        cand = zip(kernel(X[nid], extended).tolist(),
                                   extended)
                        neighbors[nid] = robust_prune(
                            X, kernel, nid, cand, pass_alpha, R).tolist()
    frozen = [np.asarray(nbrs, dtype=np.int64) for nbrs in neighbors]
    return VamanaGraph(X, internal_metric, frozen, medoid, R)
