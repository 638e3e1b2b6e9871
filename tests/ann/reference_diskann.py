"""The seed's DiskANN beam search, kept verbatim as the identity oracle.

``search`` below is the body ``DiskANNIndex.search`` had before the
array-native rewrite — a Python list of ``(dist, id)`` tuples re-sorted
every round, sets for the visited / in-list maps, one ``einsum`` per PQ
subspace for the ADC table — as a plain function of the index (``self``
is the built :class:`~repro.ann.diskann.DiskANNIndex`).
``tests/ann/test_diskann_identity.py`` requires the shipped search to
reproduce its ids, distance bits, work steps and cache effects exactly;
``benchmarks/bench_kernels.py`` times the shipped search against it.
Never imported by ``src/``.  Do not optimise this file.
"""

from __future__ import annotations

import numpy as np

from repro.ann.distance import prepare_query
from repro.ann.pq import ProductQuantizer
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.errors import AnnIndexError
from repro.prefetch import LookaheadPrefetcher


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
