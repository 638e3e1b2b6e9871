"""Cross-shard top-k is the single-node top-k — for every index kind.

The property the scatter-gather merge rests on: when each shard's
index answers *exactly* (parameters chosen so no candidate is ever
pruned), merging per-shard top-k lists by ascending (distance, id)
must return precisely the ids the single-node index over the full
corpus returns — duplicated vectors and score ties included, for all
six index kinds and both engine metrics.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterTopology
from repro.engines.engine import IndexSpec, VectorEngine

N_ROWS = 240  # tied_data: 200 base + 40 duplicates, all <= 256

#: (kind, build params, search params) chosen so every index retrieves
#: exactly: flat scans; IVF probes every list; IVF-PQ stores raw codes
#: at this cardinality; HNSW/DiskANN frontiers cover the whole corpus;
#: SPANN probes every posting list with pruning disabled.
EXACT_SETUPS = [
    ("flat", {}, {}),
    ("ivf", {"nlist": 8}, {"nprobe": 8}),
    ("ivf-pq", {"nlist": 8, "pq_m": 4}, {"nprobe": 8}),
    ("hnsw", {"M": 16, "ef_construction": 200},
     {"ef_search": N_ROWS}),
    ("diskann", {"R": 32, "L_build": 64, "alpha": 1.2},
     {"search_list": N_ROWS}),
    ("spann", {"n_postings": 8},
     {"nprobe": 8, "prune_eps": 10.0}),
]


def _profile():
    profile = VectorEngine("milvus").profile
    return dataclasses.replace(
        profile,
        supported_indexes=profile.supported_indexes + ("spann", "ivf-pq"))


@pytest.mark.parametrize("metric", ["l2", "cosine"])
@pytest.mark.parametrize("kind,build,search",
                         EXACT_SETUPS, ids=[s[0] for s in EXACT_SETUPS])
def test_cross_shard_topk_matches_single_node(tied_data, tied_queries,
                                              kind, build, search,
                                              metric):
    spec = IndexSpec.of(kind, metric, **build)
    k = 10

    single = VectorEngine(_profile(), seed=0)
    single.create_collection("c", tied_data.shape[1], spec)
    single.insert("c", tied_data)
    single.flush("c")
    expected = single.search_batch("c", tied_queries, k, **search)

    cluster = Cluster(ClusterTopology(n_shards=3, seed=0), _profile(),
                      seed=0)
    cluster.create_collection("c", tied_data.shape[1], spec)
    cluster.insert("c", tied_data)
    cluster.flush("c")
    merged = cluster.search_batch("c", tied_queries, k, **search)

    for q, (want, got) in enumerate(zip(expected, merged)):
        assert np.array_equal(want.ids, got.ids), (
            f"{kind}/{metric} query {q}: {want.ids} != {got.ids}")
        assert np.array_equal(want.dists, got.dists), (
            f"{kind}/{metric} query {q}: distance drift")


@pytest.mark.parametrize("sharding,kwargs", [
    ("hash", {}),
    ("range", {"rows_per_shard": 80}),
])
def test_both_sharding_kinds_preserve_flat_answers(tied_data,
                                                   tied_queries,
                                                   sharding, kwargs):
    spec = IndexSpec.of("flat", "l2")
    single = VectorEngine("milvus", seed=0)
    single.create_collection("c", tied_data.shape[1], spec)
    single.insert("c", tied_data)
    single.flush("c")
    expected = single.search_batch("c", tied_queries, 10)

    topo = ClusterTopology(n_shards=3, sharding=sharding, seed=0,
                           **kwargs)
    cluster = Cluster(topo, "milvus", seed=0)
    cluster.create_collection("c", tied_data.shape[1], spec)
    cluster.insert("c", tied_data)
    cluster.flush("c")
    merged = cluster.search_batch("c", tied_queries, 10)
    for want, got in zip(expected, merged):
        assert np.array_equal(want.ids, got.ids)


def test_duplicates_tie_break_by_ascending_id(tied_data):
    """Query an exact duplicate: both copies tie at distance zero and
    the merge must put the lower (original) id first, even though the
    copies usually live on different shards."""
    cluster = Cluster(ClusterTopology(n_shards=3, seed=0), "milvus",
                      seed=0)
    cluster.create_collection("c", tied_data.shape[1],
                              IndexSpec.of("flat", "l2"))
    cluster.insert("c", tied_data)
    cluster.flush("c")
    for dup in range(10):
        hits = cluster.search("c", tied_data[dup], 2)
        assert hits.ids[0] == dup
        assert hits.ids[1] == 200 + dup
        assert hits.dists[0] == hits.dists[1]
