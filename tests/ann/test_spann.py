"""Behavioural tests for the SPANN cluster-based storage index."""

import numpy as np
import pytest

from repro.ann.spann import SPANNIndex
from repro.data.groundtruth import recall_at_k
from repro.errors import AnnIndexError


@pytest.fixture(scope="module")
def spann(small_data):
    return SPANNIndex(metric="cosine", n_postings=16, storage_dim=768,
                      ).build(small_data)


def test_recall_high_at_modest_nprobe(spann, small_queries, small_truth):
    ids = [spann.search(q, 10, nprobe=6).ids for q in small_queries]
    assert recall_at_k(small_truth, ids, 10) > 0.9


def test_recall_monotone_in_nprobe(spann, small_queries, small_truth):
    recalls = []
    for nprobe in (1, 4, 16):
        ids = [spann.search(q, 10, nprobe=nprobe, prune_eps=10.0).ids
               for q in small_queries]
        recalls.append(recall_at_k(small_truth, ids, 10))
    assert recalls[0] <= recalls[1] <= recalls[2]
    assert recalls[2] > 0.97


def test_single_io_round_per_query(spann, small_queries):
    """SPANN's defining I/O shape: one parallel round of list reads —
    no dependent chain like DiskANN's graph traversal."""
    for q in small_queries[:8]:
        result = spann.search(q, 10, nprobe=6)
        assert result.work.io_rounds == 1


def test_reads_are_large_and_page_aligned(spann, small_queries):
    result = spann.search(small_queries[0], 10, nprobe=6)
    io_step = [s for s in result.work.steps if hasattr(s, "requests")][0]
    for offset, size in io_step.requests:
        assert offset % 4096 == 0
        assert size % 4096 == 0
        assert size >= 4096


def test_space_amplification_from_replication(small_data):
    tight = SPANNIndex(metric="cosine", n_postings=16, closure_eps=0.0,
                       storage_dim=768).build(small_data)
    loose = SPANNIndex(metric="cosine", n_postings=16, closure_eps=0.5,
                       storage_dim=768).build(small_data)
    assert tight.space_amplification() == pytest.approx(1.0, abs=0.01)
    assert loose.space_amplification() > tight.space_amplification()
    assert loose.space_amplification() <= 8.0  # replica cap
    assert loose.disk_bytes() > tight.disk_bytes()


def test_replicas_deduplicate_in_results(spann, small_queries):
    for q in small_queries[:8]:
        ids = spann.search(q, 10, nprobe=16, prune_eps=10.0).ids
        assert len(set(ids.tolist())) == len(ids)


def test_pruning_reduces_io(spann, small_queries):
    pruned = sum(spann.search(q, 10, nprobe=12,
                              prune_eps=0.05).work.io_bytes
                 for q in small_queries)
    unpruned = sum(spann.search(q, 10, nprobe=12,
                                prune_eps=10.0).work.io_bytes
                   for q in small_queries)
    assert pruned < unpruned


def test_centroids_stay_in_memory(spann, small_data):
    assert spann.memory_bytes() < small_data.nbytes
    assert spann.disk_bytes() > 0


def test_every_vector_reachable(spann, small_data):
    found = set()
    for ids in spann._lists:
        found.update(int(i) for i in ids)
    assert found == set(range(len(small_data)))


def test_self_query_finds_self(spann, small_data):
    result = spann.search(small_data[7], 5, nprobe=8)
    assert 7 in result.ids


def test_bad_params_raise(small_data, spann):
    with pytest.raises(AnnIndexError):
        SPANNIndex(max_replicas=0)
    with pytest.raises(AnnIndexError):
        SPANNIndex(closure_eps=-0.1)
    with pytest.raises(AnnIndexError):
        spann.search(small_data[0], 5, nprobe=0)
    with pytest.raises(AnnIndexError):
        SPANNIndex(n_postings=10 ** 6).build(small_data)


def test_search_before_build_raises():
    with pytest.raises(AnnIndexError):
        SPANNIndex().search(np.zeros(4), 1)
