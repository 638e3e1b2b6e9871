"""Tests for the mmap-backed HNSW adapter (Qdrant's storage setup)."""

import numpy as np
import pytest

from repro.ann.hnsw import HNSWIndex
from repro.engines.mmap import MmapHNSWIndex, wrap_mmap
from repro.errors import AnnIndexError


@pytest.fixture(scope="module")
def mmap_index(small_data):
    return MmapHNSWIndex(metric="cosine", M=8, ef_construction=40,
                         storage_dim=768,
                         cache_bytes=1 << 30).build(small_data)


def test_results_match_memory_hnsw(small_data, small_queries, mmap_index):
    memory = HNSWIndex(metric="cosine", M=8, ef_construction=40,
                       ).build(small_data)
    for q in small_queries[:8]:
        assert np.array_equal(memory.search(q, 10, ef_search=30).ids,
                              mmap_index.search(q, 10, ef_search=30).ids)


def test_cold_search_faults_pages(mmap_index, small_queries):
    mmap_index.reset_dynamic_cache()
    cold = mmap_index.search(small_queries[0], 10, ef_search=30)
    assert cold.work.io_requests > 0
    assert cold.work.io_bytes % 4096 == 0


def test_warm_search_is_io_free(mmap_index, small_queries):
    mmap_index.reset_dynamic_cache()
    mmap_index.search(small_queries[0], 10, ef_search=30)
    warm = mmap_index.search(small_queries[0], 10, ef_search=30)
    assert warm.work.io_requests == 0
    assert warm.work.cache_hits > 0


def test_working_set_becomes_resident(mmap_index, small_data,
                                      small_queries):
    """The paper's Qdrant finding: with ample memory, after warm-up the
    mmap setup issues no I/O at all."""
    mmap_index.reset_dynamic_cache()
    for q in small_queries:
        mmap_index.search(q, 10, ef_search=30)
    total = sum(mmap_index.search(q, 10, ef_search=30).work.io_requests
                for q in small_queries)
    assert total == 0


def test_starved_cache_keeps_faulting(small_data, small_queries):
    starved = MmapHNSWIndex(metric="cosine", M=8, ef_construction=40,
                            storage_dim=768,
                            cache_bytes=8 * 4096).build(small_data)
    volumes = []
    for _repeat in range(2):
        volumes.append(sum(
            starved.search(q, 10, ef_search=30).work.io_bytes
            for q in small_queries[:8]))
    assert volumes[1] > 0  # thrashing: repeats still fault


def test_faults_merge_adjacent_pages(small_data, small_queries):
    # 768-d vectors: 3072 B each, so consecutive nodes share pages and
    # adjacent misses coalesce into multi-page requests.
    index = MmapHNSWIndex(metric="cosine", M=8, ef_construction=40,
                          storage_dim=768, cache_bytes=1 << 30,
                          ).build(small_data)
    index.reset_dynamic_cache()
    result = index.search(small_queries[0], 10, ef_search=30)
    io_step = result.work.steps[0]
    assert any(size > 4096 for _off, size in io_step.requests) or (
        len(io_step.requests) > 1)


def test_memory_excludes_vectors(mmap_index, small_data):
    mmap_index.reset_dynamic_cache()
    assert mmap_index.memory_bytes() < small_data.nbytes
    assert mmap_index.disk_bytes() >= 500 * 4 * 768


def test_wrap_mmap_requires_built(small_data):
    with pytest.raises(AnnIndexError):
        wrap_mmap(HNSWIndex(metric="cosine"), 768, 1 << 20)


def test_wrap_mmap_reuses_graph(small_data, small_queries):
    built = HNSWIndex(metric="cosine", M=8, ef_construction=40,
                      ).build(small_data)
    wrapped = wrap_mmap(built, 768, 1 << 30)
    result = wrapped.search(small_queries[0], 10, ef_search=30)
    assert np.array_equal(result.ids,
                          built.search(small_queries[0], 10,
                                       ef_search=30).ids)
