"""Tests for the hybrid read/write workload support."""

import pytest

from repro.engines import IndexSpec, VectorEngine
from repro.errors import WorkloadError
from repro.mutate import CompactionPolicy, MutationLoad
from repro.mutate.simproc import ROW_BYTES
from repro.workload import BenchRunner


def wal_stream(bytes_per_flush: int = 64 * 1024,
               interval_s: float = 0.002) -> MutationLoad:
    """One insert stream flushing *bytes_per_flush* WAL bytes every
    *interval_s* seconds, with compaction out of reach."""
    rows = bytes_per_flush // ROW_BYTES
    return MutationLoad(insert_qps=rows / interval_s, delete_qps=0,
                        batch_rows=rows,
                        policy=CompactionPolicy(delta_rows=2**62))


@pytest.fixture(scope="module")
def runner(small_data, small_queries):
    import dataclasses
    from repro.engines import get_profile
    profile = dataclasses.replace(get_profile("milvus"),
                                  diskann_cache_bytes=0,
                                  diskann_lru_bytes=0)
    engine = VectorEngine(profile)
    engine.create_collection("h", small_data.shape[1],
                             IndexSpec.of("diskann", R=8, L_build=16),
                             storage_dim=768)
    engine.insert("h", small_data)
    engine.flush("h")
    return BenchRunner(engine, "h", small_queries)


def test_write_load_validation():
    with pytest.raises(WorkloadError):
        MutationLoad(batch_rows=0)
    with pytest.raises(WorkloadError):
        MutationLoad(insert_qps=-1)


def test_writes_reach_the_device(runner):
    result = runner.run(4, {"search_list": 16}, duration_s=0.5,
                        mutation=wal_stream(128 * 1024))
    assert result.write_bytes > 0


def test_no_writes_without_load(runner):
    result = runner.run(4, {"search_list": 16}, duration_s=0.5)
    assert result.write_bytes == 0
    assert result.mutation is None


def test_interference_raises_read_latency(runner):
    quiet = runner.run(8, {"search_list": 16}, duration_s=0.5)
    noisy = runner.run(8, {"search_list": 16}, duration_s=0.5,
                       mutation=wal_stream(8 << 20, 0.0005))
    assert noisy.p99_latency_s > quiet.p99_latency_s
    assert noisy.qps < quiet.qps


def test_large_flushes_split_at_block_layer_cap(runner):
    result = runner.run(1, {"search_list": 16}, duration_s=0.3,
                        trace=True, mutation=wal_stream(1 << 20))
    write_sizes = {r.size for r in result.tracer.records if r.op == "W"}
    assert write_sizes  # some writes traced
    assert max(write_sizes) <= runner.device_spec.max_request_bytes


def test_write_offsets_stay_in_log_region(runner):
    result = runner.run(1, {"search_list": 16}, duration_s=0.3,
                        trace=True, mutation=wal_stream())
    segment = runner.collection.segments[0]
    base = runner._segment_bases[segment.segment_id]
    size = segment.index.disk_bytes()
    for record in result.tracer.records:
        if record.op == "W":
            # writes never land inside the index file
            assert not (base <= record.offset < base + size)


# One writer flushing B bytes every I seconds: the run's signature, and
# a sha256 over the block trace's (timestamp, op, size) fields, pinned
# from the closed loop's former dedicated writer process.
PINNED = {
    (64 * 1024, 0.002): dict(
        qps=4397.155292379407, p99=0.0023314768000002317,
        mean=0.001816958602647396, completed=2206,
        read_bytes=228192256, write_bytes=15138816,
        cpu=0.08703374505529334, dev=0.0895495121444737,
        trace="e4903ab31e7e19865ba48f4711f3088d"
              "7ff8341bbd971846ad11edbc7c04dded"),
    (1 << 20, 0.0005): dict(
        qps=4729.737425592569, p99=0.001941056339200028,
        mean=0.0016887034558113107, completed=2373,
        read_bytes=240676864, write_bytes=628097024,
        cpu=0.0904817853697488, dev=0.2635313620008829,
        trace="8ea55369ebe19b50c073a58e03ca7a47"
              "0b6963c96f8897c47740f4677b998e0a"),
}


@pytest.mark.parametrize("flush", sorted(PINNED))
def test_single_writer_stream_reproduces_pinned_run(runner, flush):
    import hashlib
    result = runner.run(8, {"search_list": 16}, duration_s=0.5,
                        trace=True, mutation=wal_stream(*flush))
    digest = hashlib.sha256()
    for rec in result.tracer.records:
        digest.update(f"{rec.timestamp!r},{rec.op},{rec.size}\n".encode())
    assert dict(qps=result.qps, p99=result.p99_latency_s,
                mean=result.mean_latency_s, completed=result.completed,
                read_bytes=result.read_bytes,
                write_bytes=result.write_bytes, cpu=result.cpu_utilization,
                dev=result.device_utilization,
                trace=digest.hexdigest()) == PINNED[flush]


def test_run_result_counts_wal_flushes_and_compactions(runner):
    load = MutationLoad(insert_qps=20_000, delete_qps=2_000, batch_rows=64,
                        policy=CompactionPolicy(delta_rows=2_000))
    result = runner.run(4, {"search_list": 16}, duration_s=0.3,
                        mutation=load, telemetry=True)
    stats = result.mutation
    assert stats.inserted_rows > 0 and stats.deleted_rows > 0
    assert stats.wal_flushes == (stats.inserted_rows
                                 + stats.deleted_rows) // 64
    assert stats.compactions == len(stats.compaction_windows) >= 2
    assert all(start < end for start, end in stats.compaction_windows)
    # The drained run's device saw exactly the stream's writes.
    assert result.write_bytes == (stats.wal_bytes
                                  + stats.compaction_write_bytes)
    counters = result.telemetry.counters
    assert counters["mutate_wal_flushes"].value == stats.wal_flushes
    assert counters["mutate_compactions"].value == stats.compactions
