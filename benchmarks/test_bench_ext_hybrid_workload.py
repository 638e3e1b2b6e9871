"""Extension (paper Section VIII): hybrid read/write workloads.

The paper's future work: searches with concurrent insert/WAL writes.
NAND read/write interference should raise read tail latency and the
block trace should now contain writes alongside the 4 KiB reads.
"""

from conftest import run_once
from repro.core.figures import get_runner, tuned_params
from repro.core.report import format_table
from repro.mutate import CompactionPolicy, MutationLoad
from repro.mutate.simproc import ROW_BYTES

DATASET = "cohere-10m"


def wal_stream(bytes_per_flush: int, interval_s: float) -> MutationLoad:
    """Insert-only WAL traffic: *bytes_per_flush* every *interval_s*
    seconds into a circular log, with compaction out of reach."""
    rows = bytes_per_flush // ROW_BYTES
    return MutationLoad(insert_qps=rows / interval_s, delete_qps=0,
                        batch_rows=rows,
                        policy=CompactionPolicy(delta_rows=2**62))


def run_pair():
    runner = get_runner("milvus-diskann", DATASET)
    params = tuned_params("milvus-diskann", DATASET)
    read_only = runner.run(16, params, duration_s=2.0)
    hybrid = runner.run(16, params, duration_s=2.0,
                        mutation=wal_stream(4 * 512 * 1024, 0.001))
    return read_only, hybrid


def test_bench_hybrid_read_write_interference(benchmark):
    read_only, hybrid = run_once(benchmark, run_pair)
    print("\n" + format_table(
        ["workload", "QPS", "P99 (us)", "read MiB/s", "write MiB/s"],
        [["search-only", f"{read_only.qps:.0f}",
          f"{read_only.p99_latency_s * 1e6:.0f}",
          f"{read_only.read_bandwidth / (1 << 20):.1f}", "0.0"],
         ["search + writes", f"{hybrid.qps:.0f}",
          f"{hybrid.p99_latency_s * 1e6:.0f}",
          f"{hybrid.read_bandwidth / (1 << 20):.1f}",
          f"{hybrid.write_bytes / hybrid.elapsed_s / (1 << 20):.1f}"]]))
    assert read_only.write_bytes == 0
    assert hybrid.write_bytes > 0
    # Read/write interference: tail latency must not improve, and the
    # write stream costs some search throughput.
    assert hybrid.p99_latency_s >= read_only.p99_latency_s
    assert hybrid.qps <= read_only.qps * 1.02


def test_bench_hybrid_trace_contains_writes():
    runner = get_runner("milvus-diskann", DATASET)
    params = tuned_params("milvus-diskann", DATASET)
    result = runner.run(8, params, duration_s=1.0, trace=True,
                        mutation=wal_stream(2 * 64 * 1024, 0.002))
    ops = {record.op for record in result.tracer.records}
    assert ops == {"R", "W"}
    # Reads stay pure 4 KiB even with the write stream interleaved.
    read_sizes = {r.size for r in result.tracer.records if r.op == "R"}
    assert read_sizes == {4096}
