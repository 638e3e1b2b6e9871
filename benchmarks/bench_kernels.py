"""Kernel-level microbenchmarks of the batched query hot path.

Standalone script (deliberately *not* named ``test_*`` so pytest skips
it): compares the batched kernels against their per-query counterparts
at the numpy level, below the index classes that ``bench/run.py`` drives.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]

Covers the three primitives the vectorized path is built from:

* ``make_batch_kernel`` (fixed-width padded GEMM) vs a per-query loop,
* ``ProductQuantizer.adc_tables`` + ``adc_distances_batch`` vs the
  per-query ``adc_table`` + ``adc_distances`` pair,
* ``top_k_batch`` vs a row-wise ``top_k`` loop,

and the rewrites that are held to a reference implementation kept
under ``tests/``: the Vamana build (rows/s, graphs compared edge by
edge), the DiskANN beam search (queries/s; ids, distance bytes, work
steps and cache counters compared), CRC-32C (MB/s, digests compared)
and the replay path — ``Resource.hold`` (events/s of a closed loop;
firing logs compared) and ``SimSSD.submit`` (us per call; completion
delays and channel state compared).  Those sections exit non-zero on
any *inequality*; no section fails on a speed.
"""

from __future__ import annotations

import argparse
import copy
import pathlib
import sys
import time

import numpy as np

from repro.ann.diskann import DiskANNIndex, DiskLayout
from repro.ann.distance import make_batch_kernel, top_k, top_k_batch
from repro.ann.pq import ProductQuantizer
from repro.ann.vamana import build_vamana
from repro.data.synthetic import make_vectors
from repro.durability.record import crc32c
from repro.simkernel import Environment, Resource
from repro.storage import SimSSD, samsung_990pro_4tb

# The reference implementations live with the tests that use them.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.ann import reference_diskann, reference_vamana  # noqa: E402
from tests.durability import reference_crc32c  # noqa: E402
from tests.simkernel import reference_resources  # noqa: E402
from tests.storage import reference_device  # noqa: E402


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_gemm_kernel(n: int, dim: int, n_queries: int) -> None:
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, dim), dtype=np.float32)
    Q = rng.standard_normal((n_queries, dim), dtype=np.float32)
    for metric in ("l2", "ip"):
        kernel = make_batch_kernel(X, metric)
        loop_s = best_of(lambda: [kernel(Q[i:i + 1], slice(None))
                                  for i in range(n_queries)])
        batch_s = best_of(lambda: kernel(Q, slice(None)))
        print(f"  scan[{metric:>3}] n={n} dim={dim} B={n_queries}: "
              f"loop {loop_s * 1e3:7.1f} ms  batch {batch_s * 1e3:7.1f} ms "
              f"({loop_s / batch_s:4.1f}x)")


def bench_adc(n: int, dim: int, n_queries: int, m: int) -> None:
    rng = np.random.default_rng(1)
    X = rng.standard_normal((n, dim), dtype=np.float32)
    Q = rng.standard_normal((n_queries, dim), dtype=np.float32)
    pq = ProductQuantizer(dim, m=m).train(X[:4096])
    codes = pq.encode(X)

    def loop() -> None:
        for q in Q:
            ProductQuantizer.adc_distances(pq.adc_table(q), codes)

    def batch() -> None:
        ProductQuantizer.adc_distances_batch(pq.adc_tables(Q), codes)

    loop_s, batch_s = best_of(loop), best_of(batch)
    print(f"  adc      n={n} m={m} B={n_queries}: "
          f"loop {loop_s * 1e3:7.1f} ms  batch {batch_s * 1e3:7.1f} ms "
          f"({loop_s / batch_s:4.1f}x)")


def bench_top_k(n: int, n_queries: int, k: int) -> None:
    rng = np.random.default_rng(2)
    dists = rng.standard_normal((n_queries, n)).astype(np.float32)
    loop_s = best_of(lambda: [top_k(row, k) for row in dists])
    batch_s = best_of(lambda: top_k_batch(dists, k))
    print(f"  top_k    n={n} k={k} B={n_queries}: "
          f"loop {loop_s * 1e3:7.1f} ms  batch {batch_s * 1e3:7.1f} ms "
          f"({loop_s / batch_s:4.1f}x)")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_build(n: int, dim: int) -> bool:
    """Vamana rows/s, current vs reference; True iff the graphs match."""
    data = make_vectors(n, dim, n_clusters=max(16, int(n ** 0.5 / 2)),
                        seed=4, latent_dim=32)
    args = (data, "cosine", 32, 96, 1.3, 0)
    built, build_s = timed(lambda: build_vamana(*args))
    expected, reference_s = timed(
        lambda: reference_vamana.build_vamana(*args))
    same = built.medoid == expected.medoid and all(
        got.dtype == want.dtype and np.array_equal(got, want)
        for got, want in zip(built.neighbors, expected.neighbors))
    print(f"  build    n={n} dim={dim}: reference "
          f"{n / reference_s:7.0f} rows/s  current {n / build_s:7.0f} rows/s "
          f"({reference_s / build_s:4.1f}x)  "
          f"graph {'identical' if same else 'DIFFERS'}")
    return same


def bench_search(n: int, dim: int, n_queries: int) -> bool:
    """DiskANN queries/s, current vs reference; True iff all is equal.

    Both sides search their own deep copy of one built index, cold then
    warm, so the dynamic cache evolves on each and is compared too.
    """
    data = make_vectors(n, dim, n_clusters=max(16, int(n ** 0.5 / 2)),
                        seed=6, latent_dim=32)
    queries = make_vectors(n_queries, dim, n_clusters=8, seed=7,
                           latent_dim=32)
    node_bytes = DiskLayout(storage_dim=1536, R=32).node_bytes
    built = DiskANNIndex(metric="cosine", R=32, storage_dim=1536,
                         cache_bytes=n // 4 * node_bytes,
                         lru_bytes=n // 16 * node_bytes).build(data)
    same = True
    for search_list in (10, 100):
        for beam_width in (1, 4):
            params = {"search_list": search_list, "beam_width": beam_width}
            current, oracle = copy.deepcopy(built), copy.deepcopy(built)
            got, search_s = timed(lambda: [
                current.search(query, 10, **params)
                for _ in range(2) for query in queries])
            want, reference_s = timed(lambda: [
                reference_diskann.search(oracle, query, 10, **params)
                for _ in range(2) for query in queries])
            equal = current.cache_stats() == oracle.cache_stats() and all(
                np.array_equal(mine.ids, theirs.ids)
                and mine.dists.tobytes() == theirs.dists.tobytes()
                and mine.work.steps == theirs.work.steps
                for mine, theirs in zip(got, want))
            same = same and equal
            print(f"  search   n={n} L={search_list:<3} W={beam_width}: "
                  f"reference {len(want) / reference_s:6.0f} q/s  current "
                  f"{len(got) / search_s:6.0f} q/s "
                  f"({reference_s / search_s:4.1f}x)  "
                  f"results {'identical' if equal else 'DIFFER'}")
    return same


def bench_crc(n_bytes: int) -> bool:
    """CRC-32C MB/s, current vs reference; True iff the digests match."""
    data = np.random.default_rng(5).bytes(n_bytes)
    digest, crc_s = timed(lambda: crc32c(data))
    expected, reference_s = timed(lambda: reference_crc32c.crc32c(data))
    same = digest == expected
    print(f"  crc32c   {n_bytes / 1e6:.1f} MB: reference "
          f"{n_bytes / reference_s / 1e6:6.1f} MB/s  current "
          f"{n_bytes / crc_s / 1e6:6.1f} MB/s ({reference_s / crc_s:4.1f}x)  "
          f"digest {'equal' if same else 'DIFFERS'}")
    return same


def bench_hold(clients: int, steps: int) -> bool:
    """Events/s of a closed loop of CPU steps on a core pool, current
    (``yield pool.hold(d)``) vs reference (``yield from pool.use(d)``);
    True iff both fire the same log and count the same events."""

    def run(resource_cls, hold: bool):
        env = Environment()
        # Fewer slots than clients: grants on the spot and queued ones.
        pool = resource_cls(env, clients - 2)
        log = []

        def client(client_id: int):
            for step in range(steps):
                duration = 1e-5 * (1 + (client_id + step) % 3)
                if hold:
                    yield pool.hold(duration)
                else:
                    yield from pool.use(duration)
                log.append((env.now, client_id))

        for client_id in range(clients):
            env.process(client(client_id))
        _, run_s = timed(env.run)
        return (log, env.events_processed, env.now, pool.busy_time()), run_s

    got, hold_s = run(Resource, True)
    want, reference_s = run(reference_resources.Resource, False)
    same = got == want
    events = want[1]
    print(f"  hold     clients={clients} steps={steps}: reference "
          f"{events / reference_s / 1e3:6.0f} kev/s  current "
          f"{events / hold_s / 1e3:6.0f} kev/s "
          f"({reference_s / hold_s:4.1f}x)  "
          f"firing order {'identical' if same else 'DIFFERS'}")
    return same


def bench_submit(n_batches: int) -> bool:
    """Microseconds per ``SimSSD.submit``, current vs reference, on
    beams shaped like the replay's (1-4 requests, mostly 4 KiB); True
    iff every completion delay and the final device state are equal."""
    rng = np.random.default_rng(8)
    batches = [[(int(offset) * 4096, 4096 if small else 8192)
                for offset, small in zip(
                    rng.integers(0, 1 << 20, size=rng.integers(1, 5)),
                    rng.random(4) < 0.9)]
               for _ in range(n_batches)]

    def run(device_cls):
        env = Environment()
        device = device_cls(env, samsung_990pro_4tb())
        submit = device.submit

        def drive():
            delays = []
            for i, batch in enumerate(batches):
                delays.append(submit(batch, "R").delay)
                if i % 64 == 63:     # let the channels drain a little
                    env.run(until=env.now + 1e-4)
            return delays

        delays, submit_s = timed(drive)
        return (delays, sorted(device._channel_free), device.bytes_read,
                device.reads_issued, device.utilization(1.0)), submit_s

    got, submit_s = run(SimSSD)
    want, reference_s = run(reference_device.SimSSD)
    same = got == want
    print(f"  submit   batches={n_batches}: reference "
          f"{reference_s / n_batches * 1e6:5.2f} us  current "
          f"{submit_s / n_batches * 1e6:5.2f} us "
          f"({reference_s / submit_s:4.1f}x)  "
          f"delays {'equal' if same else 'DIFFER'}")
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    n = 5_000 if args.quick else 50_000
    n_queries = 32 if args.quick else 128
    print("batched kernels vs per-query loops (best-of-3 wall clock):")
    bench_gemm_kernel(n, 64, n_queries)
    bench_adc(n, 64, n_queries, m=16)
    bench_top_k(n, n_queries, k=10)
    print("rewrites vs their reference implementations (single run):")
    build_sizes = (300, 800) if args.quick else (800, 2_000)
    equal = [bench_build(size, 96) for size in build_sizes]
    equal.append(bench_search(800 if args.quick else 2_000, 192,
                              16 if args.quick else 48))
    equal.append(bench_crc(500_000 if args.quick else 5_000_000))
    print("replay path vs its reference implementations (single run):")
    equal.append(bench_hold(16, 2_000 if args.quick else 10_000))
    equal.append(bench_submit(20_000 if args.quick else 100_000))
    return 0 if all(equal) else 1


if __name__ == "__main__":
    raise SystemExit(main())
