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
* ``top_k_batch`` vs a row-wise ``top_k`` loop.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.ann.distance import make_batch_kernel, top_k, top_k_batch
from repro.ann.pq import ProductQuantizer


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
