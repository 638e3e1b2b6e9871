"""Shared machinery for the benchmark harness.

``test_bench_paper.py`` is one loop over the paper's artifact registry
(:data:`repro.core.study.ARTIFACTS`, indexed in DESIGN.md section 4): it
regenerates each table or figure, prints the reproduced rows, and
asserts the observation checks attached to it; the ``test_bench_ext_*``
files do the same for the beyond-the-paper extensions.  Heavy sweeps are
shared through the in-process caches of :mod:`repro.core.figures`, so
running the whole directory costs each experiment once.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
reproduced tables inline.
"""


def run_once(benchmark, fn):
    """Record *fn* with pytest-benchmark, executing it exactly once.

    The experiments are deterministic simulations; repeating them would
    only re-measure harness overhead.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
