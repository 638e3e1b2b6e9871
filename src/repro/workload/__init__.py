"""Workload harness: VectorDBBench-equivalent generator and runner."""

from repro.workload.metrics import (RunResult, Summary, geometric_mean,
                                    percentile, summarize)
from repro.workload.runner import (BenchRunner, CompiledQuery,
                                   work_extrapolation)
from repro.workload.setup import (SETUPS, SetupSpec, make_runner,
                                  prepare_collection, setup_names)

__all__ = [
    "BenchRunner",
    "CompiledQuery",
    "RunResult",
    "SETUPS",
    "SetupSpec",
    "Summary",
    "geometric_mean",
    "make_runner",
    "percentile",
    "prepare_collection",
    "setup_names",
    "summarize",
    "work_extrapolation",
]
