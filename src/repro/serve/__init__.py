"""repro.serve — the open-loop serving layer.

Turns the benchmark runner's compiled query replay into a *service*
facing offered load: seeded arrival processes, a bounded admission
queue with pluggable policies (FIFO, weighted fair queueing, EDF),
dynamic batching, deadline-based load shedding, and an AIMD concurrency
controller — with goodput-centric SLO accounting in
:class:`ServeResult`.  See ``docs/SERVING.md`` for the design and
:mod:`repro.serve.study` for the study CLI behind ``repro serve``.
The per-tenant control plane that closes the loop around this layer
lives in :mod:`repro.tenancy`.
"""

from repro.serve.arrivals import (ArrivalModel, BurstyArrivals,
                                  DiurnalArrivals, PoissonArrivals)
from repro.serve.controller import AIMDConfig, ConcurrencyController
from repro.serve.queueing import (POLICIES, AdmissionQueue, EdfQueue,
                                  FifoQueue, QueuedQuery,
                                  WeightedFairQueue, make_queue)
from repro.serve.result import ServeResult, TenantStats
from repro.serve.server import ServeConfig, Server, TenantLoad

__all__ = [
    "AIMDConfig",
    "AdmissionQueue",
    "ArrivalModel",
    "BurstyArrivals",
    "ConcurrencyController",
    "DiurnalArrivals",
    "EdfQueue",
    "FifoQueue",
    "POLICIES",
    "PoissonArrivals",
    "QueuedQuery",
    "ServeConfig",
    "ServeResult",
    "Server",
    "TenantLoad",
    "TenantStats",
    "WeightedFairQueue",
    "make_queue",
]
