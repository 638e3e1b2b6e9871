"""repro: reproduction of "Storage-Based Approximate Nearest Neighbor
Search: What are the Performance, Cost, and I/O Characteristics?"
(IISWC 2025).

Subpackages
-----------
- ``repro.simkernel`` — deterministic discrete-event simulation kernel;
- ``repro.storage``  — calibrated NVMe/SATA device, page cache, tracer;
- ``repro.ann``      — IVF, HNSW, Vamana/DiskANN, PQ/SQ, from scratch;
- ``repro.data``     — synthetic proxies of the Cohere/OpenAI datasets;
- ``repro.engines``  — Milvus/Qdrant/Weaviate/LanceDB-profile engines;
- ``repro.workload`` — VectorDBBench-style closed-loop benchmark runner;
- ``repro.serve``    — open-loop serving: admission control, batching,
  load shedding, SLO/goodput accounting (beyond the paper);
- ``repro.trace``    — block-trace analysis (bandwidth, request sizes);
- ``repro.faults``   — fault injection + resilience, and the cluster
  fault model :class:`ChaosSchedule` (beyond the paper);
- ``repro.cluster``  — sharding, replication, scatter-gather top-k over
  simulated nodes, behind the same :class:`Deployment` facade;
- ``repro.mutate``   — streaming mutability: snapshot + delta log +
  tombstones + background compaction (beyond the paper);
- ``repro.chaos``    — the chaos harness: a self-healing supervisor,
  invariant oracles, schedule shrinking (beyond the paper);
- ``repro.tenancy``  — multi-tenant SLO autopilot: cost-priced quotas,
  closed-loop quality control, tiered placement (beyond the paper);
- ``repro.core``     — the study: figures, observation checks, reports.

The architecture — how a query flows through these layers — is
documented in ``docs/ARCHITECTURE.md``.
"""

from repro.api import ClusterSession, Deployment, Session, open_cluster, \
    open_engine
from repro.chaos import (ChaosRunResult, ChaosSchedule, Supervisor,
                         SupervisorConfig, run_chaos)
from repro.cluster import ClusterTopology
from repro.data.registry import load_dataset
from repro.ann.workprofile import SearchResult
from repro.engines.engine import IndexSpec, SearchRequest, VectorEngine
from repro.engines.payload import Filter
from repro.faults import FaultPlan, ResiliencePolicy
from repro.serve import ServeConfig, ServeResult, TenantLoad
from repro.tenancy import TenancyConfig, TenantProfile, TenantRegistry
from repro.workload.setup import make_runner

__version__ = "1.18.0"

__all__ = [
    "ChaosRunResult",
    "ChaosSchedule",
    "ClusterSession",
    "ClusterTopology",
    "Deployment",
    "FaultPlan",
    "Filter",
    "IndexSpec",
    "ResiliencePolicy",
    "SearchRequest",
    "SearchResult",
    "ServeConfig",
    "ServeResult",
    "Session",
    "Supervisor",
    "SupervisorConfig",
    "TenancyConfig",
    "TenantLoad",
    "TenantProfile",
    "TenantRegistry",
    "VectorEngine",
    "__version__",
    "load_dataset",
    "make_runner",
    "open_cluster",
    "open_engine",
    "run_chaos",
]
