"""Simulated vector-database engines (Milvus/Qdrant/Weaviate/LanceDB).

One functional engine implementation (collections, WAL, payload filters,
segments, index building, merged search) parameterized by calibrated
:class:`EngineProfile` architecture descriptions of the paper's four
systems.
"""

from repro.ann.workprofile import SearchResult
from repro.engines.costmodel import CostModel
from repro.engines.engine import (CONSISTENCY_LEVELS, INDEX_KINDS,
                                  Collection, IndexSpec, SearchRequest,
                                  VectorEngine, build_index, merge_works)
from repro.engines.mmap import MmapHNSWIndex, wrap_mmap
from repro.engines.params import (PARAM_TYPES, DiskANNParams, FlatParams,
                                  HNSWMmapParams, HNSWParams, HNSWSQParams,
                                  IndexParams, IVFParams, IVFPQParams,
                                  SPANNParams, make_params)
from repro.engines.payload import Filter, PayloadStore, Predicate
from repro.engines.profiles import (ENGINE_NAMES, PAPER_CPU_CORES,
                                    EngineProfile, get_profile,
                                    lancedb_profile, milvus_profile,
                                    qdrant_profile, weaviate_profile)
from repro.engines.segments import GrowingBuffer, Segment, plan_segments
from repro.engines.wal import WalEntry, WriteAheadLog

__all__ = [
    "CONSISTENCY_LEVELS",
    "Collection",
    "CostModel",
    "DiskANNParams",
    "ENGINE_NAMES",
    "EngineProfile",
    "Filter",
    "FlatParams",
    "GrowingBuffer",
    "HNSWMmapParams",
    "HNSWParams",
    "HNSWSQParams",
    "INDEX_KINDS",
    "IVFPQParams",
    "IVFParams",
    "IndexParams",
    "IndexSpec",
    "MmapHNSWIndex",
    "PAPER_CPU_CORES",
    "PARAM_TYPES",
    "PayloadStore",
    "Predicate",
    "SPANNParams",
    "SearchRequest",
    "SearchResult",
    "Segment",
    "VectorEngine",
    "WalEntry",
    "WriteAheadLog",
    "build_index",
    "get_profile",
    "lancedb_profile",
    "make_params",
    "merge_works",
    "milvus_profile",
    "plan_segments",
    "qdrant_profile",
    "weaviate_profile",
    "wrap_mmap",
]
