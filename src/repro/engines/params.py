"""Typed build-time parameters of each index kind.

Index specs used to carry their parameters as an opaque sorted tuple of
``(name, value)`` pairs; typos and out-of-range values surfaced only
deep inside :func:`~repro.engines.engine.build_index`.  Each index kind
now has a frozen dataclass validated at construction, so
``IndexSpec.of("hnsw", M=0)`` or ``IndexSpec.of("hnsw", m=16)`` fail
immediately with a clear error.

All classes are immutable and hashable, so an
:class:`~repro.engines.engine.IndexSpec` remains usable as a cache key;
``str()`` of a spec still uniquely describes the build.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import EngineError, require_int, require_real
from repro.prefetch import POLICY_NAMES


@dataclasses.dataclass(frozen=True)
class IndexParams:
    """Base class: common conversion/validation helpers.

    >>> HNSWParams(M=8).as_dict()
    {'M': 8, 'ef_construction': 200}
    >>> make_params("hnsw", M=0)
    Traceback (most recent call last):
        ...
    repro.errors.EngineError: HNSWParams.M must be positive: 0
    """

    def as_dict(self) -> dict[str, t.Any]:
        """All parameters (defaults included) as a plain dict."""
        return dataclasses.asdict(self)

    def _require_counts(self, *names: str, least: int = 1) -> None:
        """Integer fields >= *least*; ``None`` passes where it is the
        field's default (the kind then picks the value)."""
        for name in names:
            value = getattr(self, name)
            default = self.__dataclass_fields__[name].default
            if value is None and default is None:
                continue
            require_int(EngineError, f"{type(self).__name__}.{name}",
                        value, least, must="be positive" if least else None)

    def _require_policy(self, name: str, value: str) -> None:
        if value not in POLICY_NAMES:
            raise EngineError(
                f"{type(self).__name__}.{name} must be one of "
                f"{POLICY_NAMES}: {value!r}")


@dataclasses.dataclass(frozen=True)
class FlatParams(IndexParams):
    """Brute-force scan: no parameters."""


@dataclasses.dataclass(frozen=True)
class IVFParams(IndexParams):
    """Inverted-file index; ``nlist`` defaults to ``4 * sqrt(n)``."""

    nlist: int | None = None

    def __post_init__(self) -> None:
        self._require_counts("nlist")


@dataclasses.dataclass(frozen=True)
class IVFPQParams(IndexParams):
    """IVF over product-quantized codes (LanceDB's on-disk layout)."""

    nlist: int | None = None
    pq_m: int | None = None      # PQ subspaces; default dim // 4

    def __post_init__(self) -> None:
        self._require_counts("nlist", "pq_m")


@dataclasses.dataclass(frozen=True)
class HNSWParams(IndexParams):
    """In-memory HNSW graph (paper's memory-based baseline)."""

    M: int = 16
    ef_construction: int = 200

    def __post_init__(self) -> None:
        self._require_counts("M", "ef_construction")


@dataclasses.dataclass(frozen=True)
class HNSWSQParams(HNSWParams):
    """HNSW over scalar-quantized vectors (LanceDB)."""


@dataclasses.dataclass(frozen=True)
class HNSWMmapParams(HNSWParams):
    """HNSW with vectors paged from an mmap'ed file (Qdrant).

    ``cache_policy`` selects the simulated page cache's
    admission/eviction policy (see :mod:`repro.prefetch.policy`).
    """

    cache_bytes: int = 1 << 30
    cache_policy: str = "lru"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_counts("cache_bytes", least=0)
        self._require_policy("cache_policy", self.cache_policy)


@dataclasses.dataclass(frozen=True)
class DiskANNParams(IndexParams):
    """Vamana build knobs (Subramanya et al.); cache budgets come from
    the engine profile, not the spec."""

    R: int = 32
    L_build: int = 96
    alpha: float = 1.3

    def __post_init__(self) -> None:
        self._require_counts("R", "L_build")
        require_real(EngineError, "DiskANNParams.alpha", self.alpha,
                     at_least=1.0)


@dataclasses.dataclass(frozen=True)
class SPANNParams(IndexParams):
    """Cluster-based storage index; see :mod:`repro.ann.spann`."""

    n_postings: int | None = None
    max_replicas: int = 8
    closure_eps: float = 0.15
    list_cache_bytes: int = 0
    cache_policy: str = "hotness"

    def __post_init__(self) -> None:
        self._require_counts("n_postings", "max_replicas")
        require_real(EngineError, "SPANNParams.closure_eps",
                     self.closure_eps, at_least=0.0)
        self._require_counts("list_cache_bytes", least=0)
        self._require_policy("cache_policy", self.cache_policy)


#: Index kind -> its parameter dataclass.
PARAM_TYPES: dict[str, type[IndexParams]] = {
    "flat": FlatParams,
    "ivf": IVFParams,
    "ivf-pq": IVFPQParams,
    "hnsw": HNSWParams,
    "hnsw-sq": HNSWSQParams,
    "hnsw-mmap": HNSWMmapParams,
    "diskann": DiskANNParams,
    "spann": SPANNParams,
}


def make_params(kind: str, **params: t.Any) -> IndexParams:
    """The typed parameter object of *kind* from keyword values.

    Unknown parameter names raise :class:`~repro.errors.EngineError`
    listing the valid ones.

    >>> make_params("diskann", R=16)
    DiskANNParams(R=16, L_build=96, alpha=1.3)
    """
    cls = PARAM_TYPES.get(kind)
    if cls is None:
        raise EngineError(
            f"unknown index kind {kind!r}; one of "
            f"{tuple(PARAM_TYPES)}")
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(params) - valid
    if unknown:
        raise EngineError(
            f"unknown {kind} parameter(s) {sorted(unknown)}; "
            f"valid: {sorted(valid)}")
    return cls(**params)


def coerce_params(kind: str, params: t.Any) -> IndexParams:
    """Normalize a parameter encoding to the typed form.

    Accepts the typed dataclass itself, a plain dict, or None (all
    defaults).
    """
    if params is None:
        return make_params(kind)
    if isinstance(params, IndexParams):
        expected = PARAM_TYPES[kind]
        if not isinstance(params, expected):
            raise EngineError(
                f"{type(params).__name__} given for a {kind!r} index "
                f"(expected {expected.__name__})")
        return params
    if isinstance(params, dict):
        return make_params(kind, **params)
    raise EngineError(
        f"cannot interpret {kind} params of type "
        f"{type(params).__name__}")
