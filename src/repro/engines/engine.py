"""The vector-database engine: collections, mutations, indexed search.

One engine class serves all four systems; an
:class:`~repro.engines.profiles.EngineProfile` selects the architecture
(segment size, supported indexes, overheads).  The engine is a *real*
database over the proxy datasets — insert/delete with WAL durability,
payload filtering, segment sealing, index building, top-k merging — and
every search can also return the per-segment
:class:`~repro.ann.workprofile.WorkProfile` that the timing layer
replays on the simulated hardware.
"""

from __future__ import annotations

import dataclasses
import typing as t
from pathlib import Path

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.diskann import DiskANNIndex
from repro.ann.flat import FlatIndex
from repro.ann.hnsw import HNSWIndex
from repro.ann.ivf import IVFIndex
from repro.ann.pq import ProductQuantizer
from repro.ann.sq import ScalarQuantizer
from repro.ann.workprofile import SearchResult, WorkProfile
from repro.engines.params import (DiskANNParams, HNSWMmapParams, HNSWParams,
                                  IndexParams, IVFParams, IVFPQParams,
                                  SPANNParams, coerce_params, make_params)
from repro.engines.payload import Filter, Payload, PayloadStore
from repro.engines.profiles import EngineProfile, get_profile
from repro.engines.segments import GrowingBuffer, Segment, plan_segments
from repro.engines.wal import WriteAheadLog
from repro.mutate.tombstones import Tombstones
from repro.errors import (CollectionNotFoundError, EngineError,
                          OutOfMemoryError)

INDEX_KINDS = ("flat", "ivf", "hnsw", "diskann", "ivf-pq", "hnsw-sq",
               "hnsw-mmap", "spann")


@dataclasses.dataclass(frozen=True)
class IndexSpec:
    """What index a collection builds over its sealed segments.

    ``params`` is the typed parameter object of the kind (see
    :mod:`repro.engines.params`); a plain dict is converted and
    validated on construction.
    """

    kind: str
    metric: str = "cosine"
    params: IndexParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise EngineError(
                f"unknown index kind {self.kind!r}; one of {INDEX_KINDS}")
        object.__setattr__(self, "params",
                           coerce_params(self.kind, self.params))

    @classmethod
    def of(cls, kind: str, metric: str = "cosine",
           **params: t.Any) -> "IndexSpec":
        return cls(kind, metric, make_params(kind, **params))

    @property
    def param_dict(self) -> dict[str, t.Any]:
        """All build parameters (defaults included) as a plain dict."""
        return self.params.as_dict()


#: Read consistency levels a routed :class:`SearchRequest` can ask for.
#: Replicas are identical by construction in this reproduction, so the
#: level never changes *results* — it changes how many replicas a
#: cluster coordinator waits for (latency/availability), see
#: :mod:`repro.cluster`.
CONSISTENCY_LEVELS = ("one", "quorum", "all")


@dataclasses.dataclass(frozen=True)
class SearchRequest:
    """A typed search call: what to look for and how.

    The keyword-argument spelling ``collection.search(q, k, **params)``
    stays available; a request object is the hashable, serializable
    form used by the :mod:`repro.api` facade and batch drivers.

    The routing fields (``shard``, ``consistency``, ``deadline_s``) are
    hints for the distributed layer (:mod:`repro.cluster`); their
    defaults route the request everywhere with single-replica reads and
    no deadline, which is exactly the single-engine behaviour — old
    call sites are byte-compatible.  Single-engine execution ignores
    them.

    >>> request = SearchRequest.of([1.0, 0.0], k=5, ef_search=32)
    >>> request.k
    5
    >>> request.param_dict
    {'ef_search': 32}
    >>> request.consistency
    'one'
    """

    query: t.Any                   # np.ndarray (1D)
    k: int = 10
    filter: Filter | None = None
    #: Search-time parameters (ef_search, search_list, beam_width,
    #: nprobe, prefetch_depth, cache_policy, ...), index-kind specific.
    params: tuple[tuple[str, t.Any], ...] = ()
    #: Routing hint: search only this shard (None = scatter to all).
    shard: int | None = None
    #: Read consistency level (see :data:`CONSISTENCY_LEVELS`).
    consistency: str = "one"
    #: Partial-result deadline: a cluster coordinator answers from the
    #: shards that completed by then (None = wait for every shard).
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise EngineError(f"k must be positive: {self.k}")
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params",
                               tuple(sorted(dict(self.params).items())))
        if self.shard is not None and self.shard < 0:
            raise EngineError(f"bad shard hint: {self.shard}")
        if self.consistency not in CONSISTENCY_LEVELS:
            raise EngineError(
                f"unknown consistency level {self.consistency!r}; "
                f"expected one of {CONSISTENCY_LEVELS}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise EngineError(f"bad deadline_s: {self.deadline_s}")

    @classmethod
    def of(cls, query: t.Any, k: int = 10, filter: Filter | None = None,
           *, shard: int | None = None, consistency: str = "one",
           deadline_s: float | None = None,
           **params: t.Any) -> "SearchRequest":
        return cls(query, k, filter, tuple(sorted(params.items())),
                   shard, consistency, deadline_s)

    @property
    def param_dict(self) -> dict[str, t.Any]:
        return dict(self.params)


def merge_works(works: t.Sequence[WorkProfile]) -> WorkProfile:
    """One profile holding every step (and prefetch counter) of *works*."""
    merged = WorkProfile()
    for work in works:
        merged.steps.extend(work.steps)
        merged.prefetch_issued += work.prefetch_issued
        merged.prefetch_wasted += work.prefetch_wasted
    return merged


def build_index(spec: IndexSpec, vectors: np.ndarray, storage_dim: int,
                profile: EngineProfile, seed: int = 0) -> VectorIndex:
    """Construct the index a spec describes over *vectors*."""
    params = spec.params
    dim = vectors.shape[1]
    if spec.kind == "flat":
        return FlatIndex(metric=spec.metric).build(vectors)
    if spec.kind == "ivf":
        assert isinstance(params, IVFParams)
        return IVFIndex(metric=spec.metric, nlist=params.nlist,
                        seed=seed).build(vectors)
    if spec.kind == "hnsw":
        assert isinstance(params, HNSWParams)
        return HNSWIndex(metric=spec.metric, M=params.M,
                         ef_construction=params.ef_construction,
                         seed=seed).build(vectors)
    if spec.kind == "diskann":
        assert isinstance(params, DiskANNParams)
        return DiskANNIndex(
            metric=spec.metric, R=params.R,
            L_build=params.L_build,
            alpha=params.alpha,
            storage_dim=storage_dim,
            cache_bytes=profile.diskann_cache_bytes,
            lru_bytes=profile.diskann_lru_bytes,
            seed=seed).build(vectors)
    if spec.kind == "ivf-pq":
        assert isinstance(params, IVFPQParams)
        quantizer = ProductQuantizer(
            dim, m=params.pq_m if params.pq_m is not None else dim // 4,
            seed=seed)
        return IVFIndex(metric=spec.metric, nlist=params.nlist,
                        quantizer=quantizer, on_disk=True,
                        record_bytes=8 + (storage_dim // dim) *
                        quantizer.code_bytes(),
                        seed=seed).build(vectors)
    if spec.kind == "spann":
        from repro.ann.spann import SPANNIndex
        assert isinstance(params, SPANNParams)
        return SPANNIndex(
            metric=spec.metric,
            n_postings=params.n_postings,
            max_replicas=params.max_replicas,
            closure_eps=params.closure_eps,
            list_cache_bytes=params.list_cache_bytes,
            cache_policy=params.cache_policy,
            storage_dim=storage_dim, seed=seed).build(vectors)
    if spec.kind == "hnsw-mmap":
        # Qdrant's storage-based setup: graph in memory, vectors paged
        # from an mmap'ed file through the OS page cache.
        from repro.engines.mmap import MmapHNSWIndex
        assert isinstance(params, HNSWMmapParams)
        return MmapHNSWIndex(
            metric=spec.metric, M=params.M,
            ef_construction=params.ef_construction,
            storage_dim=storage_dim,
            cache_bytes=params.cache_bytes,
            cache_policy=params.cache_policy,
            seed=seed).build(vectors)
    if spec.kind == "hnsw-sq":
        # LanceDB's HNSW stores scalar-quantized vectors: build the
        # graph over the decoded (lossy) representation.
        assert isinstance(params, HNSWParams)
        sq = ScalarQuantizer().train(vectors)
        decoded = sq.decode(sq.encode(vectors))
        return HNSWIndex(metric=spec.metric, M=params.M,
                         ef_construction=params.ef_construction,
                         seed=seed).build(decoded)
    raise EngineError(f"unhandled index kind {spec.kind!r}")


class Collection:
    """A named set of vectors with payloads, segments, and an index."""

    #: Bumped by every call that changes what a search answers
    #: (insert / delete / flush / compact); snapshot holders such as
    #: :class:`~repro.workload.runner.BenchRunner` compare it to detect
    #: that their compiled plans went stale.  Class-level so collections
    #: restored without ``__init__`` start at zero too.
    mutations = 0

    def __init__(self, name: str, dim: int, index_spec: IndexSpec,
                 profile: EngineProfile, storage_dim: int | None = None,
                 seed: int = 0) -> None:
        if dim <= 0:
            raise EngineError(f"bad dimension: {dim}")
        self.name = name
        self.dim = dim
        self.storage_dim = storage_dim or dim
        self.index_spec = index_spec
        self.profile = profile
        self.seed = seed
        self.wal = WriteAheadLog()
        self.payloads = PayloadStore()
        self.segments: list[Segment] = []
        # The delta buffer scores unsealed rows through the collection's
        # index kind so merged base+delta searches report the bits a
        # fresh build would (see repro.ann.scoring / repro.mutate).
        self.growing = GrowingBuffer(
            dim, index_spec.metric, kind=index_spec.kind,
            pq_m=(index_spec.params.pq_m
                  if index_spec.kind == "ivf-pq" else None),
            seed=seed)
        self.tombstones: set[int] = Tombstones()
        self._next_row_id = 0

    # -- mutations -------------------------------------------------------

    def insert(self, vectors: np.ndarray,
               payloads: t.Sequence[Payload | None] | None = None,
               ) -> np.ndarray:
        """Append vectors (and payloads); returns their new row ids."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != self.dim:
            raise EngineError(
                f"{self.name}: inserting dim {vectors.shape[1]} into "
                f"dim-{self.dim} collection")
        if payloads is not None and len(payloads) != len(vectors):
            raise EngineError(
                f"{len(payloads)} payloads for {len(vectors)} vectors")
        if not np.isfinite(vectors).all():
            bad = int(np.isfinite(vectors).all(axis=1).argmin())
            raise EngineError(
                f"{self.name}: row {bad} of the insert holds NaN or inf")
        ids = np.empty(len(vectors), dtype=np.int64)
        for i, vector in enumerate(vectors):
            row_id = self._next_row_id
            self._next_row_id += 1
            payload = payloads[i] if payloads is not None else None
            self.wal.append("insert", row_id, vector, payload)
            self.growing.append(row_id, vector)
            self.payloads.put(row_id, payload)
            ids[i] = row_id
        self.mutations += 1
        return ids

    def delete(self, row_ids: t.Iterable[int]) -> int:
        """Tombstone rows; returns how many existed."""
        deleted = 0
        for row_id in row_ids:
            row_id = int(row_id)
            if 0 <= row_id < self._next_row_id and (
                    row_id not in self.tombstones):
                self.wal.append("delete", row_id)
                self.tombstones.add(row_id)
                self.payloads.delete(row_id)
                deleted += 1
        self.mutations += 1
        return deleted

    def flush(self) -> list[Segment]:
        """Seal the growing buffer into indexed segments.

        DiskANN collections are sealed monolithically (one index holding
        all rows) so the on-disk graph stays contiguous; segmented
        engines split by the profile's segment capacity.
        """
        if len(self.growing) == 0:
            return []
        self.mutations += 1
        row_ids, vectors = self.growing.drain()
        if self.index_spec.kind == "diskann" and self.segments:
            # Re-seal everything into one graph (compaction).
            row_ids = np.concatenate(
                [seg.row_ids for seg in self.segments] + [row_ids])
            vectors = np.vstack(
                [seg.vectors for seg in self.segments] + [vectors])
            self.segments.clear()
        created = self._build_segments(row_ids, vectors)
        self.wal.checkpoint()
        return created

    def _build_segments(self, row_ids: np.ndarray,
                        vectors: np.ndarray) -> list[Segment]:
        """Seal *(row_ids, vectors)* into indexed segments.

        Segment ids and index seeds continue from the current segment
        count, so a compaction that first clears the list rebuilds with
        the same seeds a fresh collection's flush would use.
        """
        segment_bytes = (None if self.index_spec.kind == "diskann"
                         else self.profile.segment_bytes)
        vector_bytes = 4 * self.storage_dim
        created = []
        for start, stop in plan_segments(len(row_ids), vector_bytes,
                                         segment_bytes):
            index = build_index(self.index_spec, vectors[start:stop],
                                self.storage_dim, self.profile,
                                seed=self.seed + len(self.segments))
            segment = Segment(len(self.segments), row_ids[start:stop],
                              vectors[start:stop], index)
            self.segments.append(segment)
            created.append(segment)
        return created

    def compact(self) -> dict[str, int]:
        """Merge base snapshot + delta into a fresh snapshot.

        The streaming-mutability merge (see ``docs/MUTABILITY.md``):
        live rows from every sealed segment and the growing buffer are
        re-sealed into new segments built exactly as a fresh
        collection's flush would build them (same segmentation plan,
        same per-segment seeds), tombstoned rows are physically
        dropped, the tombstone set is cleared, and the WAL is
        checkpointed and truncated — its entries are now baked into
        the snapshot.  Post-compaction searches are therefore
        bit-identical to a freshly built index over the live rows.

        This is the functional half of compaction; the timing half (a
        background simproc issuing the merge's reads and writes on the
        shared simulated SSD) lives in :mod:`repro.mutate.simproc`,
        and the durable commit (versioned-manifest swap) in
        :mod:`repro.mutate.compactor`.

        Returns a stats dict: ``rows_kept``, ``rows_dropped``,
        ``segments_before``, ``segments_after``, ``bytes_read``,
        ``bytes_written``.
        """
        self.mutations += 1
        parts_ids = [seg.row_ids for seg in self.segments]
        parts_vecs = [seg.vectors for seg in self.segments]
        bytes_read = sum(seg.vectors.nbytes + seg.index.disk_bytes()
                         for seg in self.segments)
        if len(self.growing):
            grow_ids, grow_vecs = self.growing.drain()
            parts_ids.append(grow_ids)
            parts_vecs.append(grow_vecs)
            bytes_read += grow_vecs.nbytes
        stats = {"segments_before": len(self.segments),
                 "bytes_read": int(bytes_read)}
        self.segments = []
        if parts_ids:
            row_ids = np.concatenate(parts_ids)
            vectors = np.vstack(parts_vecs)
            live = np.asarray([rid not in self.tombstones
                               for rid in row_ids], dtype=bool)
        else:
            row_ids = np.empty(0, dtype=np.int64)
            vectors = np.empty((0, self.dim), dtype=np.float32)
            live = np.empty(0, dtype=bool)
        self.tombstones.clear()
        self.wal.checkpoint()
        self.wal.truncate()
        stats["rows_kept"] = int(live.sum())
        stats["rows_dropped"] = int(len(row_ids) - live.sum())
        if stats["rows_kept"]:
            self._build_segments(row_ids[live], vectors[live])
        stats["segments_after"] = len(self.segments)
        stats["bytes_written"] = int(
            sum(seg.vectors.nbytes + seg.index.disk_bytes()
                for seg in self.segments))
        return stats

    # -- search ------------------------------------------------------------

    def search(self, query: np.ndarray, k: int = 10, *,
               filter_: Filter | None = None,
               **params: t.Any) -> SearchResult:
        """Top-k over all segments + growing rows, minus tombstones.

        Search-time parameters are keyword-only; returns the unified
        :class:`~repro.ann.workprofile.SearchResult` shape shared by
        index-, collection-, and engine-level searches.
        """
        if k <= 0:
            raise EngineError(f"k must be positive: {k}")
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self.dim,):
            raise EngineError(
                f"query must have shape ({self.dim},): got {query.shape}")
        if not np.isfinite(query).all():
            raise EngineError("query has a NaN or infinite component")
        need = k
        if filter_ is not None or self.tombstones:
            # Bound by the *stored* row count: tombstoned rows still come
            # back from the indexes and crowd out survivors, so the live
            # count (num_rows) is too small a ceiling — with heavy
            # deletions it used to stop escalation while surviving rows
            # remained unfetched.
            need = min(self.total_rows, max(4 * k, k + len(self.tombstones)))
        response = self._gather(query, need, **params)
        keep = [i for i, row_id in enumerate(response.ids)
                if row_id not in self.tombstones
                and self.payloads.matches(int(row_id), filter_)]
        if len(keep) < k and need < self.total_rows:
            # Escalate once: fetch everything reachable and refilter.
            response = self._gather(query, self.total_rows, **params)
            keep = [i for i, row_id in enumerate(response.ids)
                    if row_id not in self.tombstones
                    and self.payloads.matches(int(row_id), filter_)]
        keep = keep[:k]
        return SearchResult(ids=response.ids[keep],
                            work=response.work,
                            dists=response.dists[keep],
                            works=response.works)

    def execute(self, request: SearchRequest) -> SearchResult:
        """Run a typed :class:`SearchRequest` against this collection."""
        return self.search(request.query, request.k,
                           filter_=request.filter, **request.param_dict)

    def search_batch(self, queries: np.ndarray, k: int = 10, *,
                     filter_: Filter | None = None,
                     **params: t.Any) -> list[SearchResult]:
        """Batched :meth:`search`; one result per query, in order.

        Bit-identical to looping :meth:`search` over the rows — the
        batch runs segment-major, so each segment sees the queries in
        the same order (and mutates its caches identically) as the
        sequential loop does.  Tombstones and filters escalate
        per-query, so those paths simply delegate to :meth:`search`.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise EngineError(
                f"query batch must have shape (B, {self.dim}): "
                f"got {queries.shape}")
        if k <= 0:
            raise EngineError(f"k must be positive: {k}")
        if not np.isfinite(queries).all():
            bad = int(np.isfinite(queries).all(axis=1).argmin())
            raise EngineError(
                f"query {bad} has a NaN or infinite component")
        if filter_ is not None or self.tombstones:
            return [self.search(query, k, filter_=filter_, **params)
                    for query in queries]
        return self._gather_batch(queries, k, **params)

    def _gather(self, query: np.ndarray, k: int,
                **params: t.Any) -> SearchResult:
        """One query's gather: row 0 of a one-row :meth:`_gather_batch`."""
        return self._gather_batch(query[None], k, **params)[0]

    def _gather_batch(self, queries: np.ndarray, k: int,
                      **params: t.Any) -> list[SearchResult]:
        """Top-k over every segment and the growing rows, per query.

        Segment-major: each segment's batched search amortizes its
        kernel work across the whole query block, then every query's
        candidates merge under one stable sort.
        """
        found = [segment.search_batch(queries, k, **params)
                 for segment in self.segments]
        if len(self.growing):
            found.append(self.growing.search_batch(queries, k))
        if not found:                  # an empty collection
            return [SearchResult(ids=np.empty(0, dtype=np.int64),
                                 work=merge_works([]),
                                 dists=np.empty(0, dtype=np.float32),
                                 works=[]) for _ in queries]
        gathered = []
        for row in zip(*found):        # one query's per-segment results
            works = [result.work for result in row]
            ids = np.concatenate([result.ids for result in row])
            dists = np.concatenate([result.dists for result in row])
            order = np.argsort(dists, kind="stable")[:k]
            gathered.append(SearchResult(
                ids=ids[order], work=merge_works(works),
                dists=dists[order], works=works))
        return gathered

    # -- accounting --------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Live rows (excluding tombstones)."""
        return self.total_rows - len(self.tombstones)

    @property
    def total_rows(self) -> int:
        """Stored rows (tombstones included): what a gather can return."""
        return sum(seg.n for seg in self.segments) + len(self.growing)

    def memory_bytes(self) -> int:
        total = sum(seg.memory_bytes() for seg in self.segments)
        total += len(self.growing) * self.dim * 4
        total += self.payloads.memory_bytes()
        return total

    def disk_bytes(self) -> int:
        return sum(seg.index.disk_bytes() for seg in self.segments)


class VectorEngine:
    """One running vector database (Milvus/Qdrant/Weaviate/LanceDB sim)."""

    def __init__(self, profile: EngineProfile | str, seed: int = 0) -> None:
        self.profile = (get_profile(profile) if isinstance(profile, str)
                        else profile)
        self.seed = seed
        self._collections: dict[str, Collection] = {}

    # -- collection lifecycle ----------------------------------------------

    def create_collection(self, name: str, dim: int, index_spec: IndexSpec,
                          storage_dim: int | None = None) -> Collection:
        if name in self._collections:
            raise EngineError(f"collection {name!r} already exists")
        if not self.profile.supports(index_spec.kind) and (
                index_spec.kind != "flat"):
            raise EngineError(
                f"{self.profile.name} does not support "
                f"{index_spec.kind!r} indexes (supported: "
                f"{self.profile.supported_indexes})")
        collection = Collection(name, dim, index_spec, self.profile,
                                storage_dim, seed=self.seed)
        self._collections[name] = collection
        return collection

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            raise CollectionNotFoundError(name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        if name not in self._collections:
            raise CollectionNotFoundError(name)
        del self._collections[name]

    def list_collections(self) -> list[str]:
        return sorted(self._collections)

    # -- convenience passthroughs -------------------------------------------

    def insert(self, name: str, vectors: np.ndarray,
               payloads: t.Sequence[Payload | None] | None = None,
               ) -> np.ndarray:
        self._check_memory()
        return self.collection(name).insert(vectors, payloads)

    def delete(self, name: str, row_ids: t.Iterable[int]) -> int:
        return self.collection(name).delete(row_ids)

    def flush(self, name: str) -> list[Segment]:
        return self.collection(name).flush()

    def compact(self, name: str) -> dict[str, int]:
        """Merge a collection's delta into a fresh snapshot (see
        :meth:`Collection.compact`)."""
        return self.collection(name).compact()

    def search(self, name: str, query: np.ndarray, k: int = 10, *,
               filter_: Filter | None = None,
               **params: t.Any) -> SearchResult:
        return self.collection(name).search(query, k, filter_=filter_,
                                            **params)

    def execute(self, name: str, request: SearchRequest) -> SearchResult:
        """Run a typed :class:`SearchRequest` against a collection."""
        return self.collection(name).execute(request)

    def search_batch(self, name: str, queries: np.ndarray, k: int = 10, *,
                     filter_: Filter | None = None,
                     **params: t.Any) -> list[SearchResult]:
        """Batched search against a collection (see
        :meth:`Collection.search_batch`)."""
        return self.collection(name).search_batch(
            queries, k, filter_=filter_, **params)

    # -- memory ---------------------------------------------------------------

    def memory_bytes(self) -> int:
        return sum(c.memory_bytes() for c in self._collections.values())

    def _check_memory(self, concurrency: int = 1) -> None:
        self.check_concurrency_memory(concurrency)

    def check_concurrency_memory(self, concurrency: int) -> None:
        """Raise OutOfMemoryError if *concurrency* queries won't fit.

        This is how the paper's LanceDB-HNSW OOM at 256 threads is
        modeled: per-query working buffers times concurrency on top of
        the resident data must fit the profile's budget.
        """
        needed = (self.memory_bytes()
                  + concurrency * self.profile.per_query_buffer_bytes)
        if needed > self.profile.memory_budget_bytes:
            raise OutOfMemoryError(
                f"{self.profile.name}: {needed} bytes needed at "
                f"concurrency {concurrency}, budget "
                f"{self.profile.memory_budget_bytes}")

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist all collections as a crash-consistent store at *path*.

        The store is a directory of checksummed, record-framed files
        under a versioned manifest; each file is written via temp file
        + fsync + atomic rename and the manifest swap is the single
        commit point, so a crash at any moment leaves either the
        previous committed state or the new one — never a torn hybrid
        (see :mod:`repro.durability` and ``docs/DURABILITY.md``).
        """
        from repro.durability import save_engine
        save_engine(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "VectorEngine":
        """Recover an engine previously written by :meth:`save`.

        Verifies every record checksum and replays WAL entries past
        the last checkpoint to rebuild unsealed rows.
        """
        from repro.durability import load_engine
        return load_engine(path)
