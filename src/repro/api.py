"""The one-import facade over the engine and benchmark layers.

Everything the examples and CLI need, behind four verbs — create,
insert, search, benchmark:

>>> import numpy as np
>>> from repro.api import open_engine
>>> rng = np.random.default_rng(0)
>>> session = open_engine("milvus")
>>> _ = session.create("docs", dim=8, index="flat")
>>> ids = session.insert(
...     "docs", rng.standard_normal((64, 8), dtype=np.float32),
...     flush=True)
>>> hits = session.search("docs", rng.standard_normal(8), k=3)
>>> len(hits.ids)
3

A :class:`Session` wraps one :class:`~repro.engines.VectorEngine`; the
underlying layers (``session.engine``, collection objects,
:class:`~repro.workload.runner.BenchRunner`) stay reachable for
anything the facade does not cover.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.engines.engine import (Collection, IndexSpec, SearchRequest,
                                  VectorEngine)
from repro.engines.payload import Filter, Payload
from repro.engines.profiles import EngineProfile
from repro.obs import RunTelemetry
from repro.workload.metrics import RunResult
from repro.workload.runner import BenchRunner, WriteLoad

if t.TYPE_CHECKING:
    from repro.ann.workprofile import SearchResult
    from repro.chaos import ChaosRunResult, Supervisor
    from repro.cluster import Cluster, ClusterBenchRunner, ClusterTopology
    from repro.cluster.cluster import ShardedCollection
    from repro.faults import ChaosSchedule, FaultPlan, ResiliencePolicy
    from repro.mutate import MutationLoad
    from repro.serve import ServeConfig, ServeResult
    from repro.tenancy import TenancyConfig


@t.runtime_checkable
class Deployment(t.Protocol):
    """What every deployment shape serves, single-node or cluster.

    The deployment-agnostic facade contract: :class:`Session` (one
    engine) and :class:`ClusterSession` (an N-node cluster) both
    implement it, so code written against these verbs runs unchanged on
    either — ``open_engine`` and ``open_cluster`` are interchangeable
    constructors.  Checkable at runtime::

        >>> isinstance(open_engine(), Deployment)
        True
    """

    def create(self, name: str, dim: int, index, metric: str,
               storage_dim: int | None, **index_params: t.Any): ...

    def drop(self, name: str) -> None: ...

    def collections(self) -> list[str]: ...

    def insert(self, name: str, vectors: np.ndarray,
               payloads, flush: bool) -> np.ndarray: ...

    def flush(self, name: str) -> None: ...

    def delete(self, name: str, row_ids: t.Iterable[int]) -> int: ...

    def compact(self, name: str) -> None: ...

    def search(self, name: str, query: t.Any, k: int, **params): ...

    def search_batch(self, name: str, queries: np.ndarray,
                     k: int, **params): ...

    def save(self, path: str) -> None: ...

    def serve(self, name: str, queries: np.ndarray, config,
              tenancy=None, **options): ...


def open_engine(profile: EngineProfile | str = "milvus",
                seed: int = 0) -> "Session":
    """A :class:`Session` over a fresh engine with *profile*.

    *profile* is an engine name (``"milvus"``, ``"qdrant"``,
    ``"weaviate"``, ``"lancedb"``) or an
    :class:`~repro.engines.EngineProfile`.

    >>> open_engine("qdrant").profile.name
    'qdrant'
    """
    return Session(VectorEngine(profile, seed=seed))


def open_saved(path: str) -> "Session":
    """A :class:`Session` over an engine recovered from *path*.

    *path* is a store written by :meth:`Session.save` (or
    :meth:`~repro.engines.engine.VectorEngine.save`): every record
    checksum is verified and WAL entries past the last checkpoint are
    replayed, so the session answers queries exactly as the saved one
    did.  (The engine's seed is part of its committed state.)
    """
    return Session(VectorEngine.load(path))


def open_cluster(topology: "ClusterTopology",
                 profile: EngineProfile | str = "milvus",
                 seed: int = 0) -> "ClusterSession":
    """A :class:`ClusterSession` over a fresh simulated cluster.

    The cluster runs one full engine with *profile* per node, sharded
    and replicated per *topology*; the session exposes the same
    :class:`Deployment` verbs as :func:`open_engine`, so single-node
    code ports by swapping the constructor:

    >>> from repro.cluster import ClusterTopology
    >>> session = open_cluster(ClusterTopology(n_shards=2))
    >>> session.profile.name
    'milvus'
    """
    from repro.cluster import Cluster
    return ClusterSession(Cluster(topology, profile, seed=seed))


def open_saved_cluster(path: str) -> "ClusterSession":
    """A :class:`ClusterSession` recovered from a cluster store.

    *path* is a store written by :meth:`ClusterSession.save`: one
    crash-consistent durable store per node plus the cluster manifest
    (topology, routing, and the global id maps).
    """
    from repro.cluster import Cluster
    return ClusterSession(Cluster.load(path))


def open_bench(setup: str, dataset: str,
               scale: str | None = None) -> BenchRunner:
    """A ready benchmark runner for one of the paper's seven setups.

    Loads (or generates) the proxy dataset, prepares the indexed
    collection (cached in the index store), and returns the
    :class:`~repro.workload.runner.BenchRunner` over it — the paper's
    measurement harness in one call.
    """
    from repro.workload.setup import make_runner
    return make_runner(setup, dataset, scale)


class Session:
    """All common operations of one engine, in facade form.

    >>> session = open_engine("milvus")
    >>> _ = session.create("docs", dim=8, index="hnsw", M=8)
    >>> session.collections()
    ['docs']
    """

    def __init__(self, engine: VectorEngine) -> None:
        self.engine = engine

    @property
    def profile(self) -> EngineProfile:
        """The engine's behaviour profile (costs, caches, parallelism)."""
        return self.engine.profile

    # -- collection lifecycle ---------------------------------------------

    def create(self, name: str, dim: int, index: str | IndexSpec = "hnsw",
               metric: str = "cosine", storage_dim: int | None = None,
               **index_params: t.Any) -> Collection:
        """Create a collection; index params are validated eagerly.

        *index* is an index kind (``"hnsw"``, ``"diskann"``, ...) plus
        keyword parameters, or a ready :class:`~repro.engines.IndexSpec`
        (in which case *metric*/params must be left at defaults).

        >>> col = open_engine().create("d", dim=16, index="diskann", R=16)
        >>> col.index_spec.kind
        'diskann'
        """
        if isinstance(index, IndexSpec):
            spec = index
        else:
            spec = IndexSpec.of(index, metric, **index_params)
        return self.engine.create_collection(name, dim, spec,
                                             storage_dim=storage_dim)

    def drop(self, name: str) -> None:
        """Drop a collection and everything in it."""
        self.engine.drop_collection(name)

    def collection(self, name: str) -> Collection:
        """The named :class:`~repro.engines.Collection` object."""
        return self.engine.collection(name)

    def collections(self) -> list[str]:
        """Names of all collections, in creation order."""
        return self.engine.list_collections()

    # -- data plane -------------------------------------------------------

    def insert(self, name: str, vectors: np.ndarray,
               payloads: t.Sequence[Payload | None] | None = None,
               flush: bool = False) -> np.ndarray:
        """Append vectors; ``flush=True`` seals and indexes right away.

        Returns the assigned row ids:

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> session.insert("d", np.eye(4, dtype=np.float32)).tolist()
        [0, 1, 2, 3]
        """
        ids = self.engine.insert(name, vectors, payloads)
        if flush:
            self.engine.flush(name)
        return ids

    def flush(self, name: str) -> None:
        """Seal the growing buffer into an indexed segment.

        Un-flushed rows are still searchable (the delta buffer is
        scanned brute-force and merged bit-identically); flushing
        moves them into sealed, indexed segments and checkpoints
        their WAL entries:

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> _ = session.insert("d", np.eye(4, dtype=np.float32))
        >>> len(session.collection("d").growing)
        4
        >>> session.flush("d")
        >>> len(session.collection("d").growing)
        0
        """
        self.engine.flush(name)

    def delete(self, name: str, row_ids: t.Iterable[int]) -> int:
        """Tombstone rows by id; returns how many were newly deleted.

        A delete never rewrites a sealed segment — the id joins the
        collection's :class:`~repro.mutate.Tombstones`, searches mask
        it out, and the next :meth:`compact` drops it physically:

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> _ = session.insert("d", np.eye(4, dtype=np.float32),
        ...                    flush=True)
        >>> session.delete("d", [0, 2, 99])     # 99 never existed
        2
        >>> session.search("d", np.eye(4, dtype=np.float32)[0],
        ...                k=2).ids.tolist()
        [1, 3]
        """
        return self.engine.delete(name, row_ids)

    def compact(self, name: str) -> None:
        """Merge the delta into a fresh snapshot, dropping tombstones.

        Rebuilds the collection's sealed segments from its live rows
        (base minus tombstones, plus the delta buffer) with the same
        segmentation plan and seeds a fresh build would use, then
        truncates the checkpointed WAL.  Search results are unchanged
        — merged search was already bit-identical to a fresh build:

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> _ = session.insert("d", np.eye(4, dtype=np.float32),
        ...                    flush=True)
        >>> session.delete("d", [0])
        1
        >>> session.compact("d")
        >>> len(session.collection("d").tombstones)
        0
        >>> session.collection("d").total_rows
        3

        Policy-gated, telemetry-counted compaction lives in
        :func:`repro.mutate.compact_engine`.
        """
        self.engine.compact(name)

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the engine as a crash-consistent store at *path*.

        Checksummed record files under a versioned manifest, each
        written via temp file + fsync + atomic rename; reopen with
        :func:`open_saved`.  See ``docs/DURABILITY.md``.
        """
        self.engine.save(path)

    # -- search -----------------------------------------------------------

    def search(self, name: str, query: t.Any, k: int = 10, *,
               filter: Filter | None = None,
               **params: t.Any) -> "SearchResult":
        """Top-k search returning a
        :class:`~repro.ann.workprofile.SearchResult`.

        *query* may also be a :class:`~repro.engines.SearchRequest`
        (then *k*/params must be left at defaults):

        >>> import numpy as np
        >>> from repro.engines import SearchRequest
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> _ = session.insert("d", np.eye(4, dtype=np.float32),
        ...                    flush=True)
        >>> request = SearchRequest.of(np.eye(4)[0], k=2)
        >>> session.search("d", request).ids.tolist()
        [0, 1]
        """
        if isinstance(query, SearchRequest):
            return self.engine.execute(name, query)
        return self.engine.search(name, query, k, filter_=filter, **params)

    def search_batch(self, name: str, queries: np.ndarray, k: int = 10, *,
                     filter: Filter | None = None,
                     **params: t.Any) -> "list[SearchResult]":
        """Batched top-k search: one result per query row, in order.

        Bit-identical to calling :meth:`search` on each row, but the
        engine runs segment-major so flat/IVF kernel work is amortized
        across the batch (the dispatcher's batching in ``repro.serve``
        rides on the same path).

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> _ = session.insert("d", np.eye(4, dtype=np.float32),
        ...                    flush=True)
        >>> hits = session.search_batch("d", np.eye(4)[:2], k=1)
        >>> [hit.ids.tolist() for hit in hits]
        [[0], [1]]
        """
        return self.engine.search_batch(name, queries, k,
                                        filter_=filter, **params)

    # -- benchmarking -----------------------------------------------------

    def run_bench(self, name: str, queries: np.ndarray, *,
                  ground_truth: np.ndarray | None = None,
                  concurrency: int = 1, k: int = 10,
                  search_params: dict[str, t.Any] | None = None,
                  duration_s: float = 4.0,
                  telemetry: RunTelemetry | bool | None = None,
                  write_load: WriteLoad | None = None,
                  fault_plan: "FaultPlan | None" = None,
                  resilience: "ResiliencePolicy | None" = None,
                  paper_n: int | None = None) -> RunResult:
        """One measured closed-loop run over a collection.

        Thin wrapper over :class:`~repro.workload.runner.BenchRunner`;
        build the runner directly for sweeps that should reuse its
        compiled plans across concurrency levels.  ``fault_plan`` /
        ``resilience`` attach fault injection and host-side defences
        (see :mod:`repro.faults`).

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=8, index="flat")
        >>> rng = np.random.default_rng(1)
        >>> _ = session.insert(
        ...     "d", rng.standard_normal((64, 8), dtype=np.float32),
        ...     flush=True)
        >>> run = session.run_bench(
        ...     "d", rng.standard_normal((4, 8), dtype=np.float32),
        ...     concurrency=2, duration_s=0.01)
        >>> run.completed > 0 and run.qps > 0
        True
        """
        runner = self.bench_runner(name, queries,
                                   ground_truth=ground_truth, k=k,
                                   paper_n=paper_n)
        return runner.run(concurrency, search_params=search_params,
                          duration_s=duration_s, telemetry=telemetry,
                          write_load=write_load, fault_plan=fault_plan,
                          resilience=resilience)

    def bench_runner(self, name: str, queries: np.ndarray, *,
                     ground_truth: np.ndarray | None = None, k: int = 10,
                     paper_n: int | None = None) -> BenchRunner:
        """A reusable runner over one collection (plans are cached)."""
        return BenchRunner(self.engine, name, queries,
                           ground_truth=ground_truth, k=k,
                           paper_n=paper_n)

    # -- serving ----------------------------------------------------------

    def serve(self, name: str, queries: np.ndarray,
              config: "ServeConfig",
              tenancy: "TenancyConfig | None" = None, *,
              ground_truth: np.ndarray | None = None, k: int = 10,
              telemetry: RunTelemetry | bool | None = None,
              paper_n: int | None = None) -> "ServeResult":
        """One serving run over a collection under open-loop load.

        Where :meth:`run_bench` asks "how fast can the backend go"
        (closed loop), this asks the production question: how much
        *offered* load does it absorb within the SLO?  The *config*
        (:class:`~repro.serve.ServeConfig`) sets the tenants' arrival
        models, the admission-queue policy and bound, batching,
        shedding, and the concurrency limit; the returned
        :class:`~repro.serve.ServeResult` reports goodput, drops, and
        the queue/service latency decomposition.  See
        ``docs/SERVING.md``.

        >>> import numpy as np
        >>> from repro.serve import PoissonArrivals, ServeConfig, TenantLoad
        >>> session = open_engine()
        >>> _ = session.create("d", dim=8, index="flat")
        >>> rng = np.random.default_rng(1)
        >>> _ = session.insert(
        ...     "d", rng.standard_normal((64, 8), dtype=np.float32),
        ...     flush=True)
        >>> config = ServeConfig(
        ...     tenants=(TenantLoad("t", PoissonArrivals(rate_qps=200.0)),),
        ...     duration_s=0.05)
        >>> result = session.serve(
        ...     "d", rng.standard_normal((4, 8), dtype=np.float32), config)
        >>> result.completed > 0 and result.rejected == 0
        True

        With *tenancy* set (a :class:`~repro.tenancy.TenancyConfig`)
        the run is served by the multi-tenant SLO autopilot —
        cost-priced admission, the closed quality loop, and tiered
        placement (see ``docs/TENANCY.md``); ``tenancy.enabled=False``
        is bit-identical to passing ``None``.
        """
        from repro.serve import Server
        runner = self.bench_runner(name, queries,
                                   ground_truth=ground_truth, k=k,
                                   paper_n=paper_n)
        if tenancy is not None:
            from repro.tenancy import serve_autopilot
            return serve_autopilot(runner, config, tenancy,
                                   telemetry=telemetry)
        return Server(runner, config, telemetry=telemetry).serve()


class ClusterSession:
    """The :class:`Deployment` facade over a simulated cluster.

    Same verbs, same semantics as :class:`Session` — callers see global
    row ids and merged top-k answers; sharding, replication, and the
    scatter-gather merge stay behind the facade.  With one shard and
    one replica every answer is bit-identical (ids *and* distances) to
    a :class:`Session` over a single engine fed the same calls.

    >>> import numpy as np
    >>> from repro.cluster import ClusterTopology
    >>> session = open_cluster(ClusterTopology(n_shards=2), "milvus")
    >>> _ = session.create("docs", dim=8, index="flat")
    >>> rng = np.random.default_rng(0)
    >>> ids = session.insert(
    ...     "docs", rng.standard_normal((64, 8), dtype=np.float32),
    ...     flush=True)
    >>> ids.tolist() == list(range(64))
    True
    >>> hits = session.search("docs", rng.standard_normal(8), k=3)
    >>> len(hits.ids)
    3
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    @property
    def profile(self) -> EngineProfile:
        """The engine profile every node runs."""
        return self.cluster.profile

    @property
    def topology(self) -> "ClusterTopology":
        """The cluster's shape: shards, replicas, interconnect."""
        return self.cluster.topology

    # -- collection lifecycle ---------------------------------------------

    def create(self, name: str, dim: int, index: str | IndexSpec = "hnsw",
               metric: str = "cosine", storage_dim: int | None = None,
               **index_params: t.Any) -> "ShardedCollection":
        """Create a collection on every replica of every shard."""
        if isinstance(index, IndexSpec):
            spec = index
        else:
            spec = IndexSpec.of(index, metric, **index_params)
        return self.cluster.create(name, dim, spec,
                                   storage_dim=storage_dim)

    def drop(self, name: str) -> None:
        """Drop a collection from every node."""
        self.cluster.drop(name)

    def collections(self) -> list[str]:
        """Names of all cluster collections, sorted."""
        return self.cluster.collections()

    # -- data plane -------------------------------------------------------

    def insert(self, name: str, vectors: np.ndarray,
               payloads: t.Sequence[Payload | None] | None = None,
               flush: bool = False) -> np.ndarray:
        """Append rows; returns their *global* ids (dense, in order)."""
        ids = self.cluster.insert(name, vectors, payloads)
        if flush:
            self.cluster.flush(name)
        return ids

    def flush(self, name: str) -> None:
        """Seal growing rows into indexed segments, cluster-wide."""
        self.cluster.flush(name)

    def delete(self, name: str, row_ids: t.Iterable[int]) -> int:
        """Tombstone rows by global id; returns how many existed."""
        return self.cluster.delete(name, row_ids)

    def compact(self, name: str) -> None:
        """Merge every shard's delta into fresh snapshots.

        Applied through the op log on all replicas of each shard;
        compaction is deterministic, so replicas stay bit-identical.
        """
        self.cluster.compact(name)

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist every node plus the cluster manifest at *path*.

        Reopen with :func:`open_saved_cluster`.
        """
        self.cluster.save(path)

    # -- search -----------------------------------------------------------

    def search(self, name: str, query: t.Any, k: int = 10, *,
               filter: Filter | None = None, shard: int | None = None,
               **params: t.Any) -> "SearchResult":
        """Scatter-gather top-k; result ids are global.

        *query* may be a routed :class:`~repro.engines.SearchRequest`
        (then *k*/params must be left at defaults) — its ``shard``
        hint narrows the scatter, and its ``consistency`` /
        ``deadline_s`` shape replay timing.
        """
        if isinstance(query, SearchRequest):
            return self.cluster.execute(name, query)
        return self.cluster.search(name, query, k, filter_=filter,
                                   shard=shard, **params)

    def search_batch(self, name: str, queries: np.ndarray, k: int = 10, *,
                     filter: Filter | None = None,
                     shard: int | None = None,
                     **params: t.Any) -> "list[SearchResult]":
        """Batched scatter-gather; one merged result per query row."""
        return self.cluster.search_batch(name, queries, k,
                                         filter_=filter, shard=shard,
                                         **params)

    # -- benchmarking -----------------------------------------------------

    def run_bench(self, name: str, queries: np.ndarray, *,
                  ground_truth: np.ndarray | None = None,
                  concurrency: int = 1, k: int = 10,
                  search_params: dict[str, t.Any] | None = None,
                  duration_s: float = 4.0,
                  telemetry: RunTelemetry | bool | None = None,
                  chaos: "ChaosSchedule | None" = None,
                  consistency: str = "one",
                  hedge_after_s: float | None = None,
                  deadline_s: float | None = None,
                  paper_n: int | None = None) -> RunResult:
        """One measured closed-loop run against the whole cluster.

        The cluster counterpart of :meth:`Session.run_bench`; the extra
        knobs attach the fault schedule, the consistency level, hedged
        cross-node requests, and the partial-result deadline (see
        :meth:`repro.cluster.ClusterBenchRunner.run`).
        """
        runner = self.bench_runner(name, queries,
                                   ground_truth=ground_truth, k=k,
                                   paper_n=paper_n)
        return runner.run(concurrency, search_params=search_params,
                          duration_s=duration_s, telemetry=telemetry,
                          chaos=chaos, consistency=consistency,
                          hedge_after_s=hedge_after_s,
                          deadline_s=deadline_s)

    def bench_runner(self, name: str, queries: np.ndarray, *,
                     ground_truth: np.ndarray | None = None, k: int = 10,
                     paper_n: int | None = None) -> "ClusterBenchRunner":
        """A reusable cluster runner (per-shard plans are cached)."""
        from repro.cluster import ClusterBenchRunner
        return ClusterBenchRunner(self.cluster, name, queries,
                                  ground_truth=ground_truth, k=k,
                                  paper_n=paper_n)

    # -- serving ----------------------------------------------------------

    def serve(self, name: str, queries: np.ndarray,
              config: "ServeConfig",
              tenancy: "TenancyConfig | None" = None, *,
              ground_truth: np.ndarray | None = None, k: int = 10,
              telemetry: RunTelemetry | bool | None = None,
              paper_n: int | None = None) -> "ServeResult":
        """One serving run with the coordinator behind the admission
        queue: arrivals, batching, and shedding come from
        :mod:`repro.serve` unchanged, each dispatched query fans out
        across the shards.  See :meth:`Session.serve`.  With *tenancy*
        set, the autopilot's quota and quality loops run over the
        coordinator (tiered placement stays single-node and must be
        left unset here).
        """
        from repro.serve import Server
        runner = self.bench_runner(name, queries,
                                   ground_truth=ground_truth, k=k,
                                   paper_n=paper_n)
        if tenancy is not None:
            from repro.tenancy import serve_autopilot
            return serve_autopilot(runner, config, tenancy,
                                   telemetry=telemetry)
        return Server(runner, config, telemetry=telemetry).serve()

    # -- chaos ------------------------------------------------------------

    def chaos(self, name: str, queries: np.ndarray,
              config: "ServeConfig",
              schedule: "ChaosSchedule | None" = None, *,
              supervisor: "Supervisor | None" = None,
              mutation: "MutationLoad | None" = None,
              ground_truth: np.ndarray | None = None, k: int = 10,
              telemetry: RunTelemetry | bool | None = None,
              resilience: "ResiliencePolicy | None" = None,
              healthy_recall: float | None = None,
              paper_n: int | None = None) -> "ChaosRunResult":
        """One chaos run: *schedule* injected while *config* serves.

        The facade over :func:`repro.chaos.run_chaos`: every plane of
        the composed :class:`~repro.chaos.ChaosSchedule` is armed
        against this cluster, the optional
        :class:`~repro.chaos.Supervisor` self-heals it, and the
        returned :class:`~repro.chaos.ChaosRunResult` carries the
        serving result plus the invariant-oracle battery's verdicts.
        A chaos run consumes the session's cluster (the supervisor
        edits routing; mutation grows allocators) — open a fresh one
        per run.  See ``docs/CHAOS.md``.
        """
        from repro.chaos import run_chaos
        runner = self.bench_runner(name, queries,
                                   ground_truth=ground_truth, k=k,
                                   paper_n=paper_n)
        return run_chaos(runner, config, schedule,
                         supervisor=supervisor, mutation=mutation,
                         telemetry=telemetry, resilience=resilience,
                         healthy_recall=healthy_recall)
