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

The verbs are implemented once, on :class:`Deployment`; a
:class:`Session` wraps one :class:`~repro.engines.VectorEngine` and a
:class:`ClusterSession` one :class:`~repro.cluster.Cluster`.  The
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
from repro.workload.runner import BenchRunner

if t.TYPE_CHECKING:
    from repro.ann.workprofile import SearchResult
    from repro.chaos import ChaosRunResult
    from repro.cluster import Cluster, ClusterBenchRunner, ClusterTopology
    from repro.cluster.cluster import ShardedCollection
    from repro.faults import ChaosSchedule
    from repro.serve import ServeConfig, ServeResult
    from repro.tenancy import TenancyConfig


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

    *path* is a store written by :meth:`Deployment.save` on a
    :class:`Session` (or :meth:`~repro.engines.engine.VectorEngine.save`):
    every record checksum is verified and WAL entries past the last
    checkpoint are replayed, so the session answers queries exactly as
    the saved one did.  (The engine's seed is part of its committed
    state.)
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

    *path* is a store written by :meth:`Deployment.save` on a
    :class:`ClusterSession`: one crash-consistent durable store per
    node plus the cluster manifest (topology, routing, and the global
    id maps).
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


class Deployment:
    """What every deployment shape serves, single-node or cluster.

    Each verb is implemented once, here, against the store the
    subclass wraps: a :class:`~repro.engines.VectorEngine` for
    :class:`Session`, a :class:`~repro.cluster.Cluster` for
    :class:`ClusterSession`.  Both stores answer the same calls and
    both runners take the same arguments, so code written against these
    verbs runs unchanged on either — ``open_engine`` and
    ``open_cluster`` are interchangeable constructors::

        >>> isinstance(open_engine(), Deployment)
        True
    """

    def __init__(self, store: "VectorEngine | Cluster",
                 runner: "type[BenchRunner | ClusterBenchRunner]") -> None:
        self._store = store
        self._runner = runner

    @property
    def profile(self) -> EngineProfile:
        """The engine profile every node runs (costs, caches,
        parallelism)."""
        return self._store.profile

    # -- collection lifecycle ---------------------------------------------

    def create(self, name: str, dim: int, index: str | IndexSpec = "hnsw",
               metric: str = "cosine", storage_dim: int | None = None,
               **index_params: t.Any) -> "Collection | ShardedCollection":
        """Create a collection; index params are validated eagerly.

        *index* is an index kind (``"hnsw"``, ``"diskann"``, ...) plus
        keyword parameters, or a ready :class:`~repro.engines.IndexSpec`
        (in which case *metric*/params must be left at defaults).  A
        cluster creates it on every replica of every shard.

        >>> col = open_engine().create("d", dim=16, index="diskann", R=16)
        >>> col.index_spec.kind
        'diskann'
        """
        if isinstance(index, IndexSpec):
            spec = index
        else:
            spec = IndexSpec.of(index, metric, **index_params)
        return self._store.create_collection(name, dim, spec,
                                             storage_dim=storage_dim)

    def drop(self, name: str) -> None:
        """Drop a collection and everything in it, from every node."""
        self._store.drop_collection(name)

    def collection(self, name: str) -> "Collection | ShardedCollection":
        """The named :class:`~repro.engines.Collection` (on a cluster,
        its :class:`~repro.cluster.ShardedCollection` metadata)."""
        return self._store.collection(name)

    def collections(self) -> list[str]:
        """Names of all collections, sorted.

        >>> session = open_engine("milvus")
        >>> _ = session.create("docs", dim=8, index="hnsw", M=8)
        >>> session.collections()
        ['docs']
        """
        return self._store.list_collections()

    # -- data plane -------------------------------------------------------

    def insert(self, name: str, vectors: np.ndarray,
               payloads: t.Sequence[Payload | None] | None = None,
               flush: bool = False) -> np.ndarray:
        """Append vectors; ``flush=True`` seals and indexes right away.

        Returns the assigned row ids — on a cluster the *global* ids,
        the same dense sequence a single engine would assign:

        >>> import numpy as np
        >>> session = open_engine()
        >>> _ = session.create("d", dim=4, index="flat")
        >>> session.insert("d", np.eye(4, dtype=np.float32)).tolist()
        [0, 1, 2, 3]
        """
        ids = self._store.insert(name, vectors, payloads)
        if flush:
            self._store.flush(name)
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
        self._store.flush(name)

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
        return self._store.delete(name, row_ids)

    def compact(self, name: str) -> None:
        """Merge the delta into a fresh snapshot, dropping tombstones.

        Rebuilds the collection's sealed segments from its live rows
        (base minus tombstones, plus the delta buffer) with the same
        segmentation plan and seeds a fresh build would use, then
        truncates the checkpointed WAL.  Search results are unchanged
        — merged search was already bit-identical to a fresh build.  A
        cluster applies it through the op log on every replica of each
        shard, so replicas stay bit-identical:

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
        self._store.compact(name)

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the deployment as a crash-consistent store at *path*.

        Checksummed record files under a versioned manifest, each
        written via temp file + fsync + atomic rename (a cluster writes
        one such store per node plus its manifest); reopen with
        :func:`open_saved` / :func:`open_saved_cluster`.  See
        ``docs/DURABILITY.md``.
        """
        self._store.save(path)

    # -- search -----------------------------------------------------------

    def search(self, name: str, query: t.Any, k: int = 10, *,
               filter: Filter | None = None,
               **params: t.Any) -> "SearchResult":
        """Top-k search returning a
        :class:`~repro.ann.workprofile.SearchResult`.

        *query* may also be a :class:`~repro.engines.SearchRequest`
        (then *k*/params must be left at defaults).  A cluster
        scatter-gathers with global ids; its ``shard=`` hint (a search
        parameter, or a routed request's field) narrows the scatter:

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
            return self._store.execute(name, query)
        return self._store.search(name, query, k, filter_=filter, **params)

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
        return self._store.search_batch(name, queries, k,
                                        filter_=filter, **params)

    # -- benchmarking -----------------------------------------------------

    def bench_runner(self, name: str, queries: np.ndarray, *,
                     ground_truth: np.ndarray | None = None, k: int = 10,
                     paper_n: int | None = None,
                     ) -> "BenchRunner | ClusterBenchRunner":
        """A reusable runner over one collection (plans are cached): a
        :class:`~repro.workload.runner.BenchRunner` over an engine, a
        :class:`~repro.cluster.ClusterBenchRunner` over a cluster."""
        return self._runner(self._store, name, queries,
                            ground_truth=ground_truth, k=k, paper_n=paper_n)

    def run_bench(self, name: str, queries: np.ndarray, *,
                  ground_truth: np.ndarray | None = None,
                  concurrency: int = 1, k: int = 10,
                  paper_n: int | None = None,
                  **options: t.Any) -> RunResult:
        """One measured closed-loop run over a collection.

        Thin wrapper over :meth:`bench_runner`; *options*
        (``search_params``, ``duration_s``, ``telemetry``, ...) go to
        the runner's ``run`` unchanged, which owns them and their
        defaults.  Faults and defences are the same arguments on both
        shapes: ``chaos`` (a :class:`~repro.faults.ChaosSchedule`; an
        engine is node 0 and takes only its device faults) and
        ``resilience`` (see :mod:`repro.faults`).  An engine's
        :meth:`~repro.workload.runner.BenchRunner.run` also takes
        ``trace`` / ``mutation``, a cluster's
        :meth:`~repro.cluster.ClusterBenchRunner.run` ``consistency`` /
        ``hedge_after_s`` / ``deadline_s``.  Build the runner directly
        for sweeps that should reuse its compiled plans across
        concurrency levels.

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
        return runner.run(concurrency, **options)

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
        the queue/service latency decomposition.  On a cluster the
        coordinator sits behind the admission queue and each dispatched
        query fans out across the shards, and ``config.mutation`` runs
        one write stream per shard primary (``ServeResult.mutation``
        sums them).  See ``docs/SERVING.md``.

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
        is bit-identical to passing ``None``.  Tiered placement stays
        single-node: on a cluster it must be left unset.
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


class Session(Deployment):
    """The :class:`Deployment` facade over one engine.

    >>> session = open_engine("milvus")
    >>> session.engine.profile.name
    'milvus'
    """

    def __init__(self, engine: VectorEngine) -> None:
        super().__init__(engine, BenchRunner)
        self.engine = engine


class ClusterSession(Deployment):
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
        from repro.cluster import ClusterBenchRunner
        super().__init__(cluster, ClusterBenchRunner)
        self.cluster = cluster

    @property
    def topology(self) -> "ClusterTopology":
        """The cluster's shape: shards, replicas, interconnect."""
        return self.cluster.topology

    def chaos(self, name: str, queries: np.ndarray,
              config: "ServeConfig",
              schedule: "ChaosSchedule | None" = None, *,
              ground_truth: np.ndarray | None = None, k: int = 10,
              paper_n: int | None = None,
              **options: t.Any) -> "ChaosRunResult":
        """One chaos run: *schedule* injected while *config* serves.

        The facade over :func:`repro.chaos.run_chaos`: every plane of
        the composed :class:`~repro.chaos.ChaosSchedule` is armed
        against this cluster and the returned
        :class:`~repro.chaos.ChaosRunResult` carries the serving result
        plus the invariant-oracle battery's verdicts.  *options* go to
        ``run_chaos`` unchanged (``supervisor``, ``telemetry``,
        ``healthy_recall``, ...) and through it to the replay session
        (``consistency``, ``hedge_after_s``, ``deadline_s``,
        ``resilience``); write streams ride on ``config.mutation``.
        A chaos run consumes the session's cluster (the supervisor
        edits routing; mutation grows allocators) — open a fresh one
        per run.  See ``docs/CHAOS.md``.
        """
        from repro.chaos import run_chaos
        runner = self.bench_runner(name, queries,
                                   ground_truth=ground_truth, k=k,
                                   paper_n=paper_n)
        return run_chaos(runner, config, schedule, **options)
