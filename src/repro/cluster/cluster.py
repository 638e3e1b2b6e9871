"""The cluster data plane: N-node sharded, replicated vector store.

A :class:`Cluster` runs one full :class:`~repro.engines.engine.
VectorEngine` per node.  Collections are sharded row-wise across the
topology's shards; every replica of a shard holds *identical* state —
replicas are built from the same insert/flush/delete sequence with the
same seed, so any replica can answer any read and consistency levels
never change results, only timing (see :mod:`repro.cluster.runner`).

Global vs local row ids: the cluster assigns dense global ids in insert
order (exactly the ids a single engine would assign), while each shard
engine assigns its own dense local ids.  The cluster keeps both maps and
translates at the scatter-gather boundary, so callers only ever see
global ids.  With one shard and one replica the translation is the
identity and the whole data plane is bit-identical — ids *and*
distances — to a single engine fed the same calls; the acceptance test
asserts it.

The data plane is purely functional (no simulated clock).  Everything
timed — cross-node latency, quorum waits, hedged requests, failover,
migration traffic — lives in :mod:`repro.cluster.runner` on top of the
shared simulation kernel.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import typing as t
from pathlib import Path

import numpy as np

from repro.ann.workprofile import SearchResult, WorkProfile
from repro.cluster.merge import merge_topk
from repro.cluster.topology import ClusterTopology
from repro.engines.engine import (IndexSpec, SearchRequest, VectorEngine,
                                  merge_works)
from repro.engines.profiles import EngineProfile, get_profile
from repro.errors import ClusterError, CollectionNotFoundError, EngineError

if t.TYPE_CHECKING:
    from repro.engines.payload import Filter, Payload

_MANIFEST = "cluster.json"


@dataclasses.dataclass
class ShardedCollection:
    """Cluster-side metadata of one sharded collection."""

    name: str
    dim: int
    index_spec: IndexSpec
    storage_dim: int | None
    #: Per shard: local row id -> global row id (dense, append-only).
    local_to_global: list[np.ndarray]
    #: Global row id -> (shard, local row id).
    global_to_local: dict[int, tuple[int, int]]
    #: Next global id this collection will assign.
    next_global: int = 0

    def to_global(self, shard: int, local_ids: np.ndarray) -> np.ndarray:
        """Translate one shard's local result ids to global ids."""
        l2g = self.local_to_global[shard]
        local_ids = np.asarray(local_ids, dtype=np.int64)
        return l2g[local_ids] if len(l2g) else local_ids.copy()


class ClusterNode:
    """One cluster node: a node id and the engine running on it."""

    def __init__(self, node_id: int, profile: EngineProfile,
                 seed: int) -> None:
        self.node_id = node_id
        self.engine = VectorEngine(profile, seed=seed)


class Cluster:
    """A simulated N-shard, R-replica cluster of vector engines.

    The coordinator-facing verbs carry a single
    :class:`~repro.engines.engine.VectorEngine`'s names and errors —
    ``create_collection`` / ``drop_collection`` / ``collection`` /
    ``list_collections`` / ``insert`` / ``flush`` / ``delete`` /
    ``compact`` / ``search`` / ``search_batch`` / ``execute`` /
    ``save`` — so :class:`repro.api.Deployment` drives either store,
    plus :meth:`move_replica` for shard rebalancing.  All searches
    scatter to one replica per shard and gather through
    :func:`~repro.cluster.merge.merge_topk`.
    """

    def __init__(self, topology: ClusterTopology,
                 profile: EngineProfile | str = "milvus",
                 seed: int = 0) -> None:
        self.topology = topology
        self.profile = (get_profile(profile) if isinstance(profile, str)
                        else profile)
        self.seed = seed
        #: Every data node, spares included (coordinator has no engine).
        self.nodes = [ClusterNode(i, self.profile, seed)
                      for i in range(topology.total_nodes)]
        #: Current replica homes: shard -> node ids, primary first.
        #: Starts at the topology's boot placement; migration edits it.
        self.routing = {s: topology.home_nodes(s)
                        for s in range(topology.n_shards)}
        self._collections: dict[str, ShardedCollection] = {}
        #: Per-shard op log, replayed verbatim to build a new replica
        #: during migration (same ops + same seed = identical engine).
        self._oplog: dict[int, list[tuple[t.Any, ...]]] = {
            s: [] for s in range(topology.n_shards)}
        #: Ops applied per node, for the chaos layer's op-log prefix
        #: consistency oracle: every live replica of a shard must have
        #: applied exactly the shard's full log.
        self.applied: t.Counter[int] = collections.Counter()

    # -- collection lifecycle ---------------------------------------------

    def create_collection(self, name: str, dim: int, index_spec: IndexSpec,
                          storage_dim: int | None = None,
                          ) -> ShardedCollection:
        """Create *name* on every replica of every shard."""
        if name in self._collections:
            raise EngineError(f"collection {name!r} already exists")
        self._broadcast(("create", name, dim, index_spec, storage_dim))
        meta = ShardedCollection(
            name, dim, index_spec, storage_dim,
            local_to_global=[np.empty(0, dtype=np.int64)
                             for _ in range(self.topology.n_shards)],
            global_to_local={})
        self._collections[name] = meta
        return meta

    def drop_collection(self, name: str) -> None:
        """Drop *name* from every node."""
        self.collection(name)
        self._broadcast(("drop", name))
        del self._collections[name]

    def collection(self, name: str) -> ShardedCollection:
        """The cluster-side metadata of collection *name*."""
        if name not in self._collections:
            raise CollectionNotFoundError(name)
        return self._collections[name]

    def list_collections(self) -> list[str]:
        return sorted(self._collections)

    # -- writes -----------------------------------------------------------

    def insert(self, name: str, vectors: np.ndarray,
               payloads: "t.Sequence[Payload | None] | None" = None,
               ) -> np.ndarray:
        """Append rows, routing each to its home shard's replicas.

        Returns the rows' new *global* ids — the same dense sequence a
        single engine fed the same inserts would have assigned.
        """
        meta = self.collection(name)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        n = len(vectors)
        global_ids = np.arange(meta.next_global, meta.next_global + n,
                               dtype=np.int64)
        meta.next_global += n
        shards = np.fromiter(
            (self.topology.shard_of(int(g)) for g in global_ids),
            dtype=np.int64, count=n)
        for shard in range(self.topology.n_shards):
            rows = np.flatnonzero(shards == shard)
            if not len(rows):
                continue
            sub_payloads = ([payloads[i] for i in rows]
                            if payloads is not None else None)
            local_ids = self._broadcast(
                ("insert", name, vectors[rows], sub_payloads), [shard])
            sub_globals = global_ids[rows]
            for local, g in zip(local_ids, sub_globals):
                meta.global_to_local[int(g)] = (shard, int(local))
            meta.local_to_global[shard] = np.concatenate(
                [meta.local_to_global[shard], sub_globals])
        return global_ids

    def flush(self, name: str) -> None:
        """Seal growing rows into indexed segments on every replica."""
        self.collection(name)
        self._broadcast(("flush", name))

    def compact(self, name: str) -> None:
        """Merge each shard's delta into a fresh snapshot, all replicas.

        Compaction is deterministic (the rebuild reuses the same
        segmentation plan and seeds a fresh build would), so replaying
        the same op on every replica of a shard leaves them
        bit-identical — the same argument that keeps the op log
        convergent for ``flush``.
        """
        self.collection(name)
        self._broadcast(("compact", name))

    def delete(self, name: str, row_ids: t.Iterable[int]) -> int:
        """Tombstone rows by global id; returns how many existed."""
        meta = self.collection(name)
        by_shard: dict[int, list[int]] = {}
        deleted = 0
        for g in row_ids:
            home = meta.global_to_local.get(int(g))
            if home is None:
                continue
            deleted += 1
            by_shard.setdefault(home[0], []).append(home[1])
        for shard, locals_ in sorted(by_shard.items()):
            self._broadcast(("delete", name, tuple(locals_)), [shard])
        return deleted

    # -- reads ------------------------------------------------------------

    def search(self, name: str, query: np.ndarray, k: int = 10, *,
               filter_: "Filter | None" = None, shard: int | None = None,
               **params: t.Any) -> SearchResult:
        """Scatter-gather top-k with global ids.

        Queries one replica per shard (the routing primary — replicas
        are identical, so the choice never changes results), translates
        each shard's local ids, and merges by (distance, id) ascending.
        A ``shard`` hint restricts the scatter to that one shard.
        """
        results = self.search_batch(
            name, np.asarray(query, dtype=np.float32).reshape(1, -1), k,
            filter_=filter_, shard=shard, **params)
        return results[0]

    def execute(self, name: str, request: SearchRequest) -> SearchResult:
        """Run a typed, routed :class:`SearchRequest`.

        The ``shard`` hint narrows the scatter; ``consistency`` and
        ``deadline_s`` are validated by the request itself and only
        shape *timing* (quorum waits, partial results) on the replay
        path — functionally every consistency level reads identical
        replicas.
        """
        return self.search(name, request.query, request.k,
                           filter_=request.filter, shard=request.shard,
                           **request.param_dict)

    def search_batch(self, name: str, queries: np.ndarray, k: int = 10,
                     *, filter_: "Filter | None" = None,
                     shard: int | None = None,
                     **params: t.Any) -> list[SearchResult]:
        """Batched scatter-gather; one merged result per query."""
        meta = self.collection(name)
        if shard is not None:
            self.topology._check_shard(shard)
            shards = [shard]
        else:
            shards = list(range(self.topology.n_shards))
        per_shard = {
            s: self.engine_for(self.primary(s)).search_batch(
                name, queries, k, filter_=filter_, **params)
            for s in shards}
        merged: list[SearchResult] = []
        for q in range(len(queries)):
            ids_parts, dists_parts, works = [], [], []
            for s in shards:
                result = per_shard[s][q]
                ids_parts.append(meta.to_global(s, result.ids))
                dists_parts.append(result.dists)
                works.extend(result.works if result.works is not None
                             else [result.work])
            ids, dists = merge_topk(ids_parts, dists_parts, k)
            merged.append(SearchResult(ids=ids, work=merge_works(works),
                                       dists=dists, works=works))
        return merged

    # -- placement --------------------------------------------------------

    def primary(self, shard: int) -> int:
        """The shard's current primary replica node."""
        return self.routing[shard][0]

    def engine_for(self, node_id: int) -> VectorEngine:
        return self.nodes[node_id].engine

    def shard_bytes(self, name: str, shard: int) -> int:
        """Stored bytes of one shard of a collection (migration size)."""
        meta = self.collection(name)
        rows = len(meta.local_to_global[shard])
        dim = (meta.storage_dim if meta.storage_dim is not None
               else meta.dim)
        return rows * dim * 4

    def oplog_len(self, shard: int) -> int:
        """Ops issued to *shard* so far (the op-log prefix length)."""
        self.topology._check_shard(shard)
        return len(self._oplog[shard])

    def move_replica(self, shard: int, replica: int,
                     to_node: int) -> None:
        """Rebuild one shard replica on *to_node* and cut routing over.

        The target replays the shard's full op log with the cluster
        seed, which reproduces the exact engine state (same segment
        plan, same indexes) the existing replicas hold; the vacated
        node drops its copy.  The replay-path migration (device traffic
        while serving) wraps this instant cutover — see
        :meth:`repro.cluster.runner.ClusterReplaySession.migrate`.
        """
        self.topology._check_shard(shard)
        if not 0 <= replica < len(self.routing[shard]):
            raise ClusterError(f"bad replica: {replica}")
        if not 0 <= to_node < len(self.nodes):
            raise ClusterError(f"bad target node: {to_node}")
        if to_node in self.routing[shard]:
            raise ClusterError(
                f"node {to_node} already hosts shard {shard}")
        for held, nodes in self.routing.items():
            if to_node in nodes:
                raise ClusterError(
                    f"node {to_node} already hosts shard {held}")
        for op in self._oplog[shard]:
            self._apply(to_node, op)
        from_node = self.routing[shard][replica]
        self.routing[shard][replica] = to_node
        engine = self.engine_for(from_node)
        for name in list(engine.list_collections()):
            engine.drop_collection(name)
        # The vacated node is a clean slate again (it may rejoin the
        # spare pool); its applied-op count restarts with it.
        self.applied[from_node] = 0

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist every node plus the cluster manifest at *path*.

        Each node's engine is written as its own crash-consistent
        durable store (``node-<id>/``, see :mod:`repro.durability`);
        the manifest records topology, routing, and the id maps.
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for node in self.nodes:
            node.engine.save(root / f"node-{node.node_id}")
        manifest = {
            "topology": {
                "n_shards": self.topology.n_shards,
                "replicas": self.topology.replicas,
                "sharding": self.topology.sharding,
                "spares": self.topology.spares,
                "seed": self.topology.seed,
                "rows_per_shard": self.topology.rows_per_shard,
                "network": dataclasses.asdict(self.topology.network),
            },
            "seed": self.seed,
            "routing": {str(s): nodes
                        for s, nodes in self.routing.items()},
            "collections": [{
                "name": meta.name,
                "dim": meta.dim,
                "index_kind": meta.index_spec.kind,
                "metric": meta.index_spec.metric,
                "index_params": meta.index_spec.param_dict,
                "storage_dim": meta.storage_dim,
                "next_global": meta.next_global,
                "local_to_global": [l2g.tolist()
                                    for l2g in meta.local_to_global],
            } for meta in self._collections.values()],
        }
        (root / _MANIFEST).write_text(json.dumps(manifest, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "Cluster":
        """Recover a cluster previously written by :meth:`save`.

        The op log is not persisted, so a loaded cluster serves reads
        and writes but cannot migrate replicas built before the save.
        """
        from repro.simkernel.network import NetworkSpec
        root = Path(path)
        manifest_path = root / _MANIFEST
        if not manifest_path.is_file():
            raise ClusterError(f"no cluster manifest at {root}")
        manifest = json.loads(manifest_path.read_text())
        topo_d = dict(manifest["topology"])
        topo_d["network"] = NetworkSpec(**topo_d["network"])
        topology = ClusterTopology(**topo_d)
        cluster = cls.__new__(cls)
        cluster.topology = topology
        cluster.seed = manifest["seed"]
        cluster.nodes = []
        for node_id in range(topology.total_nodes):
            engine = VectorEngine.load(root / f"node-{node_id}")
            node = ClusterNode.__new__(ClusterNode)
            node.node_id, node.engine = node_id, engine
            cluster.nodes.append(node)
        cluster.profile = cluster.nodes[0].engine.profile
        cluster.routing = {int(s): list(nodes) for s, nodes
                           in manifest["routing"].items()}
        cluster._collections = {}
        cluster._oplog = {s: [] for s in range(topology.n_shards)}
        cluster.applied = collections.Counter()
        for entry in manifest["collections"]:
            spec = IndexSpec.of(entry["index_kind"], entry["metric"],
                                **entry["index_params"])
            l2g = [np.asarray(part, dtype=np.int64)
                   for part in entry["local_to_global"]]
            g2l = {int(g): (shard, local)
                   for shard, part in enumerate(l2g)
                   for local, g in enumerate(part)}
            cluster._collections[entry["name"]] = ShardedCollection(
                entry["name"], entry["dim"], spec, entry["storage_dim"],
                local_to_global=l2g, global_to_local=g2l,
                next_global=entry["next_global"])
        return cluster

    # -- internals --------------------------------------------------------

    def _broadcast(self, op: tuple[t.Any, ...],
                   shards: t.Iterable[int] | None = None) -> t.Any:
        """Append *op* to each shard's log (default: every shard) and
        apply it on every replica in routing; returns the last
        replica's result (replicas are identical)."""
        result = None
        for shard in (range(self.topology.n_shards) if shards is None
                      else shards):
            self._oplog[shard].append(op)
            for node in self.routing[shard]:
                result = self._apply(node, op)
        return result

    def _apply(self, node_id: int, op: tuple[t.Any, ...]) -> t.Any:
        """Apply one op-log entry to one node's engine."""
        engine = self.engine_for(node_id)
        self.applied[node_id] += 1
        kind = op[0]
        if kind == "create":
            _, name, dim, index_spec, storage_dim = op
            return engine.create_collection(name, dim, index_spec,
                                            storage_dim=storage_dim)
        if kind == "drop":
            return engine.drop_collection(op[1])
        if kind == "insert":
            _, name, vectors, payloads = op
            return engine.insert(name, vectors, payloads)
        if kind == "flush":
            return engine.flush(op[1])
        if kind == "delete":
            return engine.delete(op[1], op[2])
        if kind == "compact":
            return engine.compact(op[1])
        raise ClusterError(f"unknown op: {kind!r}")
