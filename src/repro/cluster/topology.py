"""Cluster shape: shards, replica groups, and row placement.

A :class:`ClusterTopology` is pure data describing an N-shard cluster
with R-way replication: which node hosts which shard replica at boot,
how a row's global id maps to its home shard, and what the interconnect
between the nodes looks like.  Placement is deterministic — hash
sharding draws from the same stateless splitmix64 mix the fault plans
use, range sharding cuts the id space into fixed-size runs — so the
same topology always scatters the same rows to the same shards.

Example::

    >>> topo = ClusterTopology(n_shards=2, replicas=2)
    >>> topo.total_nodes
    4
    >>> topo.home_nodes(1)
    [2, 3]
    >>> topo.shard_of(7) in (0, 1)
    True
    >>> topo.shard_of(7) == topo.shard_of(7)
    True
    >>> ClusterTopology(n_shards=1).shard_of(12345)
    0
"""

from __future__ import annotations

import dataclasses

from repro.errors import ClusterError, require_int
from repro.simkernel.network import NetworkSpec, _unit

#: Supported row-placement strategies.
SHARDING_KINDS = ("hash", "range")

#: Sampling lane for hash placement (keeps the draw stream disjoint
#: from any other consumer of the shared splitmix mix).
_PLACEMENT_LANE = 0x5A


@dataclasses.dataclass(frozen=True)
class ClusterTopology:
    """Shape of a simulated cluster: N shards x R replicas (+ spares).

    Node ids are dense: shard ``s`` replica ``r`` boots on node
    ``s * replicas + r``; spare nodes (migration targets) follow, and
    the coordinator sits one past every data node (see
    :attr:`coordinator`).
    """

    n_shards: int = 1
    replicas: int = 1
    #: Row placement: ``"hash"`` (splitmix64 over the global id) or
    #: ``"range"`` (contiguous runs of ``rows_per_shard`` ids).
    sharding: str = "hash"
    #: Extra empty nodes available as rebalancing targets.
    spares: int = 0
    seed: int = 0
    network: NetworkSpec = dataclasses.field(default_factory=NetworkSpec)
    #: Range-sharding cut width; required when ``sharding="range"``
    #: (ids past the last cut land on the last shard).
    rows_per_shard: int | None = None

    def __post_init__(self) -> None:
        require_int(ClusterError, "n_shards", self.n_shards, 1)
        require_int(ClusterError, "replicas", self.replicas, 1)
        require_int(ClusterError, "spares", self.spares, 0)
        require_int(ClusterError, "seed", self.seed, None)
        if self.sharding not in SHARDING_KINDS:
            raise ClusterError(
                f"unknown sharding {self.sharding!r}; expected one of "
                f"{SHARDING_KINDS}")
        if self.sharding == "range" and self.n_shards > 1:
            require_int(ClusterError, "range sharding's rows_per_shard",
                        self.rows_per_shard, 1)

    @property
    def total_nodes(self) -> int:
        """Data nodes: every replica home plus the spares."""
        return self.n_shards * self.replicas + self.spares

    @property
    def coordinator(self) -> int:
        """The coordinator's node id (one past every data node)."""
        return self.total_nodes

    def node_id(self, shard: int, replica: int) -> int:
        """Boot-time home node of (shard, replica)."""
        self._check_shard(shard)
        if not 0 <= replica < self.replicas:
            raise ClusterError(f"bad replica: {replica}")
        return shard * self.replicas + replica

    def home_nodes(self, shard: int) -> list[int]:
        """Boot-time replica homes of *shard*, primary first."""
        return [self.node_id(shard, r) for r in range(self.replicas)]

    def shard_of(self, global_id: int) -> int:
        """Home shard of a row's global id (deterministic)."""
        if global_id < 0:
            raise ClusterError(f"bad global id: {global_id}")
        if self.n_shards == 1:
            return 0
        if self.sharding == "range":
            return min(global_id // self.rows_per_shard,
                       self.n_shards - 1)
        return int(_unit(self.seed, _PLACEMENT_LANE, global_id)
                   * self.n_shards) % self.n_shards

    def quorum(self) -> int:
        """Majority replica count: ``floor(R / 2) + 1``."""
        return self.replicas // 2 + 1

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ClusterError(
                f"bad shard {shard} (topology has {self.n_shards})")
