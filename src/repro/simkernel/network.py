"""Deterministic cross-node message latency model.

The cluster layer (:mod:`repro.cluster`) runs every node on one shared
:class:`~repro.simkernel.env.Environment`; what separates the nodes is
the *network* between them.  This module models that network at the
granularity the scatter-gather experiments need: a one-way message delay
per (source, destination) hop, drawn deterministically from the message
ordinal so that same-seed runs replay the exact same timeline.

The model is latency-only.  Result payloads in this reproduction are a
few KiB of top-k ids and distances, so cross-node bandwidth is never the
bottleneck the way device bandwidth is; what matters for the fan-out
tail curve is the per-hop latency jitter, because a scatter-gather query
completes at the *max* of N shard round trips.

Example::

    >>> spec = NetworkSpec(base_latency_s=50e-6, jitter_s=10e-6)
    >>> spec.validate()
    >>> d1 = spec.delay_s(src=0, dst=1, ordinal=7, seed=3)
    >>> d1 == spec.delay_s(src=0, dst=1, ordinal=7, seed=3)
    True
    >>> spec.base_latency_s <= d1 <= spec.base_latency_s + spec.jitter_s
    True
    >>> NetworkSpec.local().delay_s(0, 0, 0, 0)
    0.0
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:
    from repro.simkernel.env import Environment
    from repro.simkernel.events import Timeout


def _unit(seed: int, lane: int, ordinal: int) -> float:
    """Deterministic unit float from (seed, lane, ordinal).

    The same stateless splitmix64 finalizer the fault plans use
    (:func:`repro.faults.plan._unit`): network jitter must replay
    byte-identically from the seed, independent of any RNG stream.
    """
    x = (seed * 0x9E3779B97F4A7C15 + lane * 0xBF58476D1CE4E5B9
         + ordinal + 1) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x / 2.0 ** 64


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """Shape of the cluster interconnect: per-hop one-way latency.

    ``base_latency_s`` is the floor every cross-node message pays (NIC +
    switch + kernel path — tens of microseconds on a datacenter fabric);
    ``jitter_s`` is the uniform spread on top of it.  A message from a
    node to itself (coordinator co-located with a shard) is free.
    """

    #: Deterministic one-way latency floor for a cross-node hop.
    base_latency_s: float = 50e-6
    #: Uniform jitter added on top of the floor (0 disables jitter).
    jitter_s: float = 20e-6

    def validate(self) -> None:
        if self.base_latency_s < 0:
            raise SimulationError(
                f"negative base_latency_s: {self.base_latency_s}")
        if self.jitter_s < 0:
            raise SimulationError(f"negative jitter_s: {self.jitter_s}")

    @classmethod
    def local(cls) -> "NetworkSpec":
        """A zero-latency interconnect (every hop is a local call)."""
        return cls(base_latency_s=0.0, jitter_s=0.0)

    def delay_s(self, src: int, dst: int, ordinal: int,
                seed: int) -> float:
        """One-way delay for message *ordinal* on the src->dst hop.

        Pure function of its arguments: replaying the same message
        stream reproduces the same delays exactly.
        """
        if src == dst:
            return 0.0
        if self.jitter_s == 0.0:
            return self.base_latency_s
        lane = src * 0x10001 + dst
        return self.base_latency_s + self.jitter_s * _unit(
            seed, lane, ordinal)


class Network:
    """A seeded interconnect bound to a simulation environment.

    Hands out :class:`~repro.simkernel.events.Timeout` events for
    one-way hops, numbering messages internally so each transfer draws
    fresh deterministic jitter.  Purely a latency source: it never
    reorders or drops messages itself — loss and slowdown live one
    layer up, in the run's :class:`~repro.faults.ChaosSchedule`: its
    node-kill windows kill the *endpoint*, its partition windows drop
    delivered messages crossing a cut (keyed by this network's message
    ordinals), and its gray windows stretch a slow node's hops (see
    :meth:`repro.cluster.runner.ClusterReplayer.hop`).
    """

    def __init__(self, env: "Environment", spec: NetworkSpec,
                 seed: int = 0) -> None:
        spec.validate()
        self.env = env
        self.spec = spec
        self.seed = seed
        #: Total cross-node messages sent (self-hops excluded).
        self.messages = 0

    def transfer(self, src: int, dst: int) -> "Timeout":
        """An event firing after the one-way src->dst hop delay."""
        if src != dst:
            ordinal = self.messages
            self.messages += 1
        else:
            ordinal = 0
        return self.env.timeout(
            self.spec.delay_s(src, dst, ordinal, self.seed))
