"""Fault injection and resilience for the simulated storage stack.

The paper characterizes storage-based ANNS on a *healthy* SSD; this
package asks what happens when the device misbehaves — and what the
host can do about it.  The pieces:

* :mod:`repro.faults.plan` — the device :class:`FaultWindow` kinds
  (latency spikes, tail amplification, transient read errors,
  bandwidth throttling), pure data on the simulated timeline;
* :mod:`repro.faults.injector` — :class:`FaultInjector`: the device-side
  injection point that draws one node's windows deterministically from
  the schedule seed, with per-kind attribution counters;
* :mod:`repro.faults.resilience` — :class:`ResiliencePolicy`: timeouts
  with exponential-backoff-and-jitter retries, hedged reads, and
  graceful search-parameter degradation;
* :mod:`repro.faults.schedule` — :class:`ChaosSchedule`: the one
  fault description a caller writes, one flat seeded timeline of
  :class:`NodeKill` windows (whole nodes down mid-query, driving the
  replica failover in :mod:`repro.cluster`), :class:`PartitionWindow`
  cuts (messages crossing a node-group boundary dropped on the
  scatter-gather hops), :class:`GrayFailure` windows (alive but
  persistently slow nodes, stretching their hops and — via a compiled
  device throttle — their SSD) and per-node device fault windows.  A
  single engine is node 0: it takes the same schedule, limited to
  node 0's device faults;
* :mod:`repro.faults.crash` — the *write-path* attacks:
  :class:`CrashPlan`/:class:`CrashInjector` kill a durable save or WAL
  append at a declared crash point (optionally tearing the in-flight
  file), and :class:`CorruptionPlan` flips seeded bytes in a committed
  store for ``scrub()`` to find (see :mod:`repro.durability`).

The read-path halves plug into both runners' ``run`` /
``open_replay`` (``chaos=`` / ``resilience=``); ``repro faults`` runs
the study comparing one engine's P99/recall with and without the
defences under one schedule, and ``repro recover`` runs the crash x
corruption recovery matrix.  The architecture and the
full fault model are documented in ``docs/ARCHITECTURE.md``,
``docs/FAULT_MODEL.md``, and ``docs/DURABILITY.md``.
"""

from repro.faults.crash import (Corruption, CorruptionPlan, CrashInjector,
                                CrashPlan)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (FAULT_KINDS, FaultEffect, FaultWindow,
                               LatencySpike, ReadError, TailAmplification,
                               Throttle)
from repro.faults.resilience import (PressureTracker, ResiliencePolicy,
                                     degraded_search_params)
from repro.faults.schedule import (ChaosSchedule, GrayFailure, NodeKill,
                                   PartitionWindow)

__all__ = [
    "FAULT_KINDS",
    "ChaosSchedule",
    "Corruption",
    "CorruptionPlan",
    "CrashInjector",
    "CrashPlan",
    "FaultEffect",
    "FaultInjector",
    "FaultWindow",
    "GrayFailure",
    "LatencySpike",
    "NodeKill",
    "PartitionWindow",
    "PressureTracker",
    "ReadError",
    "ResiliencePolicy",
    "TailAmplification",
    "Throttle",
    "degraded_search_params",
]
