"""Composed fault schedules, self-healing, and invariant oracles.

``repro.chaos`` turns the repo's individual fault planes into one
adversarial harness against a live serving cluster:

* :class:`ChaosSchedule` (:mod:`repro.faults.schedule`, re-exported
  here) holds every plane (node kills, network partitions, gray
  failures, per-node SSD fault windows, a write-path crash) as one
  seeded, immutable value that tags into atomic elements for the
  shrinker;
* :mod:`~repro.chaos.runner` — :func:`run_chaos` injects a schedule
  into an open-loop serving cluster with streaming
  mutation and the supervisor on the same deterministic clock;
* :mod:`~repro.chaos.supervisor` — :class:`Supervisor` health-probes
  the cluster through the chaos-aware network path, detects failed
  (or partitioned, or gray) nodes by probe timeouts alone,
  re-replicates their shards onto spares, durability-scrubs the
  rebuilt replicas, and logs per-recovery MTTR;
* :mod:`~repro.chaos.oracles` — the invariant battery every run is
  audited with: query conservation, three-ledger failure attribution,
  crash old-or-new-never-hybrid, post-chaos bitwise convergence, the
  recall floor, replica op-log prefix consistency;
* :mod:`~repro.chaos.shrink` — ddmin over a schedule's elements,
  reducing a violating composed schedule to a 1-minimal reproducer;
* :mod:`~repro.chaos.study` — the ``repro chaos`` experiment tying it
  together (see ``docs/CHAOS.md``).
"""

from repro.chaos.oracles import (OracleReport, check_attribution,
                                 check_conservation, check_convergence,
                                 check_crash_state, check_recall_floor,
                                 check_replica_consistency,
                                 cluster_fingerprint,
                                 engine_fingerprint, summarize)
from repro.chaos.runner import ChaosRunResult, run_chaos
from repro.chaos.shrink import shrink_elements, shrink_schedule
from repro.chaos.supervisor import (RecoveryEvent, Supervisor,
                                    SupervisorConfig)
from repro.faults.schedule import ChaosElement, ChaosSchedule

__all__ = [
    "ChaosElement",
    "ChaosRunResult",
    "ChaosSchedule",
    "OracleReport",
    "RecoveryEvent",
    "Supervisor",
    "SupervisorConfig",
    "check_attribution",
    "check_conservation",
    "check_convergence",
    "check_crash_state",
    "check_recall_floor",
    "check_replica_consistency",
    "cluster_fingerprint",
    "engine_fingerprint",
    "run_chaos",
    "shrink_elements",
    "shrink_schedule",
    "summarize",
]
