"""The chaos harness: one composed schedule against one live cluster.

:func:`run_chaos` is the experiment kernel the chaos study and the
``repro chaos`` CLI drive.  One call takes a freshly built
:class:`~repro.cluster.runner.ClusterBenchRunner`, opens a replay
session with a :class:`~repro.faults.ChaosSchedule` armed (node kills,
partitions, gray failures, per-node SSD faults), starts the
:class:`~repro.chaos.supervisor.Supervisor`, then serves the configured
open-loop workload — with its optional ``ServeConfig.mutation`` write
streams — through the standard :class:`repro.serve.Server`: faults,
recovery, mutation, and serving all contend on one deterministic
timeline.  Afterwards it runs the
in-run half of the invariant-oracle battery (query conservation,
three-ledger failure attribution, replica op-log prefix consistency,
optional recall floor) and returns everything as a
:class:`ChaosRunResult`.

A chaos run *consumes* its runner: the supervisor edits routing and
rebuilds functional replicas, and the mutation load grows the shard
runners' extent allocators.  Build a fresh cluster + runner per run —
that is also what makes two same-seed runs bit-identical.

The mutation load is the server's (:func:`repro.mutate.simproc.
start_mutation_load`): one stream per shard on the shard *primary*'s
host, so compaction I/O contends with that node's chaos-faulted reads
exactly like the single-node study — it is a timing-plane load (the
functional op log is exercised separately by the study's convergence
phase).
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.chaos.oracles import (OracleReport, check_attribution,
                                 check_conservation, check_recall_floor,
                                 check_replica_consistency, summarize)
from repro.chaos.supervisor import Supervisor, SupervisorConfig
from repro.faults.schedule import ChaosSchedule
from repro.obs import RunTelemetry
from repro.serve.server import Server

if t.TYPE_CHECKING:
    from repro.cluster.runner import (ClusterBenchRunner,
                                      ClusterReplaySession)
    from repro.serve import ServeConfig, ServeResult


@dataclasses.dataclass
class ChaosRunResult:
    """Everything one chaos run produced, oracles included."""

    #: The serving-side result (latency, goodput, conservation ledger).
    result: "ServeResult"
    #: The schedule that was injected.
    schedule: ChaosSchedule
    #: The supervisor that ran (inert when disabled).
    supervisor: Supervisor
    #: The (consumed) session — routing, replayer ledgers, devices.
    session: "ClusterReplaySession"
    #: The in-run oracle battery's verdicts.
    oracles: tuple[OracleReport, ...]
    #: Completion-weighted recall over the run's gather outcomes.
    recall: float | None

    @property
    def ok(self) -> bool:
        """True when every oracle in the battery passed."""
        return all(report.ok for report in self.oracles)

    @property
    def mttr_s(self) -> float | None:
        """Mean time to repair over the supervisor's recoveries."""
        return self.supervisor.mttr_s

    @property
    def failure_causes(self) -> dict[str, int]:
        """Failed queries by attributed fault kind (the ledger)."""
        return dict(sorted(
            self.session.replayer.failure_causes.items()))

    def describe(self) -> dict[str, t.Any]:
        """Scalar summary for reports and the study's JSON artifact."""
        passed, failed = summarize(self.oracles)
        return {
            "completed": self.result.completed,
            "failed": self.result.failed,
            "shed": self.result.shed,
            "p50_latency_s": self.result.p50_latency_s,
            "p99_latency_s": self.result.p99_latency_s,
            "goodput_qps": self.result.goodput_qps,
            "recall": self.recall,
            "failure_causes": self.failure_causes,
            "recoveries": len(self.supervisor.events),
            "mttr_s": self.mttr_s,
            "oracles_passed": passed,
            "oracles_failed": failed,
            "oracle_reports": [str(r) for r in self.oracles],
        }


def run_chaos(runner: "ClusterBenchRunner", config: "ServeConfig",
              schedule: ChaosSchedule | None = None, *,
              supervisor: Supervisor | None = None,
              telemetry: RunTelemetry | bool | None = None,
              healthy_recall: float | None = None,
              recall_floor: float = 0.05,
              **options: t.Any) -> ChaosRunResult:
    """Inject *schedule* into a serving cluster and audit the wreckage.

    Opens the runner's replay session with every plane of the schedule
    armed (*options* — ``consistency``, ``hedge_after_s``,
    ``deadline_s``, ``resilience`` — go to
    :meth:`~repro.cluster.ClusterBenchRunner.open_replay` unchanged),
    starts the supervisor (pass ``None`` for an inert, bit-identically
    passive one), serves *config* — its ``mutation`` streams included
    — through the standard server, then runs the in-run oracle
    battery.
    """
    telem = (RunTelemetry() if telemetry is True
             else (telemetry or None))
    session = runner.open_replay(config.search_params, telemetry=telem,
                                 chaos=schedule, **options)
    sched = session.chaos
    sup = (supervisor if supervisor is not None
           else Supervisor(SupervisorConfig(enabled=False)))
    if sup.telemetry is None:
        sup.telemetry = telem
    horizon = max(config.duration_s, sched.end_s)
    sup.start(session, horizon)
    result = Server(runner, config, telemetry=telem).serve_on(session)
    replayer = session.replayer
    recall = session.recall
    if runner.ground_truth is not None and replayer.outcomes:
        recall = runner._weighted_recall(replayer.outcomes,
                                         session.cold)
    probes = runner.queries[:min(len(runner.queries), 8)]
    reports = [
        check_conservation(result),
        check_attribution(result, replayer, telemetry=telem),
        check_replica_consistency(session.cluster,
                                  session.collection_name, probes,
                                  k=runner.k),
    ]
    if healthy_recall is not None:
        reports.append(check_recall_floor(recall, healthy_recall,
                                          floor=recall_floor))
    return ChaosRunResult(result=result, schedule=sched,
                          supervisor=sup, session=session,
                          oracles=tuple(reports),
                          recall=recall)
