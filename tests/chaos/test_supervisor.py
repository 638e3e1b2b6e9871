"""The self-healing supervisor: detect, re-replicate, scrub, record."""

import pytest

from repro.chaos import ChaosSchedule, Supervisor, SupervisorConfig, \
    run_chaos
from repro.errors import WorkloadError
from repro.faults import GrayFailure, NodeKill

DURATION = 0.08


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            SupervisorConfig(probe_interval_s=0.0)
        with pytest.raises(WorkloadError):
            SupervisorConfig(probe_timeout_s=-1.0)
        with pytest.raises(WorkloadError):
            SupervisorConfig(fail_after=0)

    def test_disabled_supervisor_is_inert(self, fresh_runner,
                                          serve_config):
        kills = ChaosSchedule(kills=(NodeKill(0, 0.02, 1.0),))
        run = run_chaos(fresh_runner(), serve_config(DURATION), kills,
                        supervisor=Supervisor(
                            SupervisorConfig(enabled=False)))
        assert run.supervisor.counts == {}
        assert run.supervisor.events == []
        assert run.mttr_s is None


class TestRecovery:
    def test_killed_node_is_rebuilt_onto_the_spare(self, fresh_runner,
                                                   serve_config):
        # 2 shards x 2 replicas on nodes 0..3, spare 4.  Node 0 dies
        # for the rest of the run; the supervisor must detect it by
        # probe misses alone and rebuild its shard-0 replica on 4.
        runner = fresh_runner(spares=1)
        kills = ChaosSchedule(kills=(NodeKill(0, 0.01, 1.0),))
        sup = Supervisor(SupervisorConfig())
        run = run_chaos(runner, serve_config(DURATION), kills,
                        supervisor=sup)
        assert [(e.node, e.shard, e.spare) for e in sup.events] \
            == [(0, 0, 4)]
        event = sup.events[0]
        assert event.detected_s > 0.01
        assert event.mttr_s > 0 and run.mttr_s == event.mttr_s
        assert event.scrub_ok is True
        hosting = {node for nodes in run.session.routing.values()
                   for node in nodes}
        assert 0 not in hosting and 4 in hosting
        # The rebuilt replica masks the kill and passes every oracle.
        assert run.result.failed == 0
        assert run.ok, [str(r) for r in run.oracles]
        assert sup.counts["rereplications"] == 1
        assert sup.counts["scrubs"] == 1

    def test_gray_node_is_detected_through_the_data_path(
            self, fresh_runner, serve_config):
        # Node 1 stays alive but answers 16x slow; its probe round
        # trips blow the timeout, so it is healed like a dead node —
        # the point of probing through the chaos-aware network path.
        gray = ChaosSchedule(grays=(
            GrayFailure(1, 0.0, DURATION, slowdown=16.0),))
        sup = Supervisor(SupervisorConfig())
        run = run_chaos(fresh_runner(spares=1), serve_config(DURATION),
                        gray, supervisor=sup)
        assert any(e.node == 1 for e in sup.events)
        assert sup.counts["probe_misses"] > 0
        assert run.result.failed == 0

    def test_no_spare_degrades_gracefully(self, fresh_runner,
                                          serve_config):
        # Zero spares: the failure is detected but unrecoverable by
        # re-replication; the supervisor counts no_spare and moves on
        # instead of thrashing, and the surviving replica keeps all
        # queries flowing.
        kills = ChaosSchedule(kills=(NodeKill(0, 0.01, 1.0),))
        sup = Supervisor(SupervisorConfig())
        run = run_chaos(fresh_runner(spares=0), serve_config(DURATION),
                        kills, supervisor=sup)
        assert sup.events == []
        assert sup.counts["no_spare"] >= 1
        assert run.result.failed == 0
