"""Chaos-layer passivity and same-seed determinism.

The harness contract: armed with nothing, the chaos layer must be
bit-identically invisible — an empty-schedule ``run_chaos`` with an
inert supervisor reports exactly what a plain ``Server.serve`` over an
identically-built cluster reports.  Armed with a composed schedule,
two same-seed runs over freshly built clusters replay the same
timeline down to the failure attribution and supervisor event log.
One layer down, ``ClusterBenchRunner.run`` cannot tell ``chaos=None``
from the empty schedule.
"""

import dataclasses

import pytest

from repro.chaos import ChaosSchedule, Supervisor, SupervisorConfig, \
    run_chaos
from repro.errors import WorkloadError
from repro.faults.gray import GrayFailure
from repro.faults.nodes import NodeKill
from repro.mutate import MutationLoad
from repro.serve.server import Server

DURATION = 0.08


def fingerprint(result):
    return (result.arrivals, result.admitted, result.rejected,
            result.shed, result.completed, result.failed, result.qps,
            result.goodput_qps, result.mean_latency_s,
            result.p50_latency_s, result.p99_latency_s, result.recall)


def chaos_fingerprint(run):
    return (fingerprint(run.result), run.recall, run.failure_causes,
            dict(sorted(run.session.replayer.ccounts.items())),
            dict(sorted(run.supervisor.counts.items())),
            tuple((e.node, e.shard, e.spare, e.detected_s,
                   e.restored_s) for e in run.supervisor.events))


def schedule():
    return ChaosSchedule(
        kills=(NodeKill(0, 0.02, 1.0),),
        grays=(GrayFailure(3, 0.0, 0.03, slowdown=4.0),))


def test_empty_schedule_is_bit_identical_to_plain_serving(
        fresh_runner, serve_config):
    config = serve_config(duration_s=DURATION)
    chaos = run_chaos(fresh_runner(), config, ChaosSchedule())
    plain = Server(fresh_runner(), config).serve()
    assert fingerprint(chaos.result) == fingerprint(plain)
    assert chaos.ok
    assert chaos.failure_causes == {}
    assert chaos.supervisor.counts == {}
    assert chaos.supervisor.events == []


def test_closed_loop_run_cannot_tell_none_from_the_empty_schedule(
        fresh_runner, monkeypatch):
    runner = fresh_runner()
    sessions = []
    open_replay = runner.open_replay

    def recording(*args, **kwargs):
        sessions.append(open_replay(*args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr(runner, "open_replay", recording)
    plain = runner.run(8, duration_s=DURATION, telemetry=True)
    empty = runner.run(8, duration_s=DURATION, telemetry=True,
                       chaos=ChaosSchedule())
    assert plain.faults is None and empty.faults is None
    assert (dataclasses.replace(plain, telemetry=None)
            == dataclasses.replace(empty, telemetry=None))
    assert ([span.to_dict() for span in plain.telemetry.spans]
            == [span.to_dict() for span in empty.telemetry.spans])
    events = [session.env.events_processed for session in sessions]
    assert events[0] == events[1] > 0
    # The armed run is a different timeline, so the check has teeth.
    armed = runner.run(8, duration_s=DURATION, chaos=schedule())
    assert armed.faults is not None
    assert sessions[2].env.events_processed != events[0]


def test_same_seed_chaos_runs_are_bit_identical(fresh_runner,
                                                serve_config):
    config = serve_config(duration_s=DURATION)
    load = MutationLoad(insert_qps=2000.0, delete_qps=200.0)
    runs = [run_chaos(fresh_runner(), config, schedule(),
                      supervisor=Supervisor(SupervisorConfig()),
                      mutation=load, telemetry=True)
            for _ in range(2)]
    assert chaos_fingerprint(runs[0]) == chaos_fingerprint(runs[1])


def test_config_mutation_must_go_through_the_chaos_keyword(
        fresh_runner, serve_config):
    import dataclasses
    config = dataclasses.replace(serve_config(),
                                 mutation=MutationLoad())
    with pytest.raises(WorkloadError):
        run_chaos(fresh_runner(), config, ChaosSchedule())
