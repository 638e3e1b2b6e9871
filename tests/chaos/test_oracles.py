"""The invariant-oracle battery: each oracle passes and fails right."""

import types

import pytest

from repro.chaos import (ChaosSchedule, check_attribution,
                         check_conservation, check_convergence,
                         check_crash_state, check_recall_floor,
                         check_replica_consistency, run_chaos,
                         summarize)
from repro.chaos.oracles import OracleReport
from repro.faults.nodes import NodeKill

DURATION = 0.08


def stub_result(**overrides):
    base = dict(arrivals=10, admitted=9, rejected=1, completed=8,
                failed=1, shed=0, tenants=())
    base.update(overrides)
    return types.SimpleNamespace(**base)


class TestConservation:
    def test_balanced_ledger_passes(self):
        report = check_conservation(stub_result())
        assert report.ok
        assert "fully accounted" in report.detail

    def test_lost_query_is_caught(self):
        report = check_conservation(stub_result(completed=7))
        assert not report.ok
        assert "admitted" in report.detail

    def test_arrival_imbalance_is_caught(self):
        assert not check_conservation(stub_result(rejected=0)).ok


class TestAttribution:
    @pytest.fixture
    def blackout(self, fresh_runner, serve_config):
        """An unsupervised run where both shards die at once."""
        kills = ChaosSchedule(kills=(
            NodeKill(0, 0.02, 0.05), NodeKill(1, 0.02, 0.05)))
        return run_chaos(fresh_runner(replicas=1, spares=0),
                         serve_config(DURATION), kills, telemetry=True)

    def test_three_ledgers_reconcile(self, blackout):
        assert blackout.result.failed > 0
        assert blackout.failure_causes == {
            "node_kill": blackout.result.failed}
        report = next(r for r in blackout.oracles
                      if r.name == "failure_attribution")
        assert report.ok, report.detail
        assert blackout.ok

    def test_tampered_ledger_is_caught(self, blackout):
        replayer = blackout.session.replayer
        replayer.failure_causes["node_kill"] += 1
        try:
            report = check_attribution(blackout.result, replayer)
            assert not report.ok
            assert "attributed" in report.detail
        finally:
            replayer.failure_causes["node_kill"] -= 1


class TestCrashAndRecall:
    def test_crash_states(self):
        assert check_crash_state("old").ok
        assert check_crash_state("new").ok
        report = check_crash_state("hybrid")
        assert not report.ok
        assert "HYBRID" in report.detail

    def test_recall_floor(self):
        assert check_recall_floor(0.96, 1.0, floor=0.05).ok
        assert not check_recall_floor(0.90, 1.0, floor=0.05).ok
        assert check_recall_floor(None, 1.0).ok   # vacuous

    def test_convergence(self):
        prints = [(b"ids", b"dists")] * 4
        assert check_convergence(prints, list(prints)).ok
        report = check_convergence(prints,
                                   prints[:3] + [(b"ids", b"other")])
        assert not report.ok
        assert "1/4" in report.detail


class TestReplicaConsistency:
    def test_healthy_cluster_passes_and_lag_is_caught(
            self, fresh_runner, chaos_corpus):
        _X, queries, _truth = chaos_corpus
        cluster = fresh_runner(replicas=2).cluster
        report = check_replica_consistency(cluster, "c", queries[:4],
                                           k=5)
        assert report.ok, report.detail
        node = cluster.routing[0][1]
        cluster.applied[node] -= 1
        try:
            lagging = check_replica_consistency(cluster, "c",
                                                queries[:4], k=5)
            assert not lagging.ok
            assert f"node {node}" in lagging.detail
        finally:
            cluster.applied[node] += 1


def test_summarize_counts_verdicts():
    reports = [OracleReport("a", True, ""), OracleReport("b", False, ""),
               OracleReport("c", True, "")]
    assert summarize(reports) == (2, 1)
    assert summarize([]) == (0, 0)
