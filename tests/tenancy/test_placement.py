"""PlacementManager: two-tier residency with a versioned ledger."""

import pytest

from repro.errors import TenancyError
from repro.tenancy import Migration, PlacementConfig, PlacementManager


def manager(capacity=1, groups=("a", "b"), demotable=None, **overrides):
    base = dict(hot_capacity=capacity, min_residency_s=0.0,
                ewma_alpha=1.0)
    base.update(overrides)
    if demotable is None:
        demotable = (True,) * len(groups)
    return PlacementManager(PlacementConfig(**base), groups=groups,
                            demotable=demotable)


class TestInit:
    def test_initial_hot_set_is_roster_prefix(self):
        mgr = manager(capacity=2, groups=("a", "b", "c"))
        assert [mgr.tier(g) for g in "abc"] == ["hot", "hot", "cold"]
        assert mgr.counts() == (2, 1)
        assert mgr.version == 0

    def test_non_demotable_groups_are_pinned_hot(self):
        mgr = manager(capacity=1, groups=("a", "b", "c"),
                      demotable=(True, True, False))
        assert mgr.tier("c") == "hot"
        assert mgr.tier("a") == mgr.tier("b") == "cold"

    def test_pinned_groups_must_fit_the_budget(self):
        with pytest.raises(TenancyError):
            manager(capacity=1, groups=("a", "b"),
                    demotable=(False, False))

    def test_roster_validation(self):
        with pytest.raises(TenancyError):
            manager(groups=())
        with pytest.raises(TenancyError):
            manager(groups=("a", "a"))
        with pytest.raises(TenancyError):
            manager(groups=("a", "b"), demotable=(True,))

    def test_config_validation(self):
        with pytest.raises(TenancyError):
            PlacementConfig(hot_capacity=0)
        with pytest.raises(TenancyError):
            PlacementConfig(hot_capacity=1, interval_s=0.0)
        with pytest.raises(TenancyError):
            PlacementConfig(hot_capacity=1, ewma_alpha=0.0)


class TestControlLoop:
    def test_warmth_flip_emits_promote_and_demote(self):
        mgr = manager()
        mgr.record("b", 10)
        moves = mgr.on_interval(now_s=0.1)
        assert moves == [Migration("b", "hot"), Migration("a", "cold")]
        # Tiers only change at commit, not at decision time.
        assert (mgr.tier("a"), mgr.tier("b")) == ("hot", "cold")
        mgr.commit("b", "hot", now_s=0.2)
        mgr.commit("a", "cold", now_s=0.2)
        assert (mgr.tier("a"), mgr.tier("b")) == ("cold", "hot")
        assert mgr.counts() == (1, 1)

    def test_pinned_group_never_demotes(self):
        mgr = manager(capacity=1, groups=("a", "b"),
                      demotable=(True, False))
        mgr.record("a", 100)            # warmest, but b stays pinned
        assert mgr.on_interval(now_s=0.1) == []
        assert mgr.tier("b") == "hot"

    def test_migrating_group_is_not_redecided(self):
        mgr = manager()
        mgr.record("b", 10)
        assert len(mgr.on_interval(now_s=0.1)) == 2
        # Streams still in flight: the same imbalance emits nothing.
        mgr.record("b", 10)
        assert mgr.on_interval(now_s=0.2) == []

    def test_min_residency_is_hysteresis(self):
        mgr = manager(min_residency_s=0.5)
        mgr.record("b", 10)
        assert mgr.on_interval(now_s=0.1) == []     # too fresh
        mgr.record("b", 10)
        assert len(mgr.on_interval(now_s=0.6)) == 2

    def test_ewma_forgets_old_warmth(self):
        mgr = manager(ewma_alpha=0.5)
        mgr.record("b", 8)
        mgr.on_interval(now_s=0.1)      # b warmth 4.0, a warmth 0.0
        mgr.commit("b", "hot", now_s=0.1)
        mgr.commit("a", "cold", now_s=0.1)
        # a spikes; one interval at alpha 0.5 folds in half the spike
        # (a: 5.0 > b: 2.0) so the tiers flip straight back.
        mgr.record("a", 10)
        moves = mgr.on_interval(now_s=0.2)
        assert Migration("a", "hot") in moves
        assert Migration("b", "cold") in moves

    def test_ledger_versions_are_dense_and_ordered(self):
        mgr = manager()
        mgr.record("b", 10)
        for move in mgr.on_interval(now_s=0.1):
            mgr.commit(move.group, move.target, now_s=0.3)
        assert mgr.version == 2
        assert [e.version for e in mgr.ledger] == [1, 2]
        assert {(e.group, e.tier) for e in mgr.ledger} == {
            ("b", "hot"), ("a", "cold")}
        assert all(e.committed_s == 0.3 for e in mgr.ledger)
