"""The degradation ladder and the AIMD SLO controller."""

import pytest

from repro.errors import TenancyError
from repro.tenancy import (IntervalObservation, SloController,
                           SloControllerConfig, build_ladder)


@pytest.fixture(scope="module")
def ladder(runner):
    return build_ladder(runner, {"ef_search": 64}, factor=0.5,
                        max_levels=3)


class TestLadder:
    def test_level_zero_is_the_contract(self, ladder):
        assert ladder.levels[0].params == {"ef_search": 64}
        assert ladder.levels[0].level == 0

    def test_levels_shrink_monotonically(self, ladder):
        widths = [lvl.params["ef_search"] for lvl in ladder.levels]
        assert widths == sorted(widths, reverse=True)
        assert len(set(widths)) == len(widths)

    def test_every_level_is_precompiled_with_recall(self, ladder):
        for lvl in ladder.levels:
            assert lvl.cold and lvl.warm
            assert lvl.recall is not None and 0.0 < lvl.recall <= 1.0

    def test_stops_when_the_shrink_rule_bottoms_out(self, runner):
        # ef_search halves but never drops below k; asking for many
        # levels must not produce duplicate rungs.
        deep = build_ladder(runner, {"ef_search": 16}, factor=0.5,
                            max_levels=10)
        widths = [lvl.params["ef_search"] for lvl in deep.levels]
        assert len(set(widths)) == len(widths)
        assert deep.deepest < 10

    def test_max_level_for_honors_the_floor(self, ladder):
        assert ladder.max_level_for(0.0) == ladder.deepest
        worst = min(lvl.recall for lvl in ladder.levels)
        assert ladder.max_level_for(worst) == ladder.deepest
        # A floor above the contracted recall is a broken contract.
        with pytest.raises(TenancyError):
            ladder.max_level_for(ladder.levels[0].recall + 0.001)

    def test_build_validation(self, runner):
        with pytest.raises(TenancyError):
            build_ladder(runner, {}, factor=1.0)
        with pytest.raises(TenancyError):
            build_ladder(runner, {}, max_levels=0)


def controller(max_level=3, priority="standard", **overrides):
    base = dict(degrade_after=2, restore_after=3, min_observations=4)
    base.update(overrides)
    return SloController(SloControllerConfig(**base),
                         max_levels=(max_level,), priorities=(priority,))


HOT = IntervalObservation(completions=8, p95_latency_s=0.5, backlog=0)
CALM = IntervalObservation(completions=8, p95_latency_s=0.001, backlog=0)
MIXED = IntervalObservation(completions=8, p95_latency_s=0.07, backlog=0)


class TestSloController:
    def test_degrade_needs_a_consecutive_hot_streak(self):
        ctl = controller()
        assert ctl.observe(0, HOT, slo_s=0.1) == 0
        assert ctl.observe(0, HOT, slo_s=0.1) == 1
        assert ctl.level(0) == 1

    def test_mixed_interval_resets_both_streaks(self):
        ctl = controller()
        ctl.observe(0, HOT, slo_s=0.1)
        ctl.observe(0, MIXED, slo_s=0.1)     # between the watermarks
        assert ctl.observe(0, HOT, slo_s=0.1) == 0
        assert ctl.level(0) == 0

    def test_restore_is_slower_than_degrade(self):
        ctl = controller()
        ctl.observe(0, HOT, slo_s=0.1)
        ctl.observe(0, HOT, slo_s=0.1)
        deltas = [ctl.observe(0, CALM, slo_s=0.1) for _ in range(3)]
        assert deltas == [0, 0, -1]
        assert ctl.level(0) == 0
        # Already at the contracted level: calm streaks change nothing.
        for _ in range(6):
            assert ctl.observe(0, CALM, slo_s=0.1) == 0

    def test_floor_cap_refuses_and_counts(self):
        ctl = controller(max_level=1)
        ctl.observe(0, HOT, slo_s=0.1)
        ctl.observe(0, HOT, slo_s=0.1)
        assert ctl.level(0) == 1
        assert ctl.floor_capped == 0
        ctl.observe(0, HOT, slo_s=0.1)
        ctl.observe(0, HOT, slo_s=0.1)
        assert ctl.level(0) == 1            # capped, not degraded
        assert ctl.floor_capped == 1

    def test_quiet_interval_is_neither_hot_nor_calm(self):
        ctl = controller(min_observations=4)
        quiet = IntervalObservation(completions=1, p95_latency_s=9.0,
                                    backlog=1)
        for _ in range(4):
            assert ctl.observe(0, quiet, slo_s=0.1) == 0
        assert ctl.level(0) == 0

    def test_backlog_runaway_goes_hot_without_latency_evidence(self):
        ctl = controller()
        runaway = IntervalObservation(completions=0, p95_latency_s=0.0,
                                      backlog=10)
        assert ctl.observe(0, runaway, slo_s=0.1) == 0
        assert ctl.observe(0, runaway, slo_s=0.1) == 1

    def test_priority_bias_degrades_batch_first(self):
        # p95 = 0.09 with slo 0.1: above batch's biased watermark
        # (0.075), below interactive's (0.125).
        edge = IntervalObservation(completions=8, p95_latency_s=0.09,
                                   backlog=0)
        batch = controller(priority="batch")
        interactive = controller(priority="interactive")
        for _ in range(2):
            batch.observe(0, edge, slo_s=0.1)
            interactive.observe(0, edge, slo_s=0.1)
        assert batch.level(0) == 1
        assert interactive.level(0) == 0

    def test_validation(self):
        with pytest.raises(TenancyError):
            SloControllerConfig(interval_s=0.0)
        with pytest.raises(TenancyError):
            SloControllerConfig(degrade_after=0)
        with pytest.raises(TenancyError):
            SloControllerConfig(min_observations=0)
        with pytest.raises(TenancyError):
            SloController(SloControllerConfig(), max_levels=(1,),
                          priorities=("standard", "batch"))
        with pytest.raises(TenancyError):
            SloController(SloControllerConfig(), max_levels=(1,),
                          priorities=("gold",))
