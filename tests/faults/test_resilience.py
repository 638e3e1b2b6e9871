"""Resilience policy: validation, backoff, pressure hysteresis."""

import math

import pytest

from repro.errors import WorkloadError
from repro.faults import PressureTracker, ResiliencePolicy
from repro.faults.resilience import degraded_search_params


class TestPolicy:
    def test_default_policy_is_inert(self):
        assert not ResiliencePolicy().active

    def test_each_defence_activates_the_policy(self):
        assert ResiliencePolicy(read_timeout_s=0.001).active
        assert ResiliencePolicy(hedge_after_s=0.001).active
        assert ResiliencePolicy(degrade=True,
                                latency_budget_s=0.01).active

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ResiliencePolicy(read_timeout_s=0.0)
        with pytest.raises(WorkloadError):
            ResiliencePolicy(hedge_after_s=-1.0)
        with pytest.raises(WorkloadError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(WorkloadError):
            ResiliencePolicy(backoff_jitter=1.5)
        with pytest.raises(WorkloadError):
            ResiliencePolicy(degrade=True)        # needs a budget
        with pytest.raises(WorkloadError):
            ResiliencePolicy(degrade=True, latency_budget_s=0.01,
                             degrade_factor=1.0)


class TestBackoff:
    def test_exponential_up_to_cap_without_jitter(self):
        policy = ResiliencePolicy(backoff_base_s=0.001,
                                  backoff_cap_s=0.004,
                                  backoff_jitter=0.0)
        delays = [policy.backoff_s(a, token=0) for a in (1, 2, 3, 4)]
        assert delays == [0.001, 0.002, 0.004, 0.004]

    def test_jitter_stays_within_half_band_and_is_deterministic(self):
        policy = ResiliencePolicy(backoff_base_s=0.001,
                                  backoff_cap_s=1.0,
                                  backoff_jitter=0.5)
        delays = [policy.backoff_s(1, token=t) for t in range(64)]
        assert delays == [policy.backoff_s(1, token=t)
                          for t in range(64)]
        assert all(0.00075 <= d <= 0.00125 for d in delays)
        assert len(set(delays)) > 1     # tokens decorrelate clients


class TestPressureTracker:
    def test_requires_degrade_enabled(self):
        with pytest.raises(WorkloadError):
            PressureTracker(ResiliencePolicy())

    def make(self, degrade_after=3, recover_after=2):
        return PressureTracker(ResiliencePolicy(
            degrade=True, latency_budget_s=0.01,
            degrade_after=degrade_after, recover_after=recover_after))

    def test_single_blip_does_not_engage(self):
        tracker = self.make()
        tracker.on_completion(0.05)
        tracker.on_completion(0.001)
        tracker.on_completion(0.05)
        assert not tracker.degraded

    def test_sustained_pressure_engages_then_recovers(self):
        tracker = self.make()
        for _ in range(3):
            tracker.on_completion(0.05)
        assert tracker.degraded
        tracker.on_completion(0.001)
        assert tracker.degraded          # debounced exit
        tracker.on_completion(0.001)
        assert not tracker.degraded
        assert tracker.transitions == 2

    def test_failed_query_counts_as_over_budget(self):
        tracker = self.make()
        for _ in range(3):
            tracker.on_completion(0.0, failed=True)
        assert tracker.degraded


class TestDegradedParams:
    def test_diskann_shrinks_breadth_with_floors(self):
        out = degraded_search_params(
            "diskann", {"search_list": 50, "beam_width": 4}, 0.5, k=10)
        assert out["search_list"] == 25
        assert out["beam_width"] >= 1
        out = degraded_search_params(
            "diskann", {"search_list": 12}, 0.5, k=10)
        assert out["search_list"] == 10   # floored at k

    def test_spann_shrinks_nprobe(self):
        out = degraded_search_params("spann", {"nprobe": 32}, 0.5, k=10)
        assert out["nprobe"] == 16

    def test_generic_kinds_scale_known_knobs_only(self):
        out = degraded_search_params(
            "hnsw", {"ef_search": 64, "cache_policy": "lru"}, 0.5, k=10)
        assert out == {"ef_search": 32, "cache_policy": "lru"}


class TestHostileKnobs:
    """"Never" is spelled None: a NaN, an infinity or a bool is no
    duration, and a retry count is a non-bool integer."""

    @pytest.mark.parametrize("field", ["read_timeout_s", "hedge_after_s",
                                       "query_deadline_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       True, False, "0.1"])
    def test_a_duration_is_none_or_finite_and_positive(self, field,
                                                       value):
        with pytest.raises(WorkloadError, match=field):
            ResiliencePolicy(**{field: value})

    @pytest.mark.parametrize("value", [1.5, True, False, math.nan, "2",
                                       None])
    def test_max_retries_is_a_non_bool_integer(self, value):
        with pytest.raises(WorkloadError, match="max_retries"):
            ResiliencePolicy(max_retries=value)

    @pytest.mark.parametrize("field", ["backoff_base_s", "backoff_cap_s",
                                       "backoff_jitter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, None])
    def test_backoff_is_finite(self, field, value):
        with pytest.raises(WorkloadError, match="backoff"):
            ResiliencePolicy(**{field: value})

    @pytest.mark.parametrize("knobs", [
        dict(latency_budget_s=math.nan), dict(latency_budget_s=math.inf),
        dict(latency_budget_s=True),
        dict(latency_budget_s=0.01, degrade_after=1.5),
        dict(latency_budget_s=0.01, recover_after=True),
        dict(latency_budget_s=0.01, degrade_factor=math.nan),
        dict(latency_budget_s=0.01, degrade_factor="0.5")])
    def test_degradation_knobs_are_typed(self, knobs):
        with pytest.raises(WorkloadError):
            ResiliencePolicy(degrade=True, **knobs)

    def test_valid_knobs_still_build(self):
        ResiliencePolicy(read_timeout_s=0.002, max_retries=0,
                         hedge_after_s=1, query_deadline_s=0.5,
                         backoff_base_s=0, backoff_cap_s=0.01,
                         backoff_jitter=1, degrade=True,
                         latency_budget_s=1e-3, degrade_after=1,
                         recover_after=2, degrade_factor=0.7)
