"""Device fault windows: semantics, determinism, injector accounting."""

import pytest

from repro.errors import WorkloadError
from repro.faults import (FAULT_KINDS, ChaosSchedule, FaultInjector,
                          LatencySpike, ReadError, TailAmplification,
                          Throttle)
from repro.faults.plan import _unit


def on_node0(*windows, seed=0):
    return ChaosSchedule(device_faults=tuple((0, w) for w in windows),
                         seed=seed)


def effects(sched, reads, now=0.5):
    """The fault effect (or None) on each of *reads* node-0 reads."""
    injector = FaultInjector(sched.device_windows(0), sched.seed)
    return [injector.on_read(now, 0, 4096) for _ in range(reads)]


class TestWindows:
    def test_active_is_half_open(self):
        window = LatencySpike(1.0, 2.0)
        assert not window.active(0.999)
        assert window.active(1.0)
        assert window.active(1.999)
        assert not window.active(2.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(WorkloadError):
            LatencySpike(2.0, 1.0)
        with pytest.raises(WorkloadError):
            LatencySpike(-0.1, 1.0)
        with pytest.raises(WorkloadError):
            LatencySpike(1.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            LatencySpike(0, 1, extra_s=0.0)
        with pytest.raises(WorkloadError):
            TailAmplification(0, 1, multiplier=0.5)
        with pytest.raises(WorkloadError):
            TailAmplification(0, 1, probability=0.0)
        with pytest.raises(WorkloadError):
            ReadError(0, 1, probability=1.5)
        with pytest.raises(WorkloadError):
            ReadError(0, 1, stall_s=-1)
        with pytest.raises(WorkloadError):
            Throttle(0, 1, bandwidth_fraction=0.0)

    def test_every_window_kind_is_registered(self):
        windows = (LatencySpike(0, 1), TailAmplification(0, 1),
                   ReadError(0, 1), Throttle(0, 1))
        assert tuple(w.kind for w in windows) == FAULT_KINDS

    def test_deterministic_windows_always_fire(self):
        assert LatencySpike(0, 1, extra_s=0.002).effect(0.99).extra_s \
            == 0.002
        throttled = Throttle(0, 1, bandwidth_fraction=0.25).effect(0.0)
        assert throttled.occupancy_multiplier == pytest.approx(4.0)

    def test_sampled_windows_fire_below_probability(self):
        amp = TailAmplification(0, 1, multiplier=8.0, probability=0.05)
        assert amp.effect(0.049).occupancy_multiplier == 8.0
        assert amp.effect(0.051) is None
        err = ReadError(0, 1, probability=0.5, stall_s=0.01)
        assert err.effect(0.49).extra_s == 0.01
        assert err.effect(0.51) is None


class TestUnitSampling:
    def test_unit_is_in_range_and_deterministic(self):
        draws = [_unit(7, w, o) for w in range(4) for o in range(64)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [_unit(7, w, o) for w in range(4)
                         for o in range(64)]

    def test_unit_varies_across_all_three_inputs(self):
        assert _unit(1, 0, 0) != _unit(2, 0, 0)
        assert _unit(1, 0, 0) != _unit(1, 1, 0)
        assert _unit(1, 0, 0) != _unit(1, 0, 1)


class TestPlan:
    """One node's device windows, as a schedule arms them."""

    def test_empty_plan(self):
        sched = ChaosSchedule()
        assert sched.empty
        assert sched.end_s == 0.0
        assert sched.device_windows(0) == ()
        assert sched.describe()["device_faults"] == []
        assert FaultInjector(()).on_read(0.5, 0, 4096) is None

    def test_rejects_non_windows(self):
        with pytest.raises(WorkloadError):
            ChaosSchedule(device_faults=((0, "not a window"),))

    def test_end_s_is_last_window_close(self):
        sched = on_node0(LatencySpike(0.0, 1.0), Throttle(2.0, 3.5))
        assert sched.end_s == 3.5

    def test_effects_are_deterministic_per_request(self):
        sched = on_node0(ReadError(0.0, 1.0, probability=0.5), seed=11)
        timeline = effects(sched, 256)
        assert timeline == effects(sched, 256)
        fired = sum(1 for e in timeline if e)
        assert 64 < fired < 192        # ~50% of 256

    def test_draws_are_keyed_by_window_position_on_the_node(self):
        # The read error is the node's second window: every draw is
        # _unit(seed, 1, ordinal), whatever other nodes hold.
        error = ReadError(0.0, 1.0, probability=0.5)
        sched = ChaosSchedule(
            device_faults=((1, Throttle(0.0, 1.0)),
                           (0, LatencySpike(5.0, 6.0)), (0, error)),
            seed=11)
        assert sched.device_windows(0) == (LatencySpike(5.0, 6.0), error)
        assert [e is not None for e in effects(sched, 256)] \
            == [_unit(11, 1, o) < 0.5 for o in range(256)]

    def test_seed_changes_the_sampling(self):
        def fires(seed):
            return [e is not None for e in effects(on_node0(
                ReadError(0.0, 1.0, probability=0.5), seed=seed), 256)]
        assert fires(1) != fires(2)

    def test_inactive_window_contributes_nothing(self):
        injector = FaultInjector(on_node0(
            LatencySpike(1.0, 2.0)).device_windows(0))
        assert injector.on_read(0.5, 0, 4096) is None
        assert injector.on_read(1.5, 0, 4096) is not None

    def test_describe_round_trips_parameters(self):
        sched = on_node0(Throttle(1.0, 2.0, bandwidth_fraction=0.5))
        assert sched.describe()["device_faults"] == [dict(
            node=0, kind="throttle", start_s=1.0, end_s=2.0,
            bandwidth_fraction=0.5)]


class TestInjector:
    def test_ordinal_advances_even_without_faults(self):
        injector = FaultInjector(())
        for _ in range(5):
            assert injector.on_read(0.0, 0, 4096) is None
        assert injector.ordinal == 5
        assert injector.summary() == {"reads_sampled": 5}

    def test_overlapping_effects_compose(self):
        windows = (
            LatencySpike(0.0, 1.0, extra_s=0.002),
            Throttle(0.0, 1.0, bandwidth_fraction=0.5),
            TailAmplification(0.0, 1.0, multiplier=4.0, probability=1.0))
        effect = FaultInjector(windows).on_read(0.5, 0, 4096)
        assert effect.kind == "latency_spike+throttle+tail_amplification"
        assert effect.extra_s == pytest.approx(0.002)
        assert effect.occupancy_multiplier == pytest.approx(2.0 * 4.0)

    def test_injected_counts_attribute_per_kind(self):
        injector = FaultInjector((LatencySpike(0.0, 1.0),
                                  ReadError(0.0, 1.0, probability=0.5)))
        for ordinal in range(100):
            injector.on_read(0.5, ordinal * 4096, 4096)
        summary = injector.summary()
        assert summary["latency_spike"] == 100
        assert 25 < summary["read_error"] < 75
        assert summary["reads_sampled"] == 100

    def test_injector_feeds_telemetry(self):
        from repro.obs import RunTelemetry
        telem = RunTelemetry()
        injector = FaultInjector((LatencySpike(0.0, 1.0),),
                                 telemetry=telem)
        injector.on_read(0.5, 0, 4096)
        assert telem.counter("fault_injected_latency_spike").value == 1
