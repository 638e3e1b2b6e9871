"""``SimSSD.submit``'s contract: the seed's timing, to the last bit.

The shipped ``submit`` validates and sums in one pass, memoises channel
occupancy per ``(op, size)`` and replaces the earliest-free channel in
place; ``tests/storage/reference_device.py`` is the seed's
per-request loop.  Fed the same batches at the same simulated times,
the two devices must return equal completion delays (``==`` on floats,
never ``approx``) and leave equal channel state, utilization, counters,
trace records, injector attribution and telemetry behind — with and
without a fault injector, a tracer and telemetry attached.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (LatencySpike, ReadError, TailAmplification,
                               Throttle)
from repro.faults.schedule import ChaosSchedule
from repro.obs import RunTelemetry
from repro.simkernel import Environment
from repro.storage import (BlockTracer, SimSSD, samsung_990pro_4tb,
                           samsung_sata_1tb)
from tests.storage.reference_device import SimSSD as ReferenceSSD

SIZES = (512, 4096, 4096, 8192, 12288, 65536, 131072)
#: Simulated seconds between batches; zero keeps the channels backed up.
GAPS = (0.0, 0.0, 1e-6, 20e-6, 300e-6)

#: Device fault schedules; the device is node 0.
PLANS = {
    "none": None,
    "empty": ChaosSchedule(),
    "faulty": ChaosSchedule(device_faults=tuple((0, window) for window in (
        LatencySpike(0.0, 0.002, extra_s=0.0005),
        ReadError(0.0005, 0.01, probability=0.3, stall_s=0.004),
        TailAmplification(0.0, 0.01, multiplier=6.0, probability=0.25),
        Throttle(0.001, 0.003, bandwidth_fraction=0.5))), seed=5),
}

batches_strategy = st.lists(
    st.tuples(st.sampled_from(("R", "R", "W")), st.booleans(),
              st.sampled_from(GAPS),
              st.lists(st.tuples(st.integers(0, 1 << 30),
                                 st.sampled_from(SIZES)),
                       min_size=1, max_size=40)),
    min_size=1, max_size=12)


def drive(device_cls, spec, plan, trace, with_telemetry, batches):
    """Submit *batches* one after another; what the device left behind
    after each."""
    env = Environment()
    telemetry = RunTelemetry() if with_telemetry else None
    injector = (FaultInjector(plan.device_windows(0), plan.seed, telemetry)
                if plan is not None else None)
    device = device_cls(env, spec, BlockTracer(enabled=trace),
                        telemetry=telemetry, injector=injector)
    observed = []
    for op, speculative, gap, requests in batches:
        env.run(until=env.now + gap)
        done = device.submit(requests, op, speculative=speculative)
        observed.append((
            done.delay, sorted(device._channel_free),
            device.utilization(1.0),
            (device.reads_issued, device.writes_issued,
             device.bytes_read, device.bytes_written),
            list(device.tracer.records),
            injector.summary() if injector is not None else None,
            telemetry.summary()["counters"] if telemetry else None,
            list(telemetry.read_request_size.counts) if telemetry else None,
        ))
    env.run()
    return observed, env.now, env.events_processed


@pytest.mark.parametrize("with_telemetry", [False, True],
                         ids=["no-telemetry", "telemetry"])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("make_spec", [samsung_990pro_4tb, samsung_sata_1tb])
@given(batches=batches_strategy)
@settings(max_examples=15, deadline=None)
def test_submit_matches_reference(make_spec, plan, trace, with_telemetry,
                                  batches):
    args = (make_spec(), PLANS[plan], trace, with_telemetry, batches)
    assert drive(SimSSD, *args) == drive(ReferenceSSD, *args)


def test_backed_up_channels_match_reference():
    """More requests than channels, equal free-at times everywhere: the
    heap's tie handling must not show in any delay."""
    batches = [("R", False, 0.0, [(i * 4096, 4096) for i in range(40)]),
               ("W", False, 0.0, [(i * 65536, 65536) for i in range(9)]),
               ("R", True, 5e-6, [(0, 131072), (131072, 512)])] * 3
    for spec, plan in itertools.product(
            (samsung_990pro_4tb(), samsung_sata_1tb()), PLANS.values()):
        args = (spec, plan, True, True, batches)
        assert drive(SimSSD, *args) == drive(ReferenceSSD, *args)


def test_numpy_integer_requests_match_reference():
    offsets = np.arange(6, dtype=np.int64) * 8192
    requests = [(offset, np.int32(4096)) for offset in offsets]
    args = (samsung_990pro_4tb(), PLANS["faulty"], True, True,
            [("R", False, 0.0, requests)])
    assert drive(SimSSD, *args) == drive(ReferenceSSD, *args)


def test_memoised_occupancy_still_rejects_a_bad_size():
    """``submit`` rejects an oversized request before the memo is
    consulted, the first time and every time after."""
    env = Environment()
    device = SimSSD(env, samsung_990pro_4tb())
    too_big = device.spec.max_request_bytes + 4096
    for _ in range(2):
        with pytest.raises(StorageError, match="block-layer limit"):
            device.submit([(0, 4096), (4096, too_big)], "R")
    assert device.reads_issued == 0 and device.bytes_read == 0
    assert sorted(device._channel_free) == [0.0] * device.spec.channels
