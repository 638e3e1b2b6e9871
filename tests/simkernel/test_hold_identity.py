"""``Resource.hold``'s contract: the seed's events, in the seed's order.

``Resource.hold`` replaces the ``use`` sub-generator (request, resume,
timeout, resume, release) with one event the process yields once.  The
rewrite may save resumes, never an event: on every scenario below the
shipped :class:`~repro.simkernel.Resource` and the seed's
(``tests/simkernel/reference_resources.py``, where ``hold`` steps run
as ``yield from use(d)``) must log the same ``(time, label)`` sequence,
stop after the same ``events_processed`` at every ``run(until)``, and
agree on ``busy_time()``, ``in_use``, ``queue_length`` and the telemetry
samples.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simkernel import Environment, Resource
from tests.simkernel.reference_resources import Resource as ReferenceResource

#: Zeros and exact ties on purpose: same-time events fire in insertion
#: order, which is what a reordered heap entry would break.
DURATIONS = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)
STARTS = (0.0, 0.0, 0.25, 0.5, 1.0)


class DepthRecorder:
    """The one telemetry method a ``Resource`` calls."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, int]] = []

    def observe_queue_depth(self, name: str, depth: int) -> None:
        self.calls.append((name, depth))


def run_scenario(resource_cls, capacity, workers, stops):
    """Everything observable about one run of *workers* on one pool."""
    env = Environment()
    telemetry = DepthRecorder()
    pool = resource_cls(env, capacity, name="pool", telemetry=telemetry)
    log: list[tuple[float, str]] = []

    def mark(label: str) -> None:
        log.append((env.now, f"{label} in_use={pool.in_use} "
                             f"q={pool.queue_length}"))

    def worker(name, start, mode, durations):
        yield env.timeout(start)
        for step, duration in enumerate(durations):
            mark(f"{name}.{step}:arrive")
            if mode == "pair":
                yield pool.request()
                mark(f"{name}.{step}:granted")
                yield env.timeout(duration)
                pool.release()
            elif mode == "hold" and resource_cls is Resource:
                yield pool.hold(duration)
            else:
                yield from pool.use(duration)
            mark(f"{name}.{step}:done")
        return name

    for i, (start, mode, durations) in enumerate(workers):
        env.process(worker(f"w{i}", start, mode, durations))
    observed = []
    for until in (*stops, None):
        clock = env.run(until=until)
        observed.append((clock, env.events_processed, pool.in_use,
                         pool.queue_length, pool.busy_time()))
    return log, observed, telemetry.calls


workers_strategy = st.lists(
    st.tuples(st.sampled_from(STARTS),
              st.sampled_from(("use", "hold", "pair")),
              st.lists(st.sampled_from(DURATIONS), min_size=1, max_size=4)),
    min_size=1, max_size=12)
stops_strategy = st.lists(
    st.sampled_from((0.0, 0.1, 0.25, 0.6, 1.0, 1.1, 2.0, 3.3)),
    max_size=4).map(sorted)


@given(capacity=st.integers(1, 4), workers=workers_strategy,
       stops=stops_strategy)
@settings(max_examples=150, deadline=None)
def test_hold_fires_the_reference_events_in_the_reference_order(
        capacity, workers, stops):
    new = run_scenario(Resource, capacity, workers, stops)
    reference = run_scenario(ReferenceResource, capacity, workers, stops)
    assert new[0] == reference[0]           # (time, label) log
    assert new[1] == reference[1]           # stops: floats compared ==
    assert new[2] == reference[2]           # telemetry samples


def test_contended_pool_of_holds_matches_reference():
    """A fixed scenario with every mode queued behind every other."""
    workers = [(0.0, mode, [0.5, 0.0, 0.25])
               for mode in ("hold", "use", "pair") * 3]
    stops = [0.0, 0.6, 1.1]
    assert (run_scenario(Resource, 2, workers, stops)
            == run_scenario(ReferenceResource, 2, workers, stops))


def test_release_hands_the_slot_over_before_the_holder_continues():
    """The waiter's grant is pushed before anything the holder schedules
    after its hold, so at a tie the waiter's continuation fires first."""
    env = Environment()
    pool = Resource(env, 1)
    order = []

    def holder():
        yield pool.hold(1.0)
        yield env.timeout(0.0)
        order.append("holder")

    def waiter():
        yield pool.request()
        order.append("waiter")
        pool.release()

    env.process(holder())
    env.process(waiter())
    env.run()
    assert order == ["waiter", "holder"]


@pytest.mark.parametrize("duration", [-1.0, math.nan, -math.inf])
def test_hold_validates_duration_before_taking_a_slot(duration):
    env = Environment()
    telemetry = DepthRecorder()
    pool = Resource(env, 1, name="pool", telemetry=telemetry)
    with pytest.raises(SimulationError):
        pool.hold(duration)
    assert pool.in_use == 0 and pool.queue_length == 0
    assert telemetry.calls == []
    assert env.run() == 0.0 and env.events_processed == 0


def test_hold_spends_two_events_and_one_resume():
    env = Environment()
    pool = Resource(env, 1)
    resumes = []

    def worker():
        resumes.append(env.now)
        yield pool.hold(2.0)
        resumes.append(env.now)

    env.process(worker())
    env.run()
    assert resumes == [0.0, 2.0]
    # bootstrap, grant, hold, the process's own completion
    assert env.events_processed == 4
    assert pool.busy_time() == 2.0 and pool.in_use == 0
