"""Unit tests for the FIFO resource pool."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import Environment, Resource


def make_worker(env, resource, duration, log, name):
    def worker(env):
        yield resource.request()
        start = env.now
        yield env.timeout(duration)
        resource.release()
        log.append((name, start, env.now))
    return worker(env)


def test_capacity_one_serializes():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    env.process(make_worker(env, res, 2.0, log, "a"))
    env.process(make_worker(env, res, 2.0, log, "b"))
    env.run()
    assert log == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]


def test_capacity_two_runs_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []
    for name in ("a", "b"):
        env.process(make_worker(env, res, 2.0, log, name))
    env.run()
    assert [entry[1:] for entry in log] == [(0.0, 2.0), (0.0, 2.0)]


def test_fifo_ordering_of_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    for name in "abcd":
        env.process(make_worker(env, res, 1.0, log, name))
    env.run()
    assert [entry[0] for entry in log] == list("abcd")


def test_release_without_request_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_zero_capacity_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_in_use_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    env.process(make_worker(env, res, 5.0, log, "a"))
    env.process(make_worker(env, res, 5.0, log, "b"))
    env.run(until=1.0)
    assert res.in_use == 1
    assert res.queue_length == 1


def test_busy_time_single_worker():
    env = Environment()
    res = Resource(env, capacity=4)
    log = []
    env.process(make_worker(env, res, 3.0, log, "a"))
    env.run(until=10.0)
    assert res.busy_time() == pytest.approx(3.0)
    assert res.utilization(10.0) == pytest.approx(3.0 / 40.0)


def test_busy_time_with_contention():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    # Two 3-second jobs on one slot: busy from t=0 to t=6.
    env.process(make_worker(env, res, 3.0, log, "a"))
    env.process(make_worker(env, res, 3.0, log, "b"))
    env.run(until=10.0)
    assert res.busy_time() == pytest.approx(6.0)


def test_utilization_rejects_bad_duration():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.utilization(0.0)


def test_use_helper_acquires_and_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(env, name):
        yield from res.use(1.0)
        log.append((name, env.now))

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert log == [("a", 1.0), ("b", 2.0)]
    assert res.in_use == 0


def test_handoff_keeps_busy_integral_continuous():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    for name in "ab":
        env.process(make_worker(env, res, 1.0, log, name))
    env.run(until=2.0)
    # Slot was continuously busy from 0 to 2 through the direct handoff.
    assert res.busy_time() == pytest.approx(2.0)


@pytest.mark.parametrize("capacity", [1.5, float("nan"), 2.0, True, "2",
                                      None])
def test_capacity_must_be_a_positive_integer(capacity):
    """``nan < 1`` is false: the old ``capacity < 1`` check let NaN and
    fractional pools through."""
    env = Environment()
    with pytest.raises(SimulationError, match="capacity"):
        Resource(env, capacity=capacity)


def test_numpy_integer_capacity_is_accepted():
    import numpy as np
    env = Environment()
    assert Resource(env, capacity=np.int64(3)).capacity == 3


def test_utilization_rejects_nan_duration():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError, match="duration"):   # was: nan
        res.utilization(float("nan"))
