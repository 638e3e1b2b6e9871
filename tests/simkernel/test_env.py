"""Unit tests for the discrete-event environment and event primitives."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import Environment, Event


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [2.5]


def test_timeouts_fire_in_order():
    env = Environment()
    log = []

    def waiter(env, delay, name):
        yield env.timeout(delay)
        log.append(name)

    env.process(waiter(env, 3.0, "c"))
    env.process(waiter(env, 1.0, "a"))
    env.process(waiter(env, 2.0, "b"))
    env.run()
    assert log == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    log = []

    def waiter(env, name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abcd":
        env.process(waiter(env, name))
    env.run()
    assert log == list("abcd")


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    assert env.run(until=30.0) == 30.0
    assert env.now == 30.0


def test_run_until_does_not_process_later_events():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(100.0)
        log.append("late")

    env.process(proc(env))
    env.run(until=30.0)
    assert log == []


def test_run_until_in_the_past_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_negative_timeout_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [42]


def test_timeout_carries_value():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["payload"]


def test_event_succeed_twice_raises():
    env = Environment()
    event = Event(env)
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        Event(env).value


def test_manual_event_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def opener(env):
        yield env.timeout(5.0)
        gate.succeed("open")

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    env.process(opener(env))
    env.process(waiter(env))
    env.run()
    assert log == [(5.0, "open")]


def test_all_of_waits_for_slowest():
    env = Environment()
    log = []

    def proc(env):
        values = yield env.all_of(
            [env.timeout(1.0, "a"), env.timeout(4.0, "b"),
             env.timeout(2.0, "c")])
        log.append((env.now, values))

    env.process(proc(env))
    env.run()
    assert log == [(4.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    log = []

    def proc(env):
        values = yield env.all_of([])
        log.append((env.now, values))

    env.process(proc(env))
    env.run()
    assert log == [(0.0, [])]


def test_any_of_fires_on_fastest():
    env = Environment()
    log = []

    def proc(env):
        value = yield env.any_of([env.timeout(3.0, "slow"),
                                  env.timeout(1.0, "fast")])
        log.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert log == [(1.0, "fast")]


def test_any_of_empty_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


def test_yielding_non_event_raises():
    env = Environment()

    def bad(env):
        yield 3.0  # not an Event

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_nan_timeout_raises():
    """``nan < 0`` is false: a NaN delay used to reach the heap, where
    it compares unordered with every other key."""
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(float("nan"))
    assert env.run() == 0.0 and env.events_processed == 0


def test_run_until_nan_raises():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))


def test_step_processes_one_event_like_run():
    env = Environment()
    fired = []
    env.timeout(1.0).callbacks.append(lambda event: fired.append("a"))
    env.timeout(2.0).callbacks.append(lambda event: fired.append("b"))
    env.step()
    assert (env.now, env.events_processed, fired) == (1.0, 1, ["a"])
    env.run()
    assert (env.now, env.events_processed, fired) == (2.0, 2, ["a", "b"])


def test_step_on_empty_heap_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_all_of_with_already_processed_event():
    env = Environment()
    log = []

    def proc(env):
        first = env.timeout(1.0, "early")
        yield env.timeout(2.0)  # first is processed by now
        values = yield env.all_of([first, env.timeout(1.0, "late")])
        log.append((env.now, values))

    env.process(proc(env))
    env.run()
    assert log == [(3.0, ["early", "late"])]
