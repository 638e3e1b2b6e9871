"""``Environment.timeline`` and ``spawn``: ``process_at``'s order, fewer pops.

A timeline entry must run exactly where ``process_at(delay, gen)``
would have run *gen*'s body, and a spawned process must fire exactly
the events of ``env.process``.  What may go is only the no-op pops: the
arrival process's completion and ``process_at``'s relay event (two per
timeline entry), and the completion event of a spawned process nobody
can wait on (one per finished spawn).  On every scenario below — ties
forced by a coarse delay grid, timelines scheduled from inside running
processes, entries that push timeouts, holds and processes of their
own, ``run(until)`` stops — the two schedulings must log the same
``(time, label)`` sequence and stop at the same clocks, and the event
counts must differ by exactly those pops.
"""

import math
import pathlib
import re
from heapq import heappush

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simkernel import Environment, Event, Resource
from repro.simkernel import env as env_mod

#: A coarse grid: equal delays, and delays landing on other timers'
#: end times, are the common case rather than the rare one.
GRID = (0.0, 0.25, 0.5, 0.5, 1.0, 1.5)
EFFECTS = ("mark", "timeout", "hold", "process")


def run_scenario(scenario, lazy: bool):
    """Log, stops and pop counts of *scenario*.

    ``lazy`` schedules timelines with ``env.timeline`` and starts the
    unjoined processes with ``env.spawn``; otherwise the old way, one
    ``process_at`` per entry and ``env.process``.
    """
    env = Environment()
    pool = Resource(env, scenario["capacity"], name="pool")
    log: list[tuple[float, str]] = []
    dropped = [0]           # pops the lazy side may skip, so far
    start = env.spawn if lazy else env.process

    def mark(label: str) -> None:
        log.append((env.now, label))

    def worker(name: str, begin: float, duration: float):
        yield env.timeout(begin)
        mark(f"{name}:start q={pool.queue_length}")
        yield pool.hold(duration)
        mark(f"{name}:done in_use={pool.in_use}")
        yield env.timeout(duration)
        mark(f"{name}:slept")
        dropped[0] += 1

    def entry(k: int, i: int) -> None:
        name = f"t{k}.{i}"
        mark(name)
        dropped[0] += 2
        effect = scenario["effect"]
        if effect == "timeout":
            env.timeout(0.25).callbacks.append(
                lambda _e: mark(f"{name}:timeout"))
        elif effect == "hold":
            pool.hold(0.25).callbacks.append(
                lambda _e: mark(f"{name}:held"))
        elif effect == "process":
            start(worker(f"{name}/w", 0.0, 0.25))

    def schedule(k: int, delays) -> None:
        if lazy:
            env.timeline(delays, lambda i: entry(k, i))
            return

        def body(i):
            entry(k, i)
            return
            yield

        for i, delay in enumerate(delays):
            env.process_at(delay, body(i))

    def launcher(k: int, begin: float, delays):
        yield env.timeout(begin)
        mark(f"launch{k}")
        schedule(k, delays)

    for k, (begin, delays) in enumerate(scenario["timelines"]):
        if begin is None:
            schedule(k, delays)
        else:
            env.process(launcher(k, begin, delays))
    for j, (begin, duration) in enumerate(scenario["workers"]):
        start(worker(f"w{j}", begin, duration))

    stops = []
    for until in (*scenario["stops"], None):
        clock = env.run(until=until)
        stops.append((clock, env.events_processed, dropped[0]))
    return log, stops, len(env._heap)


def assert_identical(scenario) -> None:
    lazy_log, lazy_stops, heap = run_scenario(scenario, lazy=True)
    old_log, old_stops, _heap = run_scenario(scenario, lazy=False)
    assert lazy_log == old_log
    assert heap == 0
    for (clock, events, dropped), (old_clock, old_events, old_dropped) \
            in zip(lazy_stops, old_stops, strict=True):
        assert clock == old_clock and dropped == old_dropped
        assert old_events - events == dropped


def identical(scenario) -> bool:
    try:
        assert_identical(scenario)
    except AssertionError:
        return False
    return True


scenarios = st.fixed_dictionaries({
    "capacity": st.integers(1, 2),
    "effect": st.sampled_from(EFFECTS),
    "timelines": st.lists(
        st.tuples(st.sampled_from((None, 0.0, 0.25, 0.5, 1.0)),
                  st.lists(st.sampled_from(GRID), max_size=6).map(sorted)),
        min_size=1, max_size=3),
    "workers": st.lists(
        st.tuples(st.sampled_from((0.0, 0.25, 0.5)),
                  st.sampled_from(GRID)),
        max_size=4),
    "stops": st.lists(st.sampled_from((0.0, 0.25, 0.6, 1.0, 1.5, 2.0)),
                      max_size=3).map(sorted),
})


@given(scenario=scenarios)
@settings(max_examples=300, deadline=None)
def test_timeline_fires_process_at_events_in_process_at_order(scenario):
    assert_identical(scenario)


def test_tied_timelines_interleave_like_process_at():
    """Two timelines on the same instants and a worker ending on them."""
    assert_identical({
        "capacity": 1, "effect": "process",
        "timelines": [(None, [0.0, 0.5, 0.5, 1.0]),
                      (0.25, [0.25, 0.25, 0.75])],
        "workers": [(0.0, 0.5), (0.25, 0.25)],
        "stops": [0.5, 1.0]})


# -- hand-mutated timelines must be caught ------------------------------


class _FreshKeys(env_mod._Timeline):
    """Mutant: no reserved keys — each timer takes a fresh one when armed."""

    def __init__(self, env, delays, callback):
        self.env, self.start = env, env._now
        self.delays, self.callback = delays, callback
        self._arm(0)

    def _arm(self, i):
        timer = Event(self.env)
        timer._value = i
        timer.callbacks.append(self._fire)
        heappush(self.env._heap, (self.start + self.delays[i],
                                  next(self.env._counter), timer))


class _InlineEntry(env_mod._Timeline):
    """Mutant: the entry runs in the timer's own callback."""

    def _fire(self, timer):
        i = timer._value
        if i + 1 < len(self.delays):
            self._arm(i + 1)
        self.callback(i)


@pytest.mark.parametrize("mutant", [_FreshKeys, _InlineEntry],
                         ids=["fresh-keys", "inline-entry"])
def test_the_property_catches_a_mutated_timeline(monkeypatch, mutant):
    monkeypatch.setattr(env_mod, "_Timeline", mutant)
    counterexample = find(scenarios, lambda sc: not identical(sc),
                          settings=settings(max_examples=2000,
                                            deadline=None))
    assert not identical(counterexample)


# -- the primitive's own contract -----------------------------------------


def test_empty_timeline_pushes_nothing():
    env = Environment()
    env.timeline([], lambda i: pytest.fail("an empty timeline ran"))
    env.timeline((), print)
    assert env._heap == []
    assert next(env._counter) == 0
    assert env.run() == 0.0 and env.events_processed == 0


def test_timeline_reserves_one_key_per_entry():
    env = Environment()
    env.timeline([1.0, 2.0, 3.0], lambda i: None)
    assert len(env._heap) == 1
    assert next(env._counter) == 3


@pytest.mark.parametrize("delays", [
    [math.nan], [0.0, math.nan], [-1.0], [-0.5, 0.0], [1.0, 0.5],
    [0.0, 2.0, 1.0], [math.inf], [0.0, -math.inf]],
    ids=["nan", "nan-later", "negative", "negative-first", "decreasing",
         "decreasing-later", "inf", "minus-inf"])
def test_bad_delays_raise_before_scheduling_anything(delays):
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeline(delays, lambda i: None)
    assert env._heap == [] and next(env._counter) == 0


def test_spawn_fires_process_events_minus_the_completion():
    def worker(env, log):
        log.append(env.now)
        yield env.timeout(1.0)
        log.append(env.now)
        return "ignored"

    runs = []
    for start in ("process", "spawn"):
        env, log = Environment(), []
        getattr(env, start)(worker(env, log))
        env.run()
        runs.append((log, env.events_processed))
    (process_log, process_events), (spawn_log, spawn_events) = runs
    assert process_log == spawn_log == [0.0, 1.0]
    assert process_events - spawn_events == 1


def test_spawn_rejects_a_non_event_yield():
    env = Environment()

    def bad():
        yield 3

    env.spawn(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_nothing_in_src_holds_the_event_counter():
    """``timeline`` replaces ``env._counter``; a cached copy would go stale."""
    src = pathlib.Path(env_mod.__file__).parents[1]
    stale = [f"{path}: {line.strip()}"
             for path in src.rglob("*.py") if path.name != "env.py"
             for line in path.read_text().splitlines()
             if re.search(r"\._counter\b", line)
             and not re.search(r"next\(\w+\._counter\)", line)]
    assert stale == []
