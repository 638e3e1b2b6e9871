"""One scripted scenario whose firing sequence is pinned.

The event core is allowed to get faster, never to add, drop or reorder
an event: ``(time, insertion counter)`` is the order, and
``Environment.events_processed`` counts every pop.  The expected values
below were captured from the kernel as it stood *before* the lean event
core (commit 2cb9065) and must never be regenerated from the code under
test.
"""

from repro.simkernel import Environment, Resource


def scenario() -> tuple[list[tuple[float, str]], list[tuple[float, int]]]:
    """Returns the ``(time, label)`` log and ``(clock, events)`` stops."""
    env = Environment()
    log: list[tuple[float, str]] = []
    pool = Resource(env, capacity=2, name="pool")

    def mark(label: str) -> None:
        log.append((env.now, label))

    def sleeper(name: str, delay: float):
        yield env.timeout(delay)
        mark(f"{name}:woke")
        return name

    def worker(name: str, start: float, hold: float):
        yield env.timeout(start)
        mark(f"{name}:arrive q={pool.queue_length}")
        yield from pool.use(hold)
        mark(f"{name}:done in_use={pool.in_use}")
        return hold

    def gatherer():
        values = yield env.all_of(
            [env.process(sleeper(f"s{i}", 1.0)) for i in range(3)]
            + [env.timeout(0.5, value="t")])
        mark(f"all_of:{values}")
        empty = yield env.all_of([])
        mark(f"all_of_empty:{empty}")
        first = yield env.any_of([env.timeout(0.25, value="fast"),
                                  env.timeout(0.75, value="slow")])
        mark(f"any_of:{first}")

    def racer():
        # A tie at t=2.0: the first-scheduled child wins.
        winner = yield env.race([env.timeout(2.0), env.timeout(2.0)])
        mark(f"race_tie:{winner}")
        slow = env.process(sleeper("slow", 3.0))
        winner = yield env.race([slow, env.timeout(1.0)])
        mark(f"race_timeout:{winner}")
        value = yield slow
        mark(f"joined:{value}")

    def late():
        mark("late:start")
        yield env.timeout(0.125)
        mark("late:end")
        return "late"

    def waits_for_late():
        value = yield env.process_at(4.5, late())
        mark(f"process_at:{value}")

    for name, start, hold in (("w0", 0.0, 1.5), ("w1", 0.0, 1.0),
                              ("w2", 0.0, 0.5), ("w3", 1.0, 0.25),
                              ("w4", 1.0, 0.25)):
        env.process(worker(name, start, hold))
    env.process(gatherer())
    env.process(racer())
    env.process(waits_for_late())
    for name in "abc":                       # ties at t=1.0
        env.process(sleeper(name, 1.0))

    stops = []
    for until in (0.0, 0.6, 1.0, 1.1, 3.3, 4.55, 10.0):
        clock = env.run(until=until)
        stops.append((clock, env.events_processed))
    stops.append((env.run(), env.events_processed))
    log.append((env.now, f"busy={pool.busy_time()}"))
    return log, stops


EXPECTED_LOG = [
    (0.0, "w0:arrive q=0"),
    (0.0, "w1:arrive q=0"),
    (0.0, "w2:arrive q=0"),
    (1.0, "w3:arrive q=1"),
    (1.0, "w4:arrive q=2"),
    (1.0, "a:woke"),
    (1.0, "b:woke"),
    (1.0, "c:woke"),
    (1.0, "s0:woke"),
    (1.0, "s1:woke"),
    (1.0, "s2:woke"),
    (1.0, "w1:done in_use=2"),
    (1.0, "all_of:['s0', 's1', 's2', 't']"),
    (1.0, "all_of_empty:[]"),
    (1.25, "any_of:fast"),
    (1.5, "w0:done in_use=2"),
    (1.5, "w2:done in_use=2"),
    (1.75, "w3:done in_use=1"),
    (1.75, "w4:done in_use=0"),
    (2.0, "race_tie:0"),
    (3.0, "race_timeout:1"),
    (4.5, "late:start"),
    (4.625, "late:end"),
    (4.625, "process_at:late"),
    (5.0, "slow:woke"),
    (5.0, "joined:slow"),
    (10.0, "busy=3.5"),
]
#: ``(clock, events_processed)`` after run(until=0, .6, 1, 1.1, 3.3,
#: 4.55, 10) and a final run(): 1.1 and 3.3 fall between events.
EXPECTED_STOPS = [(0.0, 19), (0.6, 20), (1.0, 39), (1.1, 39), (3.3, 59),
                  (4.55, 61), (10.0, 68), (10.0, 68)]


def test_scripted_scenario_fires_in_the_pinned_order():
    log, stops = scenario()
    assert log == EXPECTED_LOG
    assert stops == EXPECTED_STOPS


def test_scenario_repeats():
    assert scenario() == scenario()
