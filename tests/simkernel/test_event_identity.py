"""``AllOf``, ``Race`` and ``Now`` fire exactly like the old events.

The rewritten events inline ``Event.__init__`` and the heap push, and a
``Race`` finds its winner's position instead of closing over it; the
oracle is ``tests/simkernel/reference_events.py`` (the classes as they
stood before), and a ``Now`` must push exactly what ``Event`` plus
``succeed`` pushed.  Random trees of ``Timeout`` and plain ``Event``
leaves — tied times, children shared between parents or already
processed, a run stopped by ``run(until)`` between stages — must pop
in the same order with the same values and the same
``events_processed``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment, Event, Timeout
from repro.simkernel.events import AllOf, Now, Race

from tests.simkernel import reference_events

DELAYS = (0.0, 0.25, 0.5, 1.0)

leaves = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS), st.integers(0, 9)),
    # A plain event succeeded by a timer after a delay, or never.
    st.tuples(st.just("event"), st.sampled_from(DELAYS + (None,)),
              st.integers(0, 9)),
    st.tuples(st.just("now"), st.integers(0, 9)),
    # An event built earlier, by index into everything built so far.
    st.tuples(st.just("ref"), st.integers(0, 1000)))

trees = st.recursive(leaves, lambda children: st.one_of(
    st.tuples(st.just("all"), st.lists(children, max_size=4)),
    st.tuples(st.just("race"), st.lists(children, min_size=1, max_size=4))),
    max_leaves=12)

#: Stages: the trees built, then how far the clock runs before the next
#: stage (None: to the end).
programs = st.lists(st.tuples(st.lists(trees, min_size=1, max_size=3),
                              st.sampled_from((0.0, 0.25, 0.6, None))),
                    min_size=1, max_size=4)


def replay(program, all_of, race, now):
    """Interpret *program*; the log of every pop plus the env's
    counters."""
    env = Environment()
    log = []
    built: list[Event] = []

    def logged(event: Event) -> Event:
        label = len(built)
        built.append(event)
        event.callbacks.append(
            lambda e: log.append((env.now, label, repr(e._value))))
        return event

    def build(tree) -> Event:
        kind = tree[0]
        if kind == "timeout":
            return logged(Timeout(env, tree[1], tree[2]))
        if kind == "event":
            event = logged(Event(env))
            if tree[1] is not None:
                Timeout(env, tree[1]).callbacks.append(
                    lambda _t: event.succeed(tree[2]))
            return event
        if kind == "now":
            return now(env, lambda e, label=len(built): log.append(
                (env.now, label, repr(e._value))), tree[1], built)
        if kind == "ref":
            if not built:
                return logged(Timeout(env, 0.0))
            return built[tree[1] % len(built)]
        children = [build(child) for child in tree[1]]
        return logged((all_of if kind == "all" else race)(env, children))

    for stage, until in program:
        for tree in stage:
            build(tree)
        env.run(None if until is None else env.now + until)
    return log, env.events_processed, env.now, len(env._heap)


def new_now(env, callback, value, built):
    event = Now(env, callback, value)
    built.append(event)
    return event


def old_now(env, callback, value, built):
    event = Event(env)
    event.callbacks.append(callback)
    built.append(event)
    return event.succeed(value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs)
def test_events_fire_like_the_reference(program):
    assert replay(program, AllOf, Race, new_now) == replay(
        program, reference_events.AllOf, reference_events.Race, old_now)


def test_a_race_over_a_repeated_child_reports_its_first_position():
    for make in (Race, reference_events.Race):
        env = Environment()
        leg = Timeout(env, 1.0)
        raced = make(env, [Timeout(env, 2.0), leg, leg])
        env.run()
        assert raced.value == 1
