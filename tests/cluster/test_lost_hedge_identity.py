"""A lost hedge race with no backup waits for the primary's pop.

After the hedge timer wins and no replica is left to claim, the
generator slot ran ``yield nq``: it resumed at the primary leg's *pop*,
even when the leg had already answered and only its completion was
still on the heap (the reply landed on the hedge timer's instant).  A
slot that counts such a primary as answered at once pushes its own
completion a few counters early.  The dyadic-tick cluster of
``tests/cluster/test_cluster_replay_identity.py`` reaches that state
with single-replica shards but cannot see the early push, so a lone
slot is also raced against a same-instant chain of pushes that can.
"""

import collections

import pytest

import repro.cluster.runner as cluster_runner
from repro.cluster.runner import _ReplicaSlot
from repro.faults import ChaosSchedule, GrayFailure
from repro.simkernel import Environment, Event, Now, Timeout

from tests.cluster.reference_cluster_replay import ReferenceClusterReplayer
from tests.cluster.test_cluster_replay_identity import (
    TICK, assert_tied_identical)

HEDGE_S = 1.0


@pytest.mark.parametrize("gray", [False, True], ids=["healthy", "gray"])
def test_a_lost_hedge_without_backup_matches_the_generators(gray):
    chaos = (ChaosSchedule(grays=(GrayFailure(0, 0.0, 1.0, slowdown=4.0),))
             if gray else None)
    counts = [assert_tied_identical(replicas=1, chaos=chaos,
                                    hedge_after_s=k * TICK)
              for k in range(1, 25)]
    # The timer wins races, but there is never a replica to hedge to.
    assert sum(c.get("hedges", 0) for c in counts) == 0


class _Leg(Event):
    """A node leg whose reply lands exactly on the hedge timer."""

    def __init__(self, gather, _node: int) -> None:
        Event.__init__(self, gather.env)
        self.answered = False
        Now(self.env, lambda _boot: Timeout(self.env, HEDGE_S)
            .callbacks.append(self._back))

    def _back(self, _event: Event) -> None:
        self.answered = True
        self.succeed(None)


def _reference_leg(self, node, splan, view, fixed_cpu, outcome, causes):
    yield self.env.timeout(HEDGE_S)
    outcome[0] = True


def _claims():
    nodes = [0]
    return lambda: nodes.pop() if nodes else None


def _lone_slot(reference: bool) -> list:
    """One single-replica slot, hedged at the reply's instant, beside a
    foreign timer on that instant that relays twice: the pop order."""
    env = Environment()
    log = []
    coord = ReferenceClusterReplayer.__new__(ReferenceClusterReplayer)
    coord.env, coord.hedge_after_s, coord.telemetry = env, HEDGE_S, None
    coord.ccounts = collections.Counter()
    successes = [0]
    if reference:
        coord._node_query = _reference_leg.__get__(coord)
        slot = env.process(coord._slot_proc(0, None, None, 0.0, _claims(),
                                            successes, set()))
    else:
        query = type("Query", (), {"coord": coord, "successes": successes})
        gather = type("Gather", (), {"env": env, "query": query, "shard": 0,
                                     "claim": staticmethod(_claims())})
        slot = _ReplicaSlot(gather)
    slot.callbacks.append(lambda _e: log.append(("slot", env.now)))

    def relay(name, then=None):
        def pop(_event):
            log.append((name, env.now))
            if then is not None:
                Now(env, then)
        return pop

    Now(env, lambda _e: Timeout(env, HEDGE_S).callbacks.append(
        relay("timer", relay("first", relay("second")))))
    env.run()
    return log + [successes, env.events_processed]


def test_a_lone_slot_waits_for_an_answered_primary_to_pop(monkeypatch):
    monkeypatch.setattr(cluster_runner, "_NodeLeg", _Leg)
    log = _lone_slot(reference=False)
    assert log == _lone_slot(reference=True)
    # The slot's completion follows the second relay: it was pushed at
    # the primary's pop, not at the race's.
    assert [name for name, _t in log[:4]] == ["timer", "first", "second",
                                              "slot"]
