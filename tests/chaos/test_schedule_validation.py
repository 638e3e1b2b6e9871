"""Fault-schedule validation, fuzzed over every numeric field.

Every window and the schedule itself either build or raise
:class:`~repro.errors.WorkloadError` — never a bare ``TypeError``, and
never a window that builds with a NaN or infinite magnitude or bound.
A NaN compares false against every bound, so a ``<=``-style check
passes it: a NaN spike used to build, and then made the faulted run
*faster* than the healthy one.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import WorkloadError
from repro.faults import (ChaosSchedule, CrashPlan, GrayFailure,
                          LatencySpike, NodeKill, PartitionWindow,
                          ReadError, TailAmplification, Throttle)

#: Values no numeric field accepts.
BAD = (math.nan, math.inf, -math.inf, True, False, "1", None)

#: Per class: (field, valid values) in constructor order.  Any mix of
#: the valid values builds (every start precedes every end).
FIELDS = {
    NodeKill: (("node", (0, 3)), ("start_s", (0.0, 0.5)),
               ("end_s", (1.0, 2))),
    PartitionWindow: (("nodes", ((1,), (0, 2))), ("start_s", (0, 0.5)),
                      ("end_s", (1.0, 2.0)),
                      ("drop_fraction", (0.5, 1.0))),
    GrayFailure: (("node", (0, 2)), ("start_s", (0.0, 0.5)),
                  ("end_s", (1.0, 2.0)), ("slowdown", (1.5, 8))),
    LatencySpike: (("start_s", (0.0, 0.5)), ("end_s", (1.0, 2.0)),
                   ("extra_s", (0.001, 1))),
    ReadError: (("start_s", (0.0, 0.5)), ("end_s", (1.0, 2.0)),
                ("probability", (0.01, 1.0)), ("stall_s", (0.025, 2))),
    TailAmplification: (("start_s", (0.0, 0.5)), ("end_s", (1.0, 2.0)),
                        ("multiplier", (1.0, 8)),
                        ("probability", (0.05, 1))),
    Throttle: (("start_s", (0.0, 0.5)), ("end_s", (1.0, 2.0)),
               ("bandwidth_fraction", (0.25, 1))),
}


def _field(name, valid):
    """(value, is_valid) for one field; node tuples also carry bad
    members."""
    good = st.sampled_from(valid).map(lambda v: (v, True))
    bad = st.sampled_from(BAD).map(lambda v: (v, False))
    if name == "nodes":
        bad = st.one_of(bad, st.sampled_from(
            ((-1,), (1.5,), (True,), ("1",), (None,), ())).map(
                lambda v: (v, False)))
    return st.one_of(good, bad)


@st.composite
def window_cases(draw):
    kind = draw(st.sampled_from(sorted(FIELDS, key=lambda k: k.__name__)))
    drawn = {name: draw(_field(name, valid))
             for name, valid in FIELDS[kind]}
    return kind, drawn


@settings(max_examples=400, deadline=None, derandomize=True)
@given(window_cases())
def test_a_window_builds_exactly_when_every_field_is_valid(case):
    kind, drawn = case
    kwargs = {name: value for name, (value, _ok) in drawn.items()}
    if all(ok for _value, ok in drawn.values()):
        kind(**kwargs)
    else:
        with pytest.raises(WorkloadError):
            kind(**kwargs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(node=_field("node", (0, 5)), seed=_field("seed", (0, 7, -3)))
def test_a_schedule_builds_exactly_when_node_and_seed_are_valid(node, seed):
    kwargs = dict(device_faults=((node[0], LatencySpike(0.0, 1.0)),),
                  seed=seed[0])
    if node[1] and seed[1]:
        ChaosSchedule(**kwargs)
    else:
        with pytest.raises(WorkloadError):
            ChaosSchedule(**kwargs)


def test_partition_nodes_must_be_an_iterable():
    for nodes in (3, math.nan, True):
        with pytest.raises(WorkloadError, match="partition nodes"):
            PartitionWindow(nodes, 0.0, 1.0)


#: Per plane: valid values; every plane also draws a non-iterable or
#: an iterable holding a wrong entry.
PLANES = {
    "kills": ((), (NodeKill(0, 0.0, 1.0),), [NodeKill(2, 0.5, 1.0)]),
    "partitions": ((), (PartitionWindow((0, 1), 0.0, 1.0),)),
    "grays": ((), (GrayFailure(1, 0.0, 1.0, slowdown=2.0),)),
    "device_faults": ((), ((0, LatencySpike(0.0, 1.0)),)),
    "crash": (None, CrashPlan.of("save.manifest.write")),
}
NOT_A_PLANE = (None, 5, 1.5, True, math.nan, (None,), ("x",),
               (LatencySpike(0.0, 1.0),))
NOT_A_CRASH = ("x", "save.manifest.write", True, 0, 1.5, (),
               (CrashPlan.of("save.manifest.write"),))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    name: st.one_of(
        st.sampled_from(valid).map(lambda v: (v, True)),
        st.sampled_from(NOT_A_CRASH if name == "crash" else NOT_A_PLANE)
        .map(lambda v: (v, False)))
    for name, valid in PLANES.items()}))
def test_a_schedule_builds_exactly_when_every_plane_is_valid(drawn):
    """A plane is an iterable of its own entries and ``crash`` is None
    or a :class:`CrashPlan`; anything else is a ``WorkloadError``, never
    a bare ``TypeError`` and never a schedule."""
    kwargs = {name: value for name, (value, _ok) in drawn.items()}
    if all(ok for _value, ok in drawn.values()):
        ChaosSchedule(**kwargs)
    else:
        with pytest.raises(WorkloadError):
            ChaosSchedule(**kwargs)
