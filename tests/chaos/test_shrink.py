"""ddmin over chaos elements: 1-minimality, determinism, validation."""

import pytest

from repro.chaos import ChaosSchedule, shrink_elements, shrink_schedule
from repro.errors import WorkloadError
from repro.faults import NodeKill


def elements(n):
    return [("kill", NodeKill(i, 0.0, 1.0)) for i in range(n)]


class TestShrinkElements:
    def test_single_culprit_survives_alone(self):
        full = elements(8)
        culprit = full[5]

        def violates(subset):
            return culprit in subset

        minimal, probes = shrink_elements(full, violates)
        assert minimal == [culprit]
        assert probes >= 2

    def test_conjunction_keeps_both_elements(self):
        full = elements(7)
        a, b = full[1], full[6]

        def violates(subset):
            return a in subset and b in subset

        minimal, _probes = shrink_elements(full, violates)
        assert sorted(minimal, key=full.index) == [a, b]
        # 1-minimality: dropping either remaining element heals it.
        for drop in minimal:
            assert not violates([e for e in minimal if e != drop])

    def test_always_violating_shrinks_to_one_element(self):
        minimal, _probes = shrink_elements(elements(6), lambda s: True)
        assert len(minimal) == 1

    def test_non_violating_start_is_rejected(self):
        with pytest.raises(WorkloadError):
            shrink_elements(elements(4), lambda s: False)

    def test_same_predicate_same_shrink(self):
        full = elements(9)

        def violates(subset):
            return full[2] in subset and full[7] in subset

        assert shrink_elements(full, violates) \
            == shrink_elements(full, violates)


class TestShrinkSchedule:
    def test_minimal_schedule_still_violates(self):
        sched = ChaosSchedule(
            kills=[NodeKill(n, 0.0, 1.0) for n in range(5)], seed=5)

        def violates(sub):
            return any(k.node == 3 for k in sub.kills)

        minimal, _probes = shrink_schedule(sched, violates)
        assert violates(minimal)
        assert [(tag, e.node) for tag, e in minimal.elements()] \
            == [("kill", 3)]
        # The seed survives the rebuild, so the reproducer replays as-is.
        assert minimal.seed == sched.seed == 5
