"""ChaosSchedule: composition, queries, flattening, seeding, device
windows."""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import ChaosSchedule
from repro.errors import WorkloadError
from repro.faults import (CrashPlan, GrayFailure, LatencySpike, NodeKill,
                          PartitionWindow, ReadError, Throttle)


def composed():
    return ChaosSchedule(
        kills=(NodeKill(0, 0.1, 0.3),),
        partitions=(PartitionWindow((1, 3), 0.2, 0.4),),
        grays=(GrayFailure(1, 0.0, 0.2, slowdown=8.0),),
        device_faults=((2, LatencySpike(0.1, 0.5, extra_s=0.001)),
                       (2, ReadError(0.1, 0.5, probability=0.1,
                                     stall_s=0.01))),
        crash=CrashPlan.of("save.manifest.write"))


class TestComposition:
    def test_default_schedule_is_empty_and_passive(self):
        sched = ChaosSchedule()
        assert sched.empty
        assert sched.elements() == []
        assert sched.end_s == 0.0
        assert all(sched.device_windows(node) == () for node in range(4))

    def test_composed_schedule_flattens_every_plane(self):
        sched = composed()
        assert not sched.empty
        tags = [tag for tag, _payload in sched.elements()]
        assert tags == ["kill", "partition", "gray", "device",
                        "device", "crash"]

    def test_end_s_is_the_last_window_close(self):
        assert composed().end_s == 0.5

    def test_device_windows_fold_in_the_gray_throttle(self):
        sched = composed()
        windows = {node: sched.device_windows(node) for node in range(4)}
        # Node 2 has the explicit windows; node 1 gets the SSD-side
        # half of its gray failure (a throttle over the gray window).
        assert {node for node, ws in windows.items() if ws} == {1, 2}
        assert [w.kind for w in windows[2]] \
            == ["latency_spike", "read_error"]
        assert windows[1] == (Throttle(0.0, 0.2, bandwidth_fraction=0.125),)

    def test_gray_throttles_follow_the_explicit_windows(self):
        spike = LatencySpike(0.3, 0.4, extra_s=0.001)
        sched = ChaosSchedule(
            grays=(GrayFailure(0, 0.0, 0.2, slowdown=4.0),),
            device_faults=((1, ReadError(0.0, 0.1)), (0, spike)))
        assert sched.device_windows(0) == (
            spike, Throttle(0.0, 0.2, bandwidth_fraction=0.25))

    def test_bad_device_entry_is_rejected(self):
        with pytest.raises(WorkloadError):
            ChaosSchedule(device_faults=((-1, LatencySpike(
                0.0, 0.1, extra_s=0.001)),))
        with pytest.raises(WorkloadError):
            ChaosSchedule(device_faults=((0, "not a window"),))

    @pytest.mark.parametrize("plane", ["kills", "partitions", "grays"])
    def test_non_window_in_any_plane_is_rejected(self, plane):
        # Regression: only device_faults used to be checked here.
        with pytest.raises(WorkloadError):
            ChaosSchedule(**{plane: ("not a window",)})
        with pytest.raises(WorkloadError):
            ChaosSchedule(**{plane: (LatencySpike(0.0, 0.1),)})


class TestQueries:
    def test_dead_and_next_death_follow_the_kill_windows(self):
        sched = ChaosSchedule(kills=(NodeKill(1, 0.5, 2.0),
                                     NodeKill(1, 3.0, 4.0)))
        assert sched.dead(1, 0.5) and sched.dead(1, 1.999)
        assert not sched.dead(1, 2.0) and not sched.dead(0, 1.0)
        assert sched.next_death_after(1, 0.1) == 0.5
        assert sched.next_death_after(1, 0.5) == 3.0
        assert sched.next_death_after(1, 3.0) is None
        assert sched.next_death_after(0, 0.0) is None

    def test_slowdown_is_the_worst_active_gray_window(self):
        sched = ChaosSchedule(grays=(GrayFailure(2, 0.0, 1.0, 4.0),
                                     GrayFailure(2, 0.5, 1.5, 8.0)))
        assert sched.slowdown(2, 0.25) == 4.0
        assert sched.slowdown(2, 0.75) == 8.0
        assert sched.slowdown(2, 1.5) == 1.0
        assert sched.slowdown(0, 0.75) == 1.0

    def test_clean_partition_drops_exactly_the_crossing_hops(self):
        sched = ChaosSchedule(partitions=(
            PartitionWindow((1, 3), 0.0, 1.0),))
        assert sched.dropped(0, 1, 0.5, 0) and sched.dropped(3, 0, 0.5, 9)
        assert not sched.dropped(1, 3, 0.5, 0)      # inside the group
        assert not sched.dropped(0, 2, 0.5, 0)      # outside it
        assert not sched.dropped(0, 1, 1.0, 0)      # window closed
        assert not sched.dropped(1, 1, 0.5, 0)

    def test_flaky_partition_draws_from_the_schedule_seed(self):
        window = PartitionWindow((1,), 0.0, 1.0, drop_fraction=0.5)
        drops = {seed: [ChaosSchedule(partitions=(window,), seed=seed)
                        .dropped(0, 1, 0.5, ordinal)
                        for ordinal in range(64)]
                 for seed in (0, 1)}
        assert 8 < sum(drops[0]) < 56
        assert drops[0] != drops[1]
        assert drops[0] == [ChaosSchedule(partitions=(window,))
                            .dropped(0, 1, 0.5, ordinal)
                            for ordinal in range(64)]

    def test_empty_schedule_answers_healthy(self):
        sched = ChaosSchedule()
        assert not sched.dead(0, 0.0)
        assert sched.next_death_after(0, 0.0) is None
        assert sched.slowdown(0, 0.0) == 1.0
        assert not sched.dropped(0, 1, 0.0, 0)


class TestElementsRoundTrip:
    def test_with_all_elements_rebuilds_an_equal_schedule(self):
        sched = composed()
        assert sched.with_elements(sched.elements()) == sched

    def test_flaky_partitions_round_trip_with_the_shared_seed(self):
        flaky = (PartitionWindow((1,), 0.0, 1.0, drop_fraction=0.5),
                 PartitionWindow((2, 3), 0.2, 0.4, drop_fraction=0.25))
        sched = dataclasses.replace(composed(), partitions=flaky, seed=13)
        rebuilt = sched.with_elements(sched.elements())
        assert rebuilt == sched
        sub = sched.with_elements(
            [e for e in sched.elements() if e[0] == "partition"])
        assert sub.seed == 13
        # Same seed, same surviving windows: the same messages drop.
        assert ([sub.dropped(0, 1, 0.1, n) for n in range(64)]
                == [sched.dropped(0, 1, 0.1, n) for n in range(64)])

    def test_subset_keeps_payloads_and_seeds(self):
        sched = dataclasses.replace(composed(), seed=4)
        sub = sched.with_elements(sched.elements()[:2])
        assert sub.kills == sched.kills
        assert sub.partitions == sched.partitions
        assert not sub.grays and not sub.device_faults
        assert sub.crash is None
        assert sub.seed == sched.seed == 4

    def test_unknown_element_tag_is_rejected(self):
        with pytest.raises(WorkloadError):
            ChaosSchedule().with_elements([("meteor", None)])


class TestSeeded:
    def test_same_seed_same_schedule(self):
        a = ChaosSchedule.seeded(4, 1.0, seed=9, crash=True)
        b = ChaosSchedule.seeded(4, 1.0, seed=9, crash=True)
        assert a == b
        assert not a.empty
        assert a.crash is not None

    def test_different_seeds_differ(self):
        assert (ChaosSchedule.seeded(8, 1.0, seed=1)
                != ChaosSchedule.seeded(8, 1.0, seed=2))

    def test_plane_counts_follow_the_knobs(self):
        sched = ChaosSchedule.seeded(6, 1.0, seed=3, kills=2,
                                     partitions=1, grays=2,
                                     device_nodes=2)
        assert len(sched.kills) == 2
        assert len(sched.partitions) == 1
        assert len(sched.grays) == 2
        assert len(sched.device_faults) == 4     # spike + error per node
        assert sched.crash is None

    def test_bad_parameters_are_rejected(self):
        with pytest.raises(WorkloadError):
            ChaosSchedule.seeded(0, 1.0)
        with pytest.raises(WorkloadError):
            ChaosSchedule.seeded(4, 0.0)
        with pytest.raises(WorkloadError):
            ChaosSchedule.seeded(4, 1.0, outage_s=0.0)

    @pytest.mark.parametrize("count", ["kills", "partitions", "grays",
                                       "device_nodes"])
    def test_negative_counts_are_rejected(self, count):
        # Regression: only kills=-1 raised; the other planes silently
        # came back empty.
        with pytest.raises(WorkloadError):
            ChaosSchedule.seeded(4, 1.0, **{count: -1})

    def test_zero_counts_leave_the_plane_empty(self):
        sched = ChaosSchedule.seeded(4, 1.0, kills=0, partitions=0,
                                     grays=0, device_nodes=0)
        assert sched.empty

    def test_planes_draw_independently_of_each_other(self):
        # Lanes are per plane: switching the others off moves nothing.
        full = ChaosSchedule.seeded(6, 1.0, seed=3, kills=2)
        only = ChaosSchedule.seeded(6, 1.0, seed=3, kills=2,
                                    partitions=0, grays=0,
                                    device_nodes=0)
        assert only.kills == full.kills

    def test_seeded_draws_match_the_golden_digest(self):
        # sha256 over describe() of a pinned grid, captured at the
        # commit *before* the flat-schedule refactor (PR 14): a shifted
        # lane, span formula or draw order changes every seeded study.
        grid = [
            dict(n_nodes=4, duration_s=1.0, seed=0),
            dict(n_nodes=4, duration_s=1.0, seed=7),
            dict(n_nodes=6, duration_s=0.5, seed=3, kills=2,
                 outage_s=0.1, partitions=2, grays=2, gray_slowdown=4.0,
                 device_nodes=2, crash=True),
            dict(n_nodes=3, duration_s=2.0, seed=11, kills=0,
                 partitions=3, grays=0, device_nodes=0),
            # outage > duration: kills clamp their span to 0, the other
            # planes to 1e-9.
            dict(n_nodes=5, duration_s=0.04, seed=2 ** 40 + 5, kills=3,
                 outage_s=0.05, partitions=1, grays=1, device_nodes=3),
            dict(n_nodes=1, duration_s=0.25, seed=99, kills=1,
                 outage_s=0.3, partitions=0, grays=2, device_nodes=1),
        ]
        digest = hashlib.sha256()
        for cell in grid:
            cell = dict(cell)
            sched = ChaosSchedule.seeded(cell.pop("n_nodes"),
                                         cell.pop("duration_s"), **cell)
            digest.update(json.dumps(sched.describe(),
                                     sort_keys=True).encode())
        assert digest.hexdigest() == (
            "22070e5ef2fbeef034725f01a26e41bb"
            "673b6280a8bade1466d1466524fb4a53")

    def test_describe_is_plain_data(self):
        desc = composed().describe()
        assert desc["kills"][0]["node"] == 0
        assert desc["crash"]["point"] == "save.manifest.write"
        assert len(desc["device_faults"]) == 2
