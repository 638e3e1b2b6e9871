"""Unit tests for the simulated SSD service model."""

import pytest

from repro.errors import StorageError
from repro.simkernel import Environment
from repro.storage import (BlockTracer, KiB, SimSSD, samsung_990pro_4tb,
                           samsung_sata_1tb)


@pytest.fixture
def nvme():
    env = Environment()
    return env, SimSSD(env, samsung_990pro_4tb(), BlockTracer())


def run_read(env, device, offset, size):
    done = {}

    def proc(env):
        yield device.read(offset, size)
        done["at"] = env.now

    env.process(proc(env))
    env.run()
    return done["at"]


def test_single_4k_read_latency_is_tens_of_microseconds(nvme):
    env, device = nvme
    latency = run_read(env, device, 0, 4 * KiB)
    # Channel occupancy (12.3 us) + media access (50 us).
    assert 40e-6 < latency < 100e-6


def test_larger_reads_take_longer(nvme):
    env, device = nvme
    spec = device.spec
    assert spec.read_occupancy(128 * KiB) > spec.read_occupancy(4 * KiB)


def test_beam_of_parallel_reads_costs_about_one_read(nvme):
    """The DiskANN beam-search premise: a small beam of 4 KiB reads has
    roughly the latency of a single read (paper Section II-B)."""
    env, device = nvme
    done = {}

    def proc(env):
        yield device.read_many([(i * 4096, 4096) for i in range(4)])
        done["at"] = env.now

    env.process(proc(env))
    env.run()
    single_env = Environment()
    single_dev = SimSSD(single_env, samsung_990pro_4tb())
    single = run_read(single_env, single_dev, 0, 4 * KiB)
    assert done["at"] < 2 * single


def test_reads_beyond_capacity_raise(nvme):
    env, device = nvme
    with pytest.raises(StorageError):
        device.read(device.spec.capacity_bytes - 1024, 4096)
    env.run()


def test_bad_request_geometry_raises(nvme):
    env, device = nvme
    with pytest.raises(StorageError):
        device.read(-1, 4096)
    with pytest.raises(StorageError):
        device.read(0, 0)


def test_unknown_op_raises_even_without_requests(nvme):
    """An empty batch used to return its zero timeout before the op was
    looked at."""
    env, device = nvme
    with pytest.raises(StorageError, match="unknown op"):
        device.submit([], "X")
    with pytest.raises(StorageError, match="unknown op"):
        device.submit([(0, 4096)], "X")
    assert env.events_processed == 0 and not device.tracer.records


def test_oversized_request_rejected(nvme):
    env, device = nvme
    with pytest.raises(StorageError):
        device.read(0, device.spec.max_request_bytes + 4096)


def test_tracer_records_each_issue(nvme):
    env, device = nvme

    def proc(env):
        yield device.read(0, 4096)
        yield device.write(8192, 4096)

    env.process(proc(env))
    env.run()
    records = device.tracer.records
    assert [(r.op, r.offset, r.size) for r in records] == [
        ("R", 0, 4096), ("W", 8192, 4096)]
    assert records[0].timestamp == 0.0


def test_counters_accumulate(nvme):
    env, device = nvme

    def proc(env):
        yield device.read_many([(0, 4096), (4096, 4096)])

    env.process(proc(env))
    env.run()
    assert device.reads_issued == 2
    assert device.bytes_read == 8192
    assert device.writes_issued == 0


def test_channel_contention_extends_latency():
    """More concurrent reads than channels must queue."""
    env = Environment()
    device = SimSSD(env, samsung_990pro_4tb())
    completions = []

    def proc(env, i):
        yield device.read(i * 4096, 4096)
        completions.append(env.now)

    for i in range(64):  # 4x the channel count
        env.process(proc(env, i))
    env.run()
    spread = max(completions) - min(completions)
    assert spread > device.spec.read_occupancy(4096)


def test_sata_is_slower_than_nvme():
    nvme_env = Environment()
    nvme_dev = SimSSD(nvme_env, samsung_990pro_4tb())
    sata_env = Environment()
    sata_dev = SimSSD(sata_env, samsung_sata_1tb())
    nvme_lat = run_read(nvme_env, nvme_dev, 0, 4096)
    sata_lat = run_read(sata_env, sata_dev, 0, 4096)
    assert sata_lat > 1.5 * nvme_lat


def test_device_utilization_bounded():
    env = Environment()
    device = SimSSD(env, samsung_990pro_4tb())

    def proc(env):
        yield device.read(0, 4096)

    env.process(proc(env))
    env.run(until=1.0)
    assert 0.0 < device.utilization(1.0) < 0.001
