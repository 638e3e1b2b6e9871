"""Device specifications for the simulated storage devices.

The NVMe model is calibrated against the raw fio numbers the paper
reports for its Samsung 990 Pro 4 TiB (Section III-A):

* 324.3 KIOPS random 4 KiB reads on a single CPU core
  -> per-request CPU submission+completion cost of ~3.08 us;
* 1.3 MIOPS random 4 KiB reads at 64-deep concurrency
  -> 16 internal channels x 12.3 us channel occupancy per 4 KiB read;
* 7.2 GiB/s sequential 128 KiB reads
  -> ~0.45 GiB/s per-channel streaming bandwidth.

A request's latency is: queue wait + channel occupancy + access latency,
where the access latency models the NAND read itself and is pipelined
(it does not occupy the channel), so high queue depths reach the IOPS
ceiling while a queue-depth-1 reader sees ~65 us per 4 KiB read —
matching "tens of microseconds" NVMe latencies.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import StorageError

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
PAGE_SIZE = 4 * KiB


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Timing and capacity parameters of a simulated block device."""

    name: str
    capacity_bytes: int
    channels: int
    #: Minimum channel occupancy of one read, seconds (small-read cost).
    read_seek_s: float
    #: Per-channel streaming read bandwidth, bytes/second.
    channel_read_bw: float
    #: Pipelined media read latency, seconds (added after the channel).
    read_access_s: float
    #: Minimum channel occupancy of one write, seconds.
    write_seek_s: float
    #: Per-channel streaming write bandwidth, bytes/second.
    channel_write_bw: float
    #: Pipelined program latency for writes, seconds.
    write_access_s: float
    #: Host CPU time to submit+complete one request, seconds.
    cpu_per_request_s: float
    #: Largest single request the block layer will issue, bytes.
    max_request_bytes: int = 128 * KiB

    def __post_init__(self) -> None:
        # ``not >`` rather than ``<=``: NaN fails every comparison, and a
        # NaN latency would silently read as zero (``max(now, nan)``).
        positive = (self.capacity_bytes, self.channels,
                    self.read_seek_s, self.channel_read_bw,
                    self.write_seek_s, self.channel_write_bw,
                    self.cpu_per_request_s)
        non_negative = (self.read_access_s, self.write_access_s)
        if (not all(0 < value < math.inf for value in positive)
                or not all(0 <= value < math.inf for value in non_negative)
                or not self.max_request_bytes >= 1):
            raise StorageError(f"invalid device spec: {self}")

    def read_occupancy(self, size: int) -> float:
        """Channel-seconds consumed by a read of *size* bytes."""
        self._check_size(size)
        return max(self.read_seek_s, size / self.channel_read_bw)

    def write_occupancy(self, size: int) -> float:
        """Channel-seconds consumed by a write of *size* bytes."""
        self._check_size(size)
        return max(self.write_seek_s, size / self.channel_write_bw)

    def _check_size(self, size: int) -> None:
        if size <= 0:
            raise StorageError(f"non-positive request size: {size}")
        if size > self.max_request_bytes:
            raise StorageError(
                f"request of {size} B exceeds the {self.max_request_bytes} B "
                f"block-layer limit; split it before submission")

    # -- derived ceilings used in tests and docs -------------------------

    def max_read_iops(self, size: int = PAGE_SIZE) -> float:
        """Device-side random-read IOPS ceiling for *size*-byte requests."""
        return self.channels / self.read_occupancy(size)

    def max_read_bandwidth(self) -> float:
        """Streaming read bandwidth ceiling, bytes/second."""
        return self.channels * self.channel_read_bw


def samsung_990pro_4tb() -> DeviceSpec:
    """The paper's dedicated data SSD (Table I, Section III-A)."""
    return DeviceSpec(
        name="samsung-990pro-4tb",
        capacity_bytes=4 * 1024 * GiB,
        channels=16,
        read_seek_s=12.3e-6,        # 16 ch / 12.3 us = 1.30 MIOPS @ 4 KiB
        channel_read_bw=0.45 * GiB,  # 16 ch x 0.45 GiB/s = 7.2 GiB/s
        read_access_s=50e-6,
        write_seek_s=16.0e-6,
        channel_write_bw=0.42 * GiB,
        write_access_s=20e-6,
        cpu_per_request_s=3.083e-6,  # 1 core / 3.083 us = 324.4 KIOPS
    )


def samsung_sata_1tb() -> DeviceSpec:
    """A SATA-class device (the paper's OS disk); used for ablations."""
    return DeviceSpec(
        name="samsung-sata-1tb",
        capacity_bytes=1024 * GiB,
        channels=4,
        read_seek_s=42e-6,           # ~95 KIOPS @ 4 KiB
        channel_read_bw=137 * MiB,   # ~550 MB/s total
        read_access_s=90e-6,
        write_seek_s=60e-6,
        channel_write_bw=128 * MiB,
        write_access_s=40e-6,
        cpu_per_request_s=3.083e-6,
    )
