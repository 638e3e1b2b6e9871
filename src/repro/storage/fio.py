"""A fio-like microbenchmark for the simulated device.

The paper measures the raw envelope of its SSD with fio before touching
any vector database (Section III-A).  This module reproduces that
measurement against :class:`~repro.storage.device.SimSSD`, and the
calibration tests assert the three headline numbers: 324.3 KIOPS on one
core, 1.3 MIOPS at 64-deep concurrency, and 7.2 GiB/s sequential.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.errors import WorkloadError, require_int, require_real
from repro.simkernel import Environment, Resource
from repro.storage.device import SimSSD
from repro.storage.spec import DeviceSpec, PAGE_SIZE


@dataclasses.dataclass(frozen=True)
class FioJobSpec:
    """Parameters of one fio run (all jobs share these)."""

    pattern: str = "randread"       # randread | seqread | randwrite
    block_size: int = PAGE_SIZE
    numjobs: int = 1
    iodepth: int = 1
    runtime_s: float = 1.0
    cpu_cores: int = 1
    #: Region of the device exercised, bytes (keeps offsets bounded).
    span_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if self.pattern not in ("randread", "seqread", "randwrite"):
            raise WorkloadError(f"unknown fio pattern: {self.pattern}")
        for name in ("block_size", "numjobs", "iodepth", "cpu_cores"):
            require_int(WorkloadError, f"fio {name}", getattr(self, name), 1)
        require_real(WorkloadError, "fio runtime_s", self.runtime_s, above=0)
        require_int(WorkloadError, "fio span_bytes", self.span_bytes,
                    self.block_size)


@dataclasses.dataclass(frozen=True)
class FioResult:
    """Aggregate metrics of one fio run."""

    completed: int
    iops: float
    bandwidth_bytes: float
    mean_latency_s: float
    p99_latency_s: float


def _offsets(job: FioJobSpec, job_index: int,
             rng: np.random.Generator) -> t.Iterator[int]:
    """Yield request offsets for one job."""
    bs = job.block_size
    slots = max(1, job.span_bytes // bs)
    if job.pattern == "seqread":
        base = job_index * slots // job.numjobs
        position = 0
        while True:
            yield ((base + position) % slots) * bs
            position += 1
    else:
        while True:
            yield int(rng.integers(0, slots)) * bs


def run_fio(spec: DeviceSpec, job: FioJobSpec, seed: int = 0) -> FioResult:
    """Execute a fio job set against a fresh simulated device."""
    env = Environment()
    device = SimSSD(env, spec)
    cpu = Resource(env, job.cpu_cores)
    latencies: list[float] = []
    is_write = job.pattern == "randwrite"

    def one_io(offset: int, depth: Resource):
        start = env.now
        if is_write:
            yield device.write(offset, job.block_size)
        else:
            yield device.read(offset, job.block_size)
        latencies.append(env.now - start)
        depth.release()

    def job_proc(job_index: int):
        rng = np.random.default_rng(seed + job_index)
        offsets = _offsets(job, job_index, rng)
        depth = Resource(env, job.iodepth)
        while env.now < job.runtime_s:
            yield depth.request()
            # Submission + completion handling burns host CPU; this is
            # what caps a single core at ~324 KIOPS.
            yield cpu.hold(spec.cpu_per_request_s)
            env.process(one_io(next(offsets), depth))

    for job_index in range(job.numjobs):
        env.process(job_proc(job_index))
    env.run(until=job.runtime_s)

    if not latencies:
        raise WorkloadError("fio run completed no I/O; runtime too short?")
    lat = np.asarray(latencies)
    completed = len(latencies)
    return FioResult(
        completed=completed,
        iops=completed / job.runtime_s,
        bandwidth_bytes=completed * job.block_size / job.runtime_s,
        mean_latency_s=float(lat.mean()),
        p99_latency_s=float(np.percentile(lat, 99)),
    )
