"""The seed's :class:`SimSSD`, kept verbatim as the identity oracle.

The class below is ``repro.storage.device.SimSSD`` as it stood before
the lean ``submit``: one ``_validate`` call per request, two
``sum(size for ...)`` generators, a ``DeviceSpec`` method call, an
injector test and a ``tracer.record`` call per request, and
``heappop`` + ``heappush`` on the channel heap.
``tests/storage/test_submit_identity.py`` requires the shipped device to
return the same completion delays (``==`` on floats) and to leave the
same channel state, counters, trace records and telemetry behind;
``benchmarks/bench_kernels.py`` times the shipped ``submit`` against it.
Never imported by ``src/``.  Do not optimise this file.
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import StorageError
from repro.simkernel import Environment, Event
from repro.storage.spec import DeviceSpec
from repro.storage.tracer import BlockTracer


class SimSSD:
    """Simulated block device attached to a simulation environment."""

    def __init__(self, env: Environment, spec: DeviceSpec,
                 tracer: BlockTracer | None = None,
                 telemetry: t.Any = None,
                 injector: t.Any = None) -> None:
        """``telemetry`` is an optional
        :class:`~repro.obs.telemetry.RunTelemetry`; every submitted batch
        is reported to it (request-size histogram, byte counters).

        ``injector`` is an optional
        :class:`~repro.faults.injector.FaultInjector`: each *read*
        request is passed through it at submission, and any returned
        effect stretches that request's occupancy and/or completion
        latency.  An injector with an empty plan never returns effects,
        leaving timing bit-identical to running without one.
        """
        self.env = env
        self.spec = spec
        self.tracer = tracer if tracer is not None else BlockTracer(False)
        self.telemetry = telemetry
        self.injector = injector
        self._channel_free = [0.0] * spec.channels
        heapq.heapify(self._channel_free)
        self._occupancy_integral = 0.0
        self.reads_issued = 0
        self.writes_issued = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- public I/O interface ---------------------------------------------

    def submit(self, requests: t.Sequence[tuple[int, int]],
               op: str, speculative: bool = False) -> Event:
        """Submit a batch of requests; fires when the *whole* batch is in.

        This is the primitive behind DiskANN's beam search: a beam of
        node reads is issued together and the search continues when the
        entire beam has landed.

        *speculative* marks look-ahead prefetch reads.  They are timed
        and traced exactly like demand reads (the block layer does not
        know the difference), but telemetry attributes them separately
        so wasted-read overhead stays visible in run reports.
        """
        if op not in ("R", "W"):
            raise StorageError(f"unknown op {op!r}")
        if not requests:
            return self.env.timeout(0.0)
        for offset, size in requests:
            self._validate(offset, size)
        now = self.env.now
        if op == "R":
            occupancy_of = self.spec.read_occupancy
            access = self.spec.read_access_s
            self.reads_issued += len(requests)
            self.bytes_read += sum(size for _off, size in requests)
        else:
            occupancy_of = self.spec.write_occupancy
            access = self.spec.write_access_s
            self.writes_issued += len(requests)
            self.bytes_written += sum(size for _off, size in requests)
        if self.telemetry is not None:
            self.telemetry.on_device_submit(op, requests,
                                            speculative=speculative)
        batch_done = now
        for offset, size in requests:
            occupancy = occupancy_of(size)
            extra = 0.0
            fault_kind = None
            if self.injector is not None and op == "R":
                effect = self.injector.on_read(now, offset, size)
                if effect is not None:
                    occupancy *= effect.occupancy_multiplier
                    extra = effect.extra_s
                    fault_kind = effect.kind
            self.tracer.record(now, op, offset, size, fault=fault_kind)
            free_at = heapq.heappop(self._channel_free)
            done = max(now, free_at) + occupancy
            heapq.heappush(self._channel_free, done)
            self._occupancy_integral += occupancy
            batch_done = max(batch_done, done + access + extra)
        return self.env.timeout(batch_done - now)

    def read(self, offset: int, size: int) -> Event:
        """Submit one read; returns an event firing at completion."""
        return self.submit([(offset, size)], "R")

    def write(self, offset: int, size: int) -> Event:
        """Submit one write; returns an event firing at completion."""
        return self.submit([(offset, size)], "W")

    def read_many(self, requests: t.Sequence[tuple[int, int]]) -> Event:
        """Submit several reads in parallel; fires when all complete."""
        return self.submit(requests, "R")

    # -- validation and introspection ---------------------------------------

    def _validate(self, offset: int, size: int) -> None:
        if offset < 0 or size <= 0:
            raise StorageError(f"bad request: offset={offset} size={size}")
        if size > self.spec.max_request_bytes:
            raise StorageError(
                f"request of {size} B exceeds the block-layer limit of "
                f"{self.spec.max_request_bytes} B; split it first")
        if offset + size > self.spec.capacity_bytes:
            raise StorageError(
                f"request [{offset}, {offset + size}) beyond device end "
                f"{self.spec.capacity_bytes}")

    def utilization(self, duration: float) -> float:
        """Mean fraction of channels busy over *duration* seconds."""
        if duration <= 0:
            raise StorageError(f"non-positive duration: {duration}")
        return self._occupancy_integral / (self.spec.channels * duration)
