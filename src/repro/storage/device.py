"""A discrete-event-simulated NVMe/SATA block device.

The device models *timing only*: payload bytes never move through it.
Index structures keep their data in memory (they are real Python
objects); what the device reproduces is the latency, queueing, and
bandwidth consequences of the request streams those structures issue —
which is exactly what the paper characterizes.

Service model (see :mod:`repro.storage.spec` for calibration): the
device has N internal channels, each a FCFS server.  A submitted request
is placed on the earliest-free channel, occupies it for a size-dependent
transfer time, and completes after an additional pipelined media-access
latency.  Channel state is a heap of free-at times, so a batch of
requests costs O(len * log channels) and a single simulation event —
the queueing behaviour of a resource pool without its event overhead.

Every issued request is reported to the attached
:class:`~repro.storage.tracer.BlockTracer` at submission time, like the
kernel's ``block_rq_issue`` tracepoint.
"""

from __future__ import annotations

import typing as t
from heapq import heapify, heapreplace

from repro.errors import StorageError, require_int
from repro.simkernel import Environment, Event, Timeout
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
        latency.  An injector with no windows never returns effects,
        leaving timing bit-identical to running without one.
        """
        self.env = env
        self.spec = spec
        self.tracer = tracer if tracer is not None else BlockTracer(False)
        self.telemetry = telemetry
        self.injector = injector
        self._channel_free = [0.0] * spec.channels
        heapify(self._channel_free)
        self._occupancy_integral = 0.0
        #: Channel occupancy by request size, per op; filled on first use
        #: through ``DeviceSpec.read_occupancy`` / ``write_occupancy``.
        self._occupancy: dict[str, dict[int, float]] = {"R": {}, "W": {}}
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

        Every request is validated before any device state changes.
        """
        if op not in ("R", "W"):
            raise StorageError(f"unknown op {op!r}")
        env, spec = self.env, self.spec
        cap, end = spec.max_request_bytes, spec.capacity_bytes
        total = 0
        try:
            for offset, size in requests:
                # NaN-safe: every comparison must come out true.
                if (type(offset) is not int or type(size) is not int
                        or not (offset >= 0 and 0 < size <= cap
                                and offset + size <= end)):
                    self._validate(offset, size)
                total += size
            count = len(requests)
        except (TypeError, ValueError) as exc:
            raise StorageError(
                "requests must be a sequence of (offset, size) integer "
                f"pairs: {requests!r}") from exc
        if not count:
            return Timeout(env, 0.0)
        now = env._now
        if op == "R":
            occupancy_of = spec.read_occupancy
            access = spec.read_access_s
            inject = (self.injector.on_read if self.injector is not None
                      else None)
            self.reads_issued += count
            self.bytes_read += total
        else:
            occupancy_of = spec.write_occupancy
            access = spec.write_access_s
            inject = None
            self.writes_issued += count
            self.bytes_written += total
        if self.telemetry is not None:
            self.telemetry.on_device_submit(op, requests,
                                            speculative=speculative)
        record = self.tracer.record if self.tracer.enabled else None
        occupancies = self._occupancy[op]
        channels = self._channel_free
        integral = self._occupancy_integral
        batch_done = now
        for offset, size in requests:
            occupancy = occupancies.get(size)
            if occupancy is None:
                occupancy = occupancies[size] = occupancy_of(size)
            extra = 0.0
            fault_kind = None
            if inject is not None:
                effect = inject(now, offset, size)
                if effect is not None:
                    occupancy *= effect.occupancy_multiplier
                    extra = effect.extra_s
                    fault_kind = effect.kind
            if record is not None:
                record(now, op, offset, size, fault_kind)
            # The earliest-free channel takes the request: pop + push of
            # the old loop, the same multiset of free-at times.
            free_at = channels[0]
            done = (free_at if free_at > now else now) + occupancy
            heapreplace(channels, done)
            integral += occupancy
            landed = done + access + extra
            if landed > batch_done:
                batch_done = landed
        self._occupancy_integral = integral
        return Timeout(env, batch_done - now)

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
        # Returned as ``int``: fixed-width numpy integers wrap (or
        # raise) in ``offset + size``.
        offset = require_int(StorageError, "request offset", offset, 0)
        size = require_int(StorageError, "request size", size, 1)
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
        if not duration > 0:                  # also rejects NaN
            raise StorageError(f"non-positive duration: {duration}")
        return self._occupancy_integral / (self.spec.channels * duration)
