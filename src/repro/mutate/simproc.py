"""Mutation traffic on the simulated hardware: WAL writes + compaction.

The functional layer (:mod:`repro.mutate.compactor`,
:meth:`~repro.engines.engine.Collection.compact`) answers *what* a
merged search returns; this module answers *when* — it replays the I/O
and CPU of a sustained insert/delete stream and of threshold-triggered
background compactions on the same simulated SSD and core pool that
serve queries, so write interference and the compaction window show up
in query latencies, spans, and device counters.

Three simulated processes per serving run:

* an **ingest** process appends insert batches to a circular WAL
  region (record-framed rows, ``device.submit(..., "W")`` plus
  submission CPU), growing the delta accounted by
  :class:`MutationState`;
* a **delete** process appends tombstone records the same way (tiny
  frames — a delete never touches the snapshot);
* when the :class:`~repro.mutate.policy.CompactionPolicy` threshold is
  crossed, a **compaction** process reads the whole base snapshot plus
  the delta, spends rebuild CPU, writes the merged snapshot, and
  commits it with a manifest write — all interleaved in bounded rounds
  so queries contend with it for channels and cores throughout the
  window.  Each compaction records a span whose ``compact`` stage
  makes the interference window visible in telemetry.

Determinism: every process is a pure function of the
:class:`MutationLoad`, the collection's initial footprint, and the
simulated clock — same seed, same compaction times, same numbers.
Telemetry stays passive: recording spans and counters never changes
the schedule.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import WorkloadError
from repro.mutate.policy import CompactionPolicy

if t.TYPE_CHECKING:
    from repro.obs import RunTelemetry
    from repro.workload.runner import BenchRunner, QueryReplayer

#: Serialized size of one tombstone WAL record (frame + row id).
TOMBSTONE_BYTES = 32

#: Device requests per compaction round; bounds how long compaction
#: may monopolize the channels before queries get a turn.
COMPACTION_ROUND_REQUESTS = 8

#: Size of the manifest-swap write that commits a new snapshot.
MANIFEST_BYTES = 4096


#: Serialized bytes per inserted row (vector + frame + payload) in WAL
#: flushes and in a compaction's delta read.  A constant, not a knob:
#: WAL volume is then a function of the insert rate alone.
ROW_BYTES = 512


@dataclasses.dataclass(frozen=True)
class MutationLoad:
    """A sustained insert/delete stream riding alongside queries.

    Inserts arrive at ``insert_qps`` rows/s and are flushed to the WAL
    in batches of ``batch_rows`` rows of :data:`ROW_BYTES` each; deletes
    arrive at ``delete_qps`` rows/s as tombstone records.  When the
    accumulated delta crosses ``policy``'s thresholds, a background
    compaction merges it into a new snapshot.

    >>> load = MutationLoad(insert_qps=10_000, batch_rows=50)
    >>> load.flush_interval_s
    0.005
    >>> load.flush_bytes
    25600
    >>> MutationLoad(insert_qps=-1)
    Traceback (most recent call last):
        ...
    repro.errors.WorkloadError: insert_qps must be >= 0: -1
    """

    #: Mean sustained insert rate, rows per simulated second.
    insert_qps: float = 20_000.0
    #: Mean sustained delete rate, rows per simulated second.
    delete_qps: float = 2_000.0
    #: Rows per WAL flush (one batched device write).
    batch_rows: int = 64
    #: Compaction trigger thresholds over the accumulated delta.
    policy: CompactionPolicy = CompactionPolicy()
    #: Index-rebuild CPU per surviving row during compaction.
    rebuild_cpu_per_row_s: float = 5e-6
    #: New-snapshot bytes per merged live byte (>1 models index
    #: construction overhead beyond the raw vectors).
    write_amplification: float = 1.0

    def __post_init__(self) -> None:
        if self.insert_qps < 0:
            raise WorkloadError(
                f"insert_qps must be >= 0: {self.insert_qps}")
        if self.delete_qps < 0:
            raise WorkloadError(
                f"delete_qps must be >= 0: {self.delete_qps}")
        if self.batch_rows < 1:
            raise WorkloadError(f"bad mutation batch shape: {self}")
        if self.rebuild_cpu_per_row_s < 0 or self.write_amplification <= 0:
            raise WorkloadError(f"bad compaction cost model: {self}")

    @property
    def flush_interval_s(self) -> float:
        """Seconds between WAL flushes at the configured insert rate."""
        return self.batch_rows / self.insert_qps

    @property
    def flush_bytes(self) -> int:
        """WAL bytes per insert flush."""
        return self.batch_rows * ROW_BYTES


@dataclasses.dataclass(frozen=True)
class MutationStats:
    """Immutable roll-up of one run's mutation traffic.

    Attached to :class:`~repro.serve.ServeResult` as ``mutation`` when
    the serving config carried a :class:`MutationLoad`.
    """

    inserted_rows: int
    deleted_rows: int
    wal_flushes: int
    wal_bytes: int
    compactions: int
    #: ``(start_s, end_s)`` of each compaction on the run's timeline.
    compaction_windows: tuple[tuple[float, float], ...]
    compaction_read_bytes: int
    compaction_write_bytes: int

    def in_window(self, start_s: float, end_s: float) -> bool:
        """Does ``[start_s, end_s]`` overlap any compaction window?"""
        return any(start_s <= w_end and end_s >= w_start
                   for w_start, w_end in self.compaction_windows)


@dataclasses.dataclass
class MutationState:
    """Live accounting of the mutation processes during one run.

    ``delta_rows``/``tombstones`` are the policy inputs — they reset
    when a compaction folds the delta into the base; the ``*_rows``
    totals and the compaction aggregates only grow.
    """

    base_rows: int
    base_bytes: int
    inserted_rows: int = 0
    deleted_rows: int = 0
    wal_flushes: int = 0
    wal_bytes: int = 0
    delta_rows: int = 0
    tombstones: int = 0
    compacting: bool = False
    compaction_windows: list[tuple[float, float]] = dataclasses.field(
        default_factory=list)
    compaction_read_bytes: int = 0
    compaction_write_bytes: int = 0

    @property
    def total_rows(self) -> int:
        """Rows the policy sees: base plus unsealed delta."""
        return self.base_rows + self.delta_rows

    def stats(self) -> MutationStats:
        """Freeze the current accounting into a result-ready record."""
        return MutationStats(
            inserted_rows=self.inserted_rows,
            deleted_rows=self.deleted_rows,
            wal_flushes=self.wal_flushes,
            wal_bytes=self.wal_bytes,
            compactions=len(self.compaction_windows),
            compaction_windows=tuple(self.compaction_windows),
            compaction_read_bytes=self.compaction_read_bytes,
            compaction_write_bytes=self.compaction_write_bytes)


def snapshot_bytes(collection: t.Any) -> int:
    """The sealed footprint of *collection*: vectors + index files."""
    return sum(segment.vectors.nbytes + segment.index.disk_bytes()
               for segment in collection.segments)


def start_mutation_load(host: "QueryReplayer", runner: "BenchRunner",
                        load: MutationLoad, duration_s: float,
                        telemetry: "RunTelemetry | None" = None,
                        ) -> MutationState:
    """Spawn the mutation processes on one simulated *host*.

    Returns the live :class:`MutationState`; it is complete once
    ``host.env.run()`` has drained.  The processes share the host's
    device and core pool with whatever query processes the caller
    spawns — that contention is the point.
    """
    env, device, cores = host.env, host.device, host.cores
    spec = runner.device_spec
    state = MutationState(base_rows=runner.collection.total_rows,
                          base_bytes=snapshot_bytes(runner.collection))
    cap = spec.max_request_bytes
    manifest_base = runner._allocator.allocate(MANIFEST_BYTES)

    def chunked(base: int, position: int, size: int, region: int,
                ) -> tuple[list[tuple[int, int]], int]:
        """Split *size* bytes at *position* into circular-log requests."""
        requests = []
        while size > 0:
            step = min(size, cap)
            if position + step > region:
                position = 0
            requests.append((base + position, step))
            position += step
            size -= step
        return requests, position

    def maybe_compact() -> None:
        if state.compacting:
            return
        if load.policy.should_compact(state.delta_rows, state.tombstones,
                                      state.total_rows):
            state.compacting = True
            env.process(compaction())

    def ingest():
        log_size = 256 * load.flush_bytes
        base = runner._allocator.allocate(log_size)
        position = 0
        while env.now < duration_s:
            yield env.timeout(load.flush_interval_s)
            requests, position = chunked(base, position, load.flush_bytes,
                                         log_size)
            yield cores.hold(len(requests) * spec.cpu_per_request_s)
            yield device.submit(requests, "W")
            state.inserted_rows += load.batch_rows
            state.delta_rows += load.batch_rows
            state.wal_flushes += 1
            state.wal_bytes += load.flush_bytes
            if telemetry is not None:
                telemetry.on_event("mutate", "insert_rows", load.batch_rows)
                telemetry.on_event("mutate", "wal_flushes")
                telemetry.on_event("mutate", "wal_bytes", load.flush_bytes)
            maybe_compact()

    def deleter():
        flush_bytes = load.batch_rows * TOMBSTONE_BYTES
        log_size = 256 * flush_bytes
        base = runner._allocator.allocate(log_size)
        position = 0
        interval = load.batch_rows / load.delete_qps
        while env.now < duration_s:
            yield env.timeout(interval)
            requests, position = chunked(base, position, flush_bytes,
                                         log_size)
            yield cores.hold(len(requests) * spec.cpu_per_request_s)
            yield device.submit(requests, "W")
            state.deleted_rows += load.batch_rows
            state.tombstones += load.batch_rows
            state.wal_flushes += 1
            state.wal_bytes += flush_bytes
            if telemetry is not None:
                telemetry.on_event("mutate", "delete_rows", load.batch_rows)
                telemetry.on_event("mutate", "wal_flushes")
                telemetry.on_event("mutate", "wal_bytes", flush_bytes)
            maybe_compact()

    def compaction():
        start = env.now
        span = (telemetry.begin_compaction(len(state.compaction_windows),
                                           start)
                if telemetry is not None else None)
        delta_rows, tombstones = state.delta_rows, state.tombstones
        total = max(state.total_rows, 1)
        live_fraction = max(0.0, 1.0 - tombstones / total)
        read_bytes = state.base_bytes + delta_rows * ROW_BYTES
        write_bytes = max(
            int(read_bytes * live_fraction * load.write_amplification),
            cap)
        rows_kept = int(total * live_fraction)
        cpu_total = rows_kept * load.rebuild_cpu_per_row_s
        new_base = runner._allocator.allocate(write_bytes)
        read_pos = written = 0
        round_bytes = COMPACTION_ROUND_REQUESTS * cap
        # Read / rebuild / write in bounded rounds: each round holds the
        # channels for at most COMPACTION_ROUND_REQUESTS requests per
        # direction, so concurrent queries interleave with the merge
        # instead of stalling behind one monolithic batch.
        while read_pos < read_bytes:
            step = min(round_bytes, read_bytes - read_pos)
            reads, _ = chunked(0, read_pos % state.base_bytes
                               if state.base_bytes else 0, step,
                               max(state.base_bytes, step))
            before = env.now
            yield device.submit(reads, "R")
            if span is not None:
                span.add_stage("device", env.now - before)
                span.read_bytes += step
                span.read_requests += len(reads)
            cpu = cpu_total * step / read_bytes
            before = env.now
            yield cores.hold(cpu)
            if span is not None:
                span.add_stage("cpu", cpu)
                span.add_stage("cpu_wait",
                               max(env.now - before - cpu, 0.0))
            read_pos += step
            target = int(write_bytes * read_pos / read_bytes)
            if target > written:
                writes, _ = chunked(new_base, written, target - written,
                                    write_bytes)
                before = env.now
                yield device.submit(writes, "W")
                if span is not None:
                    span.add_stage("device", env.now - before)
            written = target
        # The commit point: one manifest write swaps the snapshot.
        yield device.submit([(manifest_base, MANIFEST_BYTES)], "W")
        end = env.now
        state.compaction_windows.append((start, end))
        state.compaction_read_bytes += read_bytes
        state.compaction_write_bytes += write_bytes + MANIFEST_BYTES
        state.base_rows = rows_kept
        state.base_bytes = write_bytes
        state.delta_rows -= delta_rows
        state.tombstones -= tombstones
        state.compacting = False
        if telemetry is not None:
            telemetry.on_event("mutate", "compactions")
            telemetry.on_event("mutate", "compaction_read_bytes", read_bytes)
            telemetry.on_event("mutate", "compaction_write_bytes",
                               write_bytes + MANIFEST_BYTES)
            telemetry.end_compaction(span, end)
        maybe_compact()

    if load.insert_qps > 0:
        env.process(ingest())
    if load.delete_qps > 0:
        env.process(deleter())
    return state
