"""Host-clock spans around the program's public boundaries.

The benchmark, not the program, records the spans: :func:`install`
replaces public callables of ``repro`` with wrappers that open a span
on entry and close it on return, and :func:`uninstall` puts the
originals back, so untraced passes run the unmodified program.  Nothing
under ``src/`` is edited; tracing inside the program is a later change.

A span is ``(layer, start, end, parent)`` on ``time.perf_counter``.
A layer's *self time* is its spans' duration minus the part their child
spans cover, so self times over all layers plus the untraced remainder
sum to the traced wall time.  Generator boundaries (the replayers'
``query_proc``) are spanned per *resume*: the time between two resumes
belongs to the event loop that scheduled them, not to the generator.

Counts are taken at the same boundaries (requests per device submit,
events per ``Environment.run``, rows per insert, work profiles per
index search), so ratios are measured where the work happens.
"""

from __future__ import annotations

import array
import contextlib
import json
import time
import typing as t

#: Layer names, in pipeline order; the index is the span's layer id.
LAYERS = ("data", "ann.build", "ann.search", "engines", "mutate",
          "workload.compile", "workload.replay", "simkernel", "storage",
          "serve", "cluster", "tenancy", "durability", "obs")

_perf = time.perf_counter


class Tracer:
    """In-memory span store with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.layer = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self._child = array.array("d")     # time covered by child spans
        self._stack: list[int] = []
        self.self_s = [0.0] * len(LAYERS)
        self.total_s = [0.0] * len(LAYERS)  # outermost spans of a layer
        self.calls = [0] * len(LAYERS)
        self._depth = [0] * len(LAYERS)
        #: Boundary counters (see the wrappers in :func:`install`).
        self.counts: dict[str, float] = {}
        #: Self time of the span closed last (read by ``after`` hooks).
        self.last_self = 0.0
        #: Work profiles of outermost index searches, aggregated later.
        self.works: list[t.Any] = []
        #: Durations of outermost single-query index searches, seconds.
        self.search_s: list[float] = []
        self.on = False

    # -- span primitives ---------------------------------------------------

    def begin(self, layer: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.layer.append(layer)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self._child.append(0.0)
        stack.append(idx)
        self._depth[layer] += 1
        self.start.append(_perf())
        return idx

    def finish(self, idx: int) -> float:
        now = _perf()
        self.end[idx] = now
        self._stack.pop()
        layer = self.layer[idx]
        duration = now - self.start[idx]
        self.last_self = own = duration - self._child[idx]
        self.self_s[layer] += own
        self.calls[layer] += 1
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.total_s[layer] += duration
        parent = self.parent[idx]
        if parent >= 0:
            self._child[parent] += duration
        return duration

    @contextlib.contextmanager
    def span(self, layer: str) -> t.Iterator[None]:
        """Span a block the benchmark itself calls (no-op when off)."""
        if not self.on:
            yield
            return
        idx = self.begin(LAYERS.index(layer))
        try:
            yield
        finally:
            self.finish(idx)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, t.Any]:
        """Cumulative per-layer totals and counters, for differencing."""
        return {"self_s": list(self.self_s), "calls": list(self.calls),
                "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            for i in range(len(self.start)):
                out.write(json.dumps({
                    "id": i, "name": LAYERS[self.layer[i]],
                    "start": self.start[i] - origin,
                    "end": self.end[i] - origin,
                    "parent": self.parent[i]}) + "\n")


def delta(before: dict[str, t.Any], after: dict[str, t.Any],
          ) -> dict[str, t.Any]:
    """What happened between two :meth:`Tracer.snapshot` calls."""
    out: dict[str, t.Any] = {
        key: [b - a for a, b in zip(before[key], after[key])]
        for key in ("self_s", "calls")}
    out["counts"] = {name: value - before["counts"].get(name, 0)
                     for name, value in after["counts"].items()}
    return out


# -- wrapping ---------------------------------------------------------------

_Patch = tuple[t.Any, str, t.Any]       # (owner, attribute, original)


def _wrap(tracer: Tracer, layer: str, fn: t.Callable,
          after: t.Callable | None = None) -> t.Callable:
    """*fn* inside a span; ``after(duration, result, args)`` runs once
    the span is closed, so its cost lands in the caller's self time."""
    lid = LAYERS.index(layer)
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        idx = begin(lid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            finish(idx)
            raise
        duration = finish(idx)
        if after is not None:
            after(duration, result, args)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_resumes(tracer: Tracer, layer: str, fn: t.Callable) -> t.Callable:
    """A generator function whose every resume is one span."""
    lid = LAYERS.index(layer)
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        send = fn(*args, **kwargs).send
        value = None
        while True:
            idx = begin(lid)
            try:
                item = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                finish(idx)
            value = yield item

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> list[_Patch]:
    """Wrap the public boundaries; returns the patches for
    :func:`uninstall`."""
    import repro.cluster as cluster_pkg
    import repro.cluster.cluster as cluster_mod
    import repro.cluster.runner as cluster_runner
    import repro.engines.engine as engine_mod
    import repro.tenancy as tenancy_pkg
    import repro.tenancy.autopilot as autopilot_mod
    from repro.ann.base import VectorIndex
    from repro.engines.mmap import MmapHNSWIndex  # noqa: F401 (subclass)
    from repro.engines.segments import GrowingBuffer
    from repro.obs import RunTelemetry
    from repro.serve import arrivals as arrivals_mod
    from repro.serve.queueing import AdmissionQueue
    from repro.serve.server import Server
    from repro.simkernel import Environment
    from repro.storage.device import SimSSD
    from repro.tenancy.controller import SloController
    from repro.tenancy.costmodel import QueryCostModel, TokenBucket
    from repro.tenancy.placement import PlacementManager
    from repro.workload.runner import BenchRunner, QueryReplayer

    patches: list[_Patch] = []
    count = tracer.count

    def patch(owner, name: str, layer: str, after=None,
              resumes: bool = False) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else \
            getattr(owner, name)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = (_wrap_resumes(tracer, layer, fn) if resumes
                   else _wrap(tracer, layer, fn, after))
        patches.append((owner, name, raw))
        setattr(owner, name,
                classmethod(wrapped) if isinstance(raw, classmethod)
                else wrapped)

    # ann.build / ann.search -----------------------------------------------
    def built(duration, _index, args):
        count("ann.build_rows", len(args[1]))
        count("ann.build_s", duration)

    patch(engine_mod, "build_index", "ann.build", built)

    ann_depth = tracer._depth
    ann_lid = LAYERS.index("ann.search")

    def searched(duration, result, _args):
        if not ann_depth[ann_lid]:           # outermost index search
            tracer.works.append(result.work)
            tracer.search_s.append(duration)
            count("ann.queries")

    def searched_batch(_duration, results, _args):
        if not ann_depth[ann_lid]:
            tracer.works.extend(result.work for result in results)
            count("ann.queries", len(results))

    def index_classes(base):
        for sub in base.__subclasses__():
            yield sub
            yield from index_classes(sub)

    for cls in (VectorIndex, *index_classes(VectorIndex)):
        if "search" in cls.__dict__ and cls is not VectorIndex:
            patch(cls, "search", "ann.search", searched)
        if "search_batch" in cls.__dict__:
            patch(cls, "search_batch", "ann.search", searched_batch)

    # engines / mutate -------------------------------------------------------
    Collection = engine_mod.Collection
    eng_lid = LAYERS.index("engines")

    def gathered(_duration, result, _args):
        count("engines.gather_s", tracer.last_self)
        if not ann_depth[eng_lid]:     # not search_batch's per-query path
            count("engines.queries")
            count("engines.segments", len(result.works or ()))

    def gathered_batch(_duration, results, _args):
        count("engines.gather_s", tracer.last_self)
        count("engines.queries", len(results))
        count("engines.segments", sum(len(r.works or ()) for r in results))

    def inserted(duration, ids, _args):
        count("engines.insert_rows", len(ids))
        count("engines.insert_s", duration)

    patch(Collection, "search", "engines", gathered)
    patch(Collection, "search_batch", "engines", gathered_batch)
    patch(Collection, "insert", "engines", inserted)
    patch(Collection, "flush", "engines")
    patch(Collection, "delete", "mutate",
          lambda _d, deleted, _a: count("mutate.deleted_rows", deleted))
    patch(Collection, "compact", "mutate",
          lambda duration, _r, _a: count("mutate.compact_s", duration))
    patch(GrowingBuffer, "search", "mutate")
    patch(GrowingBuffer, "search_batch", "mutate")

    # workload ---------------------------------------------------------------
    def compiled(duration, found, _args):
        count("workload.compile_s", duration)
        count("workload.compiled_queries", len(found))

    def replayed(duration, result, _args):
        count("workload.run_s", duration)
        count("workload.run_queries", result.completed)

    patch(BenchRunner, "compiled_results", "workload.compile", compiled)
    patch(BenchRunner, "run", "workload.replay", replayed)
    patch(BenchRunner, "open_replay", "workload.replay")
    patch(QueryReplayer, "query_proc", "workload.replay", resumes=True)

    # simkernel / storage ----------------------------------------------------
    raw_run = Environment.run
    sim_lid = LAYERS.index("simkernel")

    def env_run(self, until=None):
        base = self.events_processed
        idx = tracer.begin(sim_lid)
        try:
            return raw_run(self, until)
        finally:
            count("simkernel.run_s", tracer.finish(idx))
            count("simkernel.events", self.events_processed - base)

    patches.append((Environment, "run", raw_run))
    Environment.run = env_run

    def submitted(_duration, _event, args):
        requests, op = args[1], args[2]
        count("storage.submits")
        count("storage.requests", len(requests))
        total = small = 0
        for _offset, size in requests:
            total += size
            small += size == 4096
        if op == "R":
            count("storage.read_bytes", total)
            count("storage.read_requests", len(requests))
            count("storage.read_4k", small)
        else:
            count("storage.write_bytes", total)

    patch(SimSSD, "submit", "storage", submitted)

    # serve ------------------------------------------------------------------
    def served(duration, result, _args):
        count("serve.serve_s", duration)
        count("serve.arrivals", result.arrivals)

    patch(Server, "serve", "serve", served)
    patch(AdmissionQueue, "push", "serve")
    patch(AdmissionQueue, "pop", "serve")
    for name in ("PoissonArrivals", "BurstyArrivals", "DiurnalArrivals"):
        patch(getattr(arrivals_mod, name), "timeline", "serve")

    # cluster ----------------------------------------------------------------
    def cluster_ran(duration, result, _args):
        count("cluster.run_s", duration)
        count("cluster.run_queries", result.completed)

    patch(cluster_runner.ClusterBenchRunner, "run", "cluster", cluster_ran)
    patch(cluster_runner.ClusterBenchRunner, "open_replay", "cluster")
    patch(cluster_runner.ClusterReplayer, "query_proc", "cluster",
          resumes=True)
    patch(cluster_runner.ClusterReplayer, "hop", "cluster", resumes=True)
    merge = _wrap(tracer, "cluster", cluster_runner.merge_topk)
    for module in (cluster_pkg, cluster_mod, cluster_runner):
        patches.append((module, "merge_topk", module.merge_topk))
        module.merge_topk = merge

    # tenancy ----------------------------------------------------------------
    def autopiloted(duration, result, _args):
        count("tenancy.serve_s", duration)
        count("tenancy.arrivals", result.arrivals)

    autopilot = _wrap(tracer, "tenancy", autopilot_mod.serve_autopilot,
                      autopiloted)
    for module in (tenancy_pkg, autopilot_mod):
        patches.append((module, "serve_autopilot", module.serve_autopilot))
        module.serve_autopilot = autopilot
    patch(SloController, "observe", "tenancy")
    patch(PlacementManager, "on_interval", "tenancy")
    patch(TokenBucket, "take", "tenancy")
    patch(QueryCostModel, "observe", "tenancy")

    # durability -------------------------------------------------------------
    VectorEngine = engine_mod.VectorEngine
    patch(VectorEngine, "save", "durability",
          lambda duration, _r, _a: (count("durability.save_s", duration),
                                     count("durability.saves")))
    patch(VectorEngine, "load", "durability",
          lambda duration, _r, _a: (count("durability.load_s", duration),
                                     count("durability.loads")))

    # obs --------------------------------------------------------------------
    for name, member in list(vars(RunTelemetry).items()):
        if callable(member) and name.startswith(
                ("on_", "begin_", "end_", "observe_", "record_")):
            patch(RunTelemetry, name, "obs")

    tracer.on = True
    return patches


def uninstall(tracer: Tracer, patches: list[_Patch]) -> None:
    """Restore every original callable."""
    for owner, name, raw in reversed(patches):
        setattr(owner, name, raw)
    patches.clear()
    tracer.on = False
