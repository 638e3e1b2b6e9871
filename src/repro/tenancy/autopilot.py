"""The multi-tenant SLO autopilot: the control plane over the server.

:class:`AutopilotServer` subclasses the serving layer's
:class:`~repro.serve.Server` and overrides its control-plane hook
points — nothing else.  The data plane (arrival schedules, queueing,
batching, shedding, the AIMD concurrency controller) is untouched,
which is why an autopilot with ``enabled=False`` is *trivially*
bit-identical to plain serving: it simply never constructs this class.

Per query, the control plane makes three decisions:

1. **admission** — the arrival is priced by the online
   :class:`~repro.tenancy.QueryCostModel` at the tenant's current
   (tier, level) and debited from the tenant's cost-denominated
   :class:`~repro.tenancy.TokenBucket`; an uncovered arrival is
   rejected before it can occupy queue or cores;
2. **plan selection** — the query replays the precompiled plan of the
   tenant's current degradation-ladder level (hot tier, first touch
   cold then warm) or the quantized cold-tier plan (every touch pays
   device reads);
3. **observation** — the completion's service time feeds the cost
   model and its latency feeds the per-interval window the
   :class:`~repro.tenancy.SloController` reads.

Two background simprocs close the loops: the SLO control loop (every
``controller.interval_s``) and, when configured, the placement loop
(every ``placement.interval_s``) whose promote/demote decisions run as
byte-streaming simprocs contending for the shared ``SimSSD``.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import TenancyError
from repro.obs import RunTelemetry
from repro.serve.queueing import QueuedQuery
from repro.serve.result import ServeResult
from repro.serve.server import ServeConfig, Server, _QueryRecord, _Tally
from repro.tenancy.controller import (DegradationLadder,
                                      IntervalObservation, SloController,
                                      SloControllerConfig, build_ladder)
from repro.tenancy.costmodel import (QueryCostModel, TokenBucket,
                                     plan_cost_prior)
from repro.tenancy.placement import (QUANTIZE_RATIO, Migration,
                                     PlacementConfig, PlacementManager)
from repro.tenancy.registry import TenantRegistry
from repro.workload.metrics import percentile

if t.TYPE_CHECKING:
    from repro.workload.replay import ReplaySession
    from repro.workload.runner import BenchRunner, CompiledQuery


@dataclasses.dataclass(frozen=True)
class TenancyConfig:
    """Everything the autopilot adds on top of a :class:`ServeConfig`."""

    registry: TenantRegistry
    #: Master switch: ``False`` serves through the plain
    #: :class:`~repro.serve.Server`, bit-identically.
    enabled: bool = True
    controller: SloControllerConfig = dataclasses.field(
        default_factory=SloControllerConfig)
    #: Tiered placement; ``None`` keeps every tenant memory-resident.
    placement: PlacementConfig | None = None
    #: Per-level breadth multiplier of the degradation ladder.
    degrade_factor: float = 0.5
    #: Ladder depth (levels beyond the contracted level 0).
    max_levels: int = 3

    def serve_config(self, **overrides: t.Any) -> ServeConfig:
        """A :class:`ServeConfig` whose tenants mirror the registry."""
        overrides.setdefault("policy", "wfq")
        return ServeConfig(tenants=self.registry.serve_tenants(),
                           **overrides)


@dataclasses.dataclass(frozen=True)
class TenancyStats:
    """Control-plane accounting of one autopilot serving run."""

    intervals: int               # SLO-controller wake-ups
    degrades: int                # level shrinks applied
    restores: int                # level restores applied
    floor_capped: int            # shrinks refused at the recall floor
    quota_rejected: int          # arrivals priced out by token buckets
    promotions: int              # cold -> hot migrations committed
    demotions: int               # hot -> cold migrations committed
    hot_groups: int              # placement groups hot at run end
    cold_groups: int
    placement_version: int       # versioned tier-ledger head
    cost_observations: int       # completions folded into the fit
    cost_error: float            # mean relative prediction error
    #: Final ladder level per tenant, in roster order.
    levels: tuple[tuple[str, int], ...]


class AutopilotServer(Server):
    """A :class:`~repro.serve.Server` with the tenancy loops closed."""

    def __init__(self, runner: "BenchRunner", config: ServeConfig,
                 tenancy: TenancyConfig,
                 telemetry: RunTelemetry | bool | None = None) -> None:
        super().__init__(runner, config, telemetry)
        if not tenancy.enabled:
            raise TenancyError(
                "AutopilotServer needs enabled=True; use serve_autopilot "
                "(or the plain Server) for disabled configs")
        registry = tenancy.registry
        if tuple(config.tenants) != registry.serve_tenants():
            raise TenancyError(
                "serve-config tenants must mirror the registry "
                "(build the config with TenancyConfig.serve_config)")
        self.tenancy = tenancy
        self.registry = registry

        # The precompiled quality ladder and the per-tenant level caps.
        self.ladder: DegradationLadder = build_ladder(
            runner, dict(config.search_params),
            factor=tenancy.degrade_factor, max_levels=tenancy.max_levels)
        caps = tuple(self.ladder.max_level_for(p.recall_floor)
                     for p in registry.profiles)
        self.controller = SloController(
            tenancy.controller, max_levels=caps,
            priorities=tuple(p.priority for p in registry.profiles))

        # The online cost model, seeded with the plan-derived priors.
        self.costs = QueryCostModel()
        spec = runner.device_spec
        for lvl in self.ladder.levels:
            self.costs.seed(("hot", lvl.level),
                            plan_cost_prior(lvl.warm, spec))
        self._buckets: list[TokenBucket | None] = []
        for prof in registry.profiles:
            if prof.quota_cost_per_s is None:
                self._buckets.append(None)
                continue
            prior = self.costs.predict(("hot", 0))
            capacity = max(prof.quota_cost_per_s * prof.quota_burst_s,
                           2.0 * prior)
            self._buckets.append(TokenBucket(
                capacity=capacity, refill_per_s=prof.quota_cost_per_s))

        # Tiered placement (single-node only: needs the shared SimSSD).
        self._placement: PlacementManager | None = None
        self._cold_level = 0
        if tenancy.placement is not None:
            place = tenancy.placement
            # The cold tier serves the deepest (cheapest) ladder level.
            self._cold_level = self.ladder.deepest
            cold_recall = self.ladder.levels[self._cold_level].recall
            demotable = tuple(
                all((cold_recall is not None
                     and cold_recall >= registry.profiles[i].recall_floor)
                    or registry.profiles[i].recall_floor <= 0.0
                    for i in registry.group_members(group))
                for group in registry.groups)
            self._placement = PlacementManager(place, registry.groups,
                                               demotable)
            self.costs.seed(
                ("cold", self._cold_level),
                plan_cost_prior(self.ladder.levels[self._cold_level].cold,
                                spec))
        self._group_of = tuple(p.group_name for p in registry.profiles)

        # Per-run mutable state.
        n = len(registry)
        self._meta: dict[int, tuple[str, int]] = {}   # seq -> (tier, level)
        self._admitted = [0] * n
        self._done = [0] * n
        self._shed = [0] * n
        self._window: list[list[float]] = [[] for _ in range(n)]
        self._level_done: list[dict[tuple[str, int], int]] = [
            {} for _ in range(n)]
        self._counts = {"intervals": 0, "degrades": 0, "restores": 0,
                        "quota_rejected": 0, "promotions": 0,
                        "demotions": 0}

    # -- telemetry ---------------------------------------------------------

    def _tnote(self, event: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.on_event("tenancy", event, amount)

    # -- hook overrides ----------------------------------------------------

    def _tier_of(self, tenant: int) -> str:
        if self._placement is None:
            return "hot"
        return self._placement.tier(self._group_of[tenant])

    def _key_of(self, tenant: int) -> tuple[str, int]:
        tier = self._tier_of(tenant)
        if tier == "cold":
            return ("cold", self._cold_level)
        return ("hot", self.controller.level(tenant))

    def _admit(self, tenant: int, when: float) -> bool:
        if self._placement is not None:
            # Warmth follows *demand*, admitted or not — a priced-out
            # tenant still signals where the heat is.
            self._placement.record(self._group_of[tenant])
        bucket = self._buckets[tenant]
        if bucket is None:
            self._admitted[tenant] += 1
            return True
        if bucket.take(self.costs.predict(self._key_of(tenant)), when):
            self._admitted[tenant] += 1
            return True
        self._counts["quota_rejected"] += 1
        self._tnote("quota_rejected")
        return False

    def _plan_for(self, session: "ReplaySession",
                  query: QueuedQuery) -> "tuple[CompiledQuery, bool]":
        tier, level = self._key_of(query.tenant)
        self._meta[query.seq] = (tier, level)
        rung = self.ladder.levels[level]
        if tier == "cold":
            # Demoted: evicted from memory, so every touch replays the
            # cold (device-read) profile of the quantized level.
            return rung.cold[query.index], True
        _, cold = session.plan_for(query.index)
        return (rung.cold if cold else rung.warm)[query.index], cold

    def _on_completion(self, query: QueuedQuery,
                       record: _QueryRecord) -> None:
        tenant = query.tenant
        key = self._meta.pop(query.seq)
        self._done[tenant] += 1
        if not record.failed:
            levels = self._level_done[tenant]
            levels[key] = levels.get(key, 0) + 1
            self._window[tenant].append(record.latency_s)
            self.costs.observe(key, record.service_s)

    def _on_shed(self, query: QueuedQuery) -> None:
        self._shed[query.tenant] += 1

    def _start_background(self, session: "ReplaySession") -> None:
        env = session.env
        duration = self.config.duration_s

        def control_loop():
            interval = self.tenancy.controller.interval_s
            while env.now < duration:
                yield env.timeout(interval)
                self._counts["intervals"] += 1
                self._tnote("intervals")
                for tenant, prof in enumerate(self.registry.profiles):
                    window = self._window[tenant]
                    backlog = (self._admitted[tenant] - self._done[tenant]
                               - self._shed[tenant])
                    obs = IntervalObservation(
                        completions=len(window),
                        p95_latency_s=(percentile(window, 95)
                                       if window else 0.0),
                        backlog=backlog)
                    delta = self.controller.observe(tenant, obs,
                                                    prof.slo_latency_s)
                    if delta > 0:
                        self._counts["degrades"] += 1
                        self._tnote("degrades")
                    elif delta < 0:
                        self._counts["restores"] += 1
                        self._tnote("restores")
                    window.clear()

        env.process(control_loop())
        if self._placement is None:
            return
        if len(session.hosts) != 1:
            raise TenancyError(
                "tiered placement needs the single-node replay session "
                "(its shared SimSSD); disable placement for clusters")
        device = session.hosts[0].device
        spec = self.runner.device_spec
        place = t.cast(PlacementConfig, self.tenancy.placement)
        rows = self.runner.collection.num_rows
        dim = self.runner.collection.storage_dim
        group_bytes = max(4096, rows * dim * 4
                          // len(self.registry.groups))
        manager = self._placement

        def migrate(move: Migration):
            # Stream the group's bytes through the shared device —
            # promotions read the full-precision representation back
            # in, demotions write the quantized one out — then flip
            # the tier pointer atomically (versioned-ledger commit).
            if move.target == "hot":
                total, op = group_bytes, "R"
            else:
                total, op = group_bytes // QUANTIZE_RATIO, "W"
            cap = spec.max_request_bytes
            offset = 0
            while offset < total:
                size = min(cap, total - offset)
                yield device.submit([(offset, size)], op)
                offset += size
            manager.commit(move.group, move.target, env.now)
            if move.target == "hot":
                self._counts["promotions"] += 1
                self._tnote("promotions")
            else:
                self._counts["demotions"] += 1
                self._tnote("demotions")

        def placement_loop():
            while env.now < duration:
                yield env.timeout(place.interval_s)
                for move in manager.on_interval(env.now):
                    env.process(migrate(move))

        env.process(placement_loop())

    # -- result assembly ---------------------------------------------------

    def _tenant_recall(self, tenant: int) -> float | None:
        levels = self._level_done[tenant]
        total = sum(levels.values())
        if not total:
            return None
        weighted = 0.0
        for (_tier, level), count in sorted(levels.items()):
            recall = self.ladder.levels[level].recall
            if recall is None:
                return None
            weighted += recall * count
        return weighted / total

    def _stats_extra(self, tenant: int,
                     tally: _Tally) -> dict[str, t.Any]:
        levels = self._level_done[tenant]
        degraded = sum(count for key, count in levels.items()
                       if key != ("hot", 0))
        return {"degraded": degraded,
                "recall": self._tenant_recall(tenant)}

    def _recall(self, session: "ReplaySession") -> float | None:
        """Completion-weighted recall across all tenants and levels."""
        weighted, total = 0.0, 0
        for tenant in range(len(self.registry)):
            levels = self._level_done[tenant]
            count = sum(levels.values())
            if not count:
                continue
            recall = self._tenant_recall(tenant)
            if recall is None:
                return session.recall
            weighted += recall * count
            total += count
        return weighted / total if total else session.recall

    def _tenancy_stats(self) -> TenancyStats:
        hot, cold = ((self._placement.counts())
                     if self._placement is not None
                     else (len(self.registry.groups), 0))
        return TenancyStats(
            intervals=self._counts["intervals"],
            degrades=self._counts["degrades"],
            restores=self._counts["restores"],
            floor_capped=self.controller.floor_capped,
            quota_rejected=self._counts["quota_rejected"],
            promotions=self._counts["promotions"],
            demotions=self._counts["demotions"],
            hot_groups=hot,
            cold_groups=cold,
            placement_version=(self._placement.version
                               if self._placement is not None else 0),
            cost_observations=self.costs.observations,
            cost_error=self.costs.mean_error,
            levels=tuple(
                (prof.name, self.controller.level(i))
                for i, prof in enumerate(self.registry.profiles)))


def serve_autopilot(runner: "BenchRunner", config: ServeConfig,
                    tenancy: TenancyConfig,
                    telemetry: RunTelemetry | bool | None = None,
                    ) -> ServeResult:
    """Serve *runner* under *config* with the tenancy control plane.

    With ``tenancy.enabled`` False this constructs the plain
    :class:`~repro.serve.Server` — the disabled path shares every line
    with PR 5 serving, which is what makes it bit-identical.
    """
    if not tenancy.enabled:
        return Server(runner, config, telemetry=telemetry).serve()
    return AutopilotServer(runner, config, tenancy,
                           telemetry=telemetry).serve()
