"""Tenant profiles: who is served, at what SLO, under which quota.

A :class:`TenantProfile` extends the shared
:class:`~repro.serve.Tenant` identity with everything the control
plane needs that the data plane does not: the latency SLO and recall
floor the :class:`~repro.tenancy.SloController` defends, the
cost-denominated quota the admission buckets enforce, the priority
class that orders who degrades first, and the placement group the
:class:`~repro.tenancy.PlacementManager` migrates as a unit.

The :class:`TenantRegistry` is the immutable roster of one serving
run.  ``serve_tenants()`` bridges it onto the plain serving layer —
the registry is the single source of truth for names, weights, and
SLO deadlines, so the two layers cannot drift.

>>> prof = TenantProfile(tenant=Tenant("acme", weight=2.0),
...                      arrivals=PoissonArrivals(rate_qps=50.0),
...                      slo_latency_s=0.05, recall_floor=0.8)
>>> reg = TenantRegistry((prof,))
>>> reg.serve_tenants()[0].name, reg.serve_tenants()[0].weight
('acme', 2.0)
>>> reg.profile("acme").recall_floor
0.8
>>> reg.index("acme")
0
"""

from __future__ import annotations

import dataclasses

from repro.errors import TenancyError
from repro.serve.arrivals import ArrivalModel, PoissonArrivals
from repro.serve.server import TenantLoad
from repro.serve.tenant import Tenant

#: Priority classes, ordered from most to least latency-sensitive.
#: Under pressure the controller degrades ``batch`` tenants first and
#: restores them last; ``interactive`` tenants are touched only when
#: their own SLO is the one burning.
PRIORITIES = ("interactive", "standard", "batch")


@dataclasses.dataclass(frozen=True)
class TenantProfile:
    """One tenant's control-plane contract."""

    tenant: Tenant
    arrivals: ArrivalModel
    #: Latency SLO (arrival -> completion) the controller defends.
    slo_latency_s: float
    #: Hard floor on completion-weighted recall; the controller will
    #: never move this tenant to a ladder level compiled below it.
    recall_floor: float = 0.0
    #: Quota in predicted cost-seconds per second of wall clock;
    #: ``None`` = unmetered (no token bucket for this tenant).
    quota_cost_per_s: float | None = None
    #: Token-bucket depth, in seconds' worth of quota (burst headroom).
    quota_burst_s: float = 0.25
    #: One of :data:`PRIORITIES`.
    priority: str = "standard"
    #: Placement group (collection affinity); tenants sharing a group
    #: are promoted/demoted together.  ``None`` = a group of one.
    group: str | None = None

    def __post_init__(self) -> None:
        if self.slo_latency_s <= 0:
            raise TenancyError(
                f"SLO latency must be > 0: {self.slo_latency_s}")
        if not 0.0 <= self.recall_floor <= 1.0:
            raise TenancyError(
                f"recall floor must be in [0, 1]: {self.recall_floor}")
        if self.quota_cost_per_s is not None and self.quota_cost_per_s <= 0:
            raise TenancyError(
                f"quota must be > 0: {self.quota_cost_per_s}")
        if self.quota_burst_s <= 0:
            raise TenancyError(
                f"quota burst must be > 0: {self.quota_burst_s}")
        if self.priority not in PRIORITIES:
            raise TenancyError(
                f"unknown priority {self.priority!r}; expected one of "
                f"{PRIORITIES}")

    @property
    def name(self) -> str:
        return self.tenant.name

    @property
    def group_name(self) -> str:
        """The effective placement group (own name when ungrouped)."""
        return self.group if self.group is not None else self.tenant.name


@dataclasses.dataclass(frozen=True)
class TenantRegistry:
    """The immutable tenant roster of one autopilot serving run."""

    profiles: tuple[TenantProfile, ...]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise TenancyError("a tenant registry needs at least one "
                               "tenant profile")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TenancyError(f"duplicate tenant names: {dupes}")

    def __len__(self) -> int:
        return len(self.profiles)

    def profile(self, name: str) -> TenantProfile:
        """Look up one tenant's profile by name."""
        for prof in self.profiles:
            if prof.name == name:
                return prof
        raise TenancyError(f"unknown tenant {name!r}")

    def index(self, name: str) -> int:
        """The tenant's index in serve order (stable roster order)."""
        for i, prof in enumerate(self.profiles):
            if prof.name == name:
                return i
        raise TenancyError(f"unknown tenant {name!r}")

    def serve_tenants(self) -> tuple[TenantLoad, ...]:
        """The roster as data-plane :class:`~repro.serve.TenantLoad`s.

        Identity (name, weight) and the SLO deadline transfer; the
        control-plane-only fields (quota, floor, priority, group) stay
        behind — the plain serving layer never sees them.
        """
        return tuple(
            TenantLoad(name=p.tenant.name, arrivals=p.arrivals,
                       weight=p.tenant.weight,
                       slo_deadline_s=p.slo_latency_s)
            for p in self.profiles)

    @property
    def groups(self) -> tuple[str, ...]:
        """Placement group names, in first-appearance roster order."""
        seen: list[str] = []
        for prof in self.profiles:
            if prof.group_name not in seen:
                seen.append(prof.group_name)
        return tuple(seen)

    def group_members(self, group: str) -> tuple[int, ...]:
        """Tenant indices belonging to placement group *group*."""
        return tuple(i for i, p in enumerate(self.profiles)
                     if p.group_name == group)
