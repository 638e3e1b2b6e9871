"""Tenant profiles: who is served, at what SLO, under which quota.

A :class:`TenantProfile` *is* a :class:`~repro.serve.TenantLoad` (name,
arrivals, weight, and a required SLO deadline) plus everything the
control plane needs that the data plane does not: the recall floor the
:class:`~repro.tenancy.SloController` defends, the cost-denominated
quota the admission buckets enforce, the priority class that orders
who degrades first, and the placement group the
:class:`~repro.tenancy.PlacementManager` migrates as a unit.

The :class:`TenantRegistry` is the immutable roster of one serving
run.  Its ``profiles`` are the serving config's tenants as they stand
— the plain serving layer reads only the inherited fields — so the two
layers cannot drift.

>>> from repro.serve import PoissonArrivals
>>> prof = TenantProfile("acme", PoissonArrivals(rate_qps=50.0),
...                      weight=2.0, slo_deadline_s=0.05,
...                      recall_floor=0.8)
>>> reg = TenantRegistry((prof,))
>>> reg.profiles[0].name, reg.profiles[0].weight
('acme', 2.0)
>>> reg.profile("acme").recall_floor
0.8
>>> reg.index("acme")
0
"""

from __future__ import annotations

import dataclasses

from repro.errors import TenancyError
from repro.serve.server import TenantLoad

#: Priority classes, ordered from most to least latency-sensitive.
#: Under pressure the controller degrades ``batch`` tenants first and
#: restores them last; ``interactive`` tenants are touched only when
#: their own SLO is the one burning.
PRIORITIES = ("interactive", "standard", "batch")


@dataclasses.dataclass(frozen=True)
class TenantProfile(TenantLoad):
    """One tenant's control-plane contract.

    ``slo_deadline_s`` (arrival -> completion) is required: it is the
    latency SLO the controller defends.
    """

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
        if self.slo_deadline_s is None or self.slo_deadline_s <= 0:
            raise TenancyError(
                f"SLO deadline must be > 0: {self.slo_deadline_s}")
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
        super().__post_init__()

    @property
    def group_name(self) -> str:
        """The effective placement group (own name when ungrouped)."""
        return self.group if self.group is not None else self.name


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
