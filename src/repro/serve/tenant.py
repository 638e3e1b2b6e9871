"""The shared tenant identity type.

Historically the serving layer grew two tenant-shaped dataclasses with
asymmetric naming: :class:`~repro.serve.TenantLoad` (the *offered load*
side: who sends queries, at what rate, under which SLO) and
:class:`~repro.serve.TenantStats` (the *accounting* side: what happened
to that tenant's queries).  Both carry the same identity — a name and a
fair-queueing weight — but spelled it out field by field, and the
tenancy control plane (:mod:`repro.tenancy`) needs a third view (the
*profile* side: quotas, recall floors, priority).  :class:`Tenant` is
the one identity value all three reference.

>>> Tenant("acme").name, Tenant("acme").weight
('acme', 1.0)
>>> Tenant("acme", weight=4.0) == Tenant("acme", weight=4.0)
True
>>> Tenant("")
Traceback (most recent call last):
    ...
repro.errors.ServeError: tenant name must be non-empty
"""

from __future__ import annotations

import dataclasses

from repro.errors import ServeError


@dataclasses.dataclass(frozen=True)
class Tenant:
    """One tenant's identity: a unique name and a dispatch weight."""

    name: str
    #: Fair-queueing weight (relative dispatch share under ``wfq``).
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ServeError(f"tenant weight must be > 0: {self.weight}")
