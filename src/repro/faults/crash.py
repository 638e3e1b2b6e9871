"""Write-path fault injection: crash plans and corruption plans.

The *read* path is made resilient to injected device faults elsewhere
in this package; this module attacks the *write/persist* path.  Two
plans, both pure data and fully deterministic under their seed, mirror
the device :class:`~repro.faults.plan.FaultWindow` /
:class:`~repro.faults.injector.FaultInjector` split:

* :class:`CrashPlan` + :class:`CrashInjector` — "kill" the process at a
  declared crash point inside :mod:`repro.durability` (mid data write,
  before the manifest rename, during post-commit cleanup, mid WAL
  append).  The kill is an :class:`~repro.errors.InjectedCrash`
  exception: everything already written and renamed survives on disk,
  everything after the point never happens.  ``torn_fraction`` makes
  the crash *torn*: the file being written at the point is left holding
  a prefix of its intended bytes — the torn-tail case WAL recovery must
  truncate.
* :class:`CorruptionPlan` — silent bit rot: flip bytes at seeded
  (file, offset) positions in a committed store.  Every byte of the
  durable format is covered by a frame (magic, length, CRC32C), so
  ``scrub()`` must attribute 100% of these flips.

Example::

    >>> plan = CrashPlan.of("save.manifest.rename")
    >>> injector = CrashInjector(plan)
    >>> injector.reached("save.data.write")   # not the declared point
    >>> try:
    ...     injector.reached("save.manifest.rename")
    ... except InjectedCrash as crash:
    ...     crash.point
    'save.manifest.rename'
    >>> injector.fired
    True
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t
from pathlib import Path

from repro.errors import (InjectedCrash, WorkloadError, require_int,
                          require_real)
from repro.faults.plan import _unit


@dataclasses.dataclass(frozen=True)
class CrashPlan:
    """Where (and on which occurrence) to kill a durability operation.

    ``point`` names a declared crash point — see
    :data:`repro.durability.CRASH_POINTS` for the full registry — and
    ``occurrence`` selects which visit to it fires (a save passes
    ``save.data.write`` once per data file).  ``torn_fraction``, if
    set, leaves that fraction of the in-flight file's bytes on disk
    before the kill, modelling a torn write.
    """

    point: str
    occurrence: int = 0
    torn_fraction: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.point:
            raise WorkloadError("crash plan needs a point name")
        require_int(WorkloadError, "occurrence", self.occurrence, 0)
        if self.torn_fraction is not None:
            require_real(WorkloadError, "torn_fraction", self.torn_fraction,
                         at_least=0, below=1)
        require_int(WorkloadError, "crash seed", self.seed, None)

    @classmethod
    def of(cls, point: str, occurrence: int = 0,
           torn_fraction: float | None = None, seed: int = 0) -> "CrashPlan":
        return cls(point, occurrence, torn_fraction, seed)

    @classmethod
    def choose(cls, points: t.Sequence[str], seed: int = 0,
               torn_fraction: float | None = None) -> "CrashPlan":
        """A seeded pick from *points* — same seed, same plan."""
        if not points:
            raise WorkloadError("no crash points to choose from")
        index = int(_unit(seed, 0, 0) * len(points)) % len(points)
        occurrence = int(_unit(seed, 1, 0) * 2)  # 0 or 1
        return cls(points[index], occurrence, torn_fraction, seed)


class CrashInjector:
    """Runtime side of a :class:`CrashPlan`: counts visits, fires once.

    Durability code calls :meth:`reached` at every declared crash
    point; the injector raises :class:`~repro.errors.InjectedCrash`
    when the plan's point hits its selected occurrence.  ``None`` is a
    valid plan (never fires), so call sites need no branching.
    """

    def __init__(self, plan: CrashPlan | None) -> None:
        self.plan = plan
        self.fired = False
        #: Visits per crash point, for test assertions and reports.
        self.visited: collections.Counter[str] = collections.Counter()

    def reached(self, point: str, path: str | Path | None = None,
                data: bytes | None = None, *,
                append: bool = False) -> None:
        """Declare that execution reached *point*.

        *path*/*data* describe the file write in flight at the point
        (if any): a torn plan leaves ``torn_fraction`` of *data* on
        disk before killing — written fresh, or appended to *path*'s
        existing bytes when ``append`` is true (the WAL tail case) —
        so recovery sees a partial record.
        """
        count = self.visited[point]
        self.visited[point] += 1
        plan = self.plan
        if (plan is None or self.fired or point != plan.point
                or count != plan.occurrence):
            return
        self.fired = True
        if (plan.torn_fraction is not None and path is not None
                and data is not None):
            with open(path, "ab" if append else "wb") as handle:
                handle.write(data[:int(len(data) * plan.torn_fraction)])
                handle.flush()
        raise InjectedCrash(point)


@dataclasses.dataclass(frozen=True)
class Corruption:
    """One injected byte flip: where, and what changed."""

    file: str          # store-relative path
    offset: int
    before: int
    after: int


@dataclasses.dataclass(frozen=True)
class CorruptionPlan:
    """Seeded silent bit rot over a committed store directory.

    ``apply`` flips ``flips`` bytes at deterministic (file, offset)
    positions — same seed and same store layout, same flips — and
    returns the :class:`Corruption` records so a test can assert that
    ``scrub()`` attributes every single one.
    """

    seed: int = 0
    flips: int = 1

    def __post_init__(self) -> None:
        require_int(WorkloadError, "corruption seed", self.seed, None)
        require_int(WorkloadError, "flip count", self.flips, 1)

    def targets(self, root: str | Path) -> list[Path]:
        """The files eligible for corruption, in deterministic order."""
        root = Path(root)
        return sorted(p for p in root.rglob("*")
                      if p.is_file() and not p.name.endswith(".tmp"))

    def apply(self, root: str | Path) -> list[Corruption]:
        """Flip bytes in place; returns what was damaged."""
        root = Path(root)
        files = [p for p in self.targets(root) if p.stat().st_size > 0]
        if not files:
            raise WorkloadError(f"nothing to corrupt under {root}")
        corruptions: list[Corruption] = []
        taken: set[tuple[str, int]] = set()
        salt = 0
        while len(corruptions) < self.flips:
            draw = len(corruptions)
            path = files[int(_unit(self.seed, draw, salt)
                             * len(files)) % len(files)]
            size = path.stat().st_size
            offset = int(_unit(self.seed, draw, salt + 1) * size) % size
            key = (str(path), offset)
            if key in taken:
                salt += 2   # re-draw deterministically
                continue
            taken.add(key)
            mask = 1 + int(_unit(self.seed, draw, salt + 2) * 254)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                before = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes([before ^ mask]))
            corruptions.append(Corruption(
                str(path.relative_to(root)), offset, before, before ^ mask))
        return corruptions
