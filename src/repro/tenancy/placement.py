"""Tiered placement: hot memory-resident groups, cold quantized-on-disk.

GoVector-style two-tier residency, run online: every placement group
(one or more tenants sharing a collection shard) is either **hot** —
served from the memory-resident index, first touch cold then warm —
or **cold** — demoted to a quantized on-disk representation that pays
device reads on *every* query and answers at the quantized ladder
level's recall.  A fixed ``hot_capacity`` models the memory budget;
the :class:`PlacementManager` re-ranks groups by an EWMA of offered
load each interval and emits promote/demote :class:`Migration`
decisions for the autopilot to execute as background simprocs that
stream the group's bytes through the shared ``SimSSD`` (contending
with foreground queries, exactly like a cluster replica move).

The tier flip itself is modeled on the durability layer's
versioned-manifest swap: the migration streams into the *target* tier
while queries keep dispatching against the source tier, then
:meth:`PlacementManager.commit` bumps the ledger version and flips the
pointer atomically at the simproc's completion instant.  Two same-seed
runs therefore flip at bit-identical times.

>>> cfg = PlacementConfig(hot_capacity=1, min_residency_s=0.0,
...                       ewma_alpha=1.0)
>>> mgr = PlacementManager(cfg, groups=("a", "b"), demotable=(True, True))
>>> mgr.tier("a"), mgr.tier("b")
('hot', 'cold')
>>> mgr.record("b", 10)                  # b's demand spikes past a's
>>> mgr.on_interval(now_s=0.1)
[Migration(group='b', target='hot'), Migration(group='a', target='cold')]
>>> mgr.commit("a", "cold", now_s=0.2); mgr.commit("b", "hot", now_s=0.2)
>>> mgr.tier("a"), mgr.tier("b"), mgr.version
('cold', 'hot', 2)
"""

from __future__ import annotations

import dataclasses

from repro.errors import TenancyError


#: Quantization ratio of the cold representation (PQ-style): a
#: demotion writes ``group_bytes / QUANTIZE_RATIO`` to the device, a
#: promotion reads the full ``group_bytes`` back.  A constant, not a
#: knob: every study and test ran the one value.
QUANTIZE_RATIO = 8


@dataclasses.dataclass(frozen=True)
class PlacementConfig:
    """Knobs of the two-tier residency manager."""

    #: Memory budget: how many placement groups fit in the hot tier.
    hot_capacity: int
    #: Re-ranking cadence (simulated seconds).
    interval_s: float = 0.1
    #: Warmth EWMA weight per interval (1.0 = last interval only).
    ewma_alpha: float = 0.3
    #: Hysteresis: minimum time in a tier before migrating again.
    min_residency_s: float = 0.2

    def __post_init__(self) -> None:
        if self.hot_capacity < 1:
            raise TenancyError(
                f"hot capacity must be >= 1 group: {self.hot_capacity}")
        if self.interval_s <= 0 or self.min_residency_s < 0:
            raise TenancyError(f"bad placement timing: {self}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise TenancyError(
                f"EWMA alpha must be in (0, 1]: {self.ewma_alpha}")


@dataclasses.dataclass(frozen=True)
class Migration:
    """One tier move the autopilot should execute."""

    group: str
    target: str                  # "hot" (promotion) or "cold" (demotion)


@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """One committed tier flip in the versioned placement ledger."""

    version: int
    group: str
    tier: str
    committed_s: float


class _GroupState:
    def __init__(self, tier: str) -> None:
        self.tier = tier
        self.warmth = 0.0
        self.pending = 0             # arrivals since the last interval
        self.last_flip_s = 0.0
        self.migrating = False


class PlacementManager:
    """Ranks placement groups by warmth and decides tier moves.

    Pure control logic — it never touches the simulation directly.  The
    autopilot feeds arrivals in via :meth:`record`, asks for decisions
    at each placement interval via :meth:`on_interval`, and calls
    :meth:`commit` when a migration simproc finishes streaming.
    """

    def __init__(self, config: PlacementConfig, groups: tuple[str, ...],
                 demotable: tuple[bool, ...]) -> None:
        if not groups:
            raise TenancyError("placement needs at least one group")
        if len(demotable) != len(groups):
            raise TenancyError("demotable flags must align with groups")
        if len(set(groups)) != len(groups):
            raise TenancyError(f"duplicate placement groups: {groups}")
        self.config = config
        self._order = {g: i for i, g in enumerate(groups)}
        self._demotable = dict(zip(groups, demotable))
        # Non-demotable groups (a member's recall floor does not
        # survive the cold tier) are *pinned* hot — they can never
        # legally leave memory, so they must fit the budget.
        pinned = [g for g, d in zip(groups, demotable) if not d]
        if len(pinned) > config.hot_capacity:
            raise TenancyError(
                f"hot capacity {config.hot_capacity} cannot pin the "
                f"{len(pinned)} non-demotable groups")
        # The initial hot set: every pinned group, then roster order
        # up to the budget; the rest start on disk.
        hot = set(pinned)
        for g, d in zip(groups, demotable):
            if len(hot) >= config.hot_capacity:
                break
            if d:
                hot.add(g)
        self._state = {g: _GroupState("hot" if g in hot else "cold")
                       for g in groups}
        self.ledger: list[LedgerEntry] = []

    # -- data-plane feeds ---------------------------------------------------

    def record(self, group: str, amount: int = 1) -> None:
        """Count *amount* arrivals against *group*'s warmth."""
        self._state[group].pending += amount

    def tier(self, group: str) -> str:
        """The tier *group* currently serves from."""
        return self._state[group].tier

    @property
    def version(self) -> int:
        """The ledger head version (0 before any flip commits)."""
        return len(self.ledger)

    def counts(self) -> tuple[int, int]:
        """(hot, cold) group counts at the current instant."""
        hot = sum(1 for s in self._state.values() if s.tier == "hot")
        return hot, len(self._state) - hot

    # -- control loop -------------------------------------------------------

    def on_interval(self, now_s: float) -> list[Migration]:
        """Fold pending arrivals into warmth and emit tier moves.

        The target hot set is every pinned (non-demotable) group plus
        the warmest demotable groups up to ``hot_capacity`` (roster
        order breaks ties, so decisions are deterministic).  A group
        only moves when it is not already migrating and has sat in its
        tier for ``min_residency_s``.
        """
        cfg = self.config
        for state in self._state.values():
            state.warmth = ((1.0 - cfg.ewma_alpha) * state.warmth
                            + cfg.ewma_alpha * state.pending)
            state.pending = 0
        ranked = sorted(
            self._state,
            key=lambda g: (-self._state[g].warmth, self._order[g]))
        target_hot = {g for g in ranked if not self._demotable[g]}
        for g in ranked:
            if len(target_hot) >= cfg.hot_capacity:
                break
            if self._demotable[g]:
                target_hot.add(g)
        moves: list[Migration] = []

        def movable(state: _GroupState) -> bool:
            return (not state.migrating
                    and now_s - state.last_flip_s >= cfg.min_residency_s)

        for group in ranked:
            state = self._state[group]
            if state.tier == "hot" and group not in target_hot:
                if movable(state) and self._demotable[group]:
                    state.migrating = True
                    moves.append(Migration(group, "cold"))
            elif state.tier == "cold" and group in target_hot:
                if movable(state):
                    state.migrating = True
                    moves.append(Migration(group, "hot"))
        return moves

    def commit(self, group: str, tier: str, now_s: float) -> None:
        """Atomically flip *group* to *tier* (migration stream done)."""
        state = self._state[group]
        state.tier = tier
        state.migrating = False
        state.last_flip_s = now_s
        self.ledger.append(LedgerEntry(version=len(self.ledger) + 1,
                                       group=group, tier=tier,
                                       committed_s=now_s))
