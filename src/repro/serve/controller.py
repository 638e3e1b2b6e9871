"""AIMD concurrency control: discovering the knee of the latency curve.

The closed-loop sweeps (Figure 2) show the classic shape: QPS rises
with concurrency until the bottleneck resource saturates, after which
extra in-flight queries only add queueing latency.  A static
``max_inflight`` must be tuned per engine and per dataset; the
:class:`ConcurrencyController` finds it online with the additive-
increase / multiplicative-decrease rule TCP made famous:

* after every ``window`` completions, compare the window's observed
  latency percentile against the SLO target;
* **under** target → additive increase: the limit grows by
  ``increase`` (probe for more throughput);
* **over** target → multiplicative decrease: the limit is scaled by
  ``decrease`` (back off fast before the queue compounds).

The limit therefore oscillates around the highest concurrency the
backend sustains within the SLO — the knee — without any offline
profiling.  The controller is plain arithmetic over observed latencies:
deterministic, simulation-clock-driven, and inert when disabled.

>>> c = ConcurrencyController(AIMDConfig(target_latency_s=0.1,
...                                      initial=4, window=2))
>>> c.limit
4
>>> c.on_completion(0.02); c.on_completion(0.03)  # fast window: probe up
>>> c.limit
5
>>> c.on_completion(0.5); c.on_completion(0.6)    # slow window: back off
>>> c.limit
2
"""

from __future__ import annotations

import dataclasses

from repro.errors import ServeError, require_int, require_real


@dataclasses.dataclass(frozen=True)
class AIMDConfig:
    """Tuning knobs of the AIMD concurrency controller."""

    #: Latency the controller steers the chosen percentile toward.
    target_latency_s: float
    #: Starting concurrency limit.
    initial: int = 4
    #: Completions per adaptation window.
    window: int = 16
    #: Additive step when the window met the target.
    increase: int = 1
    #: Multiplicative factor when the window missed the target.
    decrease: float = 0.5
    #: Window percentile compared against the target (0 < p <= 1).
    percentile: float = 0.95
    #: The limit never drops below this floor.
    floor: int = 1
    #: Optional hard cap on the limit.
    ceiling: int | None = None

    def __post_init__(self) -> None:
        require_real(ServeError, "target latency", self.target_latency_s,
                     above=0)
        for name in ("initial", "window", "increase", "floor"):
            require_int(ServeError, name, getattr(self, name), 1)
        require_real(ServeError, "decrease", self.decrease, above=0, below=1)
        require_real(ServeError, "percentile", self.percentile, above=0,
                     at_most=1)
        if self.ceiling is not None:
            require_int(ServeError, "ceiling", self.ceiling, self.floor)


class ConcurrencyController:
    """AIMD limit over completion latencies; see the module docstring."""

    def __init__(self, config: AIMDConfig) -> None:
        self.config = config
        self.limit = config.initial
        if config.ceiling is not None:
            self.limit = min(self.limit, config.ceiling)
        self._window: list[float] = []
        #: (completions-so-far, new limit) after each adaptation — the
        #: trace the study plots to show convergence to the knee.
        self.history: list[tuple[int, int]] = []
        self._completions = 0

    def on_completion(self, latency_s: float) -> None:
        """Feed one completed query's latency; maybe adapt the limit."""
        self._completions += 1
        self._window.append(latency_s)
        if len(self._window) < self.config.window:
            return
        observed = sorted(self._window)[
            max(0, int(len(self._window) * self.config.percentile) - 1)]
        self._window.clear()
        if observed <= self.config.target_latency_s:
            limit = self.limit + self.config.increase
        else:
            limit = int(self.limit * self.config.decrease)
        limit = max(self.config.floor, limit)
        if self.config.ceiling is not None:
            limit = min(limit, self.config.ceiling)
        if limit != self.limit:
            self.limit = limit
            self.history.append((self._completions, limit))
