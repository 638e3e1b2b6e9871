"""Online query-cost prediction and cost-denominated token buckets.

Admission control that counts *requests* treats a 10 ms DiskANN beam
search and a 200 µs quantized probe as the same unit of work, so a
tenant holding cheap queries subsidizes one holding expensive ones.
The tenancy layer prices admission in predicted **cost-seconds** of
service instead:

* :func:`plan_cost_prior` derives a per-plan prior from the compiled
  step lists — CPU seconds straight off the ``cpu`` steps, I/O rounds
  priced with the device spec's access latency and channel occupancy.
  This is the cost model the *offline* pass already believes; it seeds
  prediction before a single query has completed.
* :class:`QueryCostModel` then fits online: every completion feeds the
  observed service time back through an exponential moving average,
  keyed by (placement tier, ladder level) — the two control-plane
  decisions that change a query's cost.  ``mean_error`` tracks the
  relative prediction error, so the study can report how fast the fit
  converges.
* :class:`TokenBucket` enforces the per-tenant quota: a bucket of
  cost-seconds refilled at ``quota_cost_per_s``, debited by the
  *predicted* cost of each arrival.  A lazy refill keyed on simulated
  time keeps it exact and allocation-free.

>>> bucket = TokenBucket(capacity=1.0, refill_per_s=0.5)
>>> bucket.take(0.8, now_s=0.0), bucket.take(0.8, now_s=0.0)
(True, False)
>>> bucket.take(0.8, now_s=2.0)     # 1.0 s of refill later: 0.2 + 1.0
True
>>> model = QueryCostModel()
>>> model.seed(("hot", 0), 0.010)
>>> round(model.predict(("hot", 0)), 3)
0.01
>>> model.observe(("hot", 0), 0.020)
>>> 0.010 < model.predict(("hot", 0)) < 0.020
True
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import TenancyError

if t.TYPE_CHECKING:
    from repro.storage.spec import DeviceSpec
    from repro.workload.runner import CompiledQuery

#: (placement tier, ladder level) — the control-plane coordinates that
#: change a query's cost.
CostKey = tuple[str, int]


def plan_cost_prior(plans: t.Sequence["CompiledQuery"],
                    spec: "DeviceSpec", sample: int = 16) -> float:
    """Mean predicted service seconds over a sample of compiled plans.

    Prices each step list the way the replayer will pay for it: ``cpu``
    steps at face value, each blocking ``io`` round at the media access
    latency plus its requests' channel occupancy.  Speculative ``pf``
    issues and ``join`` barriers are free here — they overlap with the
    demand path by construction.
    """
    if not plans:
        raise TenancyError("cannot derive a cost prior from zero plans")
    total = 0.0
    picked = plans[:max(1, sample)]
    for plan in picked:
        # Cluster plans carry one single-node plan per shard; price the
        # whole scatter (the coordinator pays for every shard's work).
        shard_plans = getattr(plan, "shard_plans", None)
        segments = (plan.segments if shard_plans is None else
                    [steps for shard in shard_plans
                     for steps in shard.segments])
        for steps in segments:
            for kind, amount in steps:
                if kind == "cpu":
                    total += float(amount)
                elif kind == "io":
                    occupancy = sum(spec.read_occupancy(size)
                                    for _off, size in amount)
                    total += spec.read_access_s + occupancy / spec.channels
    return total / len(picked)


class QueryCostModel:
    """EMA-fitted per-(tier, level) service-cost predictor.

    The autopilot runs the default EMA weight, 1/8: a prior is half
    forgotten after about five completions, while one outlier moves
    the estimate by an eighth.
    """

    def __init__(self, alpha: float = 0.125) -> None:
        if not 0.0 < alpha <= 1.0:
            raise TenancyError(f"EMA alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._cost: dict[CostKey, float] = {}
        self._err_sum = 0.0
        self._observations = 0

    def seed(self, key: CostKey, prior_s: float) -> None:
        """Install the offline prior for *key* (first write wins)."""
        if prior_s <= 0:
            raise TenancyError(f"cost prior must be > 0: {prior_s}")
        self._cost.setdefault(key, prior_s)

    def predict(self, key: CostKey) -> float:
        """Predicted service seconds for one query at *key*."""
        try:
            return self._cost[key]
        except KeyError:
            raise TenancyError(f"no cost prior seeded for {key!r}")

    def observe(self, key: CostKey, service_s: float) -> None:
        """Fold one observed service time into the fit."""
        if service_s <= 0:
            return
        predicted = self.predict(key)
        self._err_sum += abs(predicted - service_s) / service_s
        self._observations += 1
        self._cost[key] = (1.0 - self.alpha) * predicted \
            + self.alpha * service_s

    @property
    def observations(self) -> int:
        return self._observations

    @property
    def mean_error(self) -> float:
        """Mean relative prediction error over all observations."""
        if not self._observations:
            return 0.0
        return self._err_sum / self._observations


@dataclasses.dataclass
class TokenBucket:
    """A cost-second quota bucket with lazy, exact refill."""

    capacity: float
    refill_per_s: float
    tokens: float = dataclasses.field(default=-1.0)
    _last_s: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.refill_per_s <= 0:
            raise TenancyError(
                f"bucket needs positive capacity and refill: {self}")
        if self.tokens < 0:
            self.tokens = self.capacity

    def _refill(self, now_s: float) -> None:
        if now_s > self._last_s:
            self.tokens = min(self.capacity, self.tokens
                              + (now_s - self._last_s) * self.refill_per_s)
            self._last_s = now_s

    def take(self, cost_s: float, now_s: float) -> bool:
        """Debit *cost_s* if covered; ``False`` = priced out (reject)."""
        self._refill(now_s)
        if self.tokens + 1e-12 < cost_s:
            return False
        self.tokens -= cost_s
        return True
