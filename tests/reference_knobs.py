"""Reference copies of the per-module knob predicates ``repro.errors``
replaced.

Before :func:`repro.errors.require_int` and
:func:`repro.errors.require_real` each module decided for itself what a
valid count or duration was.  The bodies below are those decisions,
kept verbatim (renamed where two modules used one name) as oracles:
``tests/test_knob_predicates.py`` checks that every site which used one
accepts exactly what it accepted.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import math
import numbers
import typing as t

from repro.errors import (AnnIndexError, ClusterError, EngineError,
                          ServeError, SimulationError, StorageError,
                          WorkloadError)


# -- repro.faults.plan ------------------------------------------------------

def _finite(value: object) -> bool:
    """Whether *value* is a finite real number (a bool is not one)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _fraction(value: object) -> bool:
    """Whether *value* is a real number in ``(0, 1]``."""
    return _finite(value) and 0.0 < value <= 1.0


# -- repro.faults.resilience ------------------------------------------------

def _positive(value: object) -> bool:
    """Whether *value* is a finite real number > 0 (a bool is not one)."""
    return _finite(value) and value > 0


def _count(value: object, low: int) -> bool:
    """Whether *value* is an integer >= *low* (a bool is not one)."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= low)


# -- repro.faults.schedule --------------------------------------------------

def _node_id(value: object) -> bool:
    """Whether *value* is a node id: an integer >= 0, not a bool."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= 0)


def chaos_seed(seed: t.Any) -> None:
    """``ChaosSchedule.__post_init__``'s seed check."""
    if (isinstance(seed, bool)
            or not isinstance(seed, numbers.Integral)):
        raise WorkloadError(f"bad chaos seed: {seed!r}")


# -- repro.serve.arrivals / repro.serve.server ------------------------------

def check_positive(what: str, value: float) -> None:
    """Raise :class:`ServeError` unless *value* is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ServeError(f"{what} must be finite and > 0: {value}")


def check_count(what: str, value: int) -> None:
    """Raise :class:`ServeError` unless *value* is an integer >= 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ServeError(f"{what} must be an integer >= 1: {value!r}")


def serve_seed(seed: t.Any) -> None:
    """``ServeConfig.__post_init__``'s seed check."""
    if (isinstance(seed, bool)
            or not isinstance(seed, numbers.Integral)):
        raise ServeError(f"seed must be an integer: {seed!r}")


# -- repro.engines.engine ---------------------------------------------------

def _integer(value: object) -> bool:
    """Whether *value* is an integer (a bool is not one)."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool))


def request_deadline(deadline_s: t.Any) -> None:
    """``SearchRequest.__post_init__``'s ``deadline_s`` check."""
    if deadline_s is not None and (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, numbers.Real)
            or not 0 < deadline_s < math.inf):      # or NaN
        raise EngineError(f"bad deadline_s: {deadline_s!r}")


# -- repro.engines.params ---------------------------------------------------

class IndexParams:
    """``IndexParams``'s three validation methods."""

    def _require_positive(self, **fields: t.Any) -> None:
        """Integer fields (None = the kind's default) must be >= 1."""
        for name, value in fields.items():
            if value is not None:
                self._require_int(name, value, 1, "positive")

    def _require_int(self, name: str, value: t.Any, minimum: int,
                     what: str) -> None:
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < minimum):
            raise EngineError(
                f"{type(self).__name__}.{name} must be {what}: {value!r}")

    def _require_finite(self, name: str, value: t.Any, minimum: float,
                        ) -> None:
        """Float fields must be finite numbers >= *minimum*."""
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value) or value < minimum):
            raise EngineError(
                f"{type(self).__name__}.{name} must be a finite number "
                f">= {minimum}: {value!r}")


# -- repro.ann.diskann ------------------------------------------------------

def diskann_count(name: str, value: t.Any, minimum: int) -> int:
    """*value* as an int >= *minimum*; bools, floats and None refused."""
    if type(value) is not int:          # the common case skips the ABC
        if isinstance(value, bool) or not isinstance(value,
                                                     numbers.Integral):
            raise AnnIndexError(
                f"{name} must be >= {minimum}, an integer: {value!r}")
        value = int(value)
    if value < minimum:
        raise AnnIndexError(
            f"{name} must be >= {minimum}, an integer: {value}")
    return value


# -- inline checks ----------------------------------------------------------

def resource_capacity(capacity: t.Any) -> None:
    """``Resource.__init__``'s capacity check."""
    # ``bool`` is an ``int``; a pool of ``True`` slots is a mistake.
    if (not isinstance(capacity, numbers.Integral)
            or isinstance(capacity, bool) or capacity < 1):
        raise SimulationError(
            f"resource capacity must be an integer >= 1: {capacity!r}")


def device_request(offset: t.Any, size: t.Any, max_request_bytes: int,
                   capacity_bytes: int) -> None:
    """``SimSSD._validate``, the device spec passed in."""
    for value in (offset, size):
        # numpy integers are Integral; bool is an int but never a size.
        if (not isinstance(value, numbers.Integral)
                or isinstance(value, bool)):
            raise StorageError(
                f"bad request: offset={offset!r} size={size!r} "
                f"(integers required)")
    # Fixed-width numpy integers wrap (or raise) in ``offset + size``.
    offset, size = int(offset), int(size)
    if offset < 0 or size <= 0:
        raise StorageError(f"bad request: offset={offset} size={size}")
    if size > max_request_bytes:
        raise StorageError(
            f"request of {size} B exceeds the block-layer limit of "
            f"{max_request_bytes} B; split it first")
    if offset + size > capacity_bytes:
        raise StorageError(
            f"request [{offset}, {offset + size}) beyond device end "
            f"{capacity_bytes}")


def check_loop(clients: t.Any, duration_s: t.Any, max_queries: t.Any,
               phase: t.Any) -> None:
    """``repro.workload.replay.check_loop``."""
    for name, value, least in (("concurrency", clients, 1),
                               ("max_queries", max_queries, 1),
                               ("phase", phase, None)):
        if (not isinstance(value, numbers.Integral)
                or isinstance(value, bool)
                or (least is not None and value < least)):
            bound = f" >= {least}" if least is not None else ""
            raise WorkloadError(
                f"{name} must be an integer{bound}: {value!r}")
    if (not isinstance(duration_s, numbers.Real)
            or isinstance(duration_s, bool) or not duration_s > 0):
        raise WorkloadError(
            f"duration_s must be a number > 0 (inf allowed): "
            f"{duration_s!r}")


def check_knob_durations(hedge_after_s: t.Any, deadline_s: t.Any) -> None:
    """``repro.cluster.runner.check_knobs``'s two durations."""
    for name, value in (("hedge_after_s", hedge_after_s),
                        ("deadline_s", deadline_s)):
        if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not 0 < value < math.inf):          # or NaN
            raise ClusterError(
                f"{name} must be None or a finite number > 0: {value!r}")


def batch_rows(value: t.Any) -> None:
    """``MutationLoad.__post_init__``'s ``batch_rows`` check."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < 1):
        raise WorkloadError(f"batch_rows must be an integer >= 1: "
                            f"{value!r}")


def delta_rows(value: t.Any) -> None:
    """``CompactionPolicy.__post_init__``'s ``delta_rows`` check."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < 1):
        raise EngineError(f"delta_rows threshold must be an integer "
                          f">= 1: {value!r}")
