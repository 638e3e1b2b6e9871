"""Unit tests for the seeded arrival generators."""

import pytest

from repro.errors import ServeError
from repro.serve import BurstyArrivals, PoissonArrivals


def test_poisson_timeline_is_deterministic():
    model = PoissonArrivals(rate_qps=500.0)
    assert model.timeline(0.5, seed=3) == model.timeline(0.5, seed=3)


def test_poisson_seeds_and_streams_are_independent():
    model = PoissonArrivals(rate_qps=500.0)
    base = model.timeline(0.5, seed=3)
    assert model.timeline(0.5, seed=4) != base
    assert model.timeline(0.5, seed=3, stream=1) != base


def test_poisson_timeline_sorted_within_window():
    times = PoissonArrivals(rate_qps=2000.0).timeline(0.25, seed=0)
    assert list(times) == sorted(times)
    assert all(0.0 <= t < 0.25 for t in times)


def test_poisson_rate_approximates_mean_qps():
    model = PoissonArrivals(rate_qps=1000.0)
    count = len(model.timeline(4.0, seed=1))
    assert count == pytest.approx(4000, rel=0.1)
    assert model.mean_qps == 1000.0


def test_bursty_mean_rate_is_occupancy_weighted():
    model = BurstyArrivals(base_qps=100.0, burst_qps=900.0,
                           mean_calm_s=0.3, mean_burst_s=0.1)
    assert model.mean_qps == pytest.approx(300.0)
    count = len(model.timeline(8.0, seed=2))
    assert count == pytest.approx(8 * model.mean_qps, rel=0.2)


def test_bursty_timeline_is_deterministic_and_sorted():
    model = BurstyArrivals(base_qps=200.0, burst_qps=2000.0)
    times = model.timeline(0.5, seed=5)
    assert times == model.timeline(0.5, seed=5)
    assert list(times) == sorted(times)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ServeError):
        PoissonArrivals(rate_qps=0.0)
    with pytest.raises(ServeError):
        PoissonArrivals(rate_qps=10.0).timeline(0.0)
    with pytest.raises(ServeError):
        BurstyArrivals(base_qps=10.0, burst_qps=-1.0)
    with pytest.raises(ServeError):
        BurstyArrivals(base_qps=10.0, burst_qps=20.0, mean_calm_s=0.0)
