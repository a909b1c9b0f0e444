"""Closed-form power estimators: arithmetic, algebra, and scaling laws."""

import random

import pytest

from least_sim import ProtocolParams
from least_sim.core import NetworkStats
from least_sim.protocols import estimate_leach, estimate_least


UNIT = NetworkStats(d_bar=1.0, d_bar_max=1.0)


def difference(n, params, stats, eps):
    """What ``analyze`` prints as ``difference``: positive when the baseline
    costs more."""
    return estimate_leach(n, params, stats, eps) - estimate_least(n, params, stats, eps)


def test_least_estimate_unit_distances():
    params = ProtocolParams(p_ch=0.1, p_hn=0.2)
    assert estimate_least(100, params, UNIT, 1.0) == pytest.approx(50.0)


def test_least_estimate_zero_probabilities_limit():
    # p_hn = 0 with the p_ch term scaled away leaves nothing
    params = ProtocolParams(p_ch=1e-12, p_hn=0.0)
    assert estimate_least(100, params, UNIT, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_leach_estimate_unit_distances():
    params = ProtocolParams(p_ch=0.1)
    assert estimate_leach(100, params, UNIT, 1.0) == pytest.approx(100.0)


def test_leach_estimate_boundary_p1():
    params = ProtocolParams(p_ch=1.0)
    stats = NetworkStats(d_bar=3.0, d_bar_max=7.0)
    assert estimate_leach(50, params, stats, 2.0) == pytest.approx(50 * 49.0 * 2.0)


def test_difference_equal_probabilities_reduces():
    # p_ch = p_hn: difference collapses to n * (1 - 4 p_ch) * d_bar^2 * eps
    params = ProtocolParams(p_ch=0.1, p_hn=0.1)
    stats = NetworkStats(d_bar=2.0, d_bar_max=9.0)
    diff = difference(10, params, stats, 1.0)
    assert diff == pytest.approx(10 * 0.6 * 4.0)
    assert diff > 0


def test_difference_can_go_negative():
    params = ProtocolParams(p_ch=0.01, p_hn=0.9)
    stats = NetworkStats(d_bar=1.0, d_bar_max=100.0)
    assert difference(10, params, stats, 1.0) < 0


def test_difference_identity_random_draws():
    """difference == n((p_ch - p_hn) d_m^2 + (1 - 4 p_ch) d^2) eps, 1000 draws."""
    rng = random.Random(314)
    for _ in range(1000):
        params = ProtocolParams(
            p_ch=rng.uniform(0.01, 1.0), p_hn=rng.uniform(0.0, 1.0), p_h=rng.uniform(0, 1)
        )
        d = rng.uniform(0.1, 100.0)
        dm = d * rng.uniform(1.0, 2.0)
        stats = NetworkStats(d_bar=d, d_bar_max=dm)
        n = rng.randint(1, 500)
        eps = rng.uniform(1e-9, 1.0)
        want = n * ((params.p_ch - params.p_hn) * dm**2 + (1 - 4 * params.p_ch) * d**2) * eps
        assert difference(n, params, stats, eps) == pytest.approx(want, rel=1e-12)


def test_estimates_linear_in_n_and_eps_quadratic_in_distances():
    params = ProtocolParams(p_ch=0.2, p_hn=0.3)
    stats = NetworkStats(d_bar=5.0, d_bar_max=12.0)
    doubled = NetworkStats(d_bar=10.0, d_bar_max=24.0)
    for fn in (estimate_least, estimate_leach):
        base = fn(10, params, stats, 1e-6)
        assert fn(20, params, stats, 1e-6) == pytest.approx(2 * base)
        assert fn(10, params, stats, 2e-6) == pytest.approx(2 * base)
        assert fn(10, params, doubled, 1e-6) == pytest.approx(4 * base)
