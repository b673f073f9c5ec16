"""Adaptive quadrature wrapper."""

import math

import pytest

from vacgas import ConvergenceError, integrate


def test_gamma_self_check():
    # int_0^inf u^2 e^-u du = 2
    result = integrate(lambda u: u * u * math.exp(-u), 0.0, math.inf, rel_tol=1e-12)
    assert result.value == pytest.approx(2.0, rel=1e-12)
    assert result.error < 1e-10
    assert result.evaluations > 0


def test_error_estimate_bounds_true_error():
    result = integrate(lambda u: math.exp(-u * u), 0.0, 10.0, rel_tol=1e-10)
    exact = math.sqrt(math.pi) / 2.0
    assert abs(result.value - exact) <= max(result.error, 1e-15)


def test_unresolvable_integrand_raises():
    with pytest.raises(ConvergenceError) as info:
        integrate(lambda u: math.sin(1.0 / u), 1e-12, 1.0, rel_tol=1e-13, limit=10)
    assert "evaluations" in info.value.diagnostics
