"""Adaptive quadrature wrapper."""

import math

import pytest
from scipy import integrate as scipy_integrate

from vacgas import ConvergenceError, DistributionSpec, integrate, reduce_distribution


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


# -- the first Gauss-Kronrod step is QUADPACK's, bit for bit ---------------------

SPECS = (
    DistributionSpec.fermi_dirac(25.0, 2.0),
    DistributionSpec.fermi_dirac(25.5, 0.8),
    DistributionSpec.fermi_dirac(2000.0, 0.5),
    DistributionSpec.maxwell_boltzmann(10.0, 1.5),
    DistributionSpec.sharp(12.0),
    DistributionSpec.sharp(49.8633),
)


def bracket_panels(spec):
    """bracket_direct's panels: unit panels, the one holding the cutoff split there."""
    lam = spec.cutoff
    for m in range(reduce_distribution(spec).default_n_max()):
        lo, hi = float(m), float(m + 1)
        if lo < lam < hi:
            yield lo, lam
            yield lam, hi
        else:
            yield lo, hi


def scipy_qags(func, a, b, rel_tol):
    value, error, info = scipy_integrate.quad(
        func, a, b, epsabs=0.0, epsrel=rel_tol, limit=100, full_output=1
    )[:3]
    return value, error, info["neval"]


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-13])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family.value}-{s.cutoff}")
def test_first_step_matches_quadpack_bitwise(spec, rel_tol):
    func = reduce_distribution(spec).big_f
    for a, b in bracket_panels(spec):
        result = integrate(func, a, b, rel_tol=rel_tol, limit=100)
        assert (result.value, result.error, result.evaluations) == scipy_qags(func, a, b, rel_tol)
        assert result.evaluations == 21


def test_unsettled_panel_falls_back_to_quadpack():
    # The sharp kink at 49.8633 inside an unsplit panel: QAGS must bisect.
    func = reduce_distribution(DistributionSpec.sharp(49.8633)).big_f
    value, error, neval = scipy_qags(func, 49.0, 50.0, 1e-10)
    assert neval > 21
    result = integrate(func, 49.0, 50.0, rel_tol=1e-10, limit=100)
    assert (result.value, result.error) == (value, error)
    assert result.evaluations == 21 + neval


def test_abs_tol_is_quadpacks_epsabs():
    func = reduce_distribution(DistributionSpec.sharp(49.8633)).big_f
    first = integrate(func, 49.0, 50.0, rel_tol=1e-10, abs_tol=1e300)
    assert first.evaluations == 21
    # a first step within abs_tol is accepted as it stands
    settled = integrate(func, 49.0, 50.0, rel_tol=1e-10, abs_tol=first.error)
    assert (settled.value, settled.error, settled.evaluations) == (first.value, first.error, 21)
    # below it QAGS bisects, stopping at max(abs_tol, rel_tol*|value|)
    abs_tol = first.error * 1e-3
    value, error, info = scipy_integrate.quad(
        func, 49.0, 50.0, epsabs=abs_tol, epsrel=1e-10, limit=200, full_output=1
    )[:3]
    result = integrate(func, 49.0, 50.0, rel_tol=1e-10, abs_tol=abs_tol)
    assert (result.value, result.error, result.evaluations) == (value, error, 21 + info["neval"])
    assert error <= abs_tol < first.error
