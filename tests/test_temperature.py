"""Implied temperature of the occupancy edge under both conventions."""

import math

import pytest

from vacgas import (
    Convention,
    DistributionSpec,
    DomainError,
    Family,
    affinity_from_temperature,
    eval_f,
    eval_f_second_derivative,
    temperature_from_affinity,
)


@pytest.fixture(scope="module")
def k_bohr(constants):
    return 1.0 / constants.bohr_radius


def test_wavenumber_literal_reference(k_bohr):
    est = temperature_from_affinity(-1.0, k_bohr)
    assert est.convention is Convention.WAVENUMBER_LITERAL
    assert est.temperature == pytest.approx(1.368723060405483e33, rel=1e-12)
    assert est.temperature == pytest.approx(1.369e33, rel=1e-3)


def test_energy_consistent_reference(k_bohr):
    est = temperature_from_affinity(-1.0, k_bohr, Convention.ENERGY_CONSISTENT)
    assert est.temperature == pytest.approx(43272545.983228706, rel=1e-12)
    assert est.temperature == pytest.approx(4.327e7, rel=2e-3)


def test_cutoff_frequency_recorded(k_bohr):
    est = temperature_from_affinity(-1.0, k_bohr)
    assert est.omega_c == pytest.approx(5.66525639848374e18, rel=2e-4)
    assert est.k_c == k_bohr
    assert est.alpha == -1.0


def test_convention_ratio_is_hbar_c(constants, k_bohr):
    literal = temperature_from_affinity(-2.5, k_bohr).temperature
    energy = temperature_from_affinity(-2.5, k_bohr, Convention.ENERGY_CONSISTENT).temperature
    assert energy / literal == pytest.approx(constants.hbar * constants.c, rel=1e-12)


def test_temperature_proportionalities(k_bohr):
    base = temperature_from_affinity(-1.0, k_bohr).temperature
    assert temperature_from_affinity(-1.0, 2.0 * k_bohr).temperature == pytest.approx(
        2.0 * base, rel=1e-12
    )
    assert temperature_from_affinity(-2.0, k_bohr).temperature == pytest.approx(
        base / 2.0, rel=1e-12
    )


def test_round_trip_both_conventions(k_bohr):
    for convention in Convention:
        est = temperature_from_affinity(-7.5, k_bohr, convention)
        back = affinity_from_temperature(est.temperature, k_bohr, convention)
        assert back == pytest.approx(-7.5, rel=1e-12)


def test_affinity_implied_by_enormous_temperature(k_bohr):
    assert affinity_from_temperature(1.369e33, k_bohr) == pytest.approx(-1.0, rel=1e-3)
    assert abs(affinity_from_temperature(1.0e40, k_bohr)) < 1e-6


def test_beta_property(k_bohr):
    est = temperature_from_affinity(-50.0, k_bohr)
    assert est.beta == pytest.approx(50.0 / k_bohr, rel=1e-14)


def test_domain_validation(k_bohr):
    with pytest.raises(DomainError):
        temperature_from_affinity(0.0, k_bohr)
    with pytest.raises(DomainError):
        temperature_from_affinity(1.0, k_bohr)
    with pytest.raises(DomainError):
        temperature_from_affinity(-1.0, 0.0)
    with pytest.raises(DomainError):
        affinity_from_temperature(0.0, k_bohr)
    with pytest.raises(DomainError):
        affinity_from_temperature(-300.0, k_bohr)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_cutoff_wavenumber_is_rejected(bad):
    with pytest.raises(DomainError):
        temperature_from_affinity(-1.0, bad)
    with pytest.raises(DomainError):
        affinity_from_temperature(300.0, bad)
    with pytest.raises(DomainError):
        temperature_from_affinity(-bad, 1e10)


def test_edge_is_thermal_inflection(k_bohr):
    # the decay length implied by the estimate reproduces a Fermi-Dirac edge
    # whose curvature vanishes exactly at the cutoff
    est = temperature_from_affinity(-50.0, k_bohr)
    d = 1.0e-6
    spec = DistributionSpec.from_physical(Family.FERMI_DIRAC, est.k_c, est.beta, d)
    assert eval_f(spec, spec.cutoff) == 0.5
    b = spec.sharpness
    assert abs(eval_f_second_derivative(spec, spec.cutoff)) <= 1e-12 * b * b
    assert spec.alpha == pytest.approx(-50.0, rel=1e-12)
