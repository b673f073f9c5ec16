"""Dimensional pressures and the separation sweep."""

import math

import pytest

from vacgas import (
    DistributionSpec,
    DomainError,
    Method,
    PlateGeometry,
    ReducedIntegrand,
    ideal_casimir_pressure,
    lamoreaux_sweep,
    pressure_difference,
)

MICRON = 1.0e-6
FD = DistributionSpec.fermi_dirac(25.0, 2.0)


# -- ideal closed form ---------------------------------------------------------


def test_ideal_pressure_at_one_micron(constants):
    p = ideal_casimir_pressure(MICRON)
    expected = -math.pi**2 * constants.hbar * constants.c / (240.0 * MICRON**4)
    assert p == expected
    assert p == pytest.approx(-1.3001257724477536e-3, rel=1e-12)
    assert p == pytest.approx(-1.2998e-3, rel=5e-4)


def test_ideal_pressure_quartic_scaling():
    assert ideal_casimir_pressure(6.0 * MICRON) == pytest.approx(
        ideal_casimir_pressure(MICRON) / 1296.0, rel=1e-12
    )
    ratio = ideal_casimir_pressure(0.6 * MICRON) / ideal_casimir_pressure(6.0 * MICRON)
    assert ratio == pytest.approx(1.0e4, rel=1e-10)


def test_ideal_pressure_rejects_bad_separation():
    with pytest.raises(DomainError):
        ideal_casimir_pressure(0.0)
    with pytest.raises(DomainError):
        ideal_casimir_pressure(-MICRON)


# -- single-separation pressure --------------------------------------------------


def test_prefactor_identity(constants):
    geom = PlateGeometry(separation_d=MICRON)
    result = pressure_difference(FD, geom)
    prefactor = math.pi**2 * constants.hbar * constants.c / (4.0 * MICRON**4)
    assert result.pressure_difference == prefactor * result.bracket.value
    assert result.separation_d == MICRON
    assert result.ideal_limit_pressure == ideal_casimir_pressure(MICRON)


def test_fd_pressure_near_ideal_at_one_micron():
    result = pressure_difference(FD, PlateGeometry(separation_d=MICRON))
    assert result.pressure_difference == pytest.approx(-1.30e-3, rel=5e-3)
    assert abs(result.relative_deviation_from_ideal) < 1e-9
    assert result.pressure_difference < 0.0


def test_pressure_scales_as_inverse_quartic():
    near = pressure_difference(FD, PlateGeometry(separation_d=MICRON))
    far = pressure_difference(FD, PlateGeometry(separation_d=2.0 * MICRON))
    assert far.pressure_difference == pytest.approx(
        near.pressure_difference / 16.0, rel=1e-10
    )


def test_pressure_at_smaller_gap():
    result = pressure_difference(FD, PlateGeometry(separation_d=0.6 * MICRON))
    expected = -1.3001257724477536e-3 / 0.6**4
    assert result.pressure_difference == pytest.approx(expected, rel=1e-6)


def test_direct_method_pressure_keeps_true_bracket(fd_direct):
    result = pressure_difference(
        FD, PlateGeometry(separation_d=MICRON), method=Method.DIRECT
    )
    assert result.bracket.value == pytest.approx(fd_direct.value, rel=1e-10)
    assert result.relative_deviation_from_ideal == pytest.approx(
        (result.pressure_difference - result.ideal_limit_pressure)
        / abs(result.ideal_limit_pressure),
        rel=1e-12,
    )


def test_sharp_cutoff_pressure_attractive_and_huge():
    result = pressure_difference(
        DistributionSpec.sharp(25.0), PlateGeometry(separation_d=MICRON), method=Method.DIRECT
    )
    # bracket -LAMBDA^2/6 dwarfs the ideal -1/60
    assert result.pressure_difference < 0.0
    assert abs(result.relative_deviation_from_ideal) > 1e3


def test_zero_occupancy_gives_zero_pressure():
    zero = ReducedIntegrand.from_function(lambda u: 0.0)
    result = pressure_difference(
        zero, PlateGeometry(separation_d=MICRON), method=Method.DIRECT, n_max=10
    )
    assert result.pressure_difference == 0.0
    assert result.relative_deviation_from_ideal == pytest.approx(1.0, rel=1e-12)


def test_monte_carlo_method_not_accepted_here():
    with pytest.raises(DomainError):
        pressure_difference(FD, PlateGeometry(separation_d=MICRON), method=Method.MONTE_CARLO)


# -- sweep -----------------------------------------------------------------------


def test_fixed_cutoff_sweep_follows_quartic_law():
    sweep = lamoreaux_sweep(FD, 0.6 * MICRON, 6.0 * MICRON, points=5)
    assert len(sweep) == 5
    assert sweep[0].separation_d == 0.6 * MICRON
    assert sweep[-1].separation_d == 6.0 * MICRON
    scaled = [e.pressure_difference * e.separation_d**4 for e in sweep]
    for value in scaled[1:]:
        assert value == pytest.approx(scaled[0], rel=1e-10)


def test_sweep_is_log_spaced():
    sweep = lamoreaux_sweep(FD, 0.6 * MICRON, 6.0 * MICRON, points=4)
    ds = [e.separation_d for e in sweep]
    ratios = [b / a for a, b in zip(ds, ds[1:])]
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-12)


def test_physical_cutoff_sweep_tracks_ideal(constants):
    k_c = 1.0 / constants.bohr_radius
    sweep = lamoreaux_sweep(FD, 0.6 * MICRON, 6.0 * MICRON, points=5, k_c_physical=k_c)
    assert sweep.all_within_ideal
    for entry in sweep:
        assert abs(entry.relative_deviation_from_ideal) < 1e-5
        lam = entry.bracket.diagnostics["lambda"]
        assert lam == pytest.approx(k_c * entry.separation_d / math.pi, rel=1e-12)
        # affinity is preserved while the dimensionless transition sharpens
        assert lam * entry.bracket.diagnostics["sharpness"] == pytest.approx(50.0, rel=1e-12)


def test_fixed_cutoff_sweep_departs_from_ideal():
    # sharpness 2 at fixed cutoff: the aliased bracket sits far from -1/60
    sweep = lamoreaux_sweep(FD, 0.6 * MICRON, 6.0 * MICRON, points=2, method=Method.DIRECT)
    assert not sweep.all_within_ideal


def test_sweep_iteration_protocol():
    sweep = lamoreaux_sweep(FD, MICRON, 2.0 * MICRON, points=3)
    assert [e.separation_d for e in sweep] == [e.separation_d for e in sweep.entries]
    assert sweep[1].separation_d < sweep[2].separation_d


def test_sweep_validation():
    with pytest.raises(DomainError):
        lamoreaux_sweep(FD, MICRON, 2.0 * MICRON, points=1)
    with pytest.raises(DomainError):
        lamoreaux_sweep(FD, 2.0 * MICRON, MICRON, points=5)
    with pytest.raises(DomainError):
        lamoreaux_sweep(FD, MICRON, MICRON, points=2)
    with pytest.raises(DomainError):
        lamoreaux_sweep(FD, 0.0, MICRON, points=2)
    with pytest.raises(DomainError):
        lamoreaux_sweep(FD, MICRON, math.inf, points=2)
    with pytest.raises(DomainError):
        lamoreaux_sweep(FD, MICRON, 2.0 * MICRON, points=5, k_c_physical=-1.0)
