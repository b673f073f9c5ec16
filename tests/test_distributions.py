"""Occupancy families: values, structure, compliance verdicts."""

import math

import numpy as np
import pytest

from vacgas import (
    DistributionSpec,
    DomainError,
    Family,
    SingularityError,
    UnsupportedFamilyError,
    check_cutoff_compliance,
    eval_f,
    eval_f_second_derivative,
)

FD = DistributionSpec.fermi_dirac(25.0, 2.0)


# -- construction ------------------------------------------------------------


def test_family_codes():
    assert [f.value for f in Family] == ["sharp", "fd", "mb", "be"]


def test_smooth_families_require_sharpness():
    for ctor in (Family.FERMI_DIRAC, Family.MAXWELL_BOLTZMANN, Family.BOSE_EINSTEIN):
        with pytest.raises(DomainError):
            DistributionSpec(ctor, 25.0)
        with pytest.raises(DomainError):
            DistributionSpec(ctor, 25.0, -2.0)


def test_cutoff_must_be_positive():
    with pytest.raises(DomainError):
        DistributionSpec.sharp(0.0)
    with pytest.raises(DomainError):
        DistributionSpec.fermi_dirac(-25.0, 2.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cutoff_and_sharpness_must_be_finite(bad):
    with pytest.raises(DomainError):
        DistributionSpec.sharp(bad)
    with pytest.raises(DomainError):
        DistributionSpec.fermi_dirac(bad, 2.0)
    with pytest.raises(DomainError):
        DistributionSpec.fermi_dirac(25.0, bad)
    with pytest.raises(DomainError):
        DistributionSpec.from_physical(Family.FERMI_DIRAC, bad, 1e-9, 1e-6)


def test_affinity_property():
    assert FD.alpha == -50.0
    assert DistributionSpec.sharp(25.0).alpha is None


def test_from_physical_dimensionless_conversion():
    d = 1.0e-6
    k_c = 25.0 * math.pi / d
    beta = d / (2.0 * math.pi)
    spec = DistributionSpec.from_physical(Family.FERMI_DIRAC, k_c, beta, d)
    assert spec.cutoff == pytest.approx(25.0, rel=1e-14)
    assert spec.sharpness == pytest.approx(0.5, rel=1e-14)


def test_from_physical_sharp_ignores_beta():
    spec = DistributionSpec.from_physical(Family.SHARP_CUTOFF, math.pi / 1e-6, 0.0, 1e-6)
    assert spec.family is Family.SHARP_CUTOFF
    assert spec.cutoff == pytest.approx(1.0, rel=1e-14)
    assert spec.sharpness is None


def test_from_affinity_round_trip():
    d = 1.0e-6
    beta = 1.0e-8
    spec = DistributionSpec.from_affinity(Family.FERMI_DIRAC, -50.0, beta, d)
    assert spec.alpha == pytest.approx(-50.0, rel=1e-12)
    with pytest.raises(DomainError):
        DistributionSpec.from_affinity(Family.FERMI_DIRAC, 50.0, beta, d)
    with pytest.raises(DomainError):
        DistributionSpec.from_affinity(Family.FERMI_DIRAC, -50.0, -beta, d)


# -- Fermi-Dirac values ------------------------------------------------------


def test_fd_half_at_cutoff_exactly():
    assert eval_f(FD, 25.0) == 0.5


def test_fd_reference_points():
    assert eval_f(FD, 30.0) == pytest.approx(1.0 / (math.exp(10.0) + 1.0), rel=1e-14)
    assert eval_f(FD, 30.0) == pytest.approx(4.5397868702434395e-05, rel=1e-12)
    assert eval_f(FD, 20.0) == pytest.approx(1.0 - 4.5397868702434395e-05, rel=1e-12)


def test_fd_particle_hole_symmetry():
    rng = np.random.default_rng(42)
    for delta in rng.uniform(0.0, 30.0, size=25):
        assert eval_f(FD, 25.0 - delta) + eval_f(FD, 25.0 + delta) == pytest.approx(
            1.0, abs=1e-12
        )


def test_fd_monotone_decreasing():
    u = np.sort(np.random.default_rng(1).uniform(0.0, 50.0, size=1000))
    f = eval_f(FD, u)
    assert np.all(np.diff(f) <= 0.0)
    # strict on the transition window, where values stay representable
    window = np.sort(np.random.default_rng(2).uniform(20.0, 30.0, size=1000))
    assert np.all(np.diff(eval_f(FD, window)) < 0.0)


def test_fd_no_overflow_far_from_cutoff():
    steep = DistributionSpec.fermi_dirac(25.0, 50.0)
    assert eval_f(steep, 1000.0) == 0.0
    assert eval_f(steep, 0.0) == 1.0


def test_fd_array_matches_scalar():
    u = np.linspace(0.0, 50.0, 101)
    vec = eval_f(FD, u)
    assert vec.shape == u.shape
    for ui, fi in zip(u, vec):
        assert eval_f(FD, float(ui)) == fi


def test_fd_scalar_returns_python_float():
    assert isinstance(eval_f(FD, 10.0), float)


def test_fd_approaches_sharp_step():
    steep = DistributionSpec.fermi_dirac(25.0, 30.0)
    step = DistributionSpec.sharp(25.0)
    for u in (0.0, 10.0, 24.0, 26.0, 40.0):
        gap = abs(eval_f(steep, u) - eval_f(step, u))
        assert gap <= 2.0 * math.exp(-30.0 * abs(u - 25.0))


# -- other families ----------------------------------------------------------


def test_sharp_step_values():
    step = DistributionSpec.sharp(25.0)
    assert eval_f(step, 10.0) == 1.0
    assert eval_f(step, 30.0) == 0.0
    assert eval_f(step, 25.0) == 0.5


def test_mb_grows_without_bound_below_cutoff():
    mb = DistributionSpec.maxwell_boltzmann(25.0, 2.0)
    assert eval_f(mb, 25.0) == 1.0
    assert eval_f(mb, 30.0) == pytest.approx(math.exp(-10.0), rel=1e-14)
    assert eval_f(mb, 20.0) == pytest.approx(math.exp(10.0), rel=1e-14)
    assert eval_f(mb, 12.5) > 1e10


def test_mb_exponent_clamped_not_overflowing():
    mb = DistributionSpec.maxwell_boltzmann(25.0, 50.0)
    val = eval_f(mb, 0.0)
    assert math.isfinite(val)
    assert val == math.exp(700.0)


def test_be_pole_and_negative_branch():
    be = DistributionSpec.bose_einstein(25.0, 2.0)
    assert eval_f(be, 26.0) == pytest.approx(1.0 / (math.exp(2.0) - 1.0), rel=1e-14)
    assert eval_f(be, 24.0) < 0.0
    with pytest.raises(SingularityError) as info:
        eval_f(be, 25.0)
    assert info.value.pole_location == 25.0


# -- second derivative -------------------------------------------------------


def test_fd_second_derivative_vanishes_at_cutoff():
    b = FD.sharpness
    assert abs(eval_f_second_derivative(FD, 25.0)) <= 1e-12 * b * b


def test_fd_second_derivative_closed_form():
    u = 24.0
    f = eval_f(FD, u)
    b = FD.sharpness
    expected = b * b * f * (1.0 - f) * (1.0 - 2.0 * f)
    assert eval_f_second_derivative(FD, u) == pytest.approx(expected, rel=1e-14)


def test_fd_second_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    h = 1e-3
    for u in rng.uniform(20.0, 30.0, size=20):
        fin = (eval_f(FD, u + h) - 2.0 * eval_f(FD, u) + eval_f(FD, u - h)) / (h * h)
        assert eval_f_second_derivative(FD, float(u)) == pytest.approx(fin, rel=1e-4, abs=1e-6)


def test_fd_second_derivative_antisymmetric_about_cutoff():
    for delta in (0.3, 1.0, 2.5):
        left = eval_f_second_derivative(FD, 25.0 - delta)
        right = eval_f_second_derivative(FD, 25.0 + delta)
        assert left == pytest.approx(-right, rel=1e-10)


def test_second_derivative_other_families_rejected():
    for spec in (
        DistributionSpec.sharp(25.0),
        DistributionSpec.maxwell_boltzmann(25.0, 2.0),
        DistributionSpec.bose_einstein(25.0, 2.0),
    ):
        with pytest.raises(UnsupportedFamilyError):
            eval_f_second_derivative(spec, 10.0)


# -- compliance checker ------------------------------------------------------


def test_fd_is_compliant():
    report = check_cutoff_compliance(FD, epsilon=0.01)
    assert report.passes_plateau
    assert report.passes_decay
    assert report.passes_range
    assert report.verdict


def test_sharp_is_compliant():
    assert check_cutoff_compliance(DistributionSpec.sharp(25.0)).verdict


def test_wide_fd_fails_plateau():
    # b*cutoff = 2: the transition leaks all the way down to u = 0
    report = check_cutoff_compliance(DistributionSpec.fermi_dirac(2.0, 1.0))
    assert not report.passes_plateau
    assert not report.verdict


def test_mb_fails_plateau_and_range():
    report = check_cutoff_compliance(DistributionSpec.maxwell_boltzmann(25.0, 2.0))
    assert not report.passes_plateau
    assert report.passes_decay
    assert not report.passes_range
    assert not report.verdict


def test_be_fails_range_via_nan_pole():
    report = check_cutoff_compliance(DistributionSpec.bose_einstein(25.0, 2.0))
    assert not report.verdict
    assert not report.passes_range


def test_compliance_probe_diagnostics():
    report = check_cutoff_compliance(FD)
    assert len(report.diagnostics) == 2000
    us = [u for u, _ in report.diagnostics]
    assert min(us) == 0.0
    assert max(us) == pytest.approx(250.0)
    assert all(0.0 <= f <= 1.0 for _, f in report.diagnostics)


def test_compliance_epsilon_bounds():
    for eps in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(DomainError):
            check_cutoff_compliance(FD, epsilon=eps)


def _scalar_compliance(spec, epsilon=0.01):
    """Reference loop: one scalar eval_f per probe, NaN where it raises."""
    lam = spec.cutoff
    us = np.concatenate(
        [np.linspace(0.0, lam / 2.0, 1000), np.linspace(2.0 * lam, 10.0 * lam, 1000)]
    )
    vals = []
    for u in us:
        try:
            vals.append(float(eval_f(spec, float(u))))
        except SingularityError:
            vals.append(float("nan"))
    fs = np.array(vals)
    plateau_f, decay_f = fs[:1000], fs[1000:]
    plateau = bool(np.all(np.isfinite(plateau_f)) and np.all(np.abs(plateau_f - 1.0) <= epsilon))
    decay = bool(np.all(np.isfinite(decay_f)) and np.all(decay_f <= epsilon))
    in_range = bool(np.all(np.isfinite(fs)) and np.all((fs >= 0.0) & (fs <= 1.0)))
    return plateau, decay, in_range, us, fs


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.sharp(25.0),
        DistributionSpec.fermi_dirac(25.0, 2.0),
        DistributionSpec.fermi_dirac(7.3, 0.4),
        DistributionSpec.maxwell_boltzmann(25.0, 2.0),
        DistributionSpec.bose_einstein(25.0, 2.0),
        # sharpness * (u - cutoff) underflows to zero for u >= 0.3: the
        # plateau grid hits the pole exactly at every one of those points
        DistributionSpec.bose_einstein(0.8, 5e-324),
    ],
    ids=["sharp", "fd", "fd-wide", "mb", "be", "be-pole-hits"],
)
def test_vector_compliance_matches_scalar_loop(spec):
    plateau, decay, in_range, us, fs = _scalar_compliance(spec)
    report = check_cutoff_compliance(spec)
    assert (report.passes_plateau, report.passes_decay, report.passes_range) == (
        plateau,
        decay,
        in_range,
    )
    assert report.verdict == (plateau and decay and in_range)
    got = np.array(report.diagnostics)
    assert np.array_equal(got[:, 0].view(np.int64), us.view(np.int64))
    assert np.array_equal(got[:, 1].view(np.int64), fs.view(np.int64))


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.sharp(25.0),
        DistributionSpec.fermi_dirac(25.0, 2.0),
        DistributionSpec.bose_einstein(25.0, 2.0),
        DistributionSpec.bose_einstein(0.8, 5e-324),
    ],
    ids=["sharp", "fd", "be", "be-pole-hits"],
)
def test_compliance_pairs_are_python_floats(spec):
    report = check_cutoff_compliance(spec)
    assert all(type(u) is float and type(f) is float for u, f in report.diagnostics)
    _, _, _, us, fs = _scalar_compliance(spec)
    # repr, because NaN pole values never compare equal
    assert repr(report.diagnostics) == repr(tuple((float(u), float(f)) for u, f in zip(us, fs)))


def test_pole_hitting_grid_records_nan():
    report = check_cutoff_compliance(DistributionSpec.bose_einstein(0.8, 5e-324))
    nans = [u for u, f in report.diagnostics if math.isnan(f)]
    assert len(nans) > 1 and min(nans) >= 0.3 - 1e-12
    assert not report.passes_range


def _two_division_logistic(z):
    """The Fermi-Dirac form with one division per branch, as a reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(-np.abs(z))
        return np.where(z >= 0.0, ez / (1.0 + ez), 1.0 / (1.0 + ez))


def test_fd_single_division_is_bitwise_the_two_division_form():
    rng = np.random.default_rng(2026)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0, 745.2, -745.2,
               5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 37.0, -37.0]
    z = np.concatenate(
        [rng.normal(0.0, 30.0, 100_000), rng.uniform(-800.0, 800.0, 100_000), special]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(-np.abs(z))
        single = np.where(z >= 0.0, ez, 1.0) / (1.0 + ez)
    assert np.array_equal(single.view(np.uint64), _two_division_logistic(z).view(np.uint64))
    # eval_f is that expression at z = sharpness * (u - cutoff)
    spec = DistributionSpec.fermi_dirac(25.0, 2.0)
    u = np.concatenate([rng.uniform(-400.0, 450.0, 100_000), [25.0, math.inf, -math.inf]])
    expected = _two_division_logistic(spec.sharpness * (u - spec.cutoff))
    assert np.array_equal(eval_f(spec, u).view(np.uint64), expected.view(np.uint64))
