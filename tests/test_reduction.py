"""Reduction of a distribution to the one-dimensional summand F(u) = u^2 I(u)."""

import math

import numpy as np
import pytest

from vacgas import (
    DistributionSpec,
    DomainError,
    Family,
    ReducedIntegrand,
    SingularityError,
    eval_f,
    inner_integral,
    reduce_distribution,
    reduced_big_f,
)

FD = DistributionSpec.fermi_dirac(25.0, 2.0)


def fd_inner_closed_form(spec, u):
    # I(u) = 2 (cutoff - u) + (2/b) log(1 + exp(-b (cutoff - u)))
    b = spec.sharpness
    z = b * (spec.cutoff - u)
    softplus = math.log1p(math.exp(-abs(z))) + max(-z, 0.0)
    return 2.0 * (spec.cutoff - u) + (2.0 / b) * softplus


# -- closed-form checks -------------------------------------------------------


def test_fd_inner_deep_inside():
    assert inner_integral(FD, 10.0) == pytest.approx(fd_inner_closed_form(FD, 10.0), rel=1e-9)
    assert inner_integral(FD, 10.0) == pytest.approx(30.0 + math.log1p(math.exp(-30.0)), rel=1e-9)


def test_fd_inner_at_cutoff():
    assert inner_integral(FD, 25.0) == pytest.approx(math.log(2.0), rel=1e-9)


def test_fd_inner_tail_positive_and_tiny():
    val = inner_integral(FD, 40.0)
    assert 0.0 < val < 1e-12


def test_sharp_inner_is_linear():
    step = DistributionSpec.sharp(25.0)
    for u in (0.0, 5.0, 24.0):
        assert inner_integral(step, u) == pytest.approx(2.0 * (25.0 - u), rel=1e-12)
    assert inner_integral(step, 30.0) == 0.0


def test_mb_inner_closed_form():
    mb = DistributionSpec.maxwell_boltzmann(25.0, 2.0)
    for u in (10.0, 26.0):
        assert inner_integral(mb, u) == pytest.approx(math.exp(2.0 * (25.0 - u)), rel=1e-9)


def test_be_inner_beyond_pole():
    be = DistributionSpec.bose_einstein(25.0, 2.0)
    expected = -math.log(-math.expm1(-2.0))
    assert inner_integral(be, 26.0) == pytest.approx(expected, rel=1e-9)


def test_be_inner_across_pole_raises():
    be = DistributionSpec.bose_einstein(25.0, 2.0)
    with pytest.raises(SingularityError):
        inner_integral(be, 10.0)


def test_inner_monotone_decreasing():
    vals = [inner_integral(FD, u) for u in (0.0, 10.0, 25.0, 40.0)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] >= 0.0


def test_big_f_zero_at_origin():
    assert reduced_big_f(FD, 0.0) == 0.0


def test_big_f_assembly():
    u = 7.0
    assert reduced_big_f(FD, u) == pytest.approx(u * u * inner_integral(FD, u), rel=1e-12)


def test_negative_arguments_rejected():
    with pytest.raises(DomainError):
        inner_integral(FD, -1.0)
    with pytest.raises(DomainError):
        reduced_big_f(FD, -1.0)


# -- substitution identity ----------------------------------------------------


def test_inner_matches_brute_force_substitution():
    """I(u) is the x-integral of f(sqrt(x + u^2))/sqrt(x + u^2); check it
    against a 10^6-panel midpoint rule on randomly drawn smooth cases."""
    rng = np.random.default_rng(2024)
    panels = 1_000_000
    for _ in range(12):
        lam = rng.uniform(5.0, 30.0)
        b = rng.uniform(0.5, 3.0)
        spec = DistributionSpec.fermi_dirac(lam, b)
        u = rng.uniform(2.0, lam)
        top = lam + 60.0 / b
        x_hi = top * top - u * u
        x = (np.arange(panels) + 0.5) * (x_hi / panels)
        t = np.sqrt(x + u * u)
        brute = float(np.sum(eval_f(spec, t) / t)) * (x_hi / panels)
        assert inner_integral(spec, u) == pytest.approx(brute, rel=1e-8)


def test_sharp_inner_matches_brute_force_substitution():
    lam, u = 25.0, 10.0
    panels = 1_000_000
    x_hi = lam * lam - u * u
    x = (np.arange(panels) + 0.5) * (x_hi / panels)
    brute = float(np.sum(1.0 / np.sqrt(x + u * u))) * (x_hi / panels)
    assert inner_integral(DistributionSpec.sharp(lam), u) == pytest.approx(brute, rel=1e-8)


# -- ReducedIntegrand plumbing -------------------------------------------------


def test_reduce_distribution_counts_work():
    integrand = reduce_distribution(FD)
    assert integrand.f_evaluations == 0
    assert integrand.big_f_evaluations == 0
    integrand.big_f(10.0)
    assert integrand.big_f_evaluations == 1
    assert integrand.f_evaluations > 0


def test_default_n_max_covers_tail():
    assert reduce_distribution(FD).default_n_max() == 50
    assert reduce_distribution(DistributionSpec.sharp(5.0)).default_n_max() == 5
    assert reduce_distribution(DistributionSpec.fermi_dirac(25.0, 3.0)).default_n_max() == 42


def test_tail_bound_dominates_remainder():
    integrand = reduce_distribution(FD)
    bound = integrand.tail_bound(50)
    # geometric bound must cover the next actual term
    assert bound > integrand.big_f(51.0)
    assert bound < 1e-6
    sharp = reduce_distribution(DistributionSpec.sharp(5.0))
    assert sharp.tail_bound(5) == 0.0


def test_synthetic_integrand_has_no_inner():
    synthetic = ReducedIntegrand.from_function(lambda u: -2.0 * u**3)
    assert synthetic.big_f(2.0) == -16.0
    assert synthetic.default_n_max() is None
    with pytest.raises(DomainError):
        synthetic.inner(1.0)


def test_constructor_validation():
    with pytest.raises(DomainError):
        ReducedIntegrand()
    with pytest.raises(DomainError):
        ReducedIntegrand(spec=FD, big_f_func=lambda u: u)


def test_linear_split_is_continuous_at_cutoff():
    # below the cutoff I(u) is assembled as 2 (cutoff - u) plus a tail, above
    # it as the tail alone; both sides of that seam must match the closed form
    integrand = reduce_distribution(FD)
    for u in (25.0 - 1e-9, 25.0, 25.0 + 1e-9, 24.99, 25.01):
        inner = fd_inner_closed_form(FD, u)
        assert integrand.inner(u) == pytest.approx(inner, rel=1e-12)
        assert integrand.big_f(u) == pytest.approx(u * u * inner, rel=1e-12)


def test_small_negative_arguments_extend_analytically():
    # boundary-derivative stencils straddle zero
    integrand = reduce_distribution(FD)
    assert integrand.inner(-1e-3) > integrand.inner(0.0)
    assert integrand.big_f(-1e-3) == pytest.approx(integrand.big_f(1e-3), rel=1e-3)


# -- closed forms against brute force, every family ------------------------------


def substitution_inner(spec, u, panels=1_000_000):
    """I(u), u > 0, as a midpoint rule for the x-integral of
    f(sqrt(x + u^2)) / sqrt(x + u^2); shares no code with the closed forms."""
    top = spec.cutoff if spec.family is Family.SHARP_CUTOFF else spec.cutoff + 60.0 / spec.sharpness
    x_hi = top * top - u * u
    x = (np.arange(panels) + 0.5) * (x_hi / panels)
    t = np.sqrt(x + u * u)
    return float(np.sum(eval_f(spec, t) / t)) * (x_hi / panels)


def extended_inner(spec, u, anchor=2.0, panels=1_000_000):
    """Analytic extension below the anchor: I(anchor) + 2 int_u^anchor f."""
    t = u + (np.arange(panels) + 0.5) * ((anchor - u) / panels)
    head = float(np.sum(eval_f(spec, t))) * ((anchor - u) / panels)
    return substitution_inner(spec, anchor) + 2.0 * head


CLOSED_FORM_CASES = [
    (DistributionSpec.fermi_dirac(12.5, 1.7), (3.0, 12.5, 14.0)),
    (DistributionSpec.sharp(12.5), (3.0, 11.0)),
    (DistributionSpec.maxwell_boltzmann(12.5, 1.7), (6.0, 12.5, 14.0)),
    (DistributionSpec.bose_einstein(12.5, 1.7), (13.0, 15.0)),
]


@pytest.mark.parametrize("spec,points", CLOSED_FORM_CASES, ids=["fd", "sharp", "mb", "be"])
def test_closed_form_matches_substitution_oracle(spec, points):
    integrand = reduce_distribution(spec)
    for u in points:
        brute = substitution_inner(spec, u)
        assert inner_integral(spec, u) == pytest.approx(brute, rel=1e-8)
        assert integrand.inner(u) == inner_integral(spec, u)
        assert integrand.big_f(u) == reduced_big_f(spec, u)
        assert reduced_big_f(spec, u) == pytest.approx(u * u * brute, rel=1e-8)


@pytest.mark.parametrize("spec,_", CLOSED_FORM_CASES[:3], ids=["fd", "sharp", "mb"])
def test_closed_form_extends_below_zero(spec, _):
    integrand = reduce_distribution(spec)
    for u in (-0.05, -1e-3):
        assert integrand.inner(u) == pytest.approx(extended_inner(spec, u), rel=1e-8)


def test_be_pole_window_edge():
    lam, b = 25.0, 2.0
    integrand = reduce_distribution(DistributionSpec.bose_einstein(lam, b))
    for u in (lam, lam + 0.5e-6, math.nextafter(lam + 1e-6, 0.0), 10.0, -1e-3):
        with pytest.raises(SingularityError):
            integrand.inner(u)
        with pytest.raises(SingularityError):
            integrand.big_f(u)
    edge = lam + 2e-6
    delta = edge - lam
    # I = -(2/b) log(1 - exp(-b delta)) ~ -(2/b) log(b delta) + delta near the pole
    assert integrand.inner(edge) == pytest.approx(-(2.0 / b) * math.log(b * delta) + delta, rel=1e-9)


def test_counter_counts_closed_form_evaluations():
    integrand = reduce_distribution(FD)
    integrand.big_f(0.0)
    assert integrand.f_evaluations == 0
    integrand.big_f(3.0)
    integrand.big_f(-3e-3)
    integrand.inner(4.0)
    assert integrand.f_evaluations == 3
    assert integrand.big_f_evaluations == 3


def test_mb_overflow_is_a_domain_error():
    # exp(sharpness * (cutoff - u)) beyond double range
    mb = DistributionSpec.maxwell_boltzmann(400.0, 2.0)
    with pytest.raises(DomainError):
        inner_integral(mb, 1.0)
    assert inner_integral(mb, 50.0) == pytest.approx(math.exp(700.0), rel=1e-12)


# -- golden bits of the closed forms ---------------------------------------------

# (u, float.hex of I(u), float.hex of F(u)) per spec, on a grid through u < 0,
# u = 0, the cutoff and one ulp either side of it. An exception class stands
# for a raise. F(0) is exactly zero without evaluating I, even where I(0)
# overflows or sits in the pole window.
GRID_BITS = {
    ("fd", 25.0, 2.0): (
        (-0.001, "0x1.9004189374bc7p+5", "0x1.a3727a34be3c7p-15"),
        (0.0, "0x1.9000000000000p+5", "0x0.0p+0"),
        (7.0, "0x1.2000000000000p+5", "0x1.b900000000000p+10"),
        (24.999999999999996, "0x1.62e42fefa3a0fp-1", "0x1.b1378c84073c0p+8"),
        (25.0, "0x1.62e42fefa39efp-1", "0x1.b1378c84073b8p+8"),
        (25.000000000000004, "0x1.62e42fefa39cfp-1", "0x1.b1378c8407394p+8"),
        (28.0, "0x1.447e35674b30ep-9", "0x1.f0e141c62b22dp+0"),
    ),
    ("mb", 10.0, 1.5): (
        (-0.001, "0x1.0a6ec3152ed78p+22", "0x1.175ff94561a9bp+2"),
        (0.0, "0x1.0a088751e1c5ap+22", "0x0.0p+0"),
        (7.0, "0x1.e01763d2d28e2p+6", "0x1.6f91e86d6934dp+12"),
        (9.999999999999998, "0x1.5555555555565p+0", "0x1.0aaaaaaaaaab6p+7"),
        (10.0, "0x1.5555555555555p+0", "0x1.0aaaaaaaaaaaap+7"),
        (10.000000000000002, "0x1.5555555555545p+0", "0x1.0aaaaaaaaaaa0p+7"),
        (13.0, "0x1.e55c05e1d0574p-7", "0x1.4069bfe21289ap+1"),
        (-500.0, DomainError, DomainError),
    ),
    ("mb", 400.0, 2.0): (
        (-0.001, DomainError, DomainError),
        (0.0, DomainError, "0x0.0p+0"),
        (1.0, DomainError, DomainError),
        (399.99999999999994, "0x1.0000000000200p+0", "0x1.388000000026fp+17"),
        (400.0, "0x1.0000000000000p+0", "0x1.3880000000000p+17"),
        (400.00000000000006, "0x1.ffffffffffc00p-1", "0x1.387fffffffd91p+17"),
        (403.0, "0x1.44e51f113d4d6p-9", "0x1.9292587537f1ep+8"),
    ),
    ("sharp", 50.0, None): (
        (-0.001, "0x1.90020c49ba5e3p+6", "0x1.a37054734137ap-14"),
        (0.0, "0x1.9000000000000p+6", "0x0.0p+0"),
        (7.0, "0x1.5800000000000p+6", "0x1.0760000000000p+12"),
        (49.99999999999999, "0x1.0000000000000p-46", "0x1.0000000000000p-35"),
        (50.0, "0x0.0p+0", "0x0.0p+0"),
        (50.00000000000001, "0x0.0p+0", "0x0.0p+0"),
        (53.0, "0x0.0p+0", "0x0.0p+0"),
    ),
    ("be", 25.0, 2.0): (
        (-0.001, SingularityError, SingularityError),
        (0.0, SingularityError, "0x0.0p+0"),
        (25.0, SingularityError, SingularityError),
        (25.000000000000004, SingularityError, SingularityError),
        (28.0, "0x1.454c5ff2a76bbp-9", "0x1.f21cf2eb905cep+0"),
    ),
}


def _bits(fn, u):
    try:
        return fn(u).hex()
    except (DomainError, SingularityError) as exc:
        return type(exc)


@pytest.mark.parametrize("case", list(GRID_BITS), ids=lambda c: "-".join(map(str, c)))
def test_closed_form_golden_bits(case):
    family, lam, b = case
    spec = DistributionSpec(Family(family), lam, b)
    integrand = reduce_distribution(spec)
    for u, inner, big_f in GRID_BITS[case]:
        assert (_bits(integrand.inner, u), _bits(integrand.big_f, u)) == (inner, big_f), u
        if u >= 0.0:
            assert _bits(lambda x: inner_integral(spec, x), u) == inner, u
            assert _bits(lambda x: reduced_big_f(spec, x), u) == big_f, u


@pytest.mark.parametrize(
    "spec,u,exc,message",
    [
        (
            DistributionSpec.maxwell_boltzmann(400.0, 2.0), 1.0, DomainError,
            "Maxwell-Boltzmann occupancy overflows double precision at u = 1.0 "
            "(sharpness*(cutoff - u) = 798.0)",
        ),
        (
            DistributionSpec.maxwell_boltzmann(10.0, 1.5), -500.0, DomainError,
            "Maxwell-Boltzmann occupancy overflows double precision at u = -500.0 "
            "(sharpness*(cutoff - u) = 765.0)",
        ),
        (
            DistributionSpec.bose_einstein(25.0, 2.0), 25.000000000000004, SingularityError,
            "inner integral from u = 25.000000000000004 crosses the Bose-Einstein pole",
        ),
    ],
    ids=["mb-400", "mb-negative", "be-pole"],
)
def test_closed_form_error_messages(spec, u, exc, message):
    integrand = reduce_distribution(spec)
    for fn in (integrand.inner, integrand.big_f):
        with pytest.raises(exc) as info:
            fn(u)
        assert str(info.value) == message
    if u >= 0.0:
        with pytest.raises(exc) as info:
            reduced_big_f(spec, u)
        assert str(info.value) == message
    if exc is SingularityError:
        assert info.value.pole_location == spec.cutoff
