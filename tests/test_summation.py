"""Bracket engines: direct series-minus-integral and the boundary expansion."""

import math
from fractions import Fraction

import pytest
import sympy

from vacgas import (
    DifferentiationError,
    DistributionSpec,
    DomainError,
    Family,
    Method,
    ReducedIntegrand,
    SingularityError,
    bernoulli,
    bracket_direct,
    bracket_euler_maclaurin,
    eval_f,
    eval_f_second_derivative,
    reduce_distribution,
)
from vacgas.summation import _stencil_coefficients

# Ground truth for the Fermi-Dirac bracket at cutoff 25, sharpness 2, frozen
# from a 50-digit arbitrary-precision evaluation of the defining sum and
# integral. At sharpness 2 the transition is narrower than the unit mode
# spacing, so this is far from the smooth-envelope value -1/60; see the
# lambda_plateau diagnostic.
FD_25_2_BRACKET = -0.0810101068627715
FD_20_2_BRACKET = -0.0577340710
FD_30_2_BRACKET = -0.1094585951


# -- Bernoulli table -----------------------------------------------------------


def test_bernoulli_exact_values():
    table = bernoulli(4)
    assert table.coefficients == (
        Fraction(1, 6),
        Fraction(1, 30),
        Fraction(1, 42),
        Fraction(1, 30),
    )
    assert len(table) == 4
    assert table.entry(1) == Fraction(1, 6)
    assert table.entry(4) == Fraction(1, 30)


def test_bernoulli_leading_weight():
    assert bernoulli(1).entry(1) / math.factorial(2) == Fraction(1, 12)


def test_bernoulli_against_symbolic_oracle():
    table = bernoulli(12)
    for r in range(1, 13):
        reference = abs(sympy.bernoulli(2 * r))
        assert table.entry(r) == Fraction(int(reference.p), int(reference.q))
        assert table.as_floats()[r - 1] == float(reference)


def test_bernoulli_bounds():
    with pytest.raises(DomainError):
        bernoulli(0)
    with pytest.raises(DomainError):
        bernoulli(21)
    table = bernoulli(3)
    with pytest.raises(DomainError):
        table.entry(0)
    with pytest.raises(DomainError):
        table.entry(4)


# -- direct engine --------------------------------------------------------------


def test_direct_sharp_cutoff_closed_form():
    for n in (3, 5, 8):
        result = bracket_direct(reduce_distribution(DistributionSpec.sharp(float(n))))
        assert result.value == pytest.approx(-n * n / 6.0, rel=1e-9)
        assert result.method is Method.DIRECT
        assert result.diagnostics["lambda_plateau"] is False


def test_direct_fd_reference_value(fd_direct):
    assert fd_direct.value == pytest.approx(FD_25_2_BRACKET, rel=1e-8)
    assert fd_direct.error_estimate >= abs(fd_direct.value - FD_25_2_BRACKET)


def test_direct_fd_neighboring_cutoffs(fd_direct_by_cutoff):
    assert fd_direct_by_cutoff[20.0].value == pytest.approx(FD_20_2_BRACKET, rel=1e-6)
    assert fd_direct_by_cutoff[30.0].value == pytest.approx(FD_30_2_BRACKET, rel=1e-6)


def test_direct_fd_narrow_transition_is_flagged(fd_direct):
    # sharpness 2 means sub-grid structure; the result must say so
    assert fd_direct.diagnostics["lambda_plateau"] is False
    assert "spacing" in fd_direct.diagnostics["plateau_note"]


def test_direct_fd_wide_transition_plateau():
    spec = DistributionSpec.fermi_dirac(80.0, 0.5)
    result = bracket_direct(reduce_distribution(spec))
    assert result.diagnostics["lambda_plateau"] is True
    assert result.value == pytest.approx(-1.0 / 60.0, rel=1e-5)


def test_direct_diagnostics_recompose(fd_direct):
    d = fd_direct.diagnostics
    assert fd_direct.value == d["series_sum"] - d["integral_value"]
    assert d["n_max"] == 50
    assert fd_direct.terms_used == 50
    assert d["panels"] >= 50
    assert d["cancellation"] > 0.0
    assert fd_direct.error_estimate > 0.0


def test_direct_zero_occupancy_gives_zero():
    zero = ReducedIntegrand.from_function(lambda u: 0.0)
    result = bracket_direct(zero, n_max=10)
    assert result.value == 0.0


def test_direct_synthetic_requires_n_max():
    with pytest.raises(DomainError):
        bracket_direct(ReducedIntegrand.from_function(lambda u: math.exp(-u)))


def test_direct_rejects_short_series():
    with pytest.raises(DomainError):
        bracket_direct(reduce_distribution(DistributionSpec.fermi_dirac(25.0, 2.0)), n_max=30)


def test_direct_quad_tol_bounds():
    integrand = reduce_distribution(DistributionSpec.sharp(3.0))
    for bad in (0.0, -1e-10, 1e-6):
        with pytest.raises(DomainError):
            bracket_direct(integrand, quad_tol=bad)


def test_direct_bose_einstein_pole_raises():
    be = DistributionSpec.bose_einstein(25.0, 2.0)
    with pytest.raises(SingularityError):
        bracket_direct(reduce_distribution(be))


@pytest.mark.parametrize(
    "lam,b", [(15, 2), (18, 2), (12, 3), (40, 0.8), (20, 1), (30, 0.5), (8, 4)]
)
def test_direct_maxwell_boltzmann_geometric_sum(lam, b):
    # sum n^2 (2/b) e^{b(lam-n)} - int u^2 (2/b) e^{b(lam-u)} du in closed form
    q = math.exp(-b)
    exact = math.exp(b * lam) * ((2.0 / b) * q * (1.0 + q) / (1.0 - q) ** 3 - 4.0 / b**4)
    result = bracket_direct(reduce_distribution(DistributionSpec.maxwell_boltzmann(lam, b)))
    assert abs(result.value - exact) <= result.error_estimate


# -- boundary expansion ----------------------------------------------------------


def test_em_fd_smooth_envelope(fd_em):
    assert fd_em.value == pytest.approx(-1.0 / 60.0, rel=1e-9)
    assert fd_em.method is Method.EULER_MACLAURIN
    assert fd_em.terms_used == 3


def test_em_matches_direct_in_plateau_regime():
    # wide transition: boundary expansion and mode sum see the same physics
    integrand = reduce_distribution(DistributionSpec.fermi_dirac(80.0, 0.5))
    direct = bracket_direct(integrand)
    em = bracket_euler_maclaurin(reduce_distribution(DistributionSpec.fermi_dirac(80.0, 0.5)))
    assert em.value == pytest.approx(direct.value, rel=1e-6)


@pytest.mark.parametrize("lam", [36000.0, 35999.7])
@pytest.mark.parametrize("sharpness", [None, 0.01, 2.0])
def test_em_large_cutoff_smooth_envelope(lam, sharpness):
    # physical sweeps put the cutoff near 36000, where F ~ 2 lambda u^2 must
    # cancel out of the odd-derivative stencils
    if sharpness is None:
        spec, f2 = DistributionSpec.sharp(lam), 0.0
    else:
        spec = DistributionSpec.fermi_dirac(lam, sharpness)
        f2 = eval_f_second_derivative(spec, 0.0)
    result = bracket_euler_maclaurin(reduce_distribution(spec))
    expected = -eval_f(spec, 0.0) / 60.0 + f2 / 756.0
    assert abs(result.value - expected) <= 2.0**-30


def test_em_order_one_vanishes(fd_spec):
    result = bracket_euler_maclaurin(reduce_distribution(fd_spec), order=1)
    assert abs(result.value) < 1e-8
    assert abs(result.diagnostics["odd_derivatives_at_zero"][0]) < 1e-8


def test_em_order_two_already_converged(fd_spec):
    result = bracket_euler_maclaurin(reduce_distribution(fd_spec), order=2)
    assert result.value == pytest.approx(-1.0 / 60.0, rel=1e-6)


def test_em_sign_variant_recorded(fd_em):
    assert fd_em.diagnostics["sign_variant_value"] == pytest.approx(1.0 / 60.0, rel=1e-9)


def test_em_diagnostics_shape(fd_em):
    d = fd_em.diagnostics
    assert len(d["odd_derivatives_at_zero"]) == 3
    assert len(d["terms"]) == 3
    assert d["big_f_at_zero"] == 0.0
    assert d["order"] == 3
    assert d["base_step"] == 1e-3
    assert d["truncation_estimate"] >= 0.0
    assert all(s >= 0.0 for s in d["derivative_spreads"])


def test_em_work_is_boundary_local(fd_em):
    assert fd_em.diagnostics["big_f_evaluations"] <= 40


def test_em_synthetic_cubic_is_exact():
    # F = -2 u^3 has F'''(0) = -12 and no other odd derivatives
    result = bracket_euler_maclaurin(ReducedIntegrand.from_function(lambda u: -2.0 * u**3))
    assert result.value == pytest.approx(-1.0 / 60.0, rel=1e-12, abs=1e-15)
    derivs = result.diagnostics["odd_derivatives_at_zero"]
    assert derivs[0] == pytest.approx(0.0, abs=1e-10)
    assert derivs[1] == pytest.approx(-12.0, rel=1e-10)
    assert derivs[2] == pytest.approx(0.0, abs=1e-6)


def test_em_recovers_known_odd_derivatives():
    # F = u exp(-u^2): F'(0) = 1, F'''(0) = -6, F^(5)(0) = 60
    result = bracket_euler_maclaurin(
        ReducedIntegrand.from_function(lambda u: u * math.exp(-u * u))
    )
    d1, d3, d5 = result.diagnostics["odd_derivatives_at_zero"]
    assert d1 == pytest.approx(1.0, rel=1e-9)
    assert d3 == pytest.approx(-6.0, rel=1e-6)
    assert d5 == pytest.approx(60.0, rel=1e-3)
    expected = -d1 / 12.0 + d3 / 720.0 - d5 / 30240.0
    assert result.value == pytest.approx(expected, rel=1e-12)


def test_em_order_and_table_validation(fd_spec):
    integrand = reduce_distribution(fd_spec)
    with pytest.raises(DomainError):
        bracket_euler_maclaurin(integrand, order=0)
    with pytest.raises(DomainError):
        # past the Bernoulli table's 20 entries
        bracket_euler_maclaurin(integrand, order=21)
    with pytest.raises(DomainError):
        # order 17 is the cap: at 18 the widest stencil's step power overflows
        bracket_euler_maclaurin(integrand, order=18)


def test_stencil_weights_solve_the_moment_conditions():
    # sum_j a_j 2 j^q / q! = [q == m] for every odd q <= m, exactly
    for m in range(1, 36, 2):
        weights, amp = _stencil_coefficients(m)
        assert len(weights) == (m + 1) // 2
        for q in range(1, m + 1, 2):
            moment = sum(
                a * Fraction(2 * j**q, math.factorial(q)) for j, a in enumerate(weights, start=1)
            )
            assert moment == int(q == m), (m, q)
        assert amp == sum(abs(a) for a in weights)


# float.hex of value, error_estimate and each odd derivative. The stencil
# weights are exact rationals, so however they are computed every bit must hold.
EM_GOLDEN_BITS = {
    ("fd", 25.0, 2.0, 3): (
        "-0x1.11111110ee9b5p-6", "0x1.5c1d08094c2b8p-41",
        ("0x1.9000000000000p-58", "-0x1.8000000000732p+3", "-0x1.00c5bac524300p-26"),
    ),
    ("fd", 25.0, 0.8, 3): (
        "-0x1.1111110805676p-6", "0x1.c8d16a119e848p-42",
        ("0x0.0p+0", "-0x1.7ffffff2b88dap+3", "0x1.777ea4778005cp-25"),
    ),
    ("fd", 36000.0, 1.0 / 36000.0, 3): (
        "-0x1.8f4164e58d778p-7", "0x1.0ffe55a2ea787p-30",
        ("0x0.0p+0", "-0x1.18b9fb82d60b2p+3", "-0x1.7dc2422a07f8ep-17"),
    ),
    ("sharp", 36000.0, None, 3): (
        "-0x1.1111103072f1ap-6", "0x1.66497c269edc4p-30",
        ("0x0.0p+0", "-0x1.80000006708a0p+3", "-0x1.a7078e242c03ap-16"),
    ),
    ("mb", 10.0, 1.5, 3): (
        "-0x1.5da4cf1aceed2p+15", "0x1.1f533dc07f8c1p+10",
        ("-0x1.3455555555555p-36", "-0x1.2b49983c1db5ep+25", "-0x1.1894feb9a621bp+28"),
    ),
    ("fd", 25.0, 0.8, 1): ("0x0.0p+0", "0x1.111111079faebp-6", ("0x0.0p+0",)),
    ("fd", 25.0, 0.8, 17): (
        "-0x1.111111080f00bp-6", "0x1.03303a7428a7dp-41",
        (
            "0x0.0p+0", "-0x1.7ffffff2b88dap+3", "0x1.777ea4778005cp-25",
            "-0x1.61031cb6e4bb4p-23", "0x1.070604ef81e67p-24", "0x1.20fe0df885671p-20",
            "-0x1.efaee4d337ac6p-17", "-0x1.349b687743ff4p-38", "0x1.4df9132ed1c3fp-76",
            "-0x1.096b74d726df1p-120", "0x1.ae4fc308aeaeep-173", "-0x1.626aaf5715d16p-233",
            "0x1.27bf978611a14p-301", "-0x1.f301e59db83dfp-378", "0x1.a8e6fbcebe5b9p-462",
            "-0x1.6cb2512f5e79ap-554", "0x1.3b32003b51973p-654",
        ),
    ),
    ("synthetic", None, None, 3): (
        "-0x1.7f97f97c28975p-4", "0x1.6c039a39820fcp-11",
        ("0x1.ffffffffffffep-1", "-0x1.800000000215bp+2", "0x1.dfffff35127c0p+5"),
    ),
}


@pytest.mark.parametrize("case", list(EM_GOLDEN_BITS), ids=lambda c: "-".join(map(str, c)))
def test_em_golden_bits(case):
    family, lam, b, order = case
    if family == "synthetic":
        integrand = ReducedIntegrand.from_function(lambda u: u * math.exp(-u * u))
    else:
        integrand = reduce_distribution(DistributionSpec(Family(family), lam, b))
    result = bracket_euler_maclaurin(integrand, order=order)
    value, error, derivs = EM_GOLDEN_BITS[case]
    assert result.value.hex() == value
    assert result.error_estimate.hex() == error
    assert tuple(d.hex() for d in result.diagnostics["odd_derivatives_at_zero"]) == derivs


def test_em_oscillatory_integrand_refuses():
    with pytest.raises(DifferentiationError):
        bracket_euler_maclaurin(
            ReducedIntegrand.from_function(lambda u: math.sin(4000.0 * u) / 4000.0)
        )


def test_methods_disagree_when_transition_is_subgrid(fd_direct, fd_em):
    # at sharpness 2 the mode sum resolves structure the boundary expansion
    # cannot see; the gap is the aliasing remainder, not a bug
    gap = abs(fd_direct.value - fd_em.value) / abs(fd_direct.value)
    assert gap > 0.5
    assert fd_direct.error_estimate < 1e-6


# float.hex of value, error_estimate, series_sum, integral_value and
# integral_error, then panels, big_f_evaluations and distribution_evaluations.
# Every F value comes from a closed form and every panel is settled by the
# first Gauss-Kronrod step, so these bits are the contract for any rewrite of
# the F kernel or the quadrature.
DIRECT_GOLDEN_BITS = {
    ("fd", 25.0, 2.0): (
        "-0x1.4bd140fa00000p-4", "0x1.dcf5eeab477abp-27",
        "0x1.005299dfa62c3p+16", "0x1.0052ae9cba3bdp+16", "0x1.908130d4e2fd9p-31",
        50, 1100, 1100,
    ),
    ("fd", 25.0, 0.8): (
        "-0x1.11114fdc00000p-6", "0x1.f0b540e359a75p-27",
        "0x1.0aef6898f9223p+16", "0x1.0aef6cdd3e61ap+16", "0x1.a1161a19b178ap-31",
        88, 1936, 1936,
    ),
    ("fd", 400.0, 0.5): (
        "-0x1.1110000000000p-6", "0x1.d97463997febcp-11",
        "0x1.fce0979ef397ep+31", "0x1.fce0979efc206p+31", "0x1.8d8f767434fa3p-15",
        500, 11000, 11000,
    ),
    ("fd", 5.3, 3.7): (
        "0x1.47f0a2a142800p-4", "0x1.016a145cc1e61p-35",
        "0x1.14c1fa46de74ep+7", "0x1.1498fc328a4c9p+7", "0x1.b02f0a0ef817ap-40",
        20, 439, 439,
    ),
    ("mb", 10.0, 1.5): (
        "-0x1.65d178d982300p+15", "0x1.22e2f8792a9bbp-21",
        "0x1.35b534909c10ep+21", "0x1.3b4c7a740219ap+21", "0x1.eca77f5543481p-26",
        44, 968, 968,
    ),
    ("mb", 30.0, 0.5): (
        "-0x1.a151451af6000p+15", "0x1.733a37e563a67p-15",
        "0x1.8ef2b5e680f91p+27", "0x1.8f0ccafad2a87p+27", "0x1.37c1fe93f493cp-19",
        130, 2860, 2860,
    ),
    ("sharp", 50.0, None): (
        "-0x1.a0aaaaaaaa800p+8", "0x1.d921a55313358p-23",
        "0x1.fc6c400000000p+19", "0x1.fca0555555555p+19", "0x1.8d5d42aaaaaa7p-27",
        50, 1100, 1100,
    ),
    ("sharp", 52.37, None): (
        "0x1.7094774320000p+7", "0x1.1cc88b4ee8062p-22",
        "0x1.321d233333332p+20", "0x1.32119e8f791a2p+20", "0x1.de3b87c02d38ap-27",
        54, 1187, 1187,
    ),
    ("synthetic", None, 80): (
        "-0x1.0bb81218ba800p-8", "0x1.e02100e9c5310p-39",
        "0x1.ffde88fdbce6bp+3", "0x1.fffffffffffe0p+3", "0x1.8ffffffffffe8p-43",
        80, 1760, 0,
    ),
}


def _direct_bits(result):
    d = result.diagnostics
    return (
        result.value.hex(), result.error_estimate.hex(),
        d["series_sum"].hex(), d["integral_value"].hex(), d["integral_error"].hex(),
        d["panels"], d["big_f_evaluations"], d["distribution_evaluations"],
    )


@pytest.mark.parametrize("case", list(DIRECT_GOLDEN_BITS), ids=lambda c: "-".join(map(str, c)))
def test_direct_golden_bits(case):
    family, lam, b = case
    if family == "synthetic":
        # here the third entry is n_max
        integrand = ReducedIntegrand.from_function(lambda u: u * u * math.exp(-0.5 * u))
        result = bracket_direct(integrand, n_max=b)
    else:
        result = bracket_direct(reduce_distribution(DistributionSpec(Family(family), lam, b)))
    assert _direct_bits(result) == DIRECT_GOLDEN_BITS[case]


def test_direct_bose_einstein_error_is_pinned():
    with pytest.raises(SingularityError) as info:
        bracket_direct(reduce_distribution(DistributionSpec.bose_einstein(25.0, 2.0)))
    assert type(info.value) is SingularityError
    assert str(info.value) == "inner integral from u = 1.0 crosses the Bose-Einstein pole"


def sharp_exact_bracket(lam: float) -> Fraction:
    """sum_{m < lam} 2 m^2 (lam - m) - lam^4 / 6, exactly."""
    x = Fraction(lam)
    return sum(2 * m * m * (x - m) for m in range(1, math.ceil(x))) - x**4 / 6


@pytest.mark.parametrize("n", [5, 10, 50, 91, 99])
def test_direct_sharp_cutoff_just_above_an_integer(n):
    # the knee panel [n, lam] is a sliver whose F values are rounding noise;
    # it must settle without bisection instead of raising a roundoff error
    for k in range(1, 13):
        for digit in (1, 3):
            lam = n + digit * 10.0**-k
            result = bracket_direct(reduce_distribution(DistributionSpec.sharp(lam)))
            error = abs(Fraction(result.value) - sharp_exact_bracket(lam))
            assert error <= result.error_estimate, (lam, float(error), result.error_estimate)


def test_span_on_big_f_sees_every_evaluation(monkeypatch):
    # a wrapper installed on the class, as a profiler would install it, must
    # see every F evaluation an engine reports
    calls = []
    original = ReducedIntegrand.big_f

    def traced(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(ReducedIntegrand, "big_f", traced)
    specs = [
        DistributionSpec.fermi_dirac(25.0, 2.0),
        DistributionSpec.maxwell_boltzmann(10.0, 1.5),
        DistributionSpec.sharp(12.5),
    ]
    for spec in specs:
        for engine in (bracket_direct, bracket_euler_maclaurin):
            calls.clear()
            result = engine(reduce_distribution(spec))
            # bracket_direct's tail bound evaluates F once after its snapshot
            extra = 1 if engine is bracket_direct else 0
            assert len(calls) == result.diagnostics["big_f_evaluations"] + extra, (spec, engine)
