"""Evaluation of the regularized sum-minus-integral bracket.

The two-plate comparison reduces to the dimensionless bracket

    X = sum_{n>=1} F(n) - int_0^inf F(u) du,   F(u) = u^2 I(u).

Two deterministic engines live here. Both read F(u) from the closed-form
reduction; neither integrates the occupancy numerically. bracket_direct sums
the series explicitly and integrates F by adaptive quadrature on the series'
unit grid, a brute-force oracle; scipy loads only for a panel that
quadrature's first Gauss-Kronrod step does not settle.
bracket_euler_maclaurin evaluates the boundary expansion

    X = -F(0)/2 - B_2/2! F'(0) + B_4/4! F'''(0) - B_6/6! F^(5)(0) + ...

written with the positive old-convention magnitudes B_r = |B_{2r}| and signs
(-1)^r, equivalently -B_{2r}/(2r)! with modern signed Bernoulli numbers. For
a cutoff-compliant occupancy F'''(0) = -12 f(0) dominates and the expansion
gives -f(0)/60. The variant with the opposite alternation, which some
derivations print and which flips the result to +1/60, is evaluated as well
and reported in diagnostics under sign_variant_value.

The two engines answer subtly different questions. The boundary expansion
carries only derivatives at u = 0; corrections from structure at the cutoff
scale like exp(-2 pi^2 / sharpness) times cutoff^2 and are negligible only
when the occupancy transition is wide compared with the unit mode spacing
(sharpness <= 1 or so). A sharper transition is resolved by the integer
sum, the bracket picks up a cutoff-dependent aliasing term, and the direct
method reports that larger true value while the expansion stays at
-f(0)/60. bracket_direct is the ground truth; diagnostics carry a
lambda_plateau flag recording whether the two regimes coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import quadrature
from .distributions import Family
from .errors import ConvergenceError, DifferentiationError, DomainError
from .reduction import ReducedIntegrand

__all__ = [
    "Method",
    "BernoulliTable",
    "bernoulli",
    "BracketResult",
    "bracket_direct",
    "bracket_euler_maclaurin",
]

_MAX_TABLE = 20
_EPS = math.ulp(1.0)
# Boundary-expansion stencils: step 1e-3 for F'(0), widened 4x per order.
_BASE_STEP = 1e-3
# The extra derivative of order 17 spans 4 * 1e-3 * 4^17 ~ 7e7, whose 37th
# power (order 18) would overflow double precision.
_MAX_ORDER = 17


class Method(Enum):
    DIRECT = "direct"
    EULER_MACLAURIN = "em"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class BernoulliTable:
    """Magnitudes |B_{2r}|, r = 1..r_max, as exact rationals."""

    coefficients: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.coefficients)

    def entry(self, r: int) -> Fraction:
        """1-based magnitude |B_{2r}|."""
        if not 1 <= r <= len(self.coefficients):
            raise DomainError(f"table holds r = 1..{len(self.coefficients)}, got {r!r}")
        return self.coefficients[r - 1]

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coefficients)


def bernoulli(r_max: int) -> BernoulliTable:
    """Exact table of |B_2|, |B_4|, ..., |B_{2 r_max}|.

    Modern recurrence sum_{j<=m} C(m+1, j) B_j = 0 (B_1 = -1/2), then
    absolute values; exact in Fraction arithmetic.
    """
    if not 1 <= r_max <= _MAX_TABLE:
        raise DomainError(f"r_max must lie in 1..{_MAX_TABLE}, got {r_max!r}")
    b = [Fraction(1)]
    for m in range(1, 2 * r_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return BernoulliTable(coefficients=tuple(abs(b[2 * r]) for r in range(1, r_max + 1)))


@dataclass(frozen=True, slots=True)
class BracketResult:
    value: float
    method: Method
    error_estimate: float
    terms_used: int
    diagnostics: dict


def _spec_diagnostics(integrand: ReducedIntegrand) -> dict:
    spec = integrand.spec
    if spec is None:
        return {"family": None, "lambda": None, "sharpness": None}
    return {
        "family": spec.family.value,
        "lambda": spec.cutoff,
        "sharpness": spec.sharpness,
    }


def _plateau_assessment(integrand: ReducedIntegrand) -> tuple[bool | None, str]:
    """Whether the bracket value is expected to be cutoff-scale independent."""
    spec = integrand.spec
    if spec is None:
        return None, "synthetic integrand; plateau behaviour unknown"
    if spec.family is Family.SHARP_CUTOFF:
        return False, (
            "no lambda-plateau: the step occupancy kinks F' at the cutoff and "
            "the bracket scales as -lambda^2/6"
        )
    if spec.family is Family.FERMI_DIRAC:
        if spec.sharpness * spec.cutoff < 20.0:
            return False, "transition width is not small against the cutoff (sharpness*lambda < 20)"
        if spec.sharpness > 1.0:
            return False, (
                "transition is narrower than the unit mode spacing (sharpness > 1); "
                "the mode sum resolves the knee and the bracket drifts with lambda"
            )
        return True, (
            "plateau expected: transition wide against the mode spacing yet "
            "small against the cutoff (sharpness <= 1, sharpness*lambda >= 20)"
        )
    if spec.family is Family.MAXWELL_BOLTZMANN:
        return False, "no plateau: occupancy grows exponentially below the cutoff"
    return False, "no plateau: occupancy has a pole at the cutoff"


def bracket_direct(
    integrand: ReducedIntegrand,
    n_max: int | None = None,
    quad_tol: float = 1e-10,
) -> BracketResult:
    """Bracket by explicit series minus adaptive quadrature.

    The series runs to n_max (default: cutoff plus the decayed tail). The
    integral covers [0, n_max] in unit panels aligned with the series grid,
    splitting the panel containing the cutoff knee. The error estimate sums
    the quadrature error, a series/integral tail bound and a floating-point
    cancellation term eps*(|sum| + |integral|); the last grows as lambda^4
    and makes the double-precision limit at large cutoff self-reporting.
    """
    if not 0.0 < quad_tol <= 1e-8:
        raise DomainError(f"quad_tol must lie in (0, 1e-8], got {quad_tol!r}")
    required = integrand.default_n_max()
    if n_max is None:
        if required is None:
            raise DomainError("n_max is required for a synthetic integrand")
        n_max = required
    else:
        if n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {n_max!r}")
        if required is not None and n_max < required:
            raise DomainError(
                f"n_max = {n_max} truncates inside the occupied range; need >= {required}"
            )

    work_tol = max(quad_tol * 1e-3, 2e-14)
    f0 = integrand.f_evaluations
    g0 = integrand.big_f_evaluations

    series_terms = [integrand.big_f(float(n)) for n in range(1, n_max + 1)]
    series_sum = math.fsum(series_terms)

    # QUADPACK's epsabs per panel: n_max panels at this floor add at most
    # eps*|series_sum|, which the cancellation term already covers. It lets
    # a sliver knee panel, all rounding noise, settle on its first step.
    abs_tol = _EPS * abs(series_sum) / n_max
    knee = integrand.knee
    panel_values: list[float] = []
    quad_err = 0.0
    panels = 0

    def run_panel(lo: float, hi: float) -> None:
        nonlocal quad_err, panels
        try:
            q = quadrature.integrate(
                integrand.big_f, lo, hi, rel_tol=work_tol, abs_tol=abs_tol, limit=100
            )
        except ConvergenceError as exc:
            exc.diagnostics.update(
                {"series_sum": series_sum, "panel": (lo, hi), "partial_integral": math.fsum(panel_values)}
            )
            raise
        panel_values.append(q.value)
        quad_err += q.error
        panels += 1

    for m in range(n_max):
        lo, hi = float(m), float(m + 1)
        if knee is not None and lo < knee < hi:
            run_panel(lo, knee)
            run_panel(knee, hi)
        else:
            run_panel(lo, hi)

    integral = math.fsum(panel_values)
    if quad_err > quad_tol * max(1.0, abs(integral)):
        raise ConvergenceError(
            f"quadrature error {quad_err:.3e} exceeds quad_tol budget",
            diagnostics={"series_sum": series_sum, "integral": integral, "quad_error": quad_err},
        )

    # Snapshot the work counters before tail_bound, which evaluates F once more.
    big_f_evaluations = integrand.big_f_evaluations - g0
    distribution_evaluations = integrand.f_evaluations - f0
    tail = integrand.tail_bound(n_max)
    cancellation = (_EPS + work_tol) * (abs(series_sum) + abs(integral))
    value = series_sum - integral
    plateau, plateau_note = _plateau_assessment(integrand)

    diagnostics = {
        **_spec_diagnostics(integrand),
        "series_sum": series_sum,
        "integral_value": integral,
        "integral_error": quad_err,
        "tail_bound": tail,
        "cancellation": cancellation,
        "panels": panels,
        "n_max": n_max,
        "quad_tol": quad_tol,
        "lambda_plateau": plateau,
        "plateau_note": plateau_note,
        "big_f_evaluations": big_f_evaluations,
        "distribution_evaluations": distribution_evaluations,
    }
    return BracketResult(
        value=value,
        method=Method.DIRECT,
        error_estimate=quad_err + tail + cancellation,
        terms_used=n_max,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Boundary-derivative estimation
# ---------------------------------------------------------------------------


def _stencil_coefficients(m: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weights a_j for F^(m)(0) ~ sum_j a_j (F(js) - F(-js)) / s^m, m odd.

    The minimal antisymmetric stencil of order O(s^2), p = (m + 1) / 2 points,
    solves sum_j a_j 2 j^q / q! = [q == m] over odd q <= m. Its solution is
    the closed form (Fornberg, Math. Comp. 51 (1988) 699)

        a_j = (-1)^(p-j) m! j / ((p-j)! (p+j)!),   j = 1..p,

    a ratio of integers, so Fraction holds it exactly. Returns the weights
    and sum |a_j| (roundoff amplification factor).
    """
    p = (m + 1) // 2
    fact = math.factorial
    weights = tuple(
        Fraction((-1) ** (p - j) * fact(m) * j, fact(p - j) * fact(p + j)) for j in range(1, p + 1)
    )
    return weights, sum(abs(w) for w in weights)


def _odd_derivative(big_f, m: int, step: float) -> tuple[float, float, float]:
    """F^(m)(0) by the antisymmetric stencil at step, 2*step, 4*step,
    Richardson-extrapolated twice. Returns (estimate, spread, roundoff_scale).
    """
    weights, amp = _stencil_coefficients(m)
    p = len(weights)

    max_abs = 0.0

    def raw(s: float) -> float:
        nonlocal max_abs
        acc = []
        for j in range(1, p + 1):
            hi = big_f(j * s)
            lo = big_f(-j * s)
            max_abs = max(max_abs, abs(hi), abs(lo))
            acc.append(float(weights[j - 1]) * (hi - lo))
        return math.fsum(acc) / s**m

    d1, d2, d4 = raw(step), raw(2.0 * step), raw(4.0 * step)
    r1a = (4.0 * d1 - d2) / 3.0
    r1b = (4.0 * d2 - d4) / 3.0
    r2 = (16.0 * r1a - r1b) / 15.0
    # disagreement of the two first-level extrapolants is the honest
    # inconsistency scale; |r2 - r1a| alone hides it by a factor 15
    spread = max(abs(r2 - r1a), abs(r1a - r1b))
    roundoff = 2.0 * float(amp) * _EPS * max_abs / step**m
    return r2, spread, roundoff


def bracket_euler_maclaurin(integrand: ReducedIntegrand, order: int = 3) -> BracketResult:
    """Bracket from boundary data: -F(0)/2 plus `order` odd-derivative terms.

    Odd derivatives F^(2r-1)(0) come from central finite differences with
    exact rational stencils, at a fixed base step of 1e-3 (reported as
    base_step), Richardson-extrapolated twice. The stencil step widens by
    4^(r-1) with the derivative order so that roundoff amplification (which
    grows like step^-(2r-1)) stays below the term tolerances. One extra
    derivative beyond `order` is estimated to bound truncation. order runs
    1..17; past 17 the extra derivative's widest stencil power overflows.
    Requires F and its derivatives through order 2*order+1 to vanish at
    infinity; smooth decaying occupancies qualify.
    """
    if not 1 <= order <= _MAX_ORDER:
        raise DomainError(f"order must lie in 1..{_MAX_ORDER}, got {order!r}")
    table = bernoulli(order + 1)

    memo: dict[float, float] = {}
    g0 = integrand.big_f_evaluations
    f0 = integrand.f_evaluations

    def big_f(u: float) -> float:
        if u not in memo:
            memo[u] = integrand.big_f(u)
        return memo[u]

    f_zero = big_f(0.0)
    derivs: list[float] = []
    spreads: list[float] = []
    for r in range(1, order + 2):
        m = 2 * r - 1
        step = _BASE_STEP * 4.0 ** (r - 1)
        est, spread, roundoff = _odd_derivative(big_f, m, step)
        if spread > 0.5 * abs(est) + 1e-3 * (1.0 + abs(est)) + 1e4 * roundoff:
            raise DifferentiationError(
                f"derivative of order {m} at 0 failed to stabilize: "
                f"Richardson spread {spread:.3e} against estimate {est:.3e}"
            )
        derivs.append(est)
        spreads.append(spread)

    terms: list[float] = []
    variant_terms: list[float] = []
    noise = 0.0
    for r in range(1, order + 1):
        c = table.entry(r) / math.factorial(2 * r)
        term = float(c) * derivs[r - 1]
        terms.append(term if r % 2 == 0 else -term)
        variant_terms.append(-term if r % 2 == 0 else term)
        noise += float(c) * spreads[r - 1]

    value = -0.5 * f_zero + math.fsum(terms)
    variant = -0.5 * f_zero + math.fsum(variant_terms)
    c_next = float(table.entry(order + 1) / math.factorial(2 * order + 2))
    truncation = abs(c_next * derivs[order])

    diagnostics = {
        **_spec_diagnostics(integrand),
        "odd_derivatives_at_zero": tuple(derivs[:order]),
        "derivative_spreads": tuple(spreads[:order]),
        "big_f_at_zero": f_zero,
        "terms": tuple(terms),
        "sign_variant_value": variant,
        "truncation_estimate": truncation,
        "order": order,
        "base_step": _BASE_STEP,
        "big_f_evaluations": integrand.big_f_evaluations - g0,
        "distribution_evaluations": integrand.f_evaluations - f0,
    }
    return BracketResult(
        value=value,
        method=Method.EULER_MACLAURIN,
        error_estimate=noise + truncation + _EPS * abs(f_zero),
        terms_used=order,
        diagnostics=diagnostics,
    )
