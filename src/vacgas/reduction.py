"""Reduction of the octant momentum integral to one dimension.

With x = (k_x^2 + k_y^2) d^2 / pi^2 and u = k_z d / pi, the transverse
integral collapses by the substitution t = sqrt(x + u^2) (dx = 2 t dt):

    I(u) = int_0^inf f(sqrt(x + u^2)) / sqrt(x + u^2) dx = 2 int_u^inf f(t) dt

and the one-dimensional summand/integrand of the two-plate comparison is
F(u) = u^2 I(u). Everything here is dimensionless.

Every occupancy family integrates in closed form:

    Fermi-Dirac        I(u) = (2/b) softplus(b (lambda - u))
    Maxwell-Boltzmann  I(u) = (2/b) exp(b (lambda - u))
    sharp step         I(u) = 2 (lambda - u)_+
    Bose-Einstein      I(u) = -(2/b) log(1 - exp(-b (u - lambda))),  u > lambda

The smooth formulas extend analytically to u < 0, which the boundary
derivative stencils rely on. Below the cutoff the Fermi-Dirac and sharp
forms are split as 2 (lambda - u) plus a tail, and F is assembled as
2 lambda u^2 + u^2 (tail(u) - 2 u). The first term is bitwise even in u, so
it and its rounding cancel exactly in the antisymmetric boundary stencils;
at cutoffs of 10^4 and more only the final addition's rounding remains.
"""

from __future__ import annotations

import math
from typing import Callable

from .distributions import DistributionSpec, Family
from .errors import DomainError, SingularityError

__all__ = [
    "ReducedIntegrand",
    "reduce_distribution",
    "inner_integral",
    "reduced_big_f",
]

# f is treated as negligible 50/sharpness past the cutoff: exp(-50) ~ 2e-22.
_TAIL_DECADES = 50.0
# Half-width of the exclusion window around the Bose-Einstein pole.
_POLE_WINDOW = 1e-6
# math.exp overflows just above this.
_EXP_MAX = 709.0


def _kernels(spec: DistributionSpec) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Closed-form (I, F) for the spec's family, with its constants bound once.

    Fermi-Dirac and sharp split I below the cutoff as 2 (lambda - u) + tail
    and assemble F = 2 lambda u^2 + u^2 (tail - 2 u), which is exactly zero
    at u = 0; the other families return F(0) = 0 without evaluating I. MB
    raises DomainError where exp overflows, BE raises SingularityError inside
    the pole window (u < lambda + _POLE_WINDOW), where I diverges.
    """
    lam = spec.cutoff
    two_lam = 2.0 * lam
    fam = spec.family
    if fam is Family.SHARP_CUTOFF:

        def inner(u: float) -> float:
            return 2.0 * (lam - u) if u < lam else 0.0

        def big_f(u: float) -> float:
            if u < lam:
                u2 = u * u
                return two_lam * u2 - u2 * (2.0 * u)
            return 0.0

        return inner, big_f

    b = spec.sharpness
    nb = -b
    c = 2.0 / b
    exp = math.exp
    if fam is Family.FERMI_DIRAC:
        # softplus(z) = max(z, 0) + log1p(exp(-|z|))
        log1p = math.log1p

        def inner(u: float) -> float:
            tail = c * log1p(exp(nb * abs(u - lam)))
            return 2.0 * (lam - u) + tail if u < lam else tail

        def big_f(u: float) -> float:
            tail = c * log1p(exp(nb * abs(u - lam)))
            u2 = u * u
            if u < lam:
                return two_lam * u2 + u2 * (tail - 2.0 * u)
            return u2 * tail

        return inner, big_f

    if fam is Family.MAXWELL_BOLTZMANN:

        def inner(u: float) -> float:
            z = b * (lam - u)
            if z > _EXP_MAX:
                raise DomainError(
                    f"Maxwell-Boltzmann occupancy overflows double precision at u = {u!r} "
                    f"(sharpness*(cutoff - u) = {z!r})"
                )
            return c * exp(z)

    else:
        edge = lam + _POLE_WINDOW
        nc = -c
        log, expm1 = math.log, math.expm1

        def inner(u: float) -> float:
            if u < edge:
                raise SingularityError(
                    f"inner integral from u = {u!r} crosses the Bose-Einstein pole",
                    pole_location=lam,
                )
            return nc * log(-expm1(nb * (u - lam)))

    def big_f(u: float) -> float:
        return 0.0 if u == 0.0 else u * u * inner(u)

    return inner, big_f


class ReducedIntegrand:
    """Evaluator for F(u) = u^2 I(u) plus the numeric hints the engines need.

    Spec-backed instances (see reduce_distribution) evaluate I from the
    family's closed form (module docstring), exact to rounding; arguments
    below zero take the analytic extension. Every engine hint comes from the
    spec: the knee is the cutoff, and the series length and tail bound follow
    from the family and sharpness.

    Synthetic instances (from_function) carry an arbitrary F for engine-level
    tests. They have no inner integral, no knee and no series length, and
    their tail bound is |F(n_max)|.

    Instances count work: f_evaluations (closed-form I(u) evaluations; F(0)
    is exactly zero and costs none) and big_f_evaluations. Counters are
    cumulative; engines snapshot deltas and report the first as
    distribution_evaluations.
    """

    def __init__(
        self,
        *,
        spec: DistributionSpec | None = None,
        big_f_func: Callable[[float], float] | None = None,
    ):
        if (spec is None) == (big_f_func is None):
            raise DomainError("provide exactly one of spec or big_f_func")
        self.spec = spec
        self._inner, self._big_f = (None, big_f_func) if spec is None else _kernels(spec)
        self.knee = None if spec is None else spec.cutoff
        self.f_evaluations = 0
        self.big_f_evaluations = 0

    @classmethod
    def from_function(cls, big_f_func: Callable[[float], float]) -> "ReducedIntegrand":
        return cls(big_f_func=big_f_func)

    # -- evaluation ----------------------------------------------------

    def inner(self, u: float) -> float:
        """I(u) = 2 int_u^inf f(t) dt."""
        if self.spec is None:
            raise DomainError("inner integral undefined for a synthetic integrand")
        self.f_evaluations += 1
        return self._inner(u)

    def big_f(self, u: float) -> float:
        """F(u) = u^2 I(u); exactly zero at u = 0."""
        self.big_f_evaluations += 1
        if u != 0.0 and self.spec is not None:
            self.f_evaluations += 1
        return self._big_f(u)

    # -- engine hints ----------------------------------------------------

    def default_n_max(self) -> int | None:
        """Series length covering the occupied range plus the decaying tail."""
        if self.spec is None:
            return None
        if self.spec.family is Family.SHARP_CUTOFF:
            return max(1, math.ceil(self.spec.cutoff))
        return max(1, math.ceil(self.spec.cutoff + _TAIL_DECADES / self.spec.sharpness))

    def tail_bound(self, n_max: int) -> float:
        """Bound on the neglected series tail plus integral tail past n_max."""
        edge = abs(self.big_f(float(n_max)))
        if self.spec is None:
            return edge
        if self.spec.family is Family.SHARP_CUTOFF:
            return 0.0 if n_max >= self.spec.cutoff else edge
        b = self.spec.sharpness
        # Geometric series bound and exponential integral bound, with
        # headroom for the slowly growing u^2 factor.
        return 2.0 * edge * (1.0 / math.expm1(b) + 1.0 / b)


def reduce_distribution(spec: DistributionSpec) -> ReducedIntegrand:
    """Build the reduced one-dimensional integrand for a distribution."""
    return ReducedIntegrand(spec=spec)


def inner_integral(spec: DistributionSpec, u: float) -> float:
    """I(u) = 2 int_u^inf f(t) dt from the family's closed form.

    Raises SingularityError for Bose-Einstein at u < cutoff + 1e-6 (the pole
    window), DomainError for u < 0 or a Maxwell-Boltzmann overflow.
    """
    if u < 0.0:
        raise DomainError(f"u must be nonnegative, got {u!r}")
    return _kernels(spec)[0](u)


def reduced_big_f(spec: DistributionSpec, u: float) -> float:
    """F(u) = u^2 I(u); the one-dimensional summand of the mode comparison."""
    if u < 0.0:
        raise DomainError(f"u must be nonnegative, got {u!r}")
    return _kernels(spec)[1](u)
