"""Dimensional pressure assembly for the two-plate comparison.

The net pressure on the plates is the dimensionless bracket scaled by
pi^2 hbar c / (4 d^4). The ideal compliant-cutoff limit (bracket -1/60)
gives the familiar -pi^2 hbar c / (240 d^4); attraction is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import PhysicalConstants, PlateGeometry, make_constants
from .distributions import DistributionSpec, Family
from .errors import DomainError
from .reduction import ReducedIntegrand, reduce_distribution
from .summation import BracketResult, Method, bracket_direct, bracket_euler_maclaurin

__all__ = [
    "PressureResult",
    "SweepResult",
    "ideal_casimir_pressure",
    "pressure_difference",
    "lamoreaux_sweep",
]

IDEAL_BRACKET = -1.0 / 60.0


@dataclass(frozen=True)
class PressureResult:
    separation_d: float
    bracket: BracketResult
    pressure_difference: float
    ideal_limit_pressure: float
    relative_deviation_from_ideal: float


@dataclass(frozen=True)
class SweepResult:
    """Pressure results over a log-spaced separation grid."""

    entries: tuple[PressureResult, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    @property
    def all_within_ideal(self) -> bool:
        """True when every separation lands within 5% of the ideal law."""
        return all(abs(e.relative_deviation_from_ideal) <= 0.05 for e in self.entries)


def ideal_casimir_pressure(separation_d: float, constants: PhysicalConstants | None = None) -> float:
    """-pi^2 hbar c / (240 d^4), the compliant-cutoff plateau value."""
    if separation_d <= 0.0:
        raise DomainError(f"separation must be positive, got {separation_d!r}")
    constants = constants or make_constants()
    return -(math.pi**2) * constants.hbar * constants.c / (240.0 * separation_d**4)


def _prefactor(separation_d: float, constants: PhysicalConstants) -> float:
    return (math.pi**2) * constants.hbar * constants.c / (4.0 * separation_d**4)


def _evaluate_bracket(
    integrand: ReducedIntegrand,
    method: Method,
    *,
    em_order: int,
    quad_tol: float,
    n_max: int | None,
) -> BracketResult:
    if method is Method.DIRECT:
        return bracket_direct(integrand, n_max=n_max, quad_tol=quad_tol)
    if method is Method.EULER_MACLAURIN:
        return bracket_euler_maclaurin(integrand, order=em_order)
    raise DomainError(f"pressure assembly supports direct and em brackets, got {method!r}")


def pressure_difference(
    source: DistributionSpec | ReducedIntegrand,
    geometry: PlateGeometry,
    method: Method = Method.EULER_MACLAURIN,
    constants: PhysicalConstants | None = None,
    *,
    em_order: int = 3,
    quad_tol: float = 1e-10,
    n_max: int | None = None,
) -> PressureResult:
    """Net inside-minus-outside pressure for one plate separation.

    Accepts either a distribution (cutoff interpreted in the separation's
    dimensionless units) or a prepared reduced integrand, e.g. a synthetic
    one for null tests.
    """
    constants = constants or make_constants()
    integrand = source if isinstance(source, ReducedIntegrand) else reduce_distribution(source)
    bracket = _evaluate_bracket(
        integrand, method, em_order=em_order, quad_tol=quad_tol, n_max=n_max
    )
    d = geometry.separation_d
    pressure = _prefactor(d, constants) * bracket.value
    ideal = ideal_casimir_pressure(d, constants)
    relative = (pressure - ideal) / abs(ideal)
    return PressureResult(
        separation_d=d,
        bracket=bracket,
        pressure_difference=pressure,
        ideal_limit_pressure=ideal,
        relative_deviation_from_ideal=relative,
    )


def lamoreaux_sweep(
    spec: DistributionSpec,
    d_min: float,
    d_max: float,
    points: int,
    constants: PhysicalConstants | None = None,
    *,
    k_c_physical: float | None = None,
    method: Method = Method.EULER_MACLAURIN,
    em_order: int = 3,
    quad_tol: float = 1e-10,
) -> SweepResult:
    """Pressure over a log-spaced grid of separations, endpoints included.

    With k_c_physical unset, the dimensionless cutoff of `spec` is reused at
    every separation and the pressure follows the pure d^-4 law. With a
    physical cutoff wavenumber set, each separation gets cutoff k_c d / pi
    (the occupancy edge fixed in lab units) while the affinity alpha of
    `spec` is preserved, so the transition sharpens in dimensionless terms
    as the plates separate.
    """
    if points < 2:
        raise DomainError(f"a sweep needs at least 2 points, got {points!r}")
    if not 0.0 < d_min < d_max < math.inf:
        raise DomainError(f"need 0 < d_min < d_max < inf, got {d_min!r}, {d_max!r}")
    constants = constants or make_constants()

    ratio = math.log(d_max / d_min)
    separations = [d_min * math.exp(ratio * i / (points - 1)) for i in range(points)]
    separations[-1] = d_max

    results = []
    for d in separations:
        if k_c_physical is None:
            local = spec
        elif spec.family is Family.SHARP_CUTOFF:
            local = DistributionSpec.from_physical(spec.family, k_c_physical, 0.0, d)
        else:
            # Decay length beta = -alpha / k_c keeps the affinity alpha fixed
            # while the dimensionless cutoff tracks the separation.
            local = DistributionSpec.from_physical(
                spec.family, k_c_physical, -spec.alpha / k_c_physical, d
            )
        geometry = PlateGeometry(separation_d=d)
        results.append(
            pressure_difference(
                local,
                geometry,
                method=method,
                constants=constants,
                em_order=em_order,
                quad_tol=quad_tol,
            )
        )
    return SweepResult(entries=tuple(results))
