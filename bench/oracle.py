"""Reference values for the benchmark, computed without any vacgas code.

Every quantity here comes from a closed form of the defining integrals,
evaluated with mpmath at 40 significant digits or in exact rational
arithmetic, so a result can be checked against a value that shares no code
path with the engine that produced it.

Notation follows the package: occupancy f(t) of dimensionless momentum t,
cutoff lam, sharpness b, I(u) = 2 int_u^inf f, F(u) = u^2 I(u), and the
bracket X = sum_{n>=1} F(n) - int_0^inf F. Since int_0^inf F equals
(2/3) int_0^inf t^3 f(t) dt, each family's integral piece is a moment of f.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40

# CODATA 2018, restated here so the pressure scale is independent too.
HBAR = mp.mpf("1.054571817e-34")
C = mp.mpf("2.99792458e8")
BOLTZMANN = mp.mpf("1.380649e-23")
BOHR_RADIUS = 5.29177210903e-11

# Fermi-Dirac brackets pinned by the repository's tests from a 50-digit
# evaluation, with the number of decimals each is pinned to.
PINNED_FD = (
    ((25.0, 2.0), "-0.0810101068627715", 16),
    ((20.0, 2.0), "-0.0577340710", 10),
    ((30.0, 2.0), "-0.1094585951", 10),
)


def occupancy(family: str, lam: float, b: float | None, t) -> mp.mpf:
    """f(t) from its defining formula (the sharp step is 1/2 at lam)."""
    t = mp.mpf(t)
    if family == "sharp":
        return mp.mpf(1) if t < lam else (mp.mpf(0) if t > lam else mp.mpf("0.5"))
    z = mp.mpf(b) * (t - lam)
    if family == "fd":
        return 1 / (mp.exp(z) + 1)
    if family == "mb":
        return mp.exp(-z)
    if family == "be":
        return 1 / mp.expm1(z)
    raise ValueError(f"unknown family {family!r}")


def fd_bracket(lam: float, b: float) -> mp.mpf:
    """Fermi-Dirac bracket: I(n) = (2/b) softplus(b(lam - n)), and
    int t^3 f = -6 Li_4(-e^{b lam}) / b^4."""
    lam, b = mp.mpf(lam), mp.mpf(b)
    total = mp.mpf(0)
    n = 1
    while True:
        term = n * n * (2 / b) * mp.log1p(mp.exp(b * (lam - n)))
        total += term
        if n > lam and term < mp.mpf(10) ** (-mp.mp.dps - 5) * abs(total):
            break
        n += 1
    integral = mp.mpf(2) / 3 * (-6 / b**4) * mp.polylog(4, -mp.exp(b * lam))
    return total - integral


def mb_bracket(lam: float, b: float) -> mp.mpf:
    """Maxwell-Boltzmann bracket as a closed-form geometric sum:
    sum n^2 q^n = q(1+q)/(1-q)^3 with q = e^{-b}, and int t^3 f = 6 e^{b lam}/b^4."""
    lam, b = mp.mpf(lam), mp.mpf(b)
    q = mp.exp(-b)
    scale = mp.exp(b * lam)
    return scale * ((2 / b) * q * (1 + q) / (1 - q) ** 3 - 4 / b**4)


def sharp_bracket(lam: float) -> Fraction:
    """Sharp-step bracket in exact arithmetic: F(n) = 2 n^2 (lam - n) below
    the cutoff (Faulhaber sums) and int_0^lam (2/3) t^3 dt = lam^4 / 6."""
    x = Fraction(lam)
    top = math.ceil(x) - 1  # largest integer strictly below the cutoff
    s2 = Fraction(top * (top + 1) * (2 * top + 1), 6)
    s3 = Fraction(top * (top + 1), 2) ** 2
    return 2 * x * s2 - 2 * s3 - x**4 / 6


def direct_bracket(family: str, lam: float, b: float | None) -> float:
    if family == "fd":
        return float(fd_bracket(lam, b))
    if family == "mb":
        return float(mb_bracket(lam, b))
    if family == "sharp":
        return float(sharp_bracket(lam))
    raise ValueError(f"no exact bracket for family {family!r}")


def em_bracket(family: str, lam: float, b: float | None) -> float:
    """Order-3 boundary expansion of the bracket.

    F'(0) = 0, F'''(0) = -12 f(0) and F^(5)(0) = -40 f''(0), so the expansion
    is -f(0)/60 + f''(0)/756: the smooth-envelope value -f(0)/60 plus a term
    that is exponentially small for a compliant edge.
    """
    if family == "sharp":
        return -1.0 / 60.0
    f0 = occupancy(family, lam, b, 0)
    b = mp.mpf(b)
    if family == "fd":
        f2 = b**2 * f0 * (1 - f0) * (1 - 2 * f0)
    elif family == "mb":
        f2 = b**2 * f0
    else:
        raise ValueError(f"no boundary expansion for family {family!r}")
    return float(-f0 / 60 + f2 / 756)


def pressure_scale(separation_d: float) -> float:
    """pi^2 hbar c / (4 d^4), the factor from bracket to pascals."""
    return float(mp.pi**2 * HBAR * C / (4 * mp.mpf(separation_d) ** 4))


def flux_integral(family: str, lam: float, b: float | None) -> float:
    """Octant flux J = (pi/6) int_0^inf r^3 f(r) dr."""
    if family == "sharp":
        return float(mp.pi * mp.mpf(lam) ** 4 / 24)
    if family == "fd":
        b = mp.mpf(b)
        return float(-mp.pi * mp.polylog(4, -mp.exp(b * lam)) / b**4)
    raise ValueError(f"no flux integral for family {family!r}")


def compliance_verdict(family: str, lam: float, b: float | None, epsilon: float = 0.01) -> bool:
    """Cutoff-criteria verdict from the shape of f.

    Plateau |f - 1| <= eps on [0, lam/2], decay f <= eps on [2 lam, 10 lam],
    and 0 <= f <= 1. The step passes. Fermi-Dirac is decreasing and inside
    (0, 1), so only f(lam/2) and f(2 lam) matter. Maxwell-Boltzmann starts at
    e^{b lam} > 1 and Bose-Einstein is negative below the cutoff: both fail.
    """
    if family == "sharp":
        return True
    if family == "fd":
        return bool(
            1 - occupancy(family, lam, b, lam / 2) <= epsilon
            and occupancy(family, lam, b, 2 * lam) <= epsilon
        )
    if family in ("mb", "be"):
        return False
    raise ValueError(f"unknown family {family!r}")


def temperature(alpha: float, k_c: float, convention: str) -> float:
    """T = k_c / (-alpha k_B), or hbar c k_c / (-alpha k_B) for 'energy'."""
    scale = 1 / BOLTZMANN if convention == "paper" else HBAR * C / BOLTZMANN
    return float(scale * k_c / -mp.mpf(alpha))


def self_check() -> list[str]:
    """Reproduce the pinned Fermi-Dirac brackets; return the misses."""
    misses = []
    for (lam, b), text, decimals in PINNED_FD:
        value = fd_bracket(lam, b)
        if abs(value - mp.mpf(text)) > mp.mpf(10) ** -decimals / 2:
            misses.append(f"FD({lam:g}, {b:g}) = {mp.nstr(value, 20)}, pinned {text}")
    return misses
