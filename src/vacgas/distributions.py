"""Momentum-occupancy distributions and the cutoff-compliance checker.

A distribution assigns each dimensionless momentum magnitude u an occupancy
f(u). Dimensionless variables: cutoff = k_c d / pi, sharpness = beta pi / d,
so the affinity alpha = -sharpness * cutoff is separation independent.

numpy is imported by the two functions that use it, eval_f and
check_cutoff_compliance, on their first call; building specs does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, SingularityError, UnsupportedFamilyError

__all__ = [
    "Family",
    "DistributionSpec",
    "ComplianceReport",
    "eval_f",
    "eval_f_second_derivative",
    "check_cutoff_compliance",
]

# math.exp overflows just above this; occupancies are clamped here.
_EXP_MAX = 700.0

_PROBES_PER_INTERVAL = 1000


class Family(Enum):
    """Occupancy families. Values double as CLI codes."""

    SHARP_CUTOFF = "sharp"
    FERMI_DIRAC = "fd"
    MAXWELL_BOLTZMANN = "mb"
    BOSE_EINSTEIN = "be"


@dataclass(frozen=True)
class DistributionSpec:
    """One occupancy function: family plus dimensionless cutoff and sharpness.

    ``cutoff`` is the dimensionless cutoff scale (k_c d / pi), positive and
    finite. ``sharpness`` is the dimensionless transition rate (beta pi / d);
    unused by the sharp step, required positive and finite for the smooth
    families.
    """

    family: Family
    cutoff: float
    sharpness: float | None = None

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise DomainError(f"family must be a Family member, got {self.family!r}")
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise DomainError(f"cutoff must be positive and finite, got {self.cutoff!r}")
        b = self.sharpness
        smooth = self.family is not Family.SHARP_CUTOFF
        if smooth and (b is None or not (b > 0.0 and math.isfinite(b))):
            raise DomainError(f"{self.family.value} requires positive finite sharpness, got {b!r}")

    @property
    def alpha(self) -> float | None:
        """Dimensionless affinity -sharpness*cutoff; None for the sharp step."""
        if self.sharpness is None:
            return None
        return -self.sharpness * self.cutoff

    @classmethod
    def sharp(cls, cutoff: float) -> "DistributionSpec":
        return cls(Family.SHARP_CUTOFF, cutoff)

    @classmethod
    def fermi_dirac(cls, cutoff: float, sharpness: float) -> "DistributionSpec":
        return cls(Family.FERMI_DIRAC, cutoff, sharpness)

    @classmethod
    def maxwell_boltzmann(cls, cutoff: float, sharpness: float) -> "DistributionSpec":
        return cls(Family.MAXWELL_BOLTZMANN, cutoff, sharpness)

    @classmethod
    def bose_einstein(cls, cutoff: float, sharpness: float) -> "DistributionSpec":
        return cls(Family.BOSE_EINSTEIN, cutoff, sharpness)

    @classmethod
    def from_physical(
        cls, family: Family, k_c: float, beta: float, separation_d: float
    ) -> "DistributionSpec":
        """Build from physical cutoff k_c (1/m), decay length beta (m), separation d (m)."""
        if not (k_c > 0.0 and math.isfinite(k_c)):
            raise DomainError(f"physical cutoff must be positive and finite, got {k_c!r}")
        if not separation_d > 0.0:
            raise DomainError(f"separation must be positive, got {separation_d!r}")
        cutoff = k_c * separation_d / math.pi
        if family is Family.SHARP_CUTOFF:
            return cls(family, cutoff)
        if not beta > 0.0:
            raise DomainError(f"beta must be positive, got {beta!r}")
        return cls(family, cutoff, beta * math.pi / separation_d)

    @classmethod
    def from_affinity(
        cls, family: Family, alpha: float, beta: float, separation_d: float
    ) -> "DistributionSpec":
        """Build from dimensionless affinity alpha < 0 and decay length beta (m)."""
        if not alpha < 0.0:
            raise DomainError(f"affinity must be negative, got {alpha!r}")
        if not beta > 0.0:
            raise DomainError(f"beta must be positive, got {beta!r}")
        return cls.from_physical(family, -alpha / beta, beta, separation_d)


def eval_f(spec: DistributionSpec, u):
    """Occupancy f(u) at dimensionless momentum magnitude u.

    Accepts a scalar or an ndarray and evaluates elementwise. The sharp step
    takes the value 1/2 exactly at the cutoff. Bose-Einstein has a pole at
    u = cutoff and raises SingularityError there; elsewhere its (possibly
    negative) value is returned as-is so callers can diagnose it.
    """
    import numpy as np

    scalar = np.isscalar(u) or np.ndim(u) == 0
    uu = np.asarray(u, dtype=float)
    lam = spec.cutoff
    fam = spec.family

    if fam is Family.SHARP_CUTOFF:
        out = np.where(uu < lam, 1.0, np.where(uu > lam, 0.0, 0.5))
    elif fam is Family.FERMI_DIRAC:
        z = spec.sharpness * (uu - lam)
        # Two-sided logistic form, overflow free: e^-z / (1 + e^-z) above
        # the cutoff, 1 / (1 + e^z) below it.
        with np.errstate(over="ignore"):
            ez = np.exp(-np.abs(z))
        out = np.where(z >= 0.0, ez, 1.0) / (1.0 + ez)
    elif fam is Family.MAXWELL_BOLTZMANN:
        out = np.exp(np.minimum(spec.sharpness * (lam - uu), _EXP_MAX))
    elif fam is Family.BOSE_EINSTEIN:
        z = spec.sharpness * (uu - lam)
        with np.errstate(over="ignore", divide="ignore"):
            denom = np.expm1(z)
            if np.any(denom == 0.0):
                raise SingularityError(
                    f"Bose-Einstein occupancy diverges at u = {lam!r}", pole_location=lam
                )
            out = 1.0 / denom
    else:  # pragma: no cover - enum is closed
        raise UnsupportedFamilyError(f"unknown family {fam!r}")

    return float(out) if scalar else out


def eval_f_second_derivative(spec: DistributionSpec, u):
    """d^2 f / du^2 for the Fermi-Dirac family.

    Closed form b^2 f (1-f) (1-2f); vanishes identically at u = cutoff, the
    inflection of the transition. Other families raise UnsupportedFamilyError.
    """
    if spec.family is not Family.FERMI_DIRAC:
        raise UnsupportedFamilyError(
            f"second-derivative closed form is defined for fd only, got {spec.family.value}"
        )
    f = eval_f(spec, u)
    b = spec.sharpness
    return b * b * f * (1.0 - f) * (1.0 - 2.0 * f)


@dataclass(frozen=True)
class ComplianceReport:
    """Outcome of probing one distribution against the cutoff criteria.

    verdict is the conjunction of the three probe verdicts. diagnostics holds
    every (u, f(u)) probe pair; pole hits are recorded as NaN values.
    """

    spec: DistributionSpec
    epsilon: float
    passes_plateau: bool
    passes_decay: bool
    passes_range: bool
    verdict: bool
    diagnostics: tuple[tuple[float, float], ...]


def check_cutoff_compliance(spec: DistributionSpec, epsilon: float = 0.01) -> ComplianceReport:
    """Probe whether f behaves as a cutoff function at tolerance epsilon.

    Three criteria over uniform probe grids of 1000 points each:

    * plateau: |f(u) - 1| <= epsilon on [0, cutoff/2]
    * decay:   f(u) <= epsilon on [2*cutoff, 10*cutoff]
    * range:   0 <= f(u) <= 1 at every probe point

    Poles and non-finite values count as range failures rather than raising,
    so Bose-Einstein probes complete and report false.
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    import numpy as np

    lam = spec.cutoff
    plateau_u = np.linspace(0.0, lam / 2.0, _PROBES_PER_INTERVAL)
    decay_u = np.linspace(2.0 * lam, 10.0 * lam, _PROBES_PER_INTERVAL)

    def probe(us):
        # One vector evaluation; Bose-Einstein pole points (eval_f's own
        # expm1 == 0 test) are recorded as NaN instead of raising.
        if spec.family is not Family.BOSE_EINSTEIN:
            return eval_f(spec, us)
        with np.errstate(over="ignore"):
            pole = np.expm1(spec.sharpness * (us - lam)) == 0.0
        vals = np.full(us.shape, np.nan)
        vals[~pole] = eval_f(spec, us[~pole])
        return vals

    plateau_f = probe(plateau_u)
    decay_f = probe(decay_u)

    plateau_ok = bool(np.all(np.isfinite(plateau_f)) and np.all(np.abs(plateau_f - 1.0) <= epsilon))
    decay_ok = bool(np.all(np.isfinite(decay_f)) and np.all(decay_f <= epsilon))
    all_f = np.concatenate([plateau_f, decay_f])
    range_ok = bool(np.all(np.isfinite(all_f)) and np.all((all_f >= 0.0) & (all_f <= 1.0)))

    pairs = tuple(zip(np.concatenate([plateau_u, decay_u]).tolist(), all_f.tolist()))
    return ComplianceReport(
        spec=spec,
        epsilon=epsilon,
        passes_plateau=plateau_ok,
        passes_decay=decay_ok,
        passes_range=range_ok,
        verdict=plateau_ok and decay_ok and range_ok,
        diagnostics=pairs,
    )
