"""Physical constants and plate geometry.

All dimensional quantities in the package are SI. The dimensionless model
lives in units of pi/d per momentum axis; conversions happen at the edges
(pressure assembly, cutoff frequency, temperature).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, ModelRegimeWarning

__all__ = [
    "PhysicalConstants",
    "PlateGeometry",
    "make_constants",
    "cutoff_frequency",
]

# CODATA 2018 exact/recommended values.
_HBAR = 1.054571817e-34      # J s
_C = 2.99792458e8            # m / s
_BOLTZMANN = 1.380649e-23    # J / K
_BOHR_RADIUS = 5.29177210903e-11  # m


@dataclass(frozen=True)
class PhysicalConstants:
    """Frozen SI constants used everywhere downstream.

    Attributes
    ----------
    hbar : float
        Reduced Planck constant (J s).
    c : float
        Speed of light in vacuum (m/s).
    boltzmann : float
        Boltzmann constant (J/K).
    bohr_radius : float
        Bohr radius (m), the reference inverse cutoff 1/a_0.
    """

    hbar: float = _HBAR
    c: float = _C
    boltzmann: float = _BOLTZMANN
    bohr_radius: float = _BOHR_RADIUS


_SHARED = PhysicalConstants()


def make_constants() -> PhysicalConstants:
    """Return the shared read-only constants instance for this process."""
    return _SHARED


def cutoff_frequency(k_c: float, constants: PhysicalConstants | None = None) -> float:
    """Angular frequency omega_c = k_c * c for a physical cutoff wavenumber.

    Parameters
    ----------
    k_c : float
        Cutoff wavenumber in 1/m; must be positive and finite.

    Returns
    -------
    float
        omega_c in 1/s.
    """
    if constants is None:
        constants = make_constants()
    if not (k_c > 0.0 and math.isfinite(k_c)):
        raise DomainError(f"cutoff wavenumber must be positive and finite, got {k_c!r}")
    return k_c * constants.c


@dataclass(frozen=True)
class PlateGeometry:
    """Two parallel conducting plates: separation d, lateral extent L (meters).

    Both lengths must be positive and finite. The mode model assumes
    d << L. Constructing a geometry with
    d / L > 0.01 emits a ModelRegimeWarning but does not fail.
    """

    separation_d: float
    lateral_size_l: float = 1.0

    def __post_init__(self):
        for name, length in (("plate separation", self.separation_d),
                             ("lateral plate size", self.lateral_size_l)):
            if not (length > 0.0 and math.isfinite(length)):
                raise DomainError(f"{name} must be positive and finite, got {length!r}")
        if self.separation_d / self.lateral_size_l > 0.01:
            warnings.warn(
                "separation/lateral ratio d/L = "
                f"{self.separation_d / self.lateral_size_l:.3g} > 0.01; "
                "the continuum treatment of lateral modes is unreliable here",
                ModelRegimeWarning,
                stacklevel=2,
            )
