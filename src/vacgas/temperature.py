"""Implied temperature of a thermal-looking occupancy edge.

A negative affinity alpha = -beta k_c makes the smooth occupancy
1 / (exp(beta (k - k_c)) + 1) look thermal with decay length beta. Reading
beta as an inverse temperature needs a convention for what plays the role
of energy:

* WAVENUMBER_LITERAL equates beta k with k / (k_B T), i.e. the wavenumber
  itself is treated as the thermal argument. With k_c one inverse Bohr
  radius and alpha = -1 this lands near 1.4e33 K.
* ENERGY_CONSISTENT equates beta k with hbar c k / (k_B T), the photon
  energy over the thermal energy, landing near 4.3e7 K for the same edge.

Both are wildly above any laboratory temperature; the point of computing
them is to show that a thermal reading of the cutoff is untenable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .constants import PhysicalConstants, cutoff_frequency, make_constants
from .errors import DomainError

__all__ = [
    "Convention",
    "TemperatureEstimate",
    "temperature_from_affinity",
    "affinity_from_temperature",
]


class Convention(Enum):
    WAVENUMBER_LITERAL = "paper"
    ENERGY_CONSISTENT = "energy"


@dataclass(frozen=True)
class TemperatureEstimate:
    alpha: float
    k_c: float
    omega_c: float
    temperature: float
    convention: Convention

    @property
    def beta(self) -> float:
        """Decay length -alpha / k_c of the occupancy edge (m)."""
        return -self.alpha / self.k_c


def _thermal_scale(convention: Convention, constants: PhysicalConstants) -> float:
    if convention is Convention.WAVENUMBER_LITERAL:
        return 1.0 / constants.boltzmann
    if convention is Convention.ENERGY_CONSISTENT:
        return constants.hbar * constants.c / constants.boltzmann
    raise DomainError(f"unknown convention {convention!r}")


def temperature_from_affinity(
    alpha: float,
    k_c: float,
    convention: Convention = Convention.WAVENUMBER_LITERAL,
    constants: PhysicalConstants | None = None,
) -> TemperatureEstimate:
    """Temperature at which the occupancy edge would be thermal.

    alpha must be negative (an attractive, decaying edge), k_c positive; both
    finite.
    T = k_c / (-alpha k_B) literal, or hbar c k_c / (-alpha k_B) energy.
    """
    if not (alpha < 0.0 and math.isfinite(alpha)):
        raise DomainError(f"affinity must be negative and finite, got {alpha!r}")
    constants = constants or make_constants()
    omega_c = cutoff_frequency(k_c, constants)  # rejects a non-positive or non-finite k_c
    temperature = _thermal_scale(convention, constants) * k_c / (-alpha)
    return TemperatureEstimate(
        alpha=alpha,
        k_c=k_c,
        omega_c=omega_c,
        temperature=temperature,
        convention=convention,
    )


def affinity_from_temperature(
    temperature: float,
    k_c: float,
    convention: Convention = Convention.WAVENUMBER_LITERAL,
    constants: PhysicalConstants | None = None,
) -> float:
    """Inverse of temperature_from_affinity: the alpha a thermal edge implies."""
    if temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {temperature!r}")
    if not (k_c > 0.0 and math.isfinite(k_c)):
        raise DomainError(f"cutoff wavenumber must be positive and finite, got {k_c!r}")
    constants = constants or make_constants()
    return -_thermal_scale(convention, constants) * k_c / temperature
