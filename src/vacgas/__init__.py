"""Vacuum photon-gas model of the two-plate Casimir pressure.

The vacuum between two parallel conducting plates is modeled as a gas of
virtual photons whose momentum occupancy f is a pluggable distribution.
The net pressure on the plates reduces to a dimensionless sum-minus-integral
bracket scaled by pi^2 hbar c / (4 d^4); this package evaluates the bracket
by direct summation, by a boundary-derivative expansion and by Monte Carlo,
classifies candidate distributions against the cutoff criteria, and converts
a thermal-looking occupancy edge into an implied temperature.

Importing vacgas loads neither numpy nor scipy. The six Monte Carlo names
resolve on first access (PEP 562), which imports montecarlo and numpy;
eval_f and check_cutoff_compliance import numpy on their first call;
integrate imports scipy only for a range its first Gauss-Kronrod step does
not settle.
"""

from .constants import (
    PhysicalConstants,
    PlateGeometry,
    cutoff_frequency,
    make_constants,
)
from .distributions import (
    ComplianceReport,
    DistributionSpec,
    Family,
    check_cutoff_compliance,
    eval_f,
    eval_f_second_derivative,
)
from .errors import (
    ConvergenceError,
    DegenerateEstimateError,
    DifferentiationError,
    DomainError,
    ModelRegimeWarning,
    SingularityError,
    UnsupportedFamilyError,
    VacgasError,
)
from .pressure import (
    PressureResult,
    SweepResult,
    ideal_casimir_pressure,
    lamoreaux_sweep,
    pressure_difference,
)
from .quadrature import QuadResult, integrate
from .reduction import (
    ReducedIntegrand,
    inner_integral,
    reduce_distribution,
    reduced_big_f,
)
from .summation import (
    BernoulliTable,
    BracketResult,
    Method,
    bernoulli,
    bracket_direct,
    bracket_euler_maclaurin,
)
from .temperature import (
    Convention,
    TemperatureEstimate,
    affinity_from_temperature,
    temperature_from_affinity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PhysicalConstants",
    "PlateGeometry",
    "cutoff_frequency",
    "make_constants",
    "ComplianceReport",
    "DistributionSpec",
    "Family",
    "check_cutoff_compliance",
    "eval_f",
    "eval_f_second_derivative",
    "ConvergenceError",
    "DegenerateEstimateError",
    "DifferentiationError",
    "DomainError",
    "ModelRegimeWarning",
    "SingularityError",
    "UnsupportedFamilyError",
    "VacgasError",
    "McConfig",
    "McEstimate",
    "bracket_monte_carlo",
    "estimate_p_in",
    "photon_flux_density",
    "pressure_inside_from_mc",
    "PressureResult",
    "SweepResult",
    "ideal_casimir_pressure",
    "lamoreaux_sweep",
    "pressure_difference",
    "QuadResult",
    "integrate",
    "ReducedIntegrand",
    "inner_integral",
    "reduce_distribution",
    "reduced_big_f",
    "BernoulliTable",
    "BracketResult",
    "Method",
    "bernoulli",
    "bracket_direct",
    "bracket_euler_maclaurin",
    "Convention",
    "TemperatureEstimate",
    "affinity_from_temperature",
    "temperature_from_affinity",
]

# The numpy-backed Monte Carlo names, imported from montecarlo on first access.
_MONTECARLO_NAMES = frozenset(
    {
        "McConfig",
        "McEstimate",
        "bracket_monte_carlo",
        "estimate_p_in",
        "photon_flux_density",
        "pressure_inside_from_mc",
    }
)


def __getattr__(name):
    if name not in _MONTECARLO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import montecarlo

    # Cached as a module global, so later lookups skip this hook.
    value = globals()[name] = getattr(montecarlo, name)
    return value


def __dir__():
    return sorted(set(globals()) | _MONTECARLO_NAMES)
