"""Monte Carlo estimate of the inside-mode momentum-flux integral.

In cutoff units the one-octant flux integral is

    J = int_octant f(|k|) k_z^2 / |k| d^3k = (pi/6) int_0^inf r^3 f(r) dr,

related to the reduced integrand by int_0^inf F(u) du = (4/pi) J, which is
what makes a sampled J a useful cross-check of the deterministic engines.
Sampling is a plain uniform proposal over the box [0, u_hi]^3 with u_hi
covering the occupied range; the estimator is box_volume * mean(w) with
w(k) = f(|k|) k_z^2 / |k|.

Streams are mixed Philox counters keyed (seed, stream index), merged in
stream order, so results are bit-reproducible for a given configuration
regardless of VACGAS_THREADS.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, make_constants
from .distributions import DistributionSpec, Family, eval_f
from .errors import DegenerateEstimateError, DomainError, UnsupportedFamilyError
from .reduction import reduce_distribution
from .summation import BracketResult, Method

__all__ = [
    "McConfig",
    "McEstimate",
    "photon_flux_density",
    "estimate_p_in",
    "pressure_inside_from_mc",
    "bracket_monte_carlo",
]

_CHUNK = 1_000_000
_MAX_STREAMS = 1024
_DECAY_DECADES = 20.0


@dataclass(frozen=True)
class McConfig:
    spec: DistributionSpec
    samples: int
    seed: int
    stream_count: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1000:
            raise DomainError(f"samples must be >= 1000, got {self.samples!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed!r}")
        if not 1 <= self.stream_count <= _MAX_STREAMS:
            raise DomainError(
                f"stream_count must lie in 1..{_MAX_STREAMS}, got {self.stream_count!r}"
            )
        _reject_unsupported(self.spec)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float
    samples_used: int
    seed: int


def _reject_unsupported(spec: DistributionSpec) -> None:
    if spec.family is Family.BOSE_EINSTEIN:
        raise UnsupportedFamilyError(
            "the occupancy pole at the cutoff gives the sampled weight infinite variance"
        )
    if spec.family is Family.MAXWELL_BOLTZMANN:
        raise UnsupportedFamilyError(
            "occupancy is unbounded below the cutoff; the uniform proposal cannot cover it"
        )


def _box_edge(spec: DistributionSpec) -> float:
    if spec.family is Family.SHARP_CUTOFF:
        return spec.cutoff
    return spec.cutoff + _DECAY_DECADES / spec.sharpness


def photon_flux_density(spec: DistributionSpec, k) -> float:
    """Strike-rate weight f(|k|) k_z / |k| at one octant point (k_x, k_y, k_z).

    The k_z / |k| factor is the incidence cosine; modes grazing the plate
    (k_z = 0) never strike it. Zero at k = 0 by continuity.
    """
    kx, ky, kz = (float(c) for c in k)
    if kx < 0.0 or ky < 0.0 or kz < 0.0:
        raise DomainError(f"octant sampling needs non-negative components, got {k!r}")
    r = math.sqrt(kx * kx + ky * ky + kz * kz)
    if r == 0.0:
        return 0.0
    return float(eval_f(spec, r)) * kz / r


def _stream_partials(spec: DistributionSpec, edge: float, seed: int, stream: int, count: int):
    """(sum w, sum w^2) over `count` samples of one stream.

    The sampled weight is the pressure integrand f(|k|) k_z^2 / |k|: the
    strike rate photon_flux_density times the k_z momentum kick per strike.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    sums: list[float] = []
    sums_sq: list[float] = []
    left = count
    while left > 0:
        n = min(left, _CHUNK)
        pts = rng.random((n, 3)) * edge
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        w = np.zeros(n)
        mask = r > 0.0
        w[mask] = eval_f(spec, r[mask]) * pts[mask, 2] ** 2 / r[mask]
        sums.append(float(np.sum(w)))
        sums_sq.append(float(np.sum(w * w)))
        left -= n
    return math.fsum(sums), math.fsum(sums_sq)


def _worker_cap() -> int:
    raw = os.environ.get("VACGAS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def estimate_p_in(config: McConfig) -> McEstimate:
    """Sampled octant flux integral J with its standard error.

    Work splits across `stream_count` independent generator streams; the
    merge is a fixed-order compensated sum, so the estimate depends only on
    (spec, samples, seed, stream_count).
    """
    spec = config.spec
    edge = _box_edge(spec)
    counts = [
        config.samples // config.stream_count + (1 if s < config.samples % config.stream_count else 0)
        for s in range(config.stream_count)
    ]

    workers = min(_worker_cap(), config.stream_count)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(
                pool.map(
                    lambda s: _stream_partials(spec, edge, config.seed, s, counts[s]),
                    range(config.stream_count),
                )
            )
    else:
        partials = [
            _stream_partials(spec, edge, config.seed, s, counts[s])
            for s in range(config.stream_count)
        ]

    total_w = math.fsum(p[0] for p in partials)
    total_w2 = math.fsum(p[1] for p in partials)
    n = config.samples
    if total_w == 0.0:
        raise DegenerateEstimateError(
            "every sampled weight vanished; the proposal box misses the occupied region"
        )
    volume = edge**3
    mean = volume * total_w / n
    variance = max(0.0, (total_w2 - total_w * total_w / n) / (n - 1))
    return McEstimate(
        mean=mean,
        standard_error=volume * math.sqrt(variance / n),
        samples_used=n,
        seed=config.seed,
    )


def pressure_inside_from_mc(
    estimate: McEstimate,
    separation_d: float,
    constants: PhysicalConstants | None = None,
) -> tuple[float, float]:
    """Convert a sampled J to the inside pressure pi hbar c J / d^4 (Pa).

    Returns (pressure, standard error).
    """
    if separation_d <= 0.0:
        raise DomainError(f"separation must be positive, got {separation_d!r}")
    constants = constants or make_constants()
    scale = math.pi * constants.hbar * constants.c / separation_d**4
    return scale * estimate.mean, scale * estimate.standard_error


def bracket_monte_carlo(
    spec: DistributionSpec,
    samples: int,
    seed: int,
    stream_count: int = 1,
) -> BracketResult:
    """Hybrid bracket: exact mode series minus the sampled integral (4/pi) J.

    The series piece is the deterministic closed-form mode sum; only the
    integral piece carries sampling noise, so the error estimate is dominated
    by (4/pi) * SE(J). At usable cutoffs that noise dwarfs the bracket itself;
    this estimator exists as a consistency check, not a precision tool.
    """
    config = McConfig(spec=spec, samples=samples, seed=seed, stream_count=stream_count)
    integrand = reduce_distribution(spec)
    n_max = integrand.default_n_max()
    series = math.fsum(integrand.big_f(float(n)) for n in range(1, n_max + 1))
    sampled = estimate_p_in(config)
    integral = 4.0 / math.pi * sampled.mean
    integral_se = 4.0 / math.pi * sampled.standard_error
    value = series - integral
    diagnostics = {
        "family": spec.family.value,
        "lambda": spec.cutoff,
        "sharpness": spec.sharpness,
        "series_sum": series,
        "integral_estimate": integral,
        "integral_standard_error": integral_se,
        "n_max": n_max,
        "samples": samples,
        "seed": seed,
        "stream_count": stream_count,
    }
    return BracketResult(
        value=value,
        method=Method.MONTE_CARLO,
        error_estimate=integral_se + integrand.tail_bound(n_max) + math.ulp(1.0) * (abs(series) + abs(integral)),
        terms_used=samples,
        diagnostics=diagnostics,
    )
