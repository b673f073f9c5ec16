"""Monte Carlo estimate of the inside-mode momentum-flux integral.

In cutoff units the one-octant flux integral is

    J = int_octant f(|k|) k_z^2 / |k| d^3k = (pi/6) int_0^inf r^3 f(r) dr,

related to the reduced integrand by int_0^inf F(u) du = (4/pi) J, which is
what makes a sampled J a useful cross-check of the deterministic engines.
Sampling is a plain uniform proposal over the box [0, u_hi]^3 with u_hi
covering the occupied range; the estimator is box_volume * mean(w) with
w(k) = f(|k|) k_z^2 / |k|.

Streams are Philox counters keyed (seed, stream index). Philox is
counter-based: one counter step yields four doubles, so a block of rows
(three doubles each) that starts at a multiple of 4 can be drawn on its own
by advancing the counter. Each 10^6-row chunk of a stream fills one weight
array in 2^16-row blocks on up to VACGAS_THREADS threads (bounded by the CPU
count). A block's values do not depend on the thread that draws it, and the
sums over each chunk and stream are merged in a fixed order, so results are
bit-reproducible for a given configuration regardless of VACGAS_THREADS.
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
_BLOCK = 1 << 16
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


def _fill_block(
    spec: DistributionSpec, edge: float, seed: int, stream: int, start: int, w: np.ndarray
) -> None:
    """Write the weights of rows start .. start + len(w) of one stream into w.

    The sampled weight is the pressure integrand f(|k|) k_z^2 / |k|: the
    strike rate photon_flux_density times the k_z momentum kick per strike.
    `start` must be a multiple of 4 so the block opens on a counter boundary.
    """
    bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bit_gen.advance(3 * start // 4)
    pts = np.random.Generator(bit_gen).random((len(w), 3))
    pts *= edge
    r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    np.multiply(eval_f(spec, r), np.square(pts[:, 2]), out=w)
    np.divide(w, r, out=w)
    w[r == 0.0] = 0.0


def _worker_count() -> int:
    """VACGAS_THREADS (1 if unset or invalid), bounded by the CPU count."""
    try:
        requested = int(os.environ.get("VACGAS_THREADS", "1"))
    except ValueError:
        requested = 1
    return max(1, min(requested, os.cpu_count() or 1))


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

    workers = _worker_count()
    partials = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for stream, count in enumerate(counts):
            sums: list[float] = []
            sums_sq: list[float] = []
            for chunk_start in range(0, count, _CHUNK):
                w = np.empty(min(_CHUNK, count - chunk_start))
                blocks = [(chunk_start + b, w[b : b + _BLOCK]) for b in range(0, len(w), _BLOCK)]
                run = pool.map if workers > 1 and len(blocks) > 1 else map
                list(run(lambda block: _fill_block(spec, edge, config.seed, stream, *block), blocks))
                sums.append(float(np.sum(w)))
                sums_sq.append(float(np.sum(w * w)))
            partials.append((math.fsum(sums), math.fsum(sums_sq)))

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
