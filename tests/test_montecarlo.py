"""Monte Carlo estimate of the inside-pressure integral."""

import math
import os
import tracemalloc

import numpy as np
import pytest

import vacgas.montecarlo as mc_module
from vacgas import (
    DegenerateEstimateError,
    DistributionSpec,
    DomainError,
    McConfig,
    Method,
    UnsupportedFamilyError,
    bracket_monte_carlo,
    estimate_p_in,
    photon_flux_density,
    pressure_inside_from_mc,
)

FD = DistributionSpec.fermi_dirac(25.0, 2.0)
SHARP_UNIT = DistributionSpec.sharp(1.0)


# -- configuration -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        McConfig(FD, samples=999, seed=0)
    with pytest.raises(DomainError):
        McConfig(FD, samples=10_000, seed=-1)
    with pytest.raises(DomainError):
        McConfig(FD, samples=10_000, seed=2**64)
    with pytest.raises(DomainError):
        McConfig(FD, samples=10_000, seed=0, stream_count=0)
    with pytest.raises(DomainError):
        McConfig(FD, samples=10_000, seed=0, stream_count=1025)


def test_families_without_finite_box_integral_rejected():
    with pytest.raises(UnsupportedFamilyError):
        McConfig(DistributionSpec.bose_einstein(25.0, 2.0), samples=10_000, seed=0)
    with pytest.raises(UnsupportedFamilyError):
        McConfig(DistributionSpec.maxwell_boltzmann(25.0, 2.0), samples=10_000, seed=0)


# -- strike-rate density --------------------------------------------------------


def test_flux_density_reference_directions():
    assert photon_flux_density(SHARP_UNIT, (0.0, 0.0, 0.5)) == 1.0
    assert photon_flux_density(SHARP_UNIT, (0.5, 0.0, 0.0)) == 0.0
    assert photon_flux_density(SHARP_UNIT, (0.3, 0.4, 0.0)) == 0.0
    assert photon_flux_density(SHARP_UNIT, (0.0, 0.0, 0.0)) == 0.0


def test_flux_density_weights_by_occupancy_and_angle():
    value = photon_flux_density(FD, (0.0, 3.0, 4.0))
    assert value == pytest.approx(0.8 * 1.0, rel=1e-12)
    far = photon_flux_density(FD, (0.0, 0.0, 30.0))
    assert far == pytest.approx(1.0 / (math.exp(10.0) + 1.0), rel=1e-12)


def test_flux_density_rejects_negative_components():
    with pytest.raises(DomainError):
        photon_flux_density(FD, (-1.0, 0.0, 1.0))


# -- estimator correctness --------------------------------------------------------


def test_sharp_unit_box_matches_closed_form(mc_sharp_unit):
    exact = math.pi / 24.0
    assert abs(mc_sharp_unit.mean - exact) <= 3.0 * mc_sharp_unit.standard_error
    assert mc_sharp_unit.standard_error < 0.01 * exact
    assert mc_sharp_unit.samples_used == 10_000_000


def test_fd_box_matches_quadrature(mc_fd, fd_volume_integral):
    assert abs(mc_fd.mean - fd_volume_integral) <= 3.0 * mc_fd.standard_error
    assert mc_fd.standard_error > 0.0


def test_fixed_seed_reproduces_bitwise():
    a = estimate_p_in(McConfig(FD, samples=1_000_000, seed=123))
    b = estimate_p_in(McConfig(FD, samples=1_000_000, seed=123))
    assert a.mean == b.mean
    assert a.standard_error == b.standard_error


def test_different_seeds_decorrelate():
    a = estimate_p_in(McConfig(SHARP_UNIT, samples=100_000, seed=1))
    b = estimate_p_in(McConfig(SHARP_UNIT, samples=100_000, seed=2))
    assert a.mean != b.mean


def test_stream_split_is_deterministic(monkeypatch):
    # stream_count 1 checks the split of one stream into blocks across threads
    for streams in (4, 1):
        config = McConfig(FD, samples=1_000_000, seed=5, stream_count=streams)
        monkeypatch.setenv("VACGAS_THREADS", "4")
        threaded = estimate_p_in(config)
        monkeypatch.setenv("VACGAS_THREADS", "1")
        serial = estimate_p_in(config)
        assert threaded.mean == serial.mean
        assert threaded.standard_error == serial.standard_error


# (spec, samples, seed, stream_count, mean.hex(), standard_error.hex()). The
# bits were recorded from the per-stream kernel that preceded the block
# kernel; the counts cross the 2^16-row block and 10^6-row chunk boundaries
# unevenly, and 1000 samples over 1024 streams leaves most streams with 0 or
# 1 sample.
GOLDEN = [
    (SHARP_UNIT, 1000, 3, 1024, "0x1.0e74a81044fd1p-3", "0x1.b66711702888cp-8"),
    (FD, 2_345_679, 11, 3, "0x1.922747dace6bcp+15", "0x1.7d5e29edebb0cp+6"),
    (DistributionSpec.sharp(50.0), 65_537, 8, 1, "0x1.8e239440b772bp+19", "0x1.44bf2c6575832p+12"),
    (DistributionSpec.fermi_dirac(50.0, 1.0), 65_537, 8, 1, "0x1.921bd2aba0593p+19", "0x1.1c35c29adac29p+13"),
    (DistributionSpec.sharp(50.0), 1_000_003, 8, 2, "0x1.8f6d79b9bbebep+19", "0x1.4e1ec1b384017p+10"),
    (DistributionSpec.fermi_dirac(50.0, 1.0), 1_000_003, 8, 2, "0x1.9337bbe9ff7e4p+19", "0x1.24be8ba8708ddp+11"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "spec, samples, seed, streams, mean_hex, se_hex",
    GOLDEN,
    ids=["sharp1-1024streams", "fd-3streams", "sharp50-65537", "fd50-65537", "sharp50-1e6+3", "fd50-1e6+3"],
)
def test_golden_bits(monkeypatch, threads, spec, samples, seed, streams, mean_hex, se_hex):
    monkeypatch.setenv("VACGAS_THREADS", threads)
    est = estimate_p_in(McConfig(spec, samples=samples, seed=seed, stream_count=streams))
    assert (est.mean.hex(), est.standard_error.hex()) == (mean_hex, se_hex)


def test_worker_count_bounded_by_cpus(monkeypatch):
    monkeypatch.setenv("VACGAS_THREADS", "512")
    assert mc_module._worker_count() == min(512, os.cpu_count() or 1)
    monkeypatch.setattr(mc_module.os, "cpu_count", lambda: 4)
    assert mc_module._worker_count() == 4
    monkeypatch.setattr(mc_module.os, "cpu_count", lambda: None)
    assert mc_module._worker_count() == 1
    monkeypatch.setattr(mc_module.os, "cpu_count", lambda: 64)
    monkeypatch.setenv("VACGAS_THREADS", "3")
    assert mc_module._worker_count() == 3
    for raw in ("0", "-2", "many"):
        monkeypatch.setenv("VACGAS_THREADS", raw)
        assert mc_module._worker_count() == 1
    monkeypatch.delenv("VACGAS_THREADS")
    assert mc_module._worker_count() == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_working_set_bounded(monkeypatch, threads):
    # tracemalloc sees numpy's data buffers; one 10^6-row chunk of weights is 8 MB
    monkeypatch.setenv("VACGAS_THREADS", threads)
    config = McConfig(FD, samples=2_000_000, seed=4, stream_count=2)
    tracemalloc.start()
    try:
        estimate_p_in(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_standard_error_shrinks_with_root_n():
    ratios = []
    for seed in range(20):
        small = estimate_p_in(McConfig(SHARP_UNIT, samples=100_000, seed=seed))
        big = estimate_p_in(McConfig(SHARP_UNIT, samples=200_000, seed=seed + 1000))
        ratios.append(small.standard_error / big.standard_error)
    mean_ratio = sum(ratios) / len(ratios)
    assert math.sqrt(2.0) * 0.9 <= mean_ratio <= math.sqrt(2.0) * 1.1


def test_coverage_across_seeds(fd_volume_integral):
    hits = 0
    for seed in range(100):
        est = estimate_p_in(McConfig(FD, samples=100_000, seed=seed))
        if abs(est.mean - fd_volume_integral) <= 3.0 * est.standard_error:
            hits += 1
    assert hits >= 99


def test_all_zero_weights_refused(monkeypatch):
    monkeypatch.setattr(
        mc_module, "eval_f", lambda spec, u: np.zeros_like(np.asarray(u, dtype=float))
    )
    with pytest.raises(DegenerateEstimateError):
        estimate_p_in(McConfig(FD, samples=10_000, seed=0))


# -- dimensional conversion --------------------------------------------------------


def test_pressure_inside_scaling(constants, mc_sharp_unit):
    d = 1.0e-6
    pressure, se = pressure_inside_from_mc(mc_sharp_unit, d)
    scale = math.pi * constants.hbar * constants.c / d**4
    assert pressure == scale * mc_sharp_unit.mean
    assert se == scale * mc_sharp_unit.standard_error
    assert pressure > 0.0
    with pytest.raises(DomainError):
        pressure_inside_from_mc(mc_sharp_unit, 0.0)


# -- hybrid bracket ----------------------------------------------------------------


def test_bracket_monte_carlo_sharp_unit():
    result = bracket_monte_carlo(SHARP_UNIT, samples=1_000_000, seed=3)
    # series term vanishes at cutoff 1, leaving -(4/pi) J
    assert result.diagnostics["series_sum"] == 0.0
    assert abs(result.value + 1.0 / 6.0) <= 3.0 * result.error_estimate
    assert result.method is Method.MONTE_CARLO


def test_bracket_monte_carlo_reproducible_and_tagged():
    a = bracket_monte_carlo(FD, samples=100_000, seed=9, stream_count=2)
    b = bracket_monte_carlo(FD, samples=100_000, seed=9, stream_count=2)
    assert a.value == b.value
    d = a.diagnostics
    assert d["samples"] == 100_000
    assert d["seed"] == 9
    assert d["stream_count"] == 2
    assert d["n_max"] == 50
    assert a.error_estimate > 0.0
