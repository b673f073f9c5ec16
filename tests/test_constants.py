"""Constants, cutoff frequency, plate geometry."""

import dataclasses
import math

import pytest

from vacgas import (
    DomainError,
    ModelRegimeWarning,
    PhysicalConstants,
    PlateGeometry,
    cutoff_frequency,
    make_constants,
)


def test_codata_values():
    c = make_constants()
    assert c.hbar == 1.054571817e-34
    assert c.c == 2.99792458e8
    assert c.boltzmann == 1.380649e-23
    assert c.bohr_radius == 5.29177210903e-11


def test_shared_instance_and_equality():
    assert make_constants() is make_constants()
    assert make_constants() == PhysicalConstants()


def test_constants_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_constants().hbar = 1.0


def test_cutoff_frequency_at_inverse_bohr():
    c = make_constants()
    omega = cutoff_frequency(1.0 / c.bohr_radius)
    assert omega == pytest.approx(5.66525639848374e18, rel=1e-12)


def test_cutoff_frequency_linear_in_k():
    assert cutoff_frequency(2.0e10) == 2.0 * cutoff_frequency(1.0e10)


def test_cutoff_frequency_rejects_nonpositive_k():
    with pytest.raises(DomainError):
        cutoff_frequency(0.0)
    with pytest.raises(DomainError):
        cutoff_frequency(-1.0e10)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_lengths_are_rejected(bad):
    with pytest.raises(DomainError):
        cutoff_frequency(bad)
    with pytest.raises(DomainError):
        PlateGeometry(separation_d=bad)
    with pytest.raises(DomainError):
        PlateGeometry(separation_d=1e-6, lateral_size_l=bad)


def test_cutoff_frequency_custom_constants():
    toy = PhysicalConstants(hbar=1.0, c=2.0, boltzmann=3.0, bohr_radius=4.0)
    assert cutoff_frequency(5.0, toy) == 10.0


def test_geometry_accepts_thin_gap():
    geom = PlateGeometry(separation_d=1.0e-6)
    assert geom.separation_d == 1.0e-6
    assert geom.lateral_size_l == 1.0


def test_geometry_rejects_nonpositive_dimensions():
    with pytest.raises(DomainError):
        PlateGeometry(separation_d=0.0)
    with pytest.raises(DomainError):
        PlateGeometry(separation_d=-1e-6)
    with pytest.raises(DomainError):
        PlateGeometry(separation_d=1e-6, lateral_size_l=0.0)


def test_geometry_warns_when_gap_is_not_thin():
    with pytest.warns(ModelRegimeWarning):
        PlateGeometry(separation_d=0.5)


def test_geometry_silent_in_model_regime(recwarn):
    PlateGeometry(separation_d=1e-6, lateral_size_l=1.0)
    assert not [w for w in recwarn if issubclass(w.category, ModelRegimeWarning)]


def test_inverse_bohr_magnitude():
    # k_c ~ 1.9e10 per meter, the conductor breakdown scale
    k_c = 1.0 / make_constants().bohr_radius
    assert math.isclose(k_c, 1.8897e10, rel_tol=1e-4)
