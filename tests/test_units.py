"""Unit conversions checked against an independent SI computation."""

import math

import pytest

from qcompton import units
from qcompton.constants import HBAR_EV_S

# CODATA values, written out independently of the package constants
_C = 299_792_458.0            # m/s
_E = 1.602_176_634e-19        # J per eV
# hbar*c = 197.3269804 MeV fm
_HBARC = 197.326_980_4e6 * 1e-15   # eV m


def test_photon_density_against_hand_conversion():
    intensity = 9.0e16        # W/cm^2
    omega = 2.25              # eV
    got = units.intensity_to_photon_density(intensity, omega)
    # rho = I / (c hbar w):  W/cm^2 -> W/m^2, photon energy in joules
    expected_m3 = intensity * 1e4 / (_C * omega * _E)
    # natural units: 1 m^-3 = (hbar c / 1 m)^3 eV^3
    expected_eV3 = expected_m3 * _HBARC**3
    assert got == pytest.approx(expected_eV3, rel=1e-9)


def test_pulse_duration_fourier_limit():
    dw = 0.018   # eV
    t = units.pulse_duration(dw)
    assert t == pytest.approx(2.0 * math.pi / dw, rel=1e-15)
    # 2 pi hbar / (0.018 eV) is about 0.23 ps
    assert 2.0e-13 < t * HBAR_EV_S < 2.6e-13
    with pytest.raises(ValueError):
        units.pulse_duration(0.0)


def test_natural_drive_fields():
    spec = units.LabDriveSpec(intensity_W_cm2=9.0e16, photon_energy_eV=2.25,
                              relative_bandwidth=8.0e-3)
    drive = units.natural_drive(spec)
    assert drive.omega == 2.25
    assert drive.delta_omega == pytest.approx(0.018, rel=1e-12)
    assert drive.rho == pytest.approx(
        units.intensity_to_photon_density(9.0e16, 2.25), rel=1e-15)


def test_lab_spec_validation_and_warning():
    with pytest.raises(ValueError):
        units.LabDriveSpec(-1.0, 2.25, 8e-3)
    with pytest.raises(ValueError):
        units.LabDriveSpec(1e15, 0.0, 8e-3)
    with pytest.raises(ValueError):
        units.LabDriveSpec(1e15, 2.25, 0.0)
    with pytest.warns(UserWarning):
        units.LabDriveSpec(1e15, 2.25, 0.5)


def test_zero_intensity_allowed():
    assert units.intensity_to_photon_density(0.0, 2.25) == 0.0
