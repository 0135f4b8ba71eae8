"""Conversions between laboratory quantities and natural units.

The emission core works in natural units (hbar = c = epsilon_0 = 1,
energies in eV).  This module is the single conversion boundary:
intensities in W/cm^2, photon energies in eV and bandwidths come in,
a NaturalDrive (omega, photon density in eV^3, bandwidth in eV) goes out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import JOULES_PER_EV, PER_M3_TO_EV3, SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class LabDriveSpec:
    """Driving field as quoted in laboratory units."""

    intensity_W_cm2: float
    photon_energy_eV: float
    relative_bandwidth: float   # delta_omega / omega

    def __post_init__(self):
        if self.intensity_W_cm2 < 0.0:
            raise ValueError(f"intensity must be >= 0, got {self.intensity_W_cm2}")
        if self.photon_energy_eV <= 0.0:
            raise ValueError(f"photon energy must be > 0, got {self.photon_energy_eV}")
        if self.relative_bandwidth <= 0.0:
            raise ValueError(
                f"relative bandwidth must be > 0, got {self.relative_bandwidth}")
        if self.relative_bandwidth > 0.1:
            warnings.warn(
                "relative bandwidth %g exceeds 0.1; the narrow-band "
                "broadening treatment assumes delta_omega << omega"
                % self.relative_bandwidth, stacklevel=2)


@dataclass(frozen=True)
class NaturalDrive:
    """Drive parameters in natural units (all eV powers)."""

    omega: float        # photon energy, eV
    rho: float          # photon number density, eV^3
    delta_omega: float  # bandwidth, eV


def intensity_to_photon_density(intensity_W_cm2: float,
                                photon_energy_eV: float) -> float:
    """Photon number density, in eV^3, of a flux with the given
    cycle-averaged intensity: rho[m^-3] = I / (c * hbar omega in joules),
    expressed in natural units.
    """
    if intensity_W_cm2 < 0.0:
        raise ValueError(f"intensity must be >= 0, got {intensity_W_cm2}")
    if photon_energy_eV <= 0.0:
        raise ValueError(f"photon energy must be > 0, got {photon_energy_eV}")
    intensity_W_m2 = intensity_W_cm2 * 1.0e4
    photon_energy_J = photon_energy_eV * JOULES_PER_EV
    per_m3 = intensity_W_m2 / (SPEED_OF_LIGHT_M_S * photon_energy_J)
    return per_m3 * PER_M3_TO_EV3


def pulse_duration(delta_omega_eV: float) -> float:
    """Fourier-limited pulse duration T = 2 pi / delta_omega, in eV^-1."""
    if delta_omega_eV <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {delta_omega_eV}")
    return 2.0 * math.pi / delta_omega_eV


def natural_drive(spec: LabDriveSpec) -> NaturalDrive:
    """Resolve a LabDriveSpec into the natural-unit drive parameters."""
    return NaturalDrive(omega=spec.photon_energy_eV,
                        rho=intensity_to_photon_density(
                            spec.intensity_W_cm2, spec.photon_energy_eV),
                        delta_omega=spec.relative_bandwidth * spec.photon_energy_eV)
