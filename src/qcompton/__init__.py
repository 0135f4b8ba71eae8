"""Compton and inverse-Compton emission spectra for drives with
arbitrary photon statistics.

The emitted power spectrum of an electron in an intense light field
depends on the drive only through the phase-averaged statistics of its
field amplitude.  This package evaluates that spectrum for coherent,
thermal, bright-squeezed-vacuum, Fock-limit, cat-limit, mixed-diagonal
and user-tabulated drives, and assembles the measurable curves:
bandwidth-broadened energy spectra and band-integrated angular
distributions.
"""

from .minkowski import (ElectronState, EmissionGeometry, FourVector,
                        KinematicallyForbidden, electron_momentum)
from .units import (LabDriveSpec, NaturalDrive, natural_drive,
                    pulse_duration)
from .photon_statistics import (NonNormalizable, PhaseAveragedStatistics,
                                bsv_stats, cat_limit_stats, coherent_stats,
                                custom_tabulated_stats, fock_limit_stats,
                                mixed_diagonal_stats, moments, thermal_stats,
                                tabulated_stats_from_file)
from .emission import (Diagnostics, TruncationNotConverged,
                       absolute_frequency_ceiling, coherent_peaks,
                       kinematic_max_frequency, smooth_spectral_density,
                       spectral_density_points)
from .pipeline import (AngularCurve, OmegaGrid, Scenario, SpectralCurve,
                       angular_distribution, band_integrate, energy_spectrum)

__version__ = "0.1.0"

__all__ = [
    "AngularCurve",
    "Diagnostics",
    "ElectronState",
    "EmissionGeometry",
    "FourVector",
    "KinematicallyForbidden",
    "LabDriveSpec",
    "NaturalDrive",
    "NonNormalizable",
    "OmegaGrid",
    "PhaseAveragedStatistics",
    "Scenario",
    "SpectralCurve",
    "TruncationNotConverged",
    "absolute_frequency_ceiling",
    "angular_distribution",
    "band_integrate",
    "bsv_stats",
    "cat_limit_stats",
    "coherent_peaks",
    "coherent_stats",
    "custom_tabulated_stats",
    "electron_momentum",
    "energy_spectrum",
    "fock_limit_stats",
    "kinematic_max_frequency",
    "mixed_diagonal_stats",
    "moments",
    "natural_drive",
    "pulse_duration",
    "smooth_spectral_density",
    "spectral_density_points",
    "tabulated_stats_from_file",
    "thermal_stats",
    "__version__",
]
