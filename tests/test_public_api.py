"""The package's public surface, pinned so additions and removals are
deliberate."""

import qcompton
from qcompton import emission, minkowski, pipeline, units

PUBLIC_NAMES = [
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
    "__version__",
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
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(qcompton.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qcompton, name) is not None, name


def test_test_only_kinematics_stay_out_of_the_package():
    # the tests' oracles carry the complex four-vector algebra; the
    # package forms |d| from real transverse components
    for name in ("ComplexFourVector", "circular_polarization", "mdot",
                 "photon_wavevector"):
        assert not hasattr(minkowski, name) and not hasattr(qcompton, name)
    for name in ("PhotonDensity", "PulseDuration"):
        assert not hasattr(units, name)
    # coherent lines are arrays from the ladder to the band sum, and a
    # spectrum keeps them as one (lines, 3) array, SpectralCurve.lines
    assert not hasattr(emission, "PeakEntry")
    assert not hasattr(qcompton, "PeakEntry")
    assert not hasattr(pipeline, "GaussianPeak")
    assert not hasattr(qcompton, "GaussianPeak")
