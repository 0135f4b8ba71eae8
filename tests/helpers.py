"""Shared helpers: drive construction and well-conditioned point sampling.

The generic engine and the transcribed per-state references compute the
kinematic cutoff combination Theta = s(k.p - k.k') - p.k' through
differently ordered arithmetic, so machine-level agreement between the
two paths is only meaningful where Theta is well conditioned.  Points
are therefore drawn two ways:

  * window draws: omega' = u * cutoff_s with u ~ U(0.05, 0.98).  Then
    Theta / (s k.p) = 1 - u exactly, so the subtraction keeps at least
    ~2 significant digits of headroom everywhere in the window;
  * field-anchored draws: omega' placed where the order-s effective
    field equals c * sqrt(2 omega rho), c ~ U(0.3, 3).  These probe the
    statistically weighted region but sit close to the cutoff at low
    intensity, so they are used only for intensity >= 3e15 W/cm^2 and
    kept only while Theta / (s k.p) >= 1e-3.
"""

import math

import numpy as np

from qcompton import units
from qcompton.constants import E_SQUARED
from qcompton.emission import smooth_spectral_density
from oracles import mdot, photon_wavevector
from qcompton.minkowski import EmissionGeometry

DRIVE_OMEGA = 2.25          # eV
RELATIVE_BANDWIDTH = 8e-3

# below this magnitude the linear-accumulation reference path carries no
# relative precision (denormal territory); both paths must agree the
# density is negligible instead
DENORMAL_FLOOR = 1e-250


def drive_for(intensity_W_cm2: float) -> units.NaturalDrive:
    return units.natural_drive(units.LabDriveSpec(
        intensity_W_cm2, DRIVE_OMEGA, RELATIVE_BANDWIDTH))


def sample_triples(rng, n, p, *, min_intensity=1e12, max_intensity=1e18,
                   max_order=6):
    """n well-conditioned (intensity, drive, geometry, omega') tuples."""
    out = []
    log_lo, log_hi = math.log10(min_intensity), math.log10(max_intensity)
    while len(out) < n:
        intensity = 10.0 ** rng.uniform(log_lo, log_hi)
        drive = drive_for(intensity)
        k = photon_wavevector(drive.omega, 0.0, 0.0)
        geom = EmissionGeometry(theta=float(rng.uniform(0.2, math.pi - 0.05)),
                                phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        s = int(rng.integers(1, max_order + 1))
        kp = mdot(k, p)
        nprime = photon_wavevector(1.0, geom.theta, geom.phi)
        kappa = mdot(k, nprime)
        piprime = mdot(p, nprime)
        if rng.uniform() < 0.4 and intensity >= 3e15:
            amp2 = 2.0 * drive.omega * drive.rho
            c = float(rng.uniform(0.3, 3.0))
            mu_c = E_SQUARED * amp2 * c * c * kappa / (
                4.0 * drive.omega ** 2 * kp)
            conditioning = mu_c / (s * kappa + piprime + mu_c)
            if conditioning < 1e-3:
                continue
            wp = s * kp / (s * kappa + piprime + mu_c)
        else:
            u = float(rng.uniform(0.05, 0.98))
            wp = u * s * kp / (s * kappa + piprime)
        out.append((intensity, drive, geom, float(wp)))
    return out


def dual_path_worst_error(stats_maker, reference, triples, p):
    """Worst relative difference generic-vs-reference over the triples.

    Densities below DENORMAL_FLOOR are asserted jointly negligible and
    excluded from the relative comparison.
    """
    worst = 0.0
    for _intensity, drive, geom, wp in triples:
        stats = stats_maker(drive.omega, drive.rho)
        k = photon_wavevector(drive.omega, 0.0, 0.0)
        a = smooth_spectral_density(stats, p, drive.omega, geom, wp)
        b = reference(p, k, geom, wp, drive.rho)
        if abs(a) < DENORMAL_FLOOR or abs(b) < DENORMAL_FLOOR:
            assert abs(a) < DENORMAL_FLOOR and abs(b) < DENORMAL_FLOOR, \
                (a, b, geom.theta, wp)
            continue
        worst = max(worst, abs(a - b) / abs(b))
    return worst


def linear_compton_line(omega: float, theta: float) -> float:
    """Textbook at-rest Compton formula omega / (1 + (omega/m)(1-cos t))."""
    from qcompton.constants import ELECTRON_MASS_EV
    return omega / (1.0 + (omega / ELECTRON_MASS_EV)
                    * (1.0 - math.cos(theta)))


def relativistic_line_oracle(gamma: float, omega: float,
                             theta: float) -> float:
    """s=1 zero-intensity line for a head-on electron, solved directly.

    Solves k.p = omega'(kappa + pi'/1) ... i.e. omega' = k.p / (kappa +
    pi') with four-vector dot products evaluated in extended precision
    via math.fsum-free exact forms; serves as the independent oracle for
    the relativistic backscatter check.
    """
    import mpmath as mp
    with mp.workdps(50):
        g = mp.mpf(gamma)
        m = mp.mpf("510998.95")
        w = mp.mpf(omega)
        beta = mp.sqrt(1 - 1 / g ** 2)
        # electron along -z, drive along +z, emission at polar angle theta
        kp = w * g * m * (1 + beta)
        kappa = w * (1 - mp.cos(theta))
        piprime = g * m * (1 + beta * mp.cos(theta))
        return float(kp / (kappa + piprime))
