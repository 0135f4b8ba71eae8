"""Independent per-order emission formulas for cross-checking the engine.

Literal transcriptions of the printed amplitude: the effective field
E_s, the coefficients (zeta_s, xi_s), the squared amplitude and the
per-state reference densities, evaluated one order and one point at a
time in plain scalar arithmetic.  They share only bessel_bracket with
the fused engine (emission.spectral_density_points), which is what
makes the dual-path comparisons meaningful.

scattered_momentum closes the kinematics for the conservation checks;
the four-vector algebra they are written in (Minkowski product, photon
wavevector, circular polarization) lives here too, since the package
itself needs none of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from qcompton.constants import E_CHARGE, E_SQUARED
from qcompton.emission import (DEFAULT_PATIENCE, DEFAULT_REL_TOL,
                               DEFAULT_S_MAX, EDGE_FIELD_FRACTION,
                               TruncationNotConverged, bessel_bracket)
from qcompton.minkowski import (EmissionGeometry, FourVector,
                                KinematicallyForbidden)

_EPS = np.finfo(float).eps

@dataclass(frozen=True)
class ComplexFourVector:
    """Complex four-vector, used for polarization (dimensionless components)."""

    t: complex
    x: complex
    y: complex
    z: complex


def mdot(a, b):
    """Minkowski product a.b = a^t b^t - a^x b^x - a^y b^y - a^z b^z.

    No implicit conjugation: where a modulus of a complex product is
    meant, callers conjugate explicitly.
    """
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def photon_wavevector(omega: float, theta: float, phi: float) -> FourVector:
    """Null four-wavevector omega * (1, sin t cos p, sin t sin p, cos t).

    Args:
        omega: photon energy in eV, > 0.
        theta, phi: propagation direction in radians.
    """
    if omega <= 0.0:
        raise ValueError(f"photon energy must be positive, got {omega}")
    st = math.sin(theta)
    return FourVector(omega, omega * st * math.cos(phi),
                      omega * st * math.sin(phi), omega * math.cos(theta))


def circular_polarization() -> ComplexFourVector:
    """Circular drive polarization (0, 1, i, 0)/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return ComplexFourVector(0.0, r, 1j * r, 0.0)


# Kinematically forbidden orders are reported as this marker, not as an
# exception: hitting the theta cutoff is an ordinary outcome.
NOT_ALLOWED = None


def scattered_momentum(p: FourVector, k: FourVector,
                       kprime: FourVector) -> FourVector:
    """Scattered electron momentum from energy-momentum conservation.

    p' = p + (p.k')/(p.k - k.k') k - k'.  Valid below the absolute
    kinematic ceiling p.k - k.k' > 0; on-shell p'.p' = m_e^2 follows
    algebraically.
    """
    denom = mdot(p, k) - mdot(k, kprime)
    if denom <= 0.0:
        raise KinematicallyForbidden(
            f"p.k - k.k' = {denom} <= 0: above the kinematic ceiling")
    n = mdot(p, kprime) / denom
    return FourVector(p.t + n * k.t - kprime.t, p.x + n * k.x - kprime.x,
                      p.y + n * k.y - kprime.y, p.z + n * k.z - kprime.z)


@dataclass(frozen=True)
class HarmonicTerm:
    """Per-order quantities of the emission amplitude at one (k', p)."""

    order: int
    effective_field: float    # E_s, eV^2 (0 when not allowed)
    zeta: float
    xi: float
    t2: float                 # spin/phase-averaged squared amplitude
    allowed: bool


def effective_field(s: int, p: FourVector, k: FourVector,
                    kprime: FourVector):
    """Effective field amplitude E_s (eV^2) for order-s emission into k'.

    Returns NOT_ALLOWED (None) when the order is kinematically forbidden,
    i.e. the cutoff combination s(k.p - k.k') - p.k' is negative beyond
    roundoff; an exact zero at the cutoff itself.
    """
    if s < 1:
        raise ValueError(f"harmonic order must be >= 1, got {s}")
    kp = mdot(k, p)
    kkp = mdot(k, kprime)
    pkp = mdot(p, kprime)
    theta_arg = s * (kp - kkp) - pkp
    scale = s * (abs(kp) + abs(kkp)) + abs(pkp)
    if theta_arg <= -32.0 * _EPS * scale:
        return NOT_ALLOWED
    theta_arg = max(theta_arg, 0.0)
    if kkp == 0.0:
        return math.inf
    omega = k.t
    return math.sqrt(4.0 * omega * omega * kp * theta_arg
                     / (E_SQUARED * kkp))


def harmonic_coefficients(s: int, p: FourVector, k: FourVector,
                          kprime: FourVector, e_s):
    """(zeta_s, xi_s) for the order-s amplitude; propagates NOT_ALLOWED.

    zeta_s scales the sideband combination, xi_s is the Bessel argument;
    the modulus inside xi_s is a complex modulus (the polarization is
    complex for circular light).
    """
    if e_s is NOT_ALLOWED:
        return NOT_ALLOWED
    pprime = scattered_momentum(p, k, kprime)
    omega = k.t
    kp = mdot(k, p)
    kpp = mdot(k, kprime)
    kppr = mdot(k, pprime)
    # 1/(k.p') - 1/(k.p) written as k.k'/((k.p')(k.p)): identical because
    # k.p' = k.p - k.k' exactly for lightlike k, but free of the digit
    # loss the raw reciprocal difference suffers when k.k' << k.p
    zeta = (E_SQUARED * e_s * e_s / (4.0 * omega * omega)) \
        * kpp / (kppr * kp)
    eps = circular_polarization()
    d = mdot(p, eps) / kp - mdot(pprime, eps) / kppr
    xi = E_CHARGE * (e_s / omega) * abs(d)
    return zeta, xi


def t_squared(s: int, p: FourVector, k: FourVector, kprime: FourVector,
              e_s):
    """Spin/phase-averaged squared emission amplitude of order s.

    Literal transcription: e^2 m^2/(p^t p^t') [zeta_s X (J_{s-1}^2 +
    J_{s+1}^2 - 2 J_s^2) - J_s^2] with X = ((p'.k)^2 + (p.k)^2) /
    (2 m^2 k.k').  Propagates NOT_ALLOWED.
    """
    if e_s is NOT_ALLOWED:
        return NOT_ALLOWED
    pprime = scattered_momentum(p, k, kprime)
    zeta, xi = harmonic_coefficients(s, p, k, kprime, e_s)
    kp = mdot(k, p)
    kkp = mdot(k, kprime)
    kpp = mdot(k, pprime)
    m2 = mdot(p, p)
    x = (kpp * kpp + kp * kp) / (2.0 * m2 * kkp)
    bracket = float(bessel_bracket(s, xi, zeta * x)[0])
    return E_SQUARED * m2 / (p.t * pprime.t) * bracket


def harmonic_term(s: int, p: FourVector, k: FourVector,
                  kprime: FourVector) -> HarmonicTerm:
    """All order-s quantities at one emission four-momentum."""
    e_s = effective_field(s, p, k, kprime)
    if e_s is NOT_ALLOWED:
        return HarmonicTerm(order=s, effective_field=0.0, zeta=0.0, xi=0.0,
                            t2=0.0, allowed=False)
    zeta, xi = harmonic_coefficients(s, p, k, kprime, e_s)
    return HarmonicTerm(order=s, effective_field=e_s, zeta=zeta, xi=xi,
                        t2=t_squared(s, p, k, kprime, e_s), allowed=True)


def _reference_density(p, k, geometry, omega_prime, omega, rho, log_weight,
                       support_max, rel_tol, s_max, patience):
    """Shared harness for the transcribed closed-form spectra.

    Deliberately naive: builds k' as a four-vector, keeps the explicit
    p^t' factor of the printed prefactor (instead of cancelling it), and
    sums harmonics in plain linear arithmetic using the per-order
    operations.  Serves as an independent cross-check of the fused
    engine.
    """
    kprime = photon_wavevector(omega_prime, geometry.theta, geometry.phi)
    kp = mdot(k, p)
    kkp = mdot(k, kprime)
    if kp - kkp <= 0.0:
        return 0.0
    pprime = scattered_momentum(p, k, kprime)
    pref = (omega * omega * omega_prime * omega_prime
            / (4.0 * math.pi ** 2)) * kp / (E_SQUARED * kkp) * pprime.t

    edge_field = EDGE_FIELD_FRACTION * math.sqrt(2.0 * omega * rho)
    total = 0.0
    streak = 0
    s = 1
    while s <= s_max:
        e_s = effective_field(s, p, k, kprime)
        if e_s is NOT_ALLOWED:
            s += 1
            continue
        if e_s < edge_field:
            term = 0.0
        else:
            term = t_squared(s, p, k, kprime, e_s) * math.exp(log_weight(e_s))
        total += term

        if total != 0.0:
            small = abs(term) <= rel_tol * abs(total)
        else:
            small = term == 0.0 and e_s > support_max
        streak = streak + 1 if small else 0
        if streak >= patience:
            return pref * total
        s += 1
    raise TruncationNotConverged(
        f"reference sum above rel_tol={rel_tol} at order cap {s_max}")


def reference_thermal_density(p: FourVector, k: FourVector,
                              geometry: EmissionGeometry,
                              omega_prime: float, rho: float, *,
                              rel_tol: float = DEFAULT_REL_TOL,
                              s_max: int = DEFAULT_S_MAX,
                              patience: int = DEFAULT_PATIENCE) -> float:
    """Transcribed thermal-drive spectral density (independent path).

    Per-order weight exp(-E_s^2 / 2 omega rho) / (omega rho) with the
    printed prefactor, for cross-validation of the generic engine.
    """
    omega = k.t
    wr = omega * rho

    def log_weight(e):
        return -e * e / (2.0 * wr) - math.log(wr)

    return _reference_density(p, k, geometry, omega_prime, omega, rho,
                              log_weight, 40.0 * math.sqrt(2.0 * wr),
                              rel_tol, s_max, patience)


def reference_bsv_density(p: FourVector, k: FourVector,
                          geometry: EmissionGeometry,
                          omega_prime: float, rho: float, *,
                          rel_tol: float = DEFAULT_REL_TOL,
                          s_max: int = DEFAULT_S_MAX,
                          patience: int = DEFAULT_PATIENCE) -> float:
    """Transcribed squeezed-vacuum spectral density (independent path).

    Per-order weight exp(-E_s^2 / 4 omega rho) / (E_s sqrt(pi omega rho)).
    """
    omega = k.t
    wr = omega * rho
    half_log = 0.5 * math.log(math.pi * wr)

    def log_weight(e):
        return -e * e / (4.0 * wr) - math.log(e) - half_log

    return _reference_density(p, k, geometry, omega_prime, omega, rho,
                              log_weight, 40.0 * math.sqrt(4.0 * wr),
                              rel_tol, s_max, patience)
