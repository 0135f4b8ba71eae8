"""Four-vectors, electron kinematics and emission directions.

Metric convention diag(1, -1, -1, -1).  The drive propagates along +z;
arbitrary electron incidence is handled by rotating the electron
direction, never the field.  All components are energies in eV
(natural units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import ELECTRON_MASS_EV


class KinematicallyForbidden(ValueError):
    """Raised when a requested configuration lies above the kinematic ceiling."""


@dataclass(frozen=True)
class FourVector:
    """Real four-vector (t, x, y, z), components in eV."""

    t: float
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class EmissionGeometry:
    """Emission direction: polar angle theta and azimuth phi, radians.

    theta is measured from the drive propagation axis (+z).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2 pi), got {self.phi}")


def electron_momentum(gamma: float, direction) -> FourVector:
    """On-shell electron four-momentum for a given Lorentz factor and unit
    direction.

    p = (gamma m_e, sqrt(gamma^2 - 1) m_e * direction).  The direction is
    renormalized internally (after validating |direction| = 1 within 1e-12)
    so each component is accurate to machine precision.  The square
    p.p = (p^t)^2 - |p|^2 formed from them is not: it cancels, with a
    relative error of order gamma^2 eps (0.0 at gamma = 1e8), so the
    emission core takes p.p = m_e^2 as given.  Raises ValueError when
    gamma^2 overflows and p is not finite.
    """
    if gamma < 1.0:
        raise ValueError(f"Lorentz factor must be >= 1, got {gamma}")
    dx, dy, dz = (float(c) for c in direction)
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |d| = {norm}")
    dx, dy, dz = dx / norm, dy / norm, dz / norm
    pmag = math.sqrt(gamma * gamma - 1.0) * ELECTRON_MASS_EV
    p = FourVector(gamma * ELECTRON_MASS_EV, pmag * dx, pmag * dy, pmag * dz)
    if not all(map(math.isfinite, (p.t, p.x, p.y, p.z))):
        raise ValueError(f"Lorentz factor {gamma:g} is too large: the "
                         "electron momentum overflows")
    return p
