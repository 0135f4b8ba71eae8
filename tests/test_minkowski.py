"""Four-vector kinematics: algebra, mass shell, conservation."""

import math

import numpy as np
import pytest

from qcompton.constants import ELECTRON_MASS_EV
from oracles import (ComplexFourVector, circular_polarization, mdot,
                     photon_wavevector, scattered_momentum)
from qcompton.minkowski import (EmissionGeometry, FourVector,
                                KinematicallyForbidden, electron_momentum)

M = ELECTRON_MASS_EV


def test_minkowski_product_signature():
    a = FourVector(2.0, 1.0, -1.0, 0.5)
    b = FourVector(3.0, 0.5, 2.0, -1.0)
    assert mdot(a, b) == 2.0 * 3.0 - (1.0 * 0.5 + (-1.0) * 2.0 + 0.5 * (-1.0))


def test_photon_wavevector_is_null():
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = float(rng.uniform(0.1, 1e6))
        th = float(rng.uniform(0.0, math.pi))
        ph = float(rng.uniform(0.0, 2.0 * math.pi))
        k = photon_wavevector(w, th, ph)
        assert abs(mdot(k, k)) <= 1e-12 * w * w
    with pytest.raises(ValueError):
        photon_wavevector(0.0, 0.0, 0.0)


def test_electron_momentum_mass_shell():
    at_rest = electron_momentum(1.0, (0.0, 0.0, 1.0))
    assert at_rest.t == M
    assert at_rest.x == at_rest.y == at_rest.z == 0.0
    fast = electron_momentum(7.09, (0.0, 0.0, -1.0))
    assert abs(mdot(fast, fast) - M * M) <= 1e-10 * M * M
    assert fast.z < 0.0
    with pytest.raises(ValueError):
        electron_momentum(0.99, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        electron_momentum(2.0, (0.0, 0.0, 2.0))   # not unit length


def test_electron_momentum_rejects_overflow():
    # gamma^2 overflows: |p| = inf and inf * 0 would put NaN into p
    for direction in ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)):
        with pytest.raises(ValueError, match="overflows"):
            electron_momentum(1e155, direction)
    assert math.isfinite(electron_momentum(1e150, (0.0, 0.0, 1.0)).z)


def test_scattered_momentum_on_shell():
    rng = np.random.default_rng(11)
    k = photon_wavevector(2.25, 0.0, 0.0)
    for _ in range(300):
        gamma = float(rng.uniform(1.0, 20.0))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        p = electron_momentum(gamma, tuple(d))
        th = float(rng.uniform(1e-3, math.pi))
        wp = float(rng.uniform(0.01, 0.9) * mdot(k, p)
                   / (2.25 * (1.0 - math.cos(th)) + p.t))
        kp = photon_wavevector(wp, th, float(rng.uniform(0.0, 6.0)))
        pp = scattered_momentum(p, k, kp)
        assert abs(mdot(pp, pp) - M * M) <= 1e-10 * M * M


def test_scattered_momentum_above_ceiling_rejected():
    p = electron_momentum(1.0, (0.0, 0.0, 1.0))
    k = photon_wavevector(2.25, 0.0, 0.0)
    kp = photon_wavevector(1e9, math.pi, 0.0)   # k.k' > k.p
    with pytest.raises(KinematicallyForbidden):
        scattered_momentum(p, k, kp)


def test_emission_geometry_validation():
    g = EmissionGeometry(theta=math.pi / 3, phi=1.0)
    n = photon_wavevector(1.0, g.theta, g.phi)
    assert abs(n.x * n.x + n.y * n.y + n.z * n.z - 1.0) < 1e-14
    assert abs(n.z - 0.5) < 1e-14
    with pytest.raises(ValueError):
        EmissionGeometry(theta=-0.1)
    with pytest.raises(ValueError):
        EmissionGeometry(theta=1.0, phi=7.0)


def test_circular_polarization_properties():
    eps = circular_polarization()
    k = photon_wavevector(2.25, 0.0, 0.0)
    # transverse to a +z drive and unit normalized: eps . eps* = -1
    assert mdot(k, eps) == 0.0
    eps_conj = ComplexFourVector(*(complex(c).conjugate()
                                   for c in (eps.t, eps.x, eps.y, eps.z)))
    assert abs(mdot(eps, eps_conj) + 1.0) < 1e-15
    # eps . eps = 0 for circular polarization
    assert abs(mdot(eps, eps)) < 1e-15


def test_mdot_mixed_real_complex():
    eps = circular_polarization()
    p = FourVector(5.0, 1.0, 2.0, 3.0)
    val = mdot(p, eps)
    assert abs(val + (1.0 * eps.x + 2.0 * eps.y + 3.0 * eps.z)) < 1e-15
