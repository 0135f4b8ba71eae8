"""Emission core: kinematic structure, dual-path equality, line algebra."""

import math
import sys
import warnings
from dataclasses import asdict, replace

import mpmath as mp
import numpy as np
import pytest

from helpers import (drive_for, dual_path_worst_error, linear_compton_line,
                     sample_triples)
from oracles import (NOT_ALLOWED, effective_field, harmonic_coefficients,
                     harmonic_term, mdot, photon_wavevector,
                     reference_bsv_density, reference_thermal_density,
                     scattered_momentum)
from qcompton import emission
from qcompton.constants import E_SQUARED, ELECTRON_MASS_EV
from qcompton.emission import (Diagnostics, PeakEntry,
                               TruncationNotConverged,
                               absolute_frequency_ceiling, bessel_bracket,
                               coherent_line_positions, coherent_peaks,
                               kinematic_max_frequency,
                               smooth_spectral_density,
                               spectral_density_points)
from qcompton.minkowski import EmissionGeometry, electron_momentum
from qcompton.photon_statistics import (bsv_stats, coherent_stats,
                                        thermal_stats)

AT_REST = electron_momentum(1.0, (0.0, 0.0, 1.0)).p
HEAD_ON = electron_momentum(7.09, (0.0, 0.0, -1.0)).p
OMEGA = 2.25
K_DRIVE = photon_wavevector(OMEGA, 0.0, 0.0)
BLOCK = emission.ORDER_BLOCK


def _kprime(wp, geom):
    return photon_wavevector(wp, geom.theta, geom.phi)


# ---------------------------------------------------------------- kinematics

def test_effective_field_boundary_behavior():
    geom = EmissionGeometry(theta=math.radians(100.0))
    for s in (1, 2, 5):
        cutoff = kinematic_max_frequency(s, AT_REST, OMEGA, geom)
        # inside the window: positive and decreasing toward the cutoff
        fields = [effective_field(s, AT_REST, K_DRIVE,
                                  _kprime(u * cutoff, geom))
                  for u in (0.2, 0.5, 0.8, 0.99)]
        assert all(f is not NOT_ALLOWED and f > 0.0 for f in fields)
        assert all(a > b for a, b in zip(fields, fields[1:]))
        # at the cutoff the field vanishes (within the roundoff snap)
        at_edge = effective_field(s, AT_REST, K_DRIVE, _kprime(cutoff, geom))
        if at_edge is not NOT_ALLOWED:
            assert at_edge <= 1e-4 * fields[0]
        # clearly beyond: forbidden
        assert effective_field(
            s, AT_REST, K_DRIVE, _kprime(1.001 * cutoff, geom)) is NOT_ALLOWED
    with pytest.raises(ValueError):
        effective_field(0, AT_REST, K_DRIVE, _kprime(1.0, geom))


def test_cutoff_ladder_ordering_and_ceiling():
    geom = EmissionGeometry(theta=math.radians(60.0))
    for p in (AT_REST, HEAD_ON):
        ceiling = absolute_frequency_ceiling(p, OMEGA, geom)
        cuts = [kinematic_max_frequency(s, p, OMEGA, geom)
                for s in range(1, 40)]
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert all(c < ceiling for c in cuts)
        # the ladder accumulates at the ceiling as the order grows
        assert kinematic_max_frequency(10 ** 9, p, OMEGA, geom) \
            > 0.99 * ceiling


def test_ceiling_infinite_in_forward_direction():
    geom = EmissionGeometry(theta=0.0)
    assert absolute_frequency_ceiling(AT_REST, OMEGA, geom) == math.inf


def test_harmonic_term_consistency():
    geom = EmissionGeometry(theta=math.radians(75.0), phi=0.5)
    cutoff = kinematic_max_frequency(2, AT_REST, OMEGA, geom)
    kp = _kprime(0.6 * cutoff, geom)
    term = harmonic_term(2, AT_REST, K_DRIVE, kp)
    assert term.allowed
    assert term.effective_field == effective_field(2, AT_REST, K_DRIVE, kp)
    assert term.zeta > 0.0 and term.xi > 0.0
    beyond = harmonic_term(1, AT_REST, K_DRIVE,
                           _kprime(1.5 * cutoff, geom))
    assert not beyond.allowed and beyond.t2 == 0.0


# ------------------------------------------------------- dual-path equality

def test_dual_path_at_rest_machine_level():
    rng = np.random.default_rng(29)
    triples = sample_triples(rng, 30, AT_REST)
    for maker, reference in ((thermal_stats, reference_thermal_density),
                             (bsv_stats, reference_bsv_density)):
        worst = dual_path_worst_error(maker, reference, triples, AT_REST)
        assert worst < 1e-12, worst


def test_dual_path_relativistic():
    # pi' = gamma m (1 + beta cos theta') nearly cancels near the forward
    # direction for a counter-propagating electron, and the (E/A)^2
    # exponent amplifies ulp-level path differences at low intensity, so
    # the relativistic comparison gets a looser budget than the at-rest
    # acceptance run.
    rng = np.random.default_rng(31)
    triples = sample_triples(rng, 25, HEAD_ON, min_intensity=1e13)
    for maker, reference in ((thermal_stats, reference_thermal_density),
                             (bsv_stats, reference_bsv_density)):
        worst = dual_path_worst_error(maker, reference, triples, HEAD_ON)
        assert worst < 1e-9, worst


# ------------------------------------------------------- smooth density

def test_density_nonnegative_strong_drive():
    drive = drive_for(9e17)
    geom = EmissionGeometry(theta=math.radians(60.0))
    grid = np.linspace(0.1, 100.0, 400)
    for maker in (thermal_stats, bsv_stats):
        stats = maker(drive.omega, drive.rho)
        vals = smooth_spectral_density(stats, AT_REST, OMEGA, geom, grid)
        assert np.all(vals >= -1e-15 * vals.max())


def test_density_zero_above_ceiling():
    drive = drive_for(9e16)
    stats = thermal_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(150.0))
    ceiling = absolute_frequency_ceiling(AT_REST, OMEGA, geom)
    vals = smooth_spectral_density(stats, AT_REST, OMEGA, geom,
                                   np.array([1.01 * ceiling, 2.0 * ceiling]))
    assert np.all(vals == 0.0)


def test_azimuthal_invariance_for_axis_aligned_electron():
    drive = drive_for(9e16)
    geom0 = EmissionGeometry(theta=math.radians(70.0), phi=0.0)
    for p in (AT_REST, HEAD_ON):
        stats = bsv_stats(drive.omega, drive.rho)
        cutoff = kinematic_max_frequency(1, p, OMEGA, geom0)
        wp = 0.7 * cutoff
        base = smooth_spectral_density(stats, p, OMEGA, geom0, wp)
        for phi in (0.4, 2.0, math.pi, 5.5):
            geom = EmissionGeometry(theta=geom0.theta, phi=phi)
            val = smooth_spectral_density(stats, p, OMEGA, geom, wp)
            assert val == pytest.approx(base, rel=1e-10)


def test_truncation_cap_raises():
    # a point far below the absolute ceiling in the near-forward cone is
    # formally allowed but only at orders ~1e8, beyond any sane cap: the
    # contract is an explicit non-convergence error, not a silent zero
    drive = drive_for(9e16)
    stats = thermal_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(1.0))
    ceiling = absolute_frequency_ceiling(AT_REST, OMEGA, geom)
    wp = 0.3 * ceiling
    with pytest.raises(TruncationNotConverged):
        smooth_spectral_density(stats, AT_REST, OMEGA, geom, wp)
    with pytest.raises(TruncationNotConverged):
        reference_thermal_density(AT_REST, K_DRIVE, geom, wp, drive.rho,
                                  s_max=2000)


def test_nan_statistics_raise_instead_of_dropping_terms():
    # hand-built statistics with log R = NaN on part of the field range:
    # every term there is NaN, and the density must say so rather than
    # sum the other terms into a finite, wrong value
    drive = drive_for(9e16)
    thermal = thermal_stats(drive.omega, drive.rho)
    amp = math.sqrt(2.0 * thermal.energy_density)

    def log_r(e):
        out = thermal.log_r(e)
        return np.where((e > 0.5 * amp) & (e < 0.7 * amp), np.nan, out)

    stats = replace(thermal, log_r_fn=log_r)
    geom = EmissionGeometry(theta=math.radians(159.9))
    wp = np.linspace(2.0, 2.249, 40)    # E_1 runs from above A to 0
    th, ph = np.full_like(wp, geom.theta), np.full_like(wp, geom.phi)
    with pytest.raises(ValueError,
                       match=r"NaN at order \d+, theta'=159.9 deg, omega'="):
        spectral_density_points(stats, AT_REST, OMEGA, th, ph, wp)


def test_order_cap_stays_inside_bessel_contract():
    # a point whose first allowed order is 9991 needs orders past the
    # Bessel layer's range; the default cap must stop the scan there and
    # report non-convergence, not let the Bessel contract error escape
    drive = drive_for(9e15)
    stats = thermal_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(30.0))
    wp = kinematic_max_frequency(9990, AT_REST, OMEGA, geom) * (1 + 1e-9)
    with pytest.raises(TruncationNotConverged, match="s_max=9999"):
        smooth_spectral_density(stats, AT_REST, OMEGA, geom, wp)


def test_engine_diagnostics_keys():
    drive = drive_for(9e15)
    stats = thermal_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(120.0))
    diag = Diagnostics()
    grid = np.linspace(0.5, 6.0, 50)
    smooth_spectral_density(stats, AT_REST, OMEGA, geom, grid,
                            diagnostics=diag)
    assert list(asdict(diag)) == ["points", "highest_order",
                                  "orders_scanned", "edge_guarded",
                                  "overcomputed"]
    assert diag.points == grid.size
    assert diag.highest_order >= 1
    assert diag.orders_scanned >= diag.highest_order
    assert diag.edge_guarded >= 0
    # a pass stopped by the cap keeps its counts, up to the cap itself;
    # below 4 eV every point's first allowed order is at most 2
    capped = Diagnostics()
    low = grid[grid < 4.0]
    with pytest.raises(TruncationNotConverged):
        smooth_spectral_density(stats, AT_REST, OMEGA, geom, low,
                                s_max=2, diagnostics=capped)
    assert capped.points == low.size
    assert capped.orders_scanned == 2


def test_first_order_past_the_cap_fails_before_any_order():
    # a point whose first allowed order lies above s_max can never
    # converge: the pass says so before it sums a single order, however
    # slowly its other points converge, and names the lowest-index such
    # point at the cap
    drive = drive_for(9e16)
    stats = thermal_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(159.9))
    cuts = [kinematic_max_frequency(s, AT_REST, OMEGA, geom)
            for s in (1, 40, 50)]
    wp = np.array([0.5 * cuts[0], 1.01 * cuts[2], 1.01 * cuts[1]])
    th, ph = np.full_like(wp, geom.theta), np.zeros_like(wp)
    diag = Diagnostics()
    with pytest.raises(TruncationNotConverged) as cap_error:
        spectral_density_points(stats, AT_REST, OMEGA, th, ph, wp,
                                s_max=45, diagnostics=diag)
    assert str(cap_error.value).startswith(
        f"1 of 3 points start above the order cap s_max=45; first at "
        f"theta'=159.9 deg, omega'={wp[1]:.6g} eV")
    assert cap_error.value.failure == {
        "theta_prime_deg": pytest.approx(159.9, rel=1e-12),
        "omega_prime_eV": wp[1], "order": 45, "e_field_eV2": None,
        "last_term_ratio": None}
    assert diag == Diagnostics(points=3)
    # the same points under a cap they can all reach converge
    assert np.all(spectral_density_points(stats, AT_REST, OMEGA, th, ph,
                                          wp) > 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["theta", "phi", "omega_prime"])
def test_non_finite_input_raises_before_any_work(name, bad):
    # a NaN or infinite angle or frequency is refused by name, not summed
    # into a silent zero or left to fail inside the pass
    drive = drive_for(9e16)
    stats = thermal_stats(drive.omega, drive.rho)
    args = {"theta": np.full(4, math.radians(159.9)), "phi": np.zeros(4),
            "omega_prime": np.linspace(0.5, 3.0, 4)}
    args[name][2] = bad
    diag = Diagnostics()
    with pytest.raises(ValueError, match=f"^non-finite {name}: {bad}$"):
        spectral_density_points(stats, AT_REST, OMEGA, args["theta"],
                                args["phi"], args["omega_prime"],
                                diagnostics=diag)
    assert diag == Diagnostics()


def test_input_validation():
    drive = drive_for(9e15)
    smooth = thermal_stats(drive.omega, drive.rho)
    atomic = coherent_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=1.0)
    with pytest.raises(TypeError):
        smooth_spectral_density(atomic, AT_REST, OMEGA, geom, 1.0)
    with pytest.raises(TypeError):
        coherent_peaks(smooth, AT_REST, OMEGA, geom, range(1, 3))
    for bad_omega in (0.0, -OMEGA, math.nan, math.inf):
        with pytest.raises(ValueError, match="drive frequency"):
            smooth_spectral_density(smooth, AT_REST, bad_omega, geom, 1.0)
    with pytest.raises(ValueError):
        smooth_spectral_density(smooth, AT_REST, OMEGA, geom, -1.0)
    with pytest.raises(ValueError):        # ragged point arrays
        spectral_density_points(smooth, AT_REST, OMEGA,
                                np.array([1.0, 1.1]), np.array([0.0]),
                                np.array([1.0, 2.0]))


# ------------------------------------------------------- coherent lines

def test_coherent_line_positions_solve_field_equation():
    # each line must sit exactly where the order-s effective field equals
    # the drive amplitude; effective_field recomputes that through the
    # generic cutoff combination, closing the loop between the two forms
    drive = drive_for(9e17)
    stats = coherent_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(110.0), phi=0.3)
    peaks = coherent_peaks(stats, AT_REST, OMEGA, geom, range(1, 6))
    assert len(peaks) == 5
    for q in peaks:
        e_s = effective_field(q.order, AT_REST, K_DRIVE,
                              _kprime(q.omega_prime, geom))
        assert e_s == pytest.approx(stats.peak_amplitude, rel=1e-8), q.order


def test_coherent_line_positions_below_cutoffs_and_ordered():
    drive = drive_for(9e16)
    stats = coherent_stats(drive.omega, drive.rho)
    geom = EmissionGeometry(theta=math.radians(90.0))
    peaks = coherent_peaks(stats, AT_REST, OMEGA, geom, range(1, 101))
    assert [q.order for q in peaks] == list(range(1, 101))
    pos = [q.omega_prime for q in peaks]
    assert all(a < b for a, b in zip(pos, pos[1:]))
    for q in peaks:
        cutoff = kinematic_max_frequency(q.order, AT_REST, OMEGA, geom)
        assert 0.0 < q.omega_prime < cutoff
    w_max = max(q.weight for q in peaks)
    assert all(q.weight >= -1e-12 * w_max for q in peaks)


def test_peak_entries_keep_their_public_fields():
    # a ladder's entries are immutable records read by field name, and
    # read as one (lines, 3) array by order, position and weight
    drive = drive_for(9e16)
    stats = coherent_stats(drive.omega, drive.rho)
    peaks = coherent_peaks(stats, AT_REST, OMEGA,
                           EmissionGeometry(theta=math.radians(90.0)),
                           range(1, 4))
    assert PeakEntry._fields == ("order", "omega_prime", "weight")
    q = peaks[1]
    assert isinstance(q, PeakEntry) and type(q.order) is int
    assert (q.order, q.omega_prime, q.weight) == tuple(q)
    assert np.array(peaks).tolist() == [list(p) for p in peaks]
    with pytest.raises(AttributeError):
        q.weight = 0.0


def test_coherent_line_low_intensity_reaches_compton_formula():
    # far below any nonlinearity the s = 1 line is the linear Compton
    # line and its power is linear in the intensity; at 1e2 and 1 W/cm^2
    # the intensity redshift is lost to rounding, and the line must stay
    for deg in (40.0, 90.0, 120.0, 170.0):
        geom = EmissionGeometry(theta=math.radians(deg))
        want = linear_compton_line(OMEGA, geom.theta)
        lines = []
        for intensity in (1e6, 1e2, 1.0):     # effectively free electron
            drive = drive_for(intensity)
            stats = coherent_stats(drive.omega, drive.rho)
            (pk,) = coherent_peaks(stats, AT_REST, OMEGA, geom, (1,))
            assert pk.omega_prime == pytest.approx(want, rel=1e-9)
            lines.append((pk.omega_prime, pk.weight / intensity))
        for position, per_intensity in lines[1:]:
            assert position == pytest.approx(lines[0][0], rel=1e-9)
            assert per_intensity == pytest.approx(lines[0][1], rel=1e-9)


def test_coherent_line_weights_match_transcribed_amplitude():
    # each line weight against the per-order transcription at e_s = A:
    # (zeta, xi) from harmonic_coefficients, X from the scattered momentum
    # and the weight formula of the coherent_peaks docstring; lines below
    # 1e-6 of an angle's strongest carry too few digits to compare
    electrons = [electron_momentum(1.0, (0.0, 0.0, 1.0)).p,
                 electron_momentum(7.09, (0.0, 0.0, -1.0)).p,
                 electron_momentum(3.0, (1.0, 0.0, 0.0)).p,
                 electron_momentum(2.0, (0.6, 0.0, 0.8)).p]
    geoms = [EmissionGeometry(theta=math.radians(159.9)),
             EmissionGeometry(theta=math.radians(120.0), phi=0.7),
             EmissionGeometry(theta=math.radians(90.0), phi=2.0),
             EmissionGeometry(theta=math.radians(35.0), phi=4.0)]
    worst = 0.0
    for intensity in (1e12, 9e14, 9e16, 9e17):
        drive = drive_for(intensity)
        stats = coherent_stats(drive.omega, drive.rho)
        amp = stats.peak_amplitude
        for p in electrons:
            kp, m2 = mdot(K_DRIVE, p), mdot(p, p)
            for geom in geoms:
                peaks = coherent_peaks(stats, p, OMEGA, geom, range(1, 60))
                assert [q.order for q in peaks] == list(range(1, 60))
                top = max(abs(q.weight) for q in peaks)
                for q in peaks:
                    kprime = _kprime(q.omega_prime, geom)
                    zeta, xi = harmonic_coefficients(q.order, p, K_DRIVE,
                                                     kprime, amp)
                    kpp = mdot(K_DRIVE, scattered_momentum(p, K_DRIVE,
                                                           kprime))
                    x = (kpp * kpp + kp * kp) / (
                        2.0 * m2 * mdot(K_DRIVE, kprime))
                    bracket = float(bessel_bracket(q.order, xi, zeta * x)[0])
                    want = (E_SQUARED * m2 * q.omega_prime ** 3 * bracket
                            / (8.0 * math.pi ** 2 * q.order * kp * p.t))
                    if abs(want) > 1e-6 * top:
                        worst = max(worst, abs(q.weight - want) / abs(want))
    assert worst < 1e-8, worst


def test_coherent_peaks_reject_zero_drive():
    stats = coherent_stats(OMEGA, 0.0)
    geom = EmissionGeometry(theta=1.0)
    with pytest.raises(ValueError):
        coherent_peaks(stats, AT_REST, OMEGA, geom, (1,))


def _closed_form_lines(gamma, direction, omega, amp, theta):
    """Ceiling k.p/kappa, the s = 1..3 line positions s k.p/(s kappa + pi'
    + mu) and their coherent weights in 60-digit arithmetic, from gamma
    and the direction rather than from the rounded components of p.  The
    weights take d = p.eps/k.p - p'.eps/k.p' as written, with p'.eps =
    p.eps - omega' n'.eps (phi' = 0), and J from mpmath."""
    with mp.workdps(60):
        m, w, g = (mp.mpf(ELECTRON_MASS_EV), mp.mpf(omega), mp.mpf(gamma))
        e2, a = mp.mpf(E_SQUARED), mp.mpf(amp)
        beta_g = mp.sqrt(g * g - 1)
        dx, dy, dz = (mp.mpf(c) for c in direction)
        th = mp.mpf(theta)
        kp = w * m * (g - beta_g * dz)
        kappa = w * (1 - mp.cos(th))
        piprime = m * (g - beta_g * (dx * mp.sin(th) + dz * mp.cos(th)))
        mu = e2 * a * a * kappa / (4 * w * w * kp)
        # eps = (0, 1, i, 0)/sqrt(2) with the metric (+, -, -, -)
        pe = -m * beta_g * mp.mpc(dx, dy) / mp.sqrt(2)
        ne = -mp.sin(th) / mp.sqrt(2)
        lines, weights = [], []
        for s in (1, 2, 3):
            wp = s * kp / (s * kappa + piprime + mu)
            kpp = kp - wp * kappa
            d = abs(pe / kp - (pe - wp * ne) / kpp)
            xi = mp.sqrt(e2) * (a / w) * d
            zeta_x = (s * kp * mu / (s * kappa + piprime + mu) / kpp
                      * (kpp * kpp + kp * kp) / (2 * m * m * wp * kappa))
            jm, jc, jp = (mp.besselj(s + i, xi) for i in (-1, 0, 1))
            bracket = zeta_x * (jm ** 2 + jp ** 2 - 2 * jc ** 2) - jc ** 2
            lines.append(float(wp))
            weights.append(float(e2 * m * m * wp ** 3 * bracket
                                 / (8 * mp.pi ** 2 * s * kp * g * m)))
        return float(kp / kappa), lines, weights


def test_ultra_relativistic_electrons_keep_their_digits():
    # p^t - p.n cancels for an electron running along n: k.p for one
    # riding with the drive (it read 0 at gamma 1e8), pi' at backscatter
    # for a head-on one; p.p formed from the components read 0 at gamma
    # 1e8, which turned the line weights into NaN; kappa = omega (1 -
    # cos theta') cancels in the forward cone where a co-propagating
    # electron radiates; and |d| cancels for a transverse momentum
    drive = drive_for(9e16)
    stats = coherent_stats(drive.omega, drive.rho)
    directions = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.0, 0.8))
    backward = [(d, math.radians(deg)) for d in directions
                for deg in (120.0, 179.0, 180.0)]
    forward = [((0.0, 0.0, 1.0), rad) for rad in (1e-3, 1e-5, 1e-7)]
    for gamma in (1e4, 1e6, 1e8):
        for direction, theta in backward + forward:
            el = electron_momentum(gamma, direction)
            geom = EmissionGeometry(theta=theta)
            ceiling, lines, weights = _closed_form_lines(
                gamma, el.direction, drive.omega, stats.peak_amplitude,
                theta)
            case = (gamma, direction, theta)
            assert absolute_frequency_ceiling(
                el.p, drive.omega, geom) == pytest.approx(
                    ceiling, rel=1e-12), case
            _, got, _ = coherent_line_positions(
                stats, el.p, drive.omega, geom, (1, 2, 3))
            assert got.tolist() == pytest.approx(lines, rel=1e-12), case
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                peaks = coherent_peaks(stats, el.p, drive.omega, geom,
                                       (1, 2, 3))
            assert all(math.isfinite(q.weight) and q.weight > 0.0
                       for q in peaks), case
            # a transverse momentum makes p.eps != 0, where |d| cancelled
            # (xi enters the weights of s = 2, 3 as xi^2 and xi^4); near
            # the ceiling k.p - omega' kappa cancelled, which put 1.4e-12
            # into the s = 3 weight at gamma 1e8, theta' = 180 deg
            assert [q.weight for q in peaks] == pytest.approx(
                weights, rel=1e-12, abs=0.0), case


# ------------------------------------------------------------- order blocks

def _fig3_points():
    # the fig3 scan (gamma = 7.09 head-on, 9e16 W/cm^2, band [1719.4,
    # 3438.8] eV) at 90, 135 and 180 degrees: orders up to several hundred
    th = np.repeat(np.radians([90.0, 135.0, 180.0]), 24)
    wp = np.tile(np.linspace(1719.4, 3438.8, 24), 3)
    return HEAD_ON, th, wp


def _staggered_points():
    # points just past the cutoffs of orders 1 ... 40, so s_min runs from
    # 2 to 41 and most points join a block of orders after its first row
    geom = EmissionGeometry(theta=math.radians(159.9))
    cuts = [kinematic_max_frequency(s, AT_REST, OMEGA, geom)
            for s in range(1, 41)]
    wp = np.array(cuts) * (1.0 + 1e-6)
    return AT_REST, np.full_like(wp, geom.theta), wp


def _converging_points():
    # every point below the first cutoff (s_min = 1 for all), so the
    # only rows a block evaluates in vain are those after convergence
    wp = np.linspace(0.3, 2.2, 30)
    return AT_REST, np.full_like(wp, math.radians(159.9)), wp


def _engine_run(monkeypatch, block, points, stats=None, **kwargs):
    """(density, diagnostics, (order, rows, elements) of each Bessel call)
    at ORDER_BLOCK = block, by default for a thermal drive at 9e16
    W/cm^2."""
    if stats is None:
        drive = drive_for(9e16)
        stats = thermal_stats(drive.omega, drive.rho)
    p, th, wp = points
    calls = []
    triple = emission.bessel_j_triple

    def counted(s, x):
        calls.append((s, len(x) if np.ndim(x) == 2 else 1, np.size(x)))
        return triple(s, x)

    monkeypatch.setattr(emission, "ORDER_BLOCK", block)
    monkeypatch.setattr(emission, "bessel_j_triple", counted)
    diag = Diagnostics()
    try:
        out = spectral_density_points(stats, p, OMEGA, th,
                                      np.zeros_like(th), wp,
                                      diagnostics=diag, **kwargs)
    finally:
        monkeypatch.setattr(emission, "bessel_j_triple", triple)
    return out, diag, calls


def _rows(calls):
    return [rows for _, rows, _ in calls]


def _old_fields(diag):
    return {k: v for k, v in asdict(diag).items() if k != "overcomputed"}


@pytest.mark.parametrize("points", [_fig3_points, _staggered_points,
                                    _converging_points])
def test_order_blocks_match_single_orders(monkeypatch, points):
    # a block takes the Bessel values of orders s ... s+B-1 from one
    # sweep, which moves them in the last bits (the sweep starts above
    # the block's top order); the sum and its truncation must not move
    one, diag_one, calls_one = _engine_run(monkeypatch, 1, points())
    blocked, diag, calls = _engine_run(monkeypatch, BLOCK, points())
    assert max(_rows(calls_one)) == 1 and max(_rows(calls)) > 1
    assert _old_fields(diag) == _old_fields(diag_one)
    assert diag_one.overcomputed == 0 < diag.overcomputed
    # 1e-13 of the peak; each point also within the Bessel contract
    np.testing.assert_allclose(blocked, one, rtol=1e-12,
                               atol=1e-13 * np.max(one))
    assert np.count_nonzero(one) > 0.5 * one.size


def test_order_blocks_raise_as_single_orders(monkeypatch):
    # the NaN check and the order cap act row by row: the first NaN term
    # and a cap inside a block raise what one order at a time raises
    drive = drive_for(9e16)
    thermal = thermal_stats(drive.omega, drive.rho)
    amp = math.sqrt(2.0 * thermal.energy_density)

    def log_r(e):
        out = thermal.log_r(e)
        return np.where((e > 0.5 * amp) & (e < 0.7 * amp), np.nan, out)

    nan_stats = replace(thermal, log_r_fn=log_r)
    wp = np.linspace(2.0, 2.249, 40)
    th = np.full_like(wp, math.radians(159.9))
    messages, fields = [], []
    for block in (1, BLOCK):
        monkeypatch.setattr(emission, "ORDER_BLOCK", block)
        diag = Diagnostics()
        with pytest.raises(ValueError, match="NaN at order") as nan_error:
            spectral_density_points(nan_stats, AT_REST, OMEGA, th,
                                    np.zeros_like(th), wp, diagnostics=diag)
        messages.append(str(nan_error.value))
        fields.append(_old_fields(diag))
    assert messages[0] == messages[1]
    assert fields[0] == fields[1]

    # a cap that is not a multiple of the block cuts the last block short;
    # at 135 degrees the first allowed orders run from 116 to 231, and
    # the points converge by order 253
    p, th, wp = _fig3_points()
    side = th == math.radians(135.0)
    capped = []
    for block in (1, BLOCK):
        with pytest.raises(TruncationNotConverged,
                           match="still above .* s_max=245") as cap_error:
            _engine_run(monkeypatch, block, (p, th[side], wp[side]),
                        s_max=245)
        capped.append(str(cap_error.value))
    assert capped[0] == capped[1]


def _wide_points():
    # two directions in runs of 1 300 points each, 2 600 points in all:
    # wider than BLOCK_ELEMENTS / 2, so the pass opens one order at a time
    wp = np.linspace(0.3, 12.0, 1300)
    th = np.repeat(np.radians([150.0, 159.9]), wp.size)
    return AT_REST, th, np.tile(wp, 2)


@pytest.mark.parametrize("points", [_wide_points, _staggered_points])
def test_point_order_changes_no_bit(monkeypatch, points):
    # the engine sorts its points by first order and compacts them as
    # they converge: given in any order, every point gets the same bits
    # and the pass the same counts
    p, th, wp = points()
    base, diag, calls = _engine_run(monkeypatch, BLOCK, (p, th, wp))
    assert (_rows(calls)[0] == 1) == (th.size > emission.BLOCK_ELEMENTS // 2)
    assert np.count_nonzero(base) > 0.5 * base.size
    rng = np.random.default_rng(7)
    for perm in (np.arange(th.size)[::-1], rng.permutation(th.size)):
        out, d, _ = _engine_run(monkeypatch, BLOCK, (p, th[perm], wp[perm]))
        assert np.array_equal(out, base[perm])
        assert d == diag


def test_block_with_no_column_skips_to_the_next_joiner(monkeypatch):
    # one point below the first cutoff converges long before 300 points
    # join at order 27; more than BLOCK_ELEMENTS / BLOCK of them joining
    # within BLOCK orders makes a block of several rows that no point
    # sums or joins, which the pass must skip rather than evaluate
    geom = EmissionGeometry(theta=math.radians(170.0))
    cut = [kinematic_max_frequency(s, HEAD_ON, OMEGA, geom)
           for s in (1, 26, 27)]
    early = np.array([0.5 * cut[0]])
    late = np.linspace(cut[1], cut[2], 302)[1:-1]
    assert late.size > emission.BLOCK_ELEMENTS // BLOCK

    triple = emission.bessel_j_triple
    sizes = []

    def sized(s, x):
        sizes.append(np.size(x))
        return triple(s, x)

    monkeypatch.setattr(emission, "bessel_j_triple", sized)

    def run(wp):
        th = np.full_like(wp, geom.theta)
        return _engine_run(monkeypatch, BLOCK, (HEAD_ON, th, wp))[0]

    both = run(np.concatenate((early, late)))
    assert np.isfinite(both).all() and np.all(both > 0.0)
    np.testing.assert_allclose(both, np.concatenate((run(early), run(late))),
                               rtol=1e-12, atol=0.0)
    assert min(sizes) > 0


def _bumped_points():
    # 600 points below the first cutoff (blocks of 6 rows) and 40 just
    # past the cutoffs of orders 1 ... 40, which join in later blocks:
    # every Bessel element takes the series, whose values do not depend
    # on the call, so blocks and single orders must agree bitwise
    p, th, wp = _staggered_points()
    wp = np.concatenate((np.linspace(0.3, 2.2, 600), wp))
    return p, np.full_like(wp, th[0]), wp


def _bumped_thermal():
    # thermal statistics at 9e18 W/cm^2 whose log R(E) is lifted by 30
    # between 3.5 and 4.5 times sqrt(2u), where many points' terms have
    # just turned negligible: a point's streak is broken inside a block,
    # and blocks must still sum exactly as single orders do
    drive = drive_for(9e18)
    thermal = thermal_stats(drive.omega, drive.rho)
    amp = math.sqrt(2.0 * thermal.energy_density)

    def log_r(e):
        out = thermal.log_r(e)
        return np.where((e > 3.5 * amp) & (e < 4.5 * amp), out + 30.0, out)

    return replace(thermal, log_r_fn=log_r)


def test_blocks_match_single_orders_when_terms_grow_again(monkeypatch):
    one, diag_one, calls_one = _engine_run(
        monkeypatch, 1, _bumped_points(), stats=_bumped_thermal())
    blocked, diag, calls = _engine_run(
        monkeypatch, BLOCK, _bumped_points(), stats=_bumped_thermal())
    assert np.array_equal(blocked, one)
    assert np.count_nonzero(one) > 0.5 * one.size
    assert _old_fields(diag) == _old_fields(diag_one)
    # every element a block evaluated but did not sum counts; single
    # orders sum all they evaluate
    assert diag_one.overcomputed == 0
    assert diag.overcomputed == (sum(size for _, _, size in calls)
                                 - sum(size for _, _, size in calls_one))


@pytest.mark.parametrize("points", [_staggered_points, _converging_points])
def test_entries_that_are_not_live_ignore_log_r(monkeypatch, points):
    # a block evaluates log R over all its entries, and those it does not
    # sum get zero terms whatever log R is there: NaN below the edge
    # field (E = 0 included, before a point's first order) and above the
    # largest field any point sums before it converges.  Neither pass
    # raises, and blocks and single orders give the clean bits (these
    # points' Bessel values do not depend on the block)
    drive = drive_for(9e16)
    thermal = thermal_stats(drive.omega, drive.rho)
    fields = []

    def seen(e):
        fields.append(e)
        return thermal.log_r(e)

    # one order at a time log R sees the summed fields alone
    clean, diag_clean, _ = _engine_run(
        monkeypatch, 1, points(), stats=replace(thermal, log_r_fn=seen))
    top = max(e.max() for e in fields)
    edge = emission.EDGE_FIELD_FRACTION * math.sqrt(
        2.0 * thermal.energy_density)

    def log_r(e):
        fields.append(e)
        return np.where((e < edge) | (e > top), np.nan, thermal.log_r(e))

    for block in (1, BLOCK):
        fields.clear()
        out, diag, calls = _engine_run(monkeypatch, block, points(),
                                       stats=replace(thermal, log_r_fn=log_r))
        assert np.array_equal(out, clean)
        assert _old_fields(diag) == _old_fields(diag_clean)
    assert max(_rows(calls)) > 1
    e = np.concatenate(fields)
    assert np.any(e > top)
    assert np.any(e == 0.0) == (points is _staggered_points)
    assert np.count_nonzero(clean) > 0.5 * clean.size


def test_engine_restores_the_error_state():
    # the row loop holds one np.errstate per block: whether the pass
    # returns or raises, the caller's floating-point error state is back
    drive = drive_for(9e16)
    thermal = thermal_stats(drive.omega, drive.rho)
    nan_stats = replace(thermal, log_r_fn=lambda e: np.full_like(e, np.nan))
    p, th, wp = _fig3_points()
    ph = np.zeros_like(th)
    # numpy's default, set here so that no earlier state hides a leak
    with np.errstate(divide="warn", over="warn", under="ignore",
                     invalid="warn"):
        before = np.geterr()
        spectral_density_points(thermal, p, OMEGA, th, ph, wp)
        assert np.geterr() == before
        with pytest.raises(ValueError, match="NaN at order"):
            spectral_density_points(nan_stats, p, OMEGA, th, ph, wp)
        assert np.geterr() == before
        with pytest.raises(TruncationNotConverged):
            spectral_density_points(thermal, p, OMEGA, th, ph, wp, s_max=45)
        assert np.geterr() == before


def test_runs_of_one_theta_keep_their_own_phi():
    # direction invariants are formed once per run of equal (theta',
    # phi'): runs that share theta' but not phi' keep their own values,
    # which an electron with transverse momentum makes distinct
    drive = drive_for(9e16)
    stats = thermal_stats(drive.omega, drive.rho)
    p = electron_momentum(2.0, (0.6, 0.0, 0.8)).p
    wp = np.linspace(0.5, 3.0, 50)
    th = np.full(2 * wp.size, math.radians(150.0))
    ph = np.repeat([0.3, 2.0], wp.size)
    both = spectral_density_points(stats, p, OMEGA, th, ph, np.tile(wp, 2))
    for k in range(2):
        run = slice(k * wp.size, (k + 1) * wp.size)
        alone = spectral_density_points(stats, p, OMEGA, th[run], ph[run], wp)
        assert np.array_equal(both[run], alone)
    assert not np.array_equal(both[:wp.size], both[wp.size:])


def test_nan_names_lowest_index_point_whatever_the_order(monkeypatch):
    # points given in descending first order, and every term of one
    # order NaN: the error names the lowest-index point summing that
    # order, as a pass in point order does, though the pass sorts them
    drive = drive_for(9e16)
    stats = thermal_stats(drive.omega, drive.rho)
    p, th, wp = _staggered_points()
    th, wp, ph = th[::-1], wp[::-1], np.zeros_like(th)
    nan_order = 20
    # a point sums from its first allowed order until it converges,
    # which a pass of that point alone reports as its last order
    geom = EmissionGeometry(theta=th[0])
    summing = []
    for i, w in enumerate(wp):
        first = next(s for s in range(1, 100)
                     if kinematic_max_frequency(s, p, OMEGA, geom) > w)
        diag = Diagnostics()
        spectral_density_points(stats, p, OMEGA, th[i:i + 1], ph[i:i + 1],
                                wp[i:i + 1], diagnostics=diag)
        if first <= nan_order <= diag.orders_scanned:
            summing.append((i, first))
    assert len({first for _, first in summing}) > 1
    i = min(summing)[0]

    bracket = emission.bessel_bracket

    def nan_row(s, xi, zeta_x):
        out = bracket(s, xi, zeta_x)
        if s <= nan_order < s + len(out):
            out[nan_order - s] = np.nan
        return out

    monkeypatch.setattr(emission, "bessel_bracket", nan_row)
    with pytest.raises(ValueError) as nan_error:
        spectral_density_points(stats, p, OMEGA, th, ph, wp)
    assert str(nan_error.value).startswith(
        f"emission term is NaN at order {nan_order}, theta'=159.9 deg, "
        f"omega'={wp[i]:.6g} eV")
    failure = nan_error.value.failure
    assert (failure["order"], failure["omega_prime_eV"]) == (nan_order, wp[i])


# ------------------------------------------------------- bracket combination

def _oracle_bracket(s, xi, zeta_x):
    with mp.workdps(60):
        x = mp.mpf(xi)
        jm = mp.besselj(s - 1, x)
        jc = mp.besselj(s, x)
        jp = mp.besselj(s + 1, x)
        return float(mp.mpf(zeta_x) * (jm ** 2 + jp ** 2 - 2 * jc ** 2)
                     - jc ** 2)


def test_bessel_bracket_across_small_argument_switch():
    # one formula from xi = 1e-300 up to order-sized arguments, across
    # 1e-8 on both sides.  A subnormal result carries fewer digits, so
    # it is held to 1e-9 of the smallest normal double
    floor = 1e-9 * sys.float_info.min
    for s in (1, 2, 3, 10, 40, 100):
        for xi in (1e-300, 1e-160, 1e-150, 1e-30, 1e-12, 0.99e-8, 1.01e-8,
                   1e-6, 0.3, 0.5 * s):
            for zx in (0.7, 12.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = float(bessel_bracket(s, xi, zx)[0])
                want = _oracle_bracket(s, xi, zx)
                if want == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(
                        want, rel=1e-9, abs=floor), (s, xi, zx)


def test_bessel_bracket_order_array_matches_per_order_calls():
    # a ladder batch: orders per element, s = 1 among them, with
    # arguments from 0 on both sides of 1e-8 into the series range; x = 0
    # and the series do not depend on the batch, so agreement is bitwise
    orders = np.array([1, 1, 2, 3, 1, 4, 2, 1, 5, 3, 40])
    xi = np.array([0.0, 1e-12, 0.0, 5e-9, 0.99e-8, 1e-10, 1.01e-8, 0.3,
                   2.0, 1e-6, 7.0])
    zx = np.linspace(0.5, 12.0, xi.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = bessel_bracket(orders, xi, zx)
        want = [float(bessel_bracket(int(s), x, z)[0])
                for s, x, z in zip(orders, xi, zx)]
    assert got.tolist() == want


def test_bessel_bracket_zero_argument():
    # xi = 0: only s = 1 keeps the sideband term (J_0 = 1)
    assert float(bessel_bracket(1, 0.0, 3.0)[0]) == pytest.approx(3.0)
    assert float(bessel_bracket(2, 0.0, 3.0)[0]) == 0.0
