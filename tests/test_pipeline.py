"""Observable assembly: broadening, band integrals, angular scans."""

import math
import time
import warnings
from dataclasses import asdict, replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from helpers import drive_for
from qcompton import emission, pipeline
from qcompton.emission import (Diagnostics, TruncationNotConverged,
                               absolute_frequency_ceiling, coherent_peaks)
from qcompton.minkowski import (EmissionGeometry, KinematicallyForbidden,
                                electron_momentum)
from qcompton.photon_statistics import (bsv_stats, coherent_stats,
                                        thermal_stats)
from qcompton.pipeline import (AngularCurve, OmegaGrid, Scenario,
                               SpectralCurve, _extended_nodes,
                               _gaussian_convolve_linear, _ladder,
                               _line_band_masses,
                               angular_distribution, band_integrate,
                               energy_spectrum)
from qcompton.units import pulse_duration

AT_REST = electron_momentum(1.0, (0.0, 0.0, 1.0))
HEAD_ON = electron_momentum(7.09, (0.0, 0.0, -1.0))
BACK = EmissionGeometry(theta=math.radians(159.9))


def _scenario(intensity, maker, grid, electron=AT_REST, **kw):
    drive = drive_for(intensity)
    return Scenario(electron=electron, drive=drive,
                    stats=maker(drive.omega, drive.rho),
                    omega_grid=grid, **kw)


# ------------------------------------------------------------- validation

def test_grid_and_scenario_validation():
    with pytest.raises(ValueError):
        OmegaGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        OmegaGrid(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        OmegaGrid(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        OmegaGrid(1.0, 2.0, 10, spacing="cubic")
    assert OmegaGrid(1.0, 2.0, 5, spacing="log").points()[0] == 1.0

    drive = drive_for(9e15)
    good = thermal_stats(drive.omega, drive.rho)
    with pytest.raises(ValueError):
        Scenario(electron=AT_REST, drive=drive, stats=good,
                 omega_grid=OmegaGrid(1.0, 2.0, 8), broadening="boxcar")
    with pytest.raises(ValueError):
        Scenario(electron=AT_REST, drive=drive,
                 stats=thermal_stats(1.9, drive.rho),
                 omega_grid=OmegaGrid(1.0, 2.0, 8))
    with pytest.raises(ValueError):
        Scenario(electron=AT_REST, drive=drive, stats=good,
                 omega_grid=OmegaGrid(1.0, 2.0, 8), thetas=(4.0,))


def test_scenario_rejects_statistics_built_for_another_intensity():
    # statistics are keyed by the energy density u = omega rho alone: the
    # same u reached at another drive frequency is the same R(E), while
    # twice the intensity at the right frequency is a different drive
    drive = drive_for(9e15)
    grid = OmegaGrid(1.0, 2.0, 8)
    with pytest.raises(ValueError, match="energy density"):
        Scenario(electron=AT_REST, drive=drive,
                 stats=thermal_stats(drive.omega, 2.0 * drive.rho),
                 omega_grid=grid)
    u = drive.omega * drive.rho
    Scenario(electron=AT_REST, drive=drive,
             stats=thermal_stats(1.5 * drive.omega, u / (1.5 * drive.omega)),
             omega_grid=grid)


def test_spectral_curve_validation():
    x = np.linspace(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        SpectralCurve(omega=x[::-1].copy(), smooth=np.zeros(5))
    with pytest.raises(ValueError):
        SpectralCurve(omega=x, smooth=-np.ones(5))
    with pytest.raises(ValueError):
        SpectralCurve(omega=x, smooth=np.zeros(4))
    for lines in (np.zeros(3), np.zeros((2, 2))):    # rows of 3 columns
        with pytest.raises(ValueError):
            SpectralCurve(omega=x, smooth=np.zeros(5), lines=lines)


def test_curves_compare_by_identity():
    # a generated field-wise __eq__ compares the arrays as a tuple, and
    # raised numpy's "truth value ... is ambiguous" on two distinct curves
    x = np.linspace(1.0, 2.0, 5)
    for make in (lambda: SpectralCurve(omega=x, smooth=np.zeros(5)),
                 lambda: AngularCurve(theta=x, values=np.zeros(5))):
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert len({a, b}) == 2


def test_spectrum_rejects_grid_beyond_ceiling():
    sc = _scenario(9e15, thermal_stats, OmegaGrid(1.0, 3.0e5, 50))
    with pytest.raises(KinematicallyForbidden):
        energy_spectrum(sc, BACK)
    # the pipeline's CEILING_SLACK of 1.05, pinned with a coherent drive:
    # a thermal grid that close to the ceiling needs orders beyond s_max
    ceiling = absolute_frequency_ceiling(AT_REST.p, sc.drive.omega, BACK)
    inside = _scenario(9e15, coherent_stats,
                       OmegaGrid(1.0, 1.04 * ceiling, 200))
    assert len(energy_spectrum(inside, BACK).lines)
    outside = _scenario(9e15, coherent_stats,
                        OmegaGrid(1.0, 1.06 * ceiling, 200))
    with pytest.raises(KinematicallyForbidden):
        energy_spectrum(outside, BACK)


# ------------------------------------------------------ exact convolution

def test_convolution_matches_quadrature_and_conserves():
    # hat-shaped piecewise-linear density against brute-force quadrature
    x_nodes = np.array([0.0, 1.0, 1.5, 3.0, 4.0, 6.0])
    y_nodes = np.array([0.0, 2.0, 0.5, 0.5, 3.0, 0.0])
    sigma = 0.3
    x_eval = np.linspace(-3.0, 9.0, 1201)
    got = _gaussian_convolve_linear(x_nodes, y_nodes, sigma, x_eval)

    def pl(t):
        return float(np.interp(t, x_nodes, y_nodes, left=0.0, right=0.0))

    for xe in (0.0, 0.7, 1.5, 2.9, 4.05, 5.5, 6.8):
        want, _ = quad(lambda t, xe=xe: pl(t) * math.exp(
            -0.5 * ((xe - t) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi)),
            x_nodes[0], x_nodes[-1], epsabs=1e-14, epsrel=1e-12, limit=200)
        idx = int(np.searchsorted(x_eval, xe))
        assert got[idx] == pytest.approx(want, rel=1e-10, abs=1e-13)

    # convolution against a unit-mass kernel conserves the integral
    mass_in = float(np.trapezoid(y_nodes, x_nodes))
    mass_out, _ = quad(
        lambda xx: float(_gaussian_convolve_linear(
            x_nodes, y_nodes, sigma, np.array([xx]))[0]),
        -3.0, 9.0, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert mass_out == pytest.approx(mass_in, rel=1e-9)


def _exact_convolution(x_nodes, y_nodes, sigma, t):
    """The piecewise-linear (x_nodes, y_nodes) convolved with N(0, sigma^2)
    at t, summed over every non-zero segment within 14 sigma in 40-digit
    arithmetic (the segments beyond add below 1e-42 of the largest y)."""
    with mp.workdps(40):
        s, tt = mp.mpf(sigma), mp.mpf(t)
        i0 = max(0, int(np.searchsorted(x_nodes, t - 14.0 * sigma)) - 1)
        i1 = min(x_nodes.size - 1,
                 int(np.searchsorted(x_nodes, t + 14.0 * sigma)) + 1)
        total = mp.mpf(0)
        for i in range(i0, i1):
            if y_nodes[i] == 0.0 and y_nodes[i + 1] == 0.0:
                continue
            x0, x1 = mp.mpf(x_nodes[i]), mp.mpf(x_nodes[i + 1])
            y0, y1 = mp.mpf(y_nodes[i]), mp.mpf(y_nodes[i + 1])
            lo, hi = (x0 - tt) / s, (x1 - tt) / s
            mass = (mp.erfc(lo / mp.sqrt(2)) - mp.erfc(hi / mp.sqrt(2))) / 2
            dpdf = (mp.exp(-lo * lo / 2) - mp.exp(-hi * hi / 2)) / mp.sqrt(
                2 * mp.pi)
            slope = (y1 - y0) / (x1 - x0)
            total += y0 * mass + slope * ((tt - x0) * mass + s * dpdf)
        return float(total)


def _wing_density(x):
    """Smooth test density: a narrow line on a broad slope that is still
    non-zero at both grid ends, so the wings carry weight."""
    return x * np.exp(-2.0 * x) + 0.4 * np.exp(-0.5 * ((x - 0.61) / 0.01) ** 2)


WING_SIGMA = 0.018


def _wing_case(spacing):
    """An 800-node grid on [0.02, 1] eV, its _extended_nodes at
    WING_SIGMA and _wing_density there."""
    grid = OmegaGrid(0.02, 1.0, 800, spacing).points()
    x = _extended_nodes(grid, WING_SIGMA)
    return grid, x, _wing_density(x)


def _extended_grid_points(grid):
    """Indices of the grid nodes nearest to the points checked on it."""
    reach = 9.0 * WING_SIGMA
    return [int(np.argmin(np.abs(grid - t)))
            for t in (0.02, 0.021, 0.02 + reach, 0.3, 0.58, 0.6, 0.61, 0.64,
                      0.7, 1.0 - reach, 0.999, 1.0)]


def _few_point_sets(grid):
    """A single point, two adjacent nodes (the shortest equally spaced
    run), two nodes apart and two points off the nodes."""
    return (grid[[400]], grid[[0]], grid[[-1]], np.array([0.6037]),
            grid[400:402], grid[-2:], grid[[10, 500]], np.array([0.5, 0.61]))


def _wing_oracles():
    """_exact_convolution on the _wing_case nodes: at _extended_grid_points
    of both grids, and at _few_point_sets of the linear one."""
    tables = {}
    for spacing in ("linear", "log"):
        grid, x, y = _wing_case(spacing)
        tables[spacing] = tuple(_exact_convolution(x, y, WING_SIGMA, grid[i])
                                for i in _extended_grid_points(grid))
    grid, x, y = _wing_case("linear")
    tables["few"] = tuple(tuple(_exact_convolution(x, y, WING_SIGMA, t)
                                for t in pts) for pts in _few_point_sets(grid))
    return tables


# _wing_oracles(), read as literals: the 40-digit sums took 1.4-1.9 s per
# test.  `PYTHONPATH=src python tests/test_pipeline.py` prints them again,
# for when _extended_nodes, _wing_density or the points change.
_WING_ORACLES = {'few': ((0.18378615792255115,),
                         (0.01985109327497502,),
                         (0.1353352547664026,),
                         (0.36573837950730154,),
                         (0.18378615792255115, 0.1837773825458301),
                         (0.13550113979704828, 0.1353352547664026),
                         (0.02992867152679631, 0.2809980797515812),
                         (0.1838204437880444, 0.3742154034607514)),
                 'linear': (0.01985109327497502,
                            0.020821526973297432,
                            0.12605803884764363,
                            0.1643168371258019,
                            0.25146874136103253,
                            0.3538464507245246,
                            0.3742175063683835,
                            0.2480482874591256,
                            0.17263447736174464,
                            0.15677533099443178,
                            0.13550113979704828,
                            0.1353352547664026),
                 'log': (0.019849995137083562,
                         0.020643222340334607,
                         0.1260924732906575,
                         0.164362346389072,
                         0.25252739659959933,
                         0.3567902954991198,
                         0.37393742787052797,
                         0.24298512431479866,
                         0.17263670196756709,
                         0.15673711522208414,
                         0.1353352471695903,
                         0.1353352471695903)}


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_convolution_on_extended_grids_matches_exact_sum(spacing):
    # the grid's left wing is cut at omega' = 0, as on fig2; a linear
    # grid is one equally spaced run of the nodes, a log grid is not
    sigma = WING_SIGMA
    reach = 9.0 * sigma
    grid, x, y = _wing_case(spacing)
    assert 0.0 < x[0] < grid[0] < reach
    if spacing == "linear":
        # the wings continue the grid's lattice, ceil(reach / h) steps
        # each, the left one up to its last node above zero
        h = (grid[-1] - grid[0]) / (grid.size - 1)
        assert reach <= x[-1] - grid[-1] < reach + h
        assert x[0] <= h
        assert np.abs(np.diff(x) - h).max() <= 4.0 * np.spacing(x[-1])
    else:
        # steps of the finer of the median step and sigma / 2
        w = min(float(np.median(np.diff(grid))), 0.5 * sigma)
        assert reach <= x[-1] - grid[-1] < reach + w
    got = _gaussian_convolve_linear(x, y, sigma, grid)
    peak = got.max()
    for i, want in zip(_extended_grid_points(grid), _WING_ORACLES[spacing],
                       strict=True):
        assert abs(got[i] - want) <= 1e-12 * peak, (spacing, grid[i])


@pytest.mark.parametrize("lo", [0.02, 0.5])
def test_linear_grid_and_its_wings_convolve_as_one_run(monkeypatch, lo):
    # with or without the left wing cut at omega' = 0, no segment weight
    # comes from _weights: no wing segment is left to the (segment,
    # point) band, and at h / sigma <= 1/2 the run's taps are series
    sigma = 0.018
    grid = OmegaGrid(lo, 1.0, 800).points()
    x = _extended_nodes(grid, sigma)
    sizes = []
    weights = pipeline._weights

    def counted(lo, hi, width):
        sizes.append(np.size(lo[0]))
        return weights(lo, hi, width)

    monkeypatch.setattr(pipeline, "_weights", counted)
    _gaussian_convolve_linear(x, _wing_density(x), sigma, grid)
    assert sizes == []


def test_band_does_not_depend_on_its_chunk(monkeypatch):
    # each chunk adds its pairs with its own bincount, so chunk sizes
    # reorder the sums at a point and agree to rounding, not bit for bit.
    # The 800-node log grid and its wings are all band; a 64-node window
    # whose lattice step is above sigma / 2 is a run of its own nodes,
    # with its finer wings in the band
    grid, x, y = _wing_case("log")
    wide = OmegaGrid(1.0, 4.0, 64).points()
    x_wide = _extended_nodes(wide, WING_SIGMA)
    a, i0, b, _ = pipeline._uniform_run(x_wide, wide)
    assert (a, b) == (i0, i0 + wide.size)
    assert 0 < a and b < x_wide.size
    cases = [(x, y, grid, (97, 4096)),
             (x_wide, _wing_density(x_wide), wide, (1,))]
    wants = [_gaussian_convolve_linear(nodes, values, WING_SIGMA, points)
             for nodes, values, points, _ in cases]
    for (nodes, values, points, chunks), want in zip(cases, wants):
        for chunk in chunks:
            monkeypatch.setattr(pipeline, "_BAND_CHUNK", chunk)
            got = _gaussian_convolve_linear(nodes, values, WING_SIGMA, points)
            assert np.abs(got - want).max() <= 1e-14 * want.max(), chunk


def test_convolution_of_one_and_two_points_matches_exact_sum():
    grid, x, y = _wing_case("linear")
    for pts, want in zip(_few_point_sets(grid), _WING_ORACLES["few"],
                         strict=True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gaussian_convolve_linear(x, y, WING_SIGMA, pts)
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_convolution_keeps_its_digits_off_a_harmonic_edge():
    # bsv at 9e14 W/cm^2, theta' 143.75 deg: above a harmonic edge near
    # 1.99 eV the density climbs by many decades, so at the points below
    # 2.15 eV, at 1e-14 to 1e-7 of the curve's peak, segments 7-9 sigma
    # above them carry far more than the result.  ndtr(hi) - ndtr(lo)
    # formed near 1 lost up to all of its digits there (1.5e-2 relative
    # at 2.128 eV).  The points at 2.38 and 2.40 eV lie as far above the
    # line's upper cutoff near 2.25 eV, where the mirror image holds.
    # Both paths: the points on the grid's run and as a list of their own.
    drive = drive_for(9e14)
    stats = bsv_stats(drive.omega, drive.rho)
    sigma = drive.delta_omega
    grid = np.linspace(2.0, 2.45, 1801)
    x = _extended_nodes(grid, sigma)
    y = emission.spectral_density_points(
        stats, AT_REST.p, drive.omega, np.full(x.size, math.radians(143.75)),
        np.zeros(x.size), x)
    idx = np.searchsorted(grid, [2.105, 2.12, 2.128, 2.15, 2.38, 2.40])
    want = [_exact_convolution(x, y, sigma, t) for t in grid[idx]]
    on_run = _gaussian_convolve_linear(x, y, sigma, grid)
    assert max(want) < 1e-6 * on_run.max()
    for got in (on_run[idx],
                _gaussian_convolve_linear(x, y, sigma, grid[idx])):
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=0.0)


def test_run_taps_match_exact_sum_on_a_fig2_curve():
    # fig2 bsv at 9e14 W/cm^2, theta' 157.75 deg (bench config t35 of
    # spectrum-smooth), at three points 4e-11 to 2e-9 of the peak: the
    # series hat taps are 2.4e-15 to 1.0e-13 from the 40-digit sum, and
    # within 8e-16 of the same sum over nodes placed on the exact lattice,
    # so what remains is the grid's nodes sitting ulps off it
    # (np.linspace).  The closed-form taps were 5e-13 to 1.1e-12 off
    drive = drive_for(9e14)
    stats = bsv_stats(drive.omega, drive.rho)
    sigma = drive.delta_omega
    grid = OmegaGrid(0.02, 8.0, 32000).points()
    x = _extended_nodes(grid, sigma)
    y = emission.spectral_density_points(
        stats, AT_REST.p, drive.omega, np.full(x.size, math.radians(157.75)),
        np.zeros(x.size), x)
    got = _gaussian_convolve_linear(x, y, sigma, grid)
    for i in (9394, 9433, 9439):
        want = _exact_convolution(x, y, sigma, grid[i])
        assert got[i] == pytest.approx(want, rel=5e-13, abs=0.0), grid[i]


def _segment_weight(u, w):
    """The weight of a node u sigmas above its point through the segment
    of w sigmas above it, w int_0^1 (1 - t) phi(u + t w) dt = (G(u + w) -
    G(u)) / w - Phi(u), G(x) = x Phi(x) + phi(x).  The difference loses
    up to 23 digits (u = 9, w = 1e-4), so it is formed at 70 to keep 40."""
    with mp.workdps(70):
        u, w = mp.mpf(u), mp.mpf(w)

        def g(x):
            return x * mp.ncdf(x) + mp.npdf(x)
        return (g(u + w) - g(u)) / w - mp.ncdf(u)


@pytest.mark.parametrize("w", [1e-4, 1e-3, 0.0139, 0.1, 0.3, 0.5])
def test_run_taps_match_40_digit_values(w):
    # the series taps, hat = above + below, at every offset for short tap
    # sets and at 100 offsets, both ends included, for long ones, out to
    # the last tap (k + 1) w, 9 to 10.5 sigmas, where the outermost nodes
    # weigh in through their inner segment alone.  Measured within 3.8e-15
    # relative, most of it the rounding of u^2 in exp(-u^2 / 2) near the
    # reach; the closed form is up to 1.2e-10 off at w = 0.0139
    k = math.ceil(9.0 / w) + 1
    hat, above, below = pipeline._run_taps(k, w)
    assert hat.shape == above.shape == below.shape == (2 * k + 2,)
    j = np.arange(k + 1, -k - 1, -1)
    for t in np.unique(np.linspace(0, 2 * k + 1, 100).round().astype(int)):
        u = float(j[t] * w)
        up = _segment_weight(u, w) if t > 0 else mp.mpf(0)
        down = _segment_weight(-u, w) if t < 2 * k + 1 else mp.mpf(0)
        for got, want in ((above[t], up), (below[t], down),
                          (hat[t], up + down)):
            assert got == pytest.approx(float(want), rel=1e-14, abs=0.0), u


# A lattice step that floats hold exactly, so the run's offsets j h are
# the nodes' own and _exact_convolution sees the same nodes
EXACT_STEP = 2.0 ** -7


def test_run_end_nodes_with_density_match_exact_sum():
    # both ends of each run carry density, and each end node belongs to
    # one run segment, so the hat's other role is taken off.  The whole
    # lattice, whose ends lie 10 steps (1.6 sigma) from the window; and
    # the window alone, its off-lattice wings in the band, whose ends are
    # the window's first and last points, at h / sigma = 0.16 (series
    # taps) and 0.52 (closed form).  Then a window over two reaches
    # inside a longer lattice, whose one piece starts and ends beyond the
    # nodes the window reads.  Measured within 6.2e-16 relative
    lattice = 1.0 + EXACT_STEP * np.arange(300)
    wings = np.concatenate([[0.5, 0.7, 0.83, 0.95], lattice[:40],
                            [1.32, 1.5, 1.61]])
    for x, pts, sigma, run in (
            (lattice[:60], lattice[10:50], 0.05, (0, 10, 60)),
            (wings, lattice[:40], 0.05, (4, 4, 44)),
            (wings, lattice[:40], 0.015, (4, 4, 44)),
            (lattice, lattice[125:175], 0.05, (0, 125, 300))):
        assert pipeline._uniform_run(x, pts)[:3] == run
        y = 1.0 + x * x
        got = _gaussian_convolve_linear(x, y, sigma, pts)[[0, 1, 20, -2, -1]]
        want = [_exact_convolution(x, y, sigma, t)
                for t in pts[[0, 1, 20, -2, -1]]]
        assert got.tolist() == pytest.approx(want, rel=2e-15, abs=0.0), sigma


def test_run_convolves_only_where_the_density_is_non_zero(monkeypatch):
    # sigma = 2h on a 400-node lattice: k = 19, and output i reads nodes i
    # - k ... i + k + 1, so non-zero nodes more than 2k + 2 = 40 apart
    # share no output.  Density on nodes 20-59 and 80-119 (a gap of 20:
    # one piece), 220-259 (a gap of 100) and on the last node (a gap of
    # 139): three pieces, each one "valid" convolution over the outputs
    # it reaches, k + 1 below its first node to k above its last.  The
    # outputs between stay exactly 0.  Measured within 4.2e-16 relative
    # above 1e-6 of the peak and 3.4e-16 of the peak below it
    x = 1.0 + EXACT_STEP * np.arange(400)
    sigma = 2.0 * EXACT_STEP
    y = np.zeros(x.size)
    for lo, hi in ((20, 60), (80, 120), (220, 260), (399, 400)):
        y[lo:hi] = 1.0 + np.sin(7.0 * x[lo:hi])
    convolved = []
    convolve = np.convolve

    def count_convolve(a, v, mode):
        convolved.append((len(a) - len(v) + 1, len(v), mode))
        return convolve(a, v, mode)

    monkeypatch.setattr(pipeline.np, "convolve", count_convolve)
    got = _gaussian_convolve_linear(x, y, sigma, x)
    monkeypatch.undo()
    assert convolved == [(139, 40, "valid"), (79, 40, "valid"),
                         (21, 40, "valid")]
    unreached = np.r_[139:200, 279:379]
    assert np.all(got[unreached] == 0.0)
    reached = np.setdiff1d(np.arange(x.size), unreached)
    assert np.all(got[reached] > 0.0)
    pts = np.r_[reached[::9], 138, 200, 278, 379]
    want = [_exact_convolution(x, y, sigma, t) for t in x[pts]]
    assert got[pts].tolist() == pytest.approx(
        want, rel=2e-15, abs=1e-15 * got.max())


def test_run_taps_stop_at_the_run_length():
    # two nodes 1e-12 eV apart: the reach is 1.6e11 steps, but no offset
    # beyond the run's length occurs, so 2k + 1 taps with k = 2 serve
    sigma = 0.018
    x = np.array([1e-12, 2e-12])
    got = _gaussian_convolve_linear(x, np.ones(2), sigma, x)
    want = [_exact_convolution(x, np.ones(2), sigma, t) for t in x]
    assert got.tolist() == pytest.approx(want, rel=1e-9)
    assert got[0] == pytest.approx(2.216e-11, rel=1e-3)


def test_narrow_window_under_a_wide_kernel_costs_only_its_points(
        monkeypatch):
    # 50 points at the start of a 2^16-node lattice that the kernel
    # reaches past (sigma 20 eV beside a 1 meV step, k = 2^16 taps a
    # side): the run is formed at the points alone, 50 (2k + 2) products,
    # not the lattice length times the taps (8.6e9).  Checked by the
    # clock and by the work itself: the density has no zero, so one piece
    # and one convolution of 50 outputs, and no (segment, point) pair, so
    # node terms at the 2k + 2 tap offsets alone
    sigma = 20.0
    x = 0.5 + 1e-3 * np.arange(1 << 16)
    y = 2.0 + np.sin(x / 7.0)
    pts = x[:50]
    convolved, termed = [], []
    convolve, node_terms = np.convolve, pipeline._node_terms

    def count_convolve(a, v, mode):
        convolved.append((len(a) - len(v) + 1, len(v), mode))
        return convolve(a, v, mode)

    def count_terms(u):
        termed.append(np.size(u))
        return node_terms(u)

    monkeypatch.setattr(pipeline.np, "convolve", count_convolve)
    monkeypatch.setattr(pipeline, "_node_terms", count_terms)
    started = time.perf_counter()
    got = _gaussian_convolve_linear(x, y, sigma, pts)
    assert time.perf_counter() - started < 1.0
    k = x.size
    assert convolved == [(50, 2 * k + 2, "valid")]
    assert termed == [2 * k + 2]
    monkeypatch.undo()
    # a single point takes the (segment, point) band, a direct sum
    for i in (0, 25, 49):
        want = _gaussian_convolve_linear(x, y, sigma, pts[i:i + 1])
        assert got[i] == pytest.approx(want[0], rel=1e-12)


def test_wings_past_their_cap_raise():
    # a 5e-8 eV step beside sigma = 0.018 eV would need 3.2e6 nodes a
    # wing, past the cap of 2^20: refused before any node is built
    with pytest.raises(ValueError, match="convolution wings need 3240000 "):
        _extended_nodes(np.linspace(1.0, 1.0 + 1e-7, 3), 0.018)
    # a steep window below the cap keeps its full wings: 512 nodes over
    # 10 meV, a lattice step of 2e-5 eV
    diagnostics = Diagnostics()
    curve = energy_spectrum(
        _scenario(9e14, bsv_stats, OmegaGrid(2.0, 2.01, 512)), BACK,
        diagnostics)
    assert diagnostics.points == 17_070
    assert np.all(np.isfinite(curve.smooth)) and curve.smooth.max() > 0.0


# ------------------------------------------------------- coherent spectra

def test_coherent_spectrum_lines_carry_duration_times_weight():
    grid = OmegaGrid(0.5, 12.0, 600)
    sc = _scenario(9e16, coherent_stats, grid)
    curve = energy_spectrum(sc, BACK)
    assert np.all(curve.smooth == 0.0)
    assert len(curve.lines) >= 5
    t_pulse = pulse_duration(sc.drive.delta_omega)
    _, positions, weights = coherent_peaks(
        sc.stats, AT_REST.p, sc.drive.omega, BACK, range(1, 2000))
    by_center = {line[0]: line for line in curve.lines.tolist()}
    for wp, weight in zip(positions.tolist(), weights.tolist()):
        if wp in by_center:
            _, mass, sigma = by_center[wp]
            assert mass == pytest.approx(t_pulse * weight, rel=1e-12)
            assert sigma == sc.drive.delta_omega   # literal reading


def test_line_band_masses_are_error_function_exact():
    grid = OmegaGrid(0.5, 12.0, 200)
    sc = _scenario(9e16, coherent_stats, grid)
    curve = energy_spectrum(sc, BACK)
    center, mass, sigma = curve.lines[0]
    lo, hi = center - 0.5 * sigma, center + 2.0 * sigma
    want = mass * (ndtr(2.0) - ndtr(-0.5))
    assert band_integrate(
        SpectralCurve(omega=curve.omega, smooth=np.zeros_like(curve.omega),
                      lines=curve.lines[:1]),
        (lo, hi)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("edges", [(10.0, 12.5), (-12.5, -10.0),
                                   (-4.0, 3.0), (0.25, 6.0)])
def test_line_band_mass_keeps_its_digits_far_from_the_line(edges):
    # band edges in sigmas from the center: the line 10 sigma below the
    # band, 10 sigma above it, inside it and straddling its lower edge.
    # Far from the line both cdf values round to 1 (or to 0 on the
    # other side), so only the tail beyond the band keeps the mass.
    center, mass, sigma = 2.1, 3.7, 0.018
    lo, hi = (center + e * sigma for e in edges)
    with mp.workdps(40):
        c, s = mp.mpf(center), mp.mpf(sigma)
        want = float(mp.mpf(mass) * (mp.ncdf((mp.mpf(hi) - c) / s)
                                     - mp.ncdf((mp.mpf(lo) - c) / s)))
    assert float(_line_band_masses(center, mass, sigma, lo, hi)) == (
        pytest.approx(want, rel=1e-13, abs=0.0))


def test_drive_average_linewidths_grow_with_order(monkeypatch):
    calls = []
    bracket = emission.bessel_bracket

    def counted(*args):
        calls.append(args[0])
        return bracket(*args)

    monkeypatch.setattr(emission, "bessel_bracket", counted)
    grid = OmegaGrid(0.5, 12.0, 200)
    lit = _scenario(9e16, coherent_stats, grid)
    avg = _scenario(9e16, coherent_stats, grid, broadening="drive_average")
    curve_lit = energy_spectrum(lit, BACK)
    n_lit = len(calls)
    curve_avg = energy_spectrum(avg, BACK)
    # widths come from closed-form line positions: no extra Bessel work
    assert 0 < len(calls) - n_lit <= n_lit
    assert np.all(curve_lit.lines[:, 2] == lit.drive.delta_omega)
    sig = {i + 1: sigma for i, sigma in enumerate(curve_avg.lines[:3, 2])}
    # d omega'_s / d nu ~ s near backscatter, so widths scale with order
    assert sig[2] / sig[1] == pytest.approx(2.0, rel=1e-2)
    assert sig[3] / sig[1] == pytest.approx(3.0, rel=1e-2)
    # masses are the same under either reading
    for a, b in zip(curve_lit.lines[:3, 1], curve_avg.lines[:3, 1]):
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("broadening", ["literal", "drive_average"])
def test_line_spectrum_does_not_depend_on_where_the_window_ends(broadening):
    # the window ends 0.35 eV below the s = 7 line at 15.6 eV, whose
    # drive_average width 0.127 eV is 7 sigma: its profile reaches the
    # window although the line lies more than 18 sigma past it
    lo, hi, n, more = 12.87, 15.248, 200, 100
    sc = _scenario(9e16, coherent_stats, OmegaGrid(lo, hi, n),
                   thetas=(BACK.theta,), broadening=broadening)
    step = (hi - lo) / (n - 1)
    wide = energy_spectrum(
        replace(sc, omega_grid=OmegaGrid(lo, hi + more * step, n + more)),
        BACK)
    got = energy_spectrum(sc, BACK)
    np.testing.assert_allclose(got.omega, wide.omega[:n], rtol=1e-15)
    want = wide.values[:n]
    assert np.abs(got.values - want).max() <= 1e-9 * want.max()
    assert got.values[-1] == pytest.approx(want[-1], rel=1e-9)
    assert angular_distribution(sc, (lo, hi)).values[0] == pytest.approx(
        band_integrate(wide, (lo, hi)), rel=1e-9)


def test_ladder_evaluates_only_the_lines_it_keeps(monkeypatch):
    # line positions are closed-form, so orders above w_max must be
    # dropped before their Bessel brackets are evaluated; a batch is one
    # bracket call, so count the orders each call evaluates
    evaluated = []
    bracket = emission.bessel_bracket

    def counted(*args):
        evaluated.append(np.size(args[0]))
        return bracket(*args)

    monkeypatch.setattr(emission, "bessel_bracket", counted)
    drive = drive_for(9e16)
    w_max = 12.0
    assert w_max < absolute_frequency_ceiling(AT_REST.p, drive.omega, BACK)
    lines = _ladder(coherent_stats(drive.omega, drive.rho), AT_REST.p,
                    drive.omega, BACK, w_max, emission.DEFAULT_REL_TOL,
                    emission.DEFAULT_S_MAX)
    assert len(lines) and np.all(lines[:, 1] <= w_max)
    assert sum(evaluated) == len(lines)
    assert 0 not in evaluated


def test_a_grid_below_the_first_line_has_an_empty_ladder():
    # at rest, 159.9 deg, the s = 1 line sits near 2.2 eV, far above a
    # [0.1, 0.2] eV grid: no line is kept, so there is nothing to emit
    drive = drive_for(9e16)
    stats = coherent_stats(drive.omega, drive.rho)
    lines = _ladder(stats, AT_REST.p, drive.omega, BACK, 0.2,
                    emission.DEFAULT_REL_TOL, emission.DEFAULT_S_MAX)
    assert lines.shape == (0, 3)
    sc = _scenario(9e16, coherent_stats, OmegaGrid(0.1, 0.2, 50))
    curve = energy_spectrum(sc, BACK)
    assert curve.lines.shape == (0, 3) and np.all(curve.values == 0.0)
    for broadening in ("literal", "drive_average"):
        scan = replace(sc, thetas=tuple(np.radians([150.0, 170.0])),
                       broadening=broadening)
        values = angular_distribution(scan, (0.1, 0.2)).values
        assert values.tolist() == [0.0, 0.0], broadening


def test_azimuth_never_enters_axis_aligned_scans():
    grid = OmegaGrid(0.5, 6.0, 300)
    for electron in (AT_REST, HEAD_ON):
        sc = _scenario(9e16, thermal_stats, grid, electron=electron)
        base = energy_spectrum(sc, EmissionGeometry(theta=2.0, phi=0.0))
        floor = 1e-12 * float(base.values.max())
        for phi in (1.0, math.pi, 5.0):
            curve = energy_spectrum(sc, EmissionGeometry(theta=2.0, phi=phi))
            np.testing.assert_allclose(curve.values, base.values,
                                       rtol=1e-10, atol=floor)


# ------------------------------------------------------- band integration

def test_band_integrate_exact_on_linear_plus_peak():
    x = np.linspace(0.0, 10.0, 11) + 1.0
    smooth = 2.0 + 3.0 * x
    curve = SpectralCurve(omega=x, smooth=smooth,
                          lines=np.array([[6.0, 2.0, 0.1]]))
    lo, hi = 1.35, 8.77
    linear_part = 2.0 * (hi - lo) + 1.5 * (hi * hi - lo * lo)
    peak_part = 2.0 * (ndtr((hi - 6.0) / 0.1) - ndtr((lo - 6.0) / 0.1))
    got = band_integrate(curve, (lo, hi))
    assert got == pytest.approx(linear_part + peak_part, rel=1e-12)
    with pytest.raises(ValueError):
        band_integrate(curve, (3.0, 3.0))


def test_band_integrate_model_converges_quadratically():
    # sampled Gaussian: the piecewise-linear model error falls like h^2
    sigma, center = 0.35, 5.0
    lo, hi = 4.1, 6.3
    exact = ndtr((hi - center) / sigma) - ndtr((lo - center) / sigma)
    errs = {}
    for n in (201, 401, 801, 3201):
        x = np.linspace(0.0, 10.0, n)
        y = np.exp(-0.5 * ((x - center) / sigma) ** 2) / (
            sigma * math.sqrt(2.0 * math.pi))
        curve = SpectralCurve(omega=x, smooth=y)
        errs[n] = abs(band_integrate(curve, (lo, hi)) - exact) / exact
    assert errs[201] / errs[401] == pytest.approx(4.0, rel=0.2)
    assert errs[401] / errs[801] == pytest.approx(4.0, rel=0.2)
    assert errs[3201] < 1e-6


def test_band_integral_grid_refinement_thermal():
    # doubling the sampling grid moves the band energy by < 5e-6: the
    # curve model is converged at the tolerance band_integrate claims
    geom = BACK
    vals = {}
    for n in (12000, 24000):
        sc = _scenario(9e17, thermal_stats, OmegaGrid(0.02, 12.0, n))
        curve = energy_spectrum(sc, geom)
        for band in ((2.0, 8.0), (6.0, 10.0)):
            vals.setdefault(band, []).append(band_integrate(curve, band))
    for band, (coarse, fine) in vals.items():
        assert abs(coarse - fine) / abs(fine) < 5e-6, band


# ------------------------------------------------------- angular scans

def test_angular_distribution_against_direct_spectra():
    thetas = tuple(math.radians(d) for d in (95.0, 120.0, 145.0, 170.0))
    band = (1719.4, 3438.8)
    sc = _scenario(9e16, thermal_stats, OmegaGrid(band[0], band[1], 96),
                   electron=HEAD_ON, thetas=thetas)
    curve = angular_distribution(sc, band)
    assert isinstance(curve, AngularCurve)
    assert curve.values.shape == (4,)
    # spot-check one angle against an explicitly assembled spectrum
    geom = EmissionGeometry(theta=thetas[1])
    direct = band_integrate(energy_spectrum(sc, geom), band)
    # the batched pass sends this angle's points to the Bessel layer with
    # the other angles', and a Miller sweep starts where the most
    # demanding element of its call needs, so its densities may differ
    # from the direct pass's by rounding (none of these 132 points does)
    assert curve.values[1] == pytest.approx(direct, rel=1e-12, abs=0.0)
    # jacobian flag multiplies by sin(theta')
    jac = angular_distribution(sc, band, jacobian=True)
    np.testing.assert_allclose(jac.values,
                               curve.values * np.sin(curve.theta),
                               rtol=1e-12)


@pytest.mark.parametrize("maker", [thermal_stats, bsv_stats, coherent_stats])
@pytest.mark.parametrize("broadening", ["literal", "drive_average"])
def test_angular_scan_equals_per_angle_spectra(maker, broadening):
    # one engine pass over all angles (or, for the coherent drive, one
    # band-mass call over all angles' lines) gives each angle exactly
    # what its own energy_spectrum + band_integrate gives.  An electron
    # riding with the drive at gamma = 1e5 puts the first harmonics of
    # its forward cone into the band, while at 180 deg the ceiling
    # m/4gamma ~ 1.3 eV lies below it: that angle adds no points and
    # reads 0.
    band = (1.5, 3.0)
    thetas = (0.3e-5, 0.5e-5, 0.7e-5, 1e-5, math.pi)
    sc = _scenario(9e15, maker, OmegaGrid(band[0], band[1], 64),
                   electron=electron_momentum(1e5, (0.0, 0.0, 1.0)),
                   thetas=thetas, broadening=broadening)
    p, omega = sc.electron.p, sc.drive.omega
    expect = []
    for th in thetas:
        geom = EmissionGeometry(theta=th)
        top = min(band[1], absolute_frequency_ceiling(p, omega, geom))
        if top <= band[0]:
            expect.append(0.0)
            continue
        local = replace(sc, omega_grid=OmegaGrid(band[0], top, 64))
        expect.append(band_integrate(energy_spectrum(local, geom), band))
    expect = np.array(expect)
    assert np.all(expect[:-1] > 0.0) and expect[-1] == 0.0
    assert absolute_frequency_ceiling(
        p, omega, EmissionGeometry(theta=math.pi)) < band[0]

    got = angular_distribution(sc, band)
    assert np.array_equal(got.values, expect)
    jac = angular_distribution(sc, band, jacobian=True)
    assert np.array_equal(jac.values,
                          [v * math.sin(th) for v, th in zip(expect, thetas)])


@pytest.mark.parametrize("broadening", ["literal", "drive_average"])
def test_coherent_angular_scan_builds_no_peaks(broadening):
    # a coherent scan integrates each angle's lines as arrays, each angle
    # equal to band_integrate of that angle's energy_spectrum, bit for
    # bit.  The fig3 band and electron, at angles whose literal ladders
    # keep 185 and 53 lines
    thetas = tuple(math.radians(d) for d in (140.0, 160.0))
    band = (1719.4, 3438.8)
    sc = _scenario(9e16, coherent_stats, OmegaGrid(band[0], band[1], 512),
                   electron=HEAD_ON, thetas=thetas, broadening=broadening)
    p, omega = sc.electron.p, sc.drive.omega
    spectra = []
    for th in thetas:
        geom = EmissionGeometry(theta=th)
        top = min(band[1], absolute_frequency_ceiling(p, omega, geom))
        spectra.append((replace(sc, omega_grid=OmegaGrid(band[0], top, 512)),
                        geom))
    curves = [energy_spectrum(*args) for args in spectra]
    assert min(len(curve.lines) for curve in curves) >= 53
    want = angular_distribution(sc, band).values
    assert np.array_equal(want, [band_integrate(c, band) for c in curves])
    assert np.all(want > 0.0)


def test_dead_band_returns_zero():
    thetas = (math.radians(120.0), math.radians(160.0))
    sc = _scenario(9e15, thermal_stats, OmegaGrid(1.0, 5.0, 64),
                   thetas=thetas)
    curve = angular_distribution(sc, (1.0e7, 2.0e7))
    assert np.all(curve.values == 0.0)


def test_unreachable_band_raises_nonconvergence():
    # below the ceiling but reachable only at orders ~1e6: must raise,
    # not silently return zero
    thetas = (math.radians(30.0),)
    sc = _scenario(9e15, thermal_stats, OmegaGrid(1.0, 5.0, 64),
                   thetas=thetas)
    with pytest.raises(TruncationNotConverged, match="theta'=30 deg"):
        angular_distribution(sc, (1.0e6, 2.0e6))


def test_coherent_nonconvergence_names_the_angle():
    thetas = (math.radians(120.0), math.radians(159.9))
    sc = _scenario(9e16, coherent_stats, OmegaGrid(1.0, 20.0, 64),
                   thetas=thetas, s_max=3)
    with pytest.raises(TruncationNotConverged,
                       match=r"order 3; theta'=120 deg"):
        angular_distribution(sc, (1.0, 20.0))


def test_angular_scan_requires_thetas():
    sc = _scenario(9e15, thermal_stats, OmegaGrid(1.0, 5.0, 64))
    with pytest.raises(ValueError):
        angular_distribution(sc, (1.0, 2.0))


# ------------------------------------------------------- diagnostics

def test_diagnostics_accumulate_across_passes():
    rule = Diagnostics()
    rule.add(points=3, highest_order=5, orders_scanned=7, edge_guarded=1,
             overcomputed=40)
    rule.add(points=2, highest_order=4, orders_scanned=9, edge_guarded=2)
    assert asdict(rule) == {"points": 5, "highest_order": 5,
                            "orders_scanned": 9, "edge_guarded": 3,
                            "overcomputed": 40}

    sc = _scenario(9e16, thermal_stats, OmegaGrid(0.5, 6.0, 120))
    one = Diagnostics()
    energy_spectrum(sc, BACK, diagnostics=one)
    assert one.points > 120          # includes the sampling wings
    assert one.highest_order >= 1
    nodes = Diagnostics()            # one engine pass per Hermite node
    energy_spectrum(replace(sc, broadening="drive_average"), BACK,
                    diagnostics=nodes)
    assert nodes.points == 21 * 120
    assert nodes.highest_order >= 1

    sc2 = _scenario(9e16, coherent_stats, OmegaGrid(0.5, 8.0, 120))
    lines = Diagnostics()
    energy_spectrum(sc2, BACK, diagnostics=lines)
    assert lines.points == 120
    assert lines.highest_order >= 3   # lines near 2.25, 4.5, 6.75 eV
    assert lines.orders_scanned == lines.highest_order
    assert lines.edge_guarded == 0
    scan = Diagnostics()              # one ladder per angle
    angular_distribution(replace(sc2, thetas=(2.0, 2.5, 3.0)), (0.5, 8.0),
                         diagnostics=scan)
    assert scan.points == 3 * 120
    assert scan.highest_order >= 3


if __name__ == "__main__":
    import pprint
    pprint.pprint(_wing_oracles(), width=72)
