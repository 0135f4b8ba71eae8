"""Observable curves built on top of the pointwise spectral density.

The emission module answers "power per unit frequency per steradian at
one point".  Experiments measure something else: an energy spectrum
recorded over a finite pulse, with every feature smeared by the drive
bandwidth, or the energy collected in a frequency band as a function of
emission angle.  This module assembles those observables:

  * energy_spectrum   -- Gaussian-broadened curve times the pulse
                         duration T = 2 pi / delta_omega,
  * angular_distribution -- band-integrated energy per steradian over a
                         polar-angle scan,
  * band_integrate    -- energy in [lo, hi] from a sampled curve.

Broadening comes in two readings.  "literal" convolves the emitted
spectrum with a fixed Gaussian of standard deviation delta_omega, and
turns each discrete line of a coherent-like drive into a Gaussian of the
same width.  "drive_average" instead averages the spectrum over the
drive frequency nu ~ N(omega, delta_omega^2) at fixed energy density,
which makes line widths grow with the harmonic order.  Both are exposed;
neither is privileged by the physics at the bandwidths considered here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .minkowski import ElectronState, EmissionGeometry, KinematicallyForbidden
from .units import NaturalDrive, pulse_duration
from .photon_statistics import PhaseAveragedStatistics
from . import emission
from .emission import Diagnostics
from .special_functions import ndtr

# Gaussians are treated as identically zero beyond this many standard
# deviations; at 9 sigma the truncated mass is ~1e-19 of the total,
# far below every tolerance used downstream.
KERNEL_REACH = 9.0

# Gauss-Hermite order for the drive-frequency average.  21 nodes
# integrate polynomials up to degree 41 exactly, but the density is not
# smooth on the weight's scale delta_omega: at a fixed omega', harmonic s
# switches on at a drive frequency nu_s with a kink or a narrow spike,
# and where nu_s falls inside the weight the average is off (7.6 % low at
# omega' = 2.2515 eV on a mixed_diagonal 9e17 W/cm^2 fig2 curve at
# theta' 157.75 deg, against a 40 001-node trapezoid in nu).
_HERMITE_ORDER = 21

# drive_average evaluates a smooth drive at nu = omega + sqrt(2) delta_omega x
# over the Hermite nodes x, so delta_omega / omega must stay below this for
# every nu to be positive.  Line widths need only omega - delta_omega > 0.
_SMOOTH_AVERAGE_LIMIT = 1.0 / (
    math.sqrt(2.0) * float(hermgauss(_HERMITE_ORDER)[0].max()))

# Coherent ladders are resolved in batches of this many orders; the
# batch loop stops once a whole batch contributes less than rel_tol of
# the accumulated line weight.
_LADDER_BATCH = 256

# A spectrum grid may end at most this factor above the absolute
# frequency ceiling: a window drawn a little past it shows the broadened
# curve fall to zero, while one reaching further samples mostly forbidden
# frequencies, which points to a wrong angle or unit in the config.
CEILING_SLACK = 1.05

BROADENING_MODES = ("literal", "drive_average")


@dataclass(frozen=True)
class OmegaGrid:
    """Emitted-frequency grid: [lo, hi] eV, `count` nodes, linear or log."""

    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not self.lo > 0.0:
            raise ValueError(f"grid lower edge must be > 0, got {self.lo}")
        if not self.hi > self.lo:
            raise ValueError(
                f"grid upper edge must exceed the lower, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 nodes, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got "
                             f"{self.spacing!r}")

    def points(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Scenario:
    """One physical configuration: electron, drive, statistics, grids.

    The drive propagates along +z with circular polarization; thetas
    holds the polar-angle scan (radians) used by angular_distribution,
    while spectra are evaluated at an explicitly supplied geometry.
    """

    electron: ElectronState
    drive: NaturalDrive
    stats: PhaseAveragedStatistics
    omega_grid: OmegaGrid
    thetas: tuple = ()
    phi: float = 0.0
    broadening: str = "literal"
    rel_tol: float = emission.DEFAULT_REL_TOL
    s_max: int = emission.DEFAULT_S_MAX

    def __post_init__(self):
        if self.broadening not in BROADENING_MODES:
            raise ValueError(f"broadening must be one of {BROADENING_MODES}, "
                             f"got {self.broadening!r}")
        limit = 1.0 if self.stats.is_atomic else _SMOOTH_AVERAGE_LIMIT
        rel = self.drive.delta_omega / self.drive.omega
        if self.broadening == "drive_average" and rel >= limit:
            raise ValueError(
                f"drive_average broadening needs a relative bandwidth below "
                f"{limit:.6g} for this drive, got {rel:.6g}")
        u = self.drive.omega * self.drive.rho
        if abs(self.stats.energy_density - u) > 1e-9 * u:
            raise ValueError(
                "statistics were built for energy density %g eV^4 but the "
                "scenario drive has %g eV^4" % (self.stats.energy_density, u))
        for th in self.thetas:
            if not 0.0 <= th <= math.pi:
                raise ValueError(f"scan angle {th} outside [0, pi]")


@dataclass(frozen=True)
class GaussianPeak:
    """One broadened spectral line: integrated energy `mass` (eV/sr),
    center and standard deviation in eV."""

    center: float
    mass: float
    sigma: float

    def profile(self, omega_prime: np.ndarray) -> np.ndarray:
        z = (omega_prime - self.center) / self.sigma
        out = np.zeros_like(z)
        near = np.abs(z) < KERNEL_REACH
        out[near] = (self.mass / (self.sigma * math.sqrt(2.0 * math.pi))
                     * np.exp(-0.5 * z[near] * z[near]))
        return out

    def band_mass(self, lo: float, hi: float) -> float:
        """Energy of the line inside [lo, hi] (_line_band_masses), from
        the tail beyond the band when the band lies on one side of the
        center, so a band far above or below it keeps its digits."""
        return float(_line_band_masses(self.center, self.mass, self.sigma,
                                       lo, hi))


@dataclass(frozen=True)
class SpectralCurve:
    """Energy per unit emitted frequency per steradian on a frequency grid.

    The smooth part is sampled on `omega`; discrete lines are kept as
    analytic Gaussians so that band integrals of lines are exact
    (error-function form) rather than grid-limited.
    """

    omega: np.ndarray
    smooth: np.ndarray
    peaks: tuple = ()

    def __post_init__(self):
        if self.omega.ndim != 1 or self.omega.size < 2:
            raise ValueError("curve needs a 1-D grid with at least 2 nodes")
        if np.any(np.diff(self.omega) <= 0.0):
            raise ValueError("curve grid must be strictly increasing")
        if self.smooth.shape != self.omega.shape:
            raise ValueError("ordinate shape does not match the grid")
        if np.any(self.smooth < 0.0):
            raise ValueError("curve ordinates must be >= 0")

    @property
    def values(self) -> np.ndarray:
        out = self.smooth.copy()
        for pk in self.peaks:
            out += pk.profile(self.omega)
        return out


@dataclass(frozen=True)
class AngularCurve:
    """Band-integrated energy per steradian versus polar angle."""

    theta: np.ndarray
    values: np.ndarray


def _node_terms(u):
    """Terms of nodes u sigmas from their evaluation points: the offsets
    u, the Gaussian tail beyond each node, away from its point
    (special_functions.ndtr), and exp(-u^2 / 2)."""
    return u, ndtr(-np.abs(u)), np.exp(-0.5 * u * u)


def _mass(lo, hi):
    """Unit-Gaussian mass of the intervals from nodes lo to hi, given as
    their _node_terms: the difference of the two tails when an interval
    lies on one side of its point and one minus both when it spans it,
    so an interval far away keeps its digits."""
    u0, tail0, _ = lo
    u1, tail1, _ = hi
    return np.where(u0 > 0.0, tail0 - tail1,
                    np.where(u1 > 0.0, 1.0 - tail0 - tail1, tail1 - tail0))


def _weights(lo, hi, width):
    """Weights (left, right) of a linear segment's end values y0, y1 in
    its convolution with a unit Gaussian: the segment adds y0 * left + y1
    * right at the evaluation point.  lo and hi are its ends' _node_terms
    and width its length, in sigmas; the segment's Gaussian mass is
    _mass."""
    u0, _, gauss0 = lo
    u1, _, gauss1 = hi
    mass = _mass(lo, hi)
    dpdf = (gauss0 - gauss1) / math.sqrt(2.0 * math.pi)
    return (u1 * mass - dpdf) / width, (dpdf - u0 * mass) / width


def _line_band_masses(center, mass, sigma, lo, hi):
    """Energies inside [lo, hi] of Gaussian lines with these centers,
    masses and widths (arrays or scalars, elementwise): each mass times
    the _mass of the band's ends, lo and hi in sigmas from the center."""
    return mass * _mass(_node_terms((lo - center) / sigma),
                        _node_terms((hi - center) / sigma))


def _uniform_run(x_nodes, x_eval):
    """(a, i0, b, h) if x_eval is the run x_nodes[i0:i0 + x_eval.size]
    of at least two nodes spaced h apart, up to the rounding of
    np.linspace (each node within a few ulps of x_eval[0] + i h), else
    None.  x_nodes[a:b] is the whole array when every node lies on that
    lattice, as the wings _extended_nodes gives a linear grid do, and
    the window alone otherwise."""
    m = x_eval.size
    if m < 2:
        return None
    i0 = int(np.searchsorted(x_nodes, x_eval[0]))
    if not np.array_equal(x_nodes[i0:i0 + m], x_eval):
        return None
    h = (x_eval[-1] - x_eval[0]) / (m - 1)
    tol = 4.0 * np.spacing(max(abs(x_nodes[0]), abs(x_nodes[-1])))
    lattice = x_eval[0] + h * np.arange(-i0, x_nodes.size - i0)
    off = np.abs(x_nodes - lattice) > tol
    if off[i0:i0 + m].any():
        return None
    return (i0, i0, i0 + m, h) if off.any() else (0, i0, x_nodes.size, h)


# The band of segment x evaluation-point pairs is formed this many pairs
# at a time, which bounds its temporary arrays whatever the grid.
_BAND_CHUNK = 1 << 16


def _gaussian_convolve_linear(x_nodes, y_nodes, sigma, x_eval):
    """Convolve a piecewise-linear function with a Gaussian, exactly.

    The data (x_nodes, y_nodes) define a piecewise-linear density that
    is zero outside [x_nodes[0], x_nodes[-1]].  Each linear segment
    convolved with N(0, sigma^2) has a closed form in the normal cdf and
    pdf (_weights of its ends' _node_terms), so the result carries no
    quadrature error; a segment adds to the points within KERNEL_REACH
    sigmas.

    When x_eval is an equally spaced run of the nodes, every segment of
    the run sees the same weights at offsets j h, so the run is two
    discrete convolutions of its left- and right-node values with 2k + 1
    taps, from node terms at offsets j h / sigma; k is the reach in
    steps, but at most the run's length.  The run is the whole node array
    when every node lies on the window's lattice, as a linear grid's
    _extended_nodes wings do at h <= sigma / 2, else the window alone.
    The taps are formed at the m points alone, over the m + 2k segments
    whose taps reach them, so a kernel far wider than the window costs
    m (2k + 1), not the run's length times the taps.  All other segments
    form a band of (segment, point) pairs in bounded chunks, skipping
    those with both ends zero.  A node's terms are formed once, at the
    points of both its segments (from its lower neighbour's reach to its
    upper neighbour's), and read by those of its segments in the band.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    y_nodes = np.asarray(y_nodes, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    m = x_eval.size
    out = np.zeros_like(x_eval)
    reach = KERNEL_REACH * sigma
    band = (y_nodes[:-1] != 0.0) | (y_nodes[1:] != 0.0)

    run = _uniform_run(x_nodes, x_eval)
    if run is not None:
        a, i0, b, h = run
        k = min(math.ceil(reach / h) + 1, b - a)
        # the tap at offset d = j h of the point from a segment's left
        # node, j = -k..k, sees the segment's nodes at -d and h - d
        terms = _node_terms(np.arange(k + 1, -k - 1, -1) * (h / sigma))
        left, right = _weights([t[1:] for t in terms],
                               [t[:-1] for t in terms], h / sigma)
        # the end values of the segments i0 - k ... i0 + m + k - 1, whose
        # taps reach the points, zero off the run: mode "valid" gives the
        # m outputs alone
        lo, hi = max(a, i0 - k), min(b - 1, i0 + m + k)
        y = np.zeros((2, m + 2 * k))
        y[:, lo - i0 + k:hi - i0 + k] = y_nodes[lo:hi], y_nodes[lo + 1:hi + 1]
        out += (np.convolve(y[0], left, "valid")
                + np.convolve(y[1], right, "valid"))
        band[a:b - 1] = False

    seg = np.nonzero(band)[0]
    x0, x1 = x_nodes[seg], x_nodes[seg + 1]
    y0, y1 = y_nodes[seg], y_nodes[seg + 1]
    j0 = np.searchsorted(x_eval, x0 - reach, side="left")
    j1 = np.searchsorted(x_eval, x1 + reach, side="right")
    counts = j1 - j0
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = j0 - starts       # point index minus pair index
    a = 0
    while a < seg.size:
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _BAND_CHUNK,
                                           side="right")))
        rows = np.repeat(np.arange(a, b), counts[a:b])
        cols = np.arange(starts[a], ends[b - 1]) + shift[rows]
        # the chunk's nodes; segment i runs from node k[i] to k[i] + 1,
        # and a node takes the points of both segments beside it
        nodes = np.union1d(seg[a:b], seg[a:b] + 1)
        k = np.searchsorted(nodes, seg[a:b])
        near = x_nodes[np.clip(nodes + [[-1], [1]], 0, x_nodes.size - 1)]
        first = np.searchsorted(x_eval, near[0] - reach)
        size = np.searchsorted(x_eval, near[1] + reach, side="right") - first
        base = np.cumsum(size) - size - first   # (node, point) -> pair
        terms = _node_terms((np.repeat(x_nodes[nodes], size) - x_eval[
            np.arange(size.sum()) - np.repeat(base, size)]) / sigma)
        at, at_hi = base[k][rows - a] + cols, base[k + 1][rows - a] + cols
        lo, hi = [t[at] for t in terms], [t[at_hi] for t in terms]
        left, right = _weights(lo, hi, hi[0] - lo[0])
        out += np.bincount(cols, weights=y0[rows] * left + y1[rows] * right,
                           minlength=m)
        a = b
    # roundoff can leave tiny negative residue where the curve vanishes
    return np.maximum(out, 0.0)


# Most nodes one wing of _extended_nodes may take.  A grid step far
# below the kernel width would otherwise ask for billions of nodes.
_MAX_WING_NODES = 1 << 20

# Most grid and wing nodes one literal engine pass may take: a spectrum
# of 2^20 samples with two full wings.  Each angle of a scan over a
# narrow band may stay under the wing cap while the scan's one pass
# asks for over 10^8 nodes.
_MAX_PASS_NODES = 3 * _MAX_WING_NODES


def _wing_step(grid: np.ndarray, sigma: float) -> tuple:
    """(w, n): the step and node count of each _extended_nodes wing of
    grid, n = ceil(reach / w) steps w = min(h, sigma/2), h the run step
    of a grid that is one equally spaced run (whose wings then continue
    its lattice when h <= sigma/2) and the median step of any other.
    Raises ValueError when n exceeds _MAX_WING_NODES."""
    reach = KERNEL_REACH * sigma
    run = _uniform_run(grid, grid)
    h = run[3] if run is not None else float(np.median(np.diff(grid)))
    w = min(h, 0.5 * sigma)
    n = math.ceil(reach / w)
    if n > _MAX_WING_NODES:
        raise ValueError(
            f"convolution wings need {n} nodes per side at step {w:.6g} eV "
            f"for sigma {sigma:.6g} eV, above {_MAX_WING_NODES}; the "
            f"omega' grid is too fine for the drive bandwidth")
    return w, n


def _extended_nodes(grid: np.ndarray, sigma: float) -> np.ndarray:
    """User grid plus sampling wings one kernel reach past both ends.

    Without the wings, density just outside the requested window could
    not bleed into it under convolution.  Each wing takes the n steps w
    of _wing_step away from its end of the grid, which raises
    ValueError past _MAX_WING_NODES.  The left wing stops above omega' =
    0.  Nodes that are not strictly increasing raise ValueError too: a
    step below the float spacing at the grid's end leaves wing nodes on
    top of each other, whose segments have no width.
    """
    w, n = _wing_step(grid, sigma)
    left = grid[0] - w * np.arange(n, 0, -1)
    right = grid[-1] + w * np.arange(1, n + 1)
    nodes = np.concatenate([left[left > 0.0], grid, right])
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(
            f"convolution nodes are not strictly increasing at step "
            f"{w:.6g} eV for sigma {sigma:.6g} eV, below the float spacing "
            f"of the omega' grid; the drive bandwidth is too narrow for it")
    return nodes


def _ladder(stats, p, omega, geometry, w_max, rel_tol, s_max,
            diagnostics: Diagnostics | None = None):
    """All coherent lines below w_max, truncated by accumulated weight.

    Lines gather toward the absolute ceiling as the order grows, so a
    frequency bound alone cannot stop the scan; batches of orders are
    resolved until a whole batch adds less than rel_tol of the running
    total weight.  Line positions are closed-form, so orders above w_max
    are dropped before any Bessel work, and the scan ends at the first
    batch with no line left.  Each batch adds its highest line to both
    order fields of `diagnostics`.  A ladder still gaining weight at
    s_max raises TruncationNotConverged, its `failure` naming the highest
    line and the last batch's weight over the running total.
    """
    diagnostics = diagnostics or Diagnostics()
    entries = []
    total = 0.0
    s_lo = 1
    while s_lo <= s_max:
        s_hi = min(s_lo + _LADDER_BATCH - 1, s_max)
        orders, wps, _ = emission.coherent_line_positions(
            stats, p, omega, geometry, np.arange(s_lo, s_hi + 1))
        kept = orders[wps <= w_max]
        if kept.size == 0:
            return entries
        batch = emission.coherent_peaks(stats, p, omega, geometry, kept)
        top = batch[-1].order
        diagnostics.add(highest_order=top, orders_scanned=top)
        entries.extend(batch)
        got = sum(q.weight for q in batch)
        total += got
        if total > 0.0 and got <= rel_tol * total:
            return entries
        s_lo = s_hi + 1
    last = entries[-1] if entries else None     # the highest line reached
    raise emission.with_failure(
        emission.TruncationNotConverged(
            f"coherent ladder still gaining weight at order {s_max}; "
            f"theta'={math.degrees(geometry.theta):.6g} deg"),
        geometry.theta, None if last is None else last.omega_prime,
        s_max if last is None else last.order,
        last_term_ratio=got / total if total > 0.0 else None)


def _peak_sigmas(scenario: Scenario, geometry, entries) -> np.ndarray:
    """Line widths for the drive-average reading, aligned with entries:
    |d omega'_s / d nu| times the bandwidth, by centered difference at
    fixed energy density.  kappa is proportional to nu, so every line
    has a position at nu +- delta_omega as well."""
    omega = scenario.drive.omega
    sigma = scenario.drive.delta_omega
    orders = [q.order for q in entries]
    lo, hi = (emission.coherent_line_positions(
        scenario.stats, scenario.electron.p, nu, geometry, orders)[1]
        for nu in (omega - sigma, omega + sigma))
    return np.abs(hi - lo) / 2.0


def energy_spectrum(scenario: Scenario, geometry: EmissionGeometry,
                    diagnostics: Diagnostics | None = None) -> SpectralCurve:
    """Broadened energy spectrum (eV per eV per sr) at one direction.

    The power spectral density is resolved on the scenario grid (smooth
    drives) or into discrete lines, one GaussianPeak each (coherent-like
    drives), broadened according to scenario.broadening, and multiplied
    by the pulse duration T = 2 pi / delta_omega.  A caller-supplied
    Diagnostics record accumulates the truncation counters of all
    internal passes.
    """
    hi = scenario.omega_grid.hi
    ceiling = emission.absolute_frequency_ceiling(
        scenario.electron.p, scenario.drive.omega, geometry)
    if hi > CEILING_SLACK * ceiling:
        raise KinematicallyForbidden(
            "grid extends to %g eV but no emission is possible above "
            "%g eV at this angle" % (hi, ceiling))
    blocks = [(geometry, scenario.omega_grid)]
    diagnostics = diagnostics or Diagnostics()
    if not scenario.stats.is_atomic:
        [curve] = _smooth_curves(scenario, blocks, diagnostics)
        return curve
    [lines] = _lines(scenario, blocks, diagnostics)
    grid = scenario.omega_grid.points()
    return SpectralCurve(
        omega=grid, smooth=np.zeros_like(grid),
        peaks=tuple(map(GaussianPeak, *(v.tolist() for v in lines))))


def _lines(scenario: Scenario, blocks, diagnostics: Diagnostics):
    """Lines of a coherent-like drive for (geometry, OmegaGrid) blocks:
    one ladder per block, given as three arrays in order of the line
    order: centers, masses (the pulse duration times the line weight,
    eV/sr) and widths, all in eV.  Each line is a Gaussian of that mass
    and width; energy_spectrum makes them GaussianPeaks, while an
    angular scan integrates the arrays.

    Every block adds its grid size, omega_grid.count, to
    diagnostics.points; no grid is built.
    """
    sigma = scenario.drive.delta_omega
    t_pulse = pulse_duration(sigma)
    p = scenario.electron.p
    omega = scenario.drive.omega
    # a line is kept while twice the kernel reach of its width can touch
    # the grid.  drive_average widths grow with the line: (pi' + 3 mu) /
    # (s kappa + pi' + mu) (omega'_s / omega) sigma stays below
    # 3 (omega'_s / omega) sigma, so there the bound scales with the grid
    reach = 2.0 * KERNEL_REACH * sigma
    shrink = 1.0 - 3.0 * reach / omega
    lines = []
    for geometry, omega_grid in blocks:
        diagnostics.add(points=omega_grid.count)
        top = float(omega_grid.hi)      # the grid's last node
        if scenario.broadening == "literal":
            w_top = top + reach
        else:
            w_top = top / shrink if shrink > 0.0 else math.inf
        w_top = min(w_top, emission.absolute_frequency_ceiling(
            p, omega, geometry))
        entries = _ladder(scenario.stats, p, omega, geometry, w_top,
                          scenario.rel_tol, scenario.s_max, diagnostics)
        if scenario.broadening == "drive_average":
            widths = _peak_sigmas(scenario, geometry, entries)
        else:
            widths = np.full(len(entries), sigma)
        _, centers, weights = np.array(entries).reshape(-1, 3).T
        lines.append((centers, t_pulse * weights, widths))
    return lines


def _smooth_curves(scenario: Scenario, blocks, diagnostics: Diagnostics):
    """Energy curves of a smooth drive for (geometry, OmegaGrid) blocks.

    All blocks share one spectral_density_points call (one per Hermite
    node for drive_average), so a scan pays the engine's order loop once,
    not once per direction.  Curves include the pulse duration factor.
    A literal pass whose grid and wing nodes (_wing_step) exceed
    _MAX_PASS_NODES raises ValueError before any wing is built.
    """
    if not blocks:
        return []
    sigma = scenario.drive.delta_omega
    t_pulse = pulse_duration(sigma)
    grids = [grid.points() for _, grid in blocks]
    angles = [(geometry.theta, geometry.phi) for geometry, _ in blocks]

    def density(nu, point_sets):
        sizes = [x.size for x in point_sets]
        theta, phi = (np.repeat(a, sizes) for a in zip(*angles))
        out = emission.spectral_density_points(
            scenario.stats, scenario.electron.p, nu, theta, phi,
            np.concatenate(point_sets), rel_tol=scenario.rel_tol,
            s_max=scenario.s_max, diagnostics=diagnostics)
        return np.split(out, np.cumsum(sizes)[:-1])

    if scenario.broadening == "drive_average":
        nodes, wts = hermgauss(_HERMITE_ORDER)
        acc = [np.zeros_like(grid) for grid in grids]
        for x, w in zip(nodes, wts):
            nu = scenario.drive.omega + math.sqrt(2.0) * sigma * x
            for a, d in zip(acc, density(nu, grids)):
                a += (w / math.sqrt(math.pi)) * d
        smooth = [t_pulse * a for a in acc]
    else:
        # the pass's size is known from the wing steps before any wing
        # is built
        size = sum(grid.size + 2 * _wing_step(grid, sigma)[1]
                   for grid in grids)
        if size > _MAX_PASS_NODES:
            raise ValueError(
                f"convolution needs {size} grid and wing nodes in one "
                f"engine pass, above {_MAX_PASS_NODES}; the omega' grids "
                f"are too fine for the drive bandwidth")
        wings = [_extended_nodes(grid, sigma) for grid in grids]
        dens = density(scenario.drive.omega, wings)
        smooth = [t_pulse * _gaussian_convolve_linear(x, d, sigma, grid)
                  for x, d, grid in zip(wings, dens, grids)]
    return [SpectralCurve(omega=grid, smooth=y)
            for grid, y in zip(grids, smooth)]


def band_integrate(curve: SpectralCurve, band) -> float:
    """Energy per steradian in [lo, hi]: exact on the curve's model.

    The smooth part is integrated as the piecewise-linear interpolant it
    is (exact, including fractional end segments); analytic peaks add
    their band masses, all from one _line_band_masses call over the
    peaks in order, summed by np.sum.  Model error is set by the
    sampling grid and is the caller's concern.
    """
    lo, hi = float(band[0]), float(band[1])
    if not hi > lo:
        raise ValueError(f"band must satisfy lo < hi, got [{lo}, {hi}]")
    x = curve.omega
    y = curve.smooth
    a, b = max(lo, x[0]), min(hi, x[-1])
    total = 0.0
    if b > a:
        inner = x[(x > a) & (x < b)]
        xs = np.concatenate([[a], inner, [b]])
        ys = np.interp(xs, x, y)
        total += float(np.trapezoid(ys, xs))
    if curve.peaks:
        center, mass, sigma = np.array(
            [(pk.center, pk.mass, pk.sigma) for pk in curve.peaks]).T
        total += float(np.sum(_line_band_masses(center, mass, sigma,
                                                lo, hi)))
    return total


def angular_distribution(scenario: Scenario, band, *,
                         jacobian: bool = False,
                         diagnostics: Diagnostics | None = None
                         ) -> AngularCurve:
    """Band-integrated energy per steradian across the polar-angle scan.

    For each scan angle the energy spectrum is rebuilt on an internal
    grid covering the band (clipped to the kinematic ceiling) and
    integrated over [lo, hi].  Values are per steradian; jacobian=True
    multiplies by sin(theta') for per-polar-angle reading.  For a smooth
    drive the whole scan is one engine pass over all angles' points, and
    each angle's curve goes through band_integrate.  Coherent-like drives
    resolve each angle's line ladder in turn and build no curve or peak:
    the band masses of all angles' lines come from one _line_band_masses
    call, and each angle's are summed as band_integrate sums a curve's
    peaks, so the value equals band_integrate of its energy_spectrum.
    """
    lo, hi = float(band[0]), float(band[1])
    if not hi > lo:
        raise ValueError(f"band must satisfy lo < hi, got [{lo}, {hi}]")
    if not scenario.thetas:
        raise ValueError("scenario has no polar-angle scan")
    p = scenario.electron.p
    omega = scenario.drive.omega
    count = max(scenario.omega_grid.count, 64)

    live, blocks = [], []
    for i, th in enumerate(scenario.thetas):
        geometry = EmissionGeometry(theta=th, phi=scenario.phi)
        ceiling = emission.absolute_frequency_ceiling(p, omega, geometry)
        g_lo = max(lo, 1e-6 * omega)
        g_hi = min(hi, ceiling)
        if g_hi > g_lo:
            live.append(i)
            blocks.append((geometry, OmegaGrid(g_lo, g_hi, count)))
    diagnostics = diagnostics or Diagnostics()
    if not scenario.stats.is_atomic:
        sums = [band_integrate(curve, (lo, hi))
                for curve in _smooth_curves(scenario, blocks, diagnostics)]
    elif blocks:
        lines = _lines(scenario, blocks, diagnostics)
        ends = np.cumsum([center.size for center, _, _ in lines])
        energy = _line_band_masses(*map(np.concatenate, zip(*lines)), lo, hi)
        sums = [float(np.sum(e)) for e in np.split(energy, ends[:-1])]
    else:
        sums = []
    values = np.zeros(len(scenario.thetas))
    for i, v in zip(live, sums):
        values[i] = v * (math.sin(scenario.thetas[i]) if jacobian else 1.0)
    return AngularCurve(theta=np.asarray(scenario.thetas, dtype=float),
                        values=values)
