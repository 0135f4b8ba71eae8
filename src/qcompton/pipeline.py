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
from dataclasses import dataclass, field, replace

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
# integrate polynomials up to degree 41 exactly; the density varies on
# the scale of omega while the weight has width delta_omega << omega.
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
        """Energy of the line inside [lo, hi], as for _segment_weights
        from the tail beyond the band, so a band far above or below the
        center keeps its digits."""
        scale = self.sigma * math.sqrt(2.0)
        a, b = (lo - self.center) / scale, (hi - self.center) / scale
        if a > 0.0:
            return 0.5 * self.mass * (math.erfc(a) - math.erfc(b))
        return 0.5 * self.mass * (math.erfc(-b) - math.erfc(-a))


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
    metadata: dict = field(default_factory=dict)

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
    metadata: dict = field(default_factory=dict)


def _segment_weights(d, width):
    """Weights (left, right) of a linear segment's end values y0, y1 in
    its convolution with a unit Gaussian, so that the segment adds
    y0 * left + y1 * right at the evaluation point.

    Arguments are in units of sigma: d = (t - x0) / sigma is the offset
    of the evaluation point t from the left node, width = (x1 - x0) /
    sigma.  The Gaussian mass over the segment is taken from the tail
    that lies beyond it, so a segment far above t keeps its digits, and
    each weight is formed from its own node's offset, (x1 - t) for the
    left and (t - x0) for the right, never as a difference of the two.
    """
    lo, hi = -d, width - d
    upper = lo > 0.0
    mass = ndtr(np.where(upper, -lo, hi)) - ndtr(np.where(upper, -hi, lo))
    dpdf = (np.exp(-0.5 * lo * lo) - np.exp(-0.5 * hi * hi)) / math.sqrt(
        2.0 * math.pi)
    return (hi * mass - dpdf) / width, (d * mass + dpdf) / width


def _uniform_run(x_nodes, x_eval, reach=0.0):
    """(a, i0, b, h) if x_eval is the run x_nodes[i0:i0 + x_eval.size]
    of at least two nodes spaced h apart, up to the rounding of
    np.linspace (each node within a few ulps of x_eval[0] + i h), else
    None.  x_nodes[a:b] widens the run, by at most ceil(reach / h) + 1
    nodes past either end, over the nodes that continue its lattice,
    such as the wings _extended_nodes gives a linear grid."""
    m = x_eval.size
    if m < 2:
        return None
    i0 = int(np.searchsorted(x_nodes, x_eval[0]))
    if not np.array_equal(x_nodes[i0:i0 + m], x_eval):
        return None
    h = (x_eval[-1] - x_eval[0]) / (m - 1)
    pad = math.ceil(reach / h) + 1
    lo, hi = max(0, i0 - pad), min(x_nodes.size, i0 + m + pad)
    near = x_nodes[lo:hi]
    tol = 4.0 * np.spacing(max(abs(near[0]), abs(near[-1])))
    off = np.abs(near - (x_eval[0] + h * np.arange(lo - i0, hi - i0))) > tol
    if off[i0 - lo:i0 - lo + m].any():
        return None
    before = np.flatnonzero(off[:i0 - lo])
    after = np.flatnonzero(off[i0 - lo + m:])
    a = lo + before[-1] + 1 if before.size else lo
    b = i0 + m + after[0] if after.size else hi
    return a, i0, b, h


# The band of segment x evaluation-point pairs is formed this many pairs
# at a time, which bounds its temporary arrays whatever the grid.
_BAND_CHUNK = 1 << 16


def _gaussian_convolve_linear(x_nodes, y_nodes, sigma, x_eval):
    """Convolve a piecewise-linear function with a Gaussian, exactly.

    The data (x_nodes, y_nodes) define a piecewise-linear density that
    is zero outside [x_nodes[0], x_nodes[-1]].  Each linear segment
    convolved with N(0, sigma^2) has a closed form in the normal cdf and
    pdf (_segment_weights), so the result carries no quadrature error;
    a segment adds to the evaluation points within KERNEL_REACH sigmas.

    When x_eval is an equally spaced run of the nodes, every segment of
    the run, widened over the nodes within reach that continue its
    lattice, sees the same weights at offsets k h, so the run is two
    discrete convolutions of its left- and right-node values with those
    taps.  A linear grid with its _extended_nodes wings is one such run.
    All other segments, every segment of a log or unequal grid and its
    wings, are evaluated as a band of (segment, point) pairs in bounded
    chunks; segments with both ends zero are skipped.  The band's normal
    cdf is special_functions.ndtr, which costs about three times
    scipy's per element: one call on a 32 000-node log fig2 grid took
    0.095-0.115 s with scipy's ndtr and takes 0.112-0.148 s (medians
    of three rounds of 7-15 calls, 2-core VM).
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    y_nodes = np.asarray(y_nodes, dtype=float)
    x_eval = np.asarray(x_eval, dtype=float)
    m = x_eval.size
    out = np.zeros_like(x_eval)
    reach = KERNEL_REACH * sigma
    band = (y_nodes[:-1] != 0.0) | (y_nodes[1:] != 0.0)

    run = _uniform_run(x_nodes, x_eval, reach)
    if run is not None:
        a, i0, b, h = run
        k = math.ceil(reach / h) + 1
        left, right = _segment_weights(np.arange(-k, k + 1) * (h / sigma),
                                       h / sigma)
        y = y_nodes[a:b]
        c = k + i0 - a
        out += (np.convolve(y[:-1], left)
                + np.convolve(y[1:], right))[c:c + m]
        band[a:b - 1] = False

    seg = np.nonzero(band)[0]
    x0, x1 = x_nodes[seg], x_nodes[seg + 1]
    y0, y1 = y_nodes[seg], y_nodes[seg + 1]
    width = (x1 - x0) / sigma
    j0 = np.searchsorted(x_eval, x0 - reach, side="left")
    counts = np.searchsorted(x_eval, x1 + reach, side="right") - j0
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = j0 - starts       # point index minus pair index
    a = 0
    while a < seg.size:
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _BAND_CHUNK,
                                           side="right")))
        rows = np.repeat(np.arange(a, b), counts[a:b])
        cols = np.arange(starts[a], ends[b - 1]) + shift[rows]
        left, right = _segment_weights((x_eval[cols] - x0[rows]) / sigma,
                                       width[rows])
        out += np.bincount(cols, weights=y0[rows] * left + y1[rows] * right,
                           minlength=m)
        a = b
    # roundoff can leave tiny negative residue where the curve vanishes
    return np.maximum(out, 0.0)


def _extended_nodes(grid: np.ndarray, sigma: float) -> np.ndarray:
    """User grid plus sampling wings one kernel reach past both ends.

    Without the wings, density just outside the requested window could
    not bleed into it under convolution.  A linear grid whose step h is
    at most sigma/2 continues its own lattice, ceil(reach / h) nodes
    grid[0] + i h per side, so the convolution sees one equally spaced
    run.  Other grids take wings spaced by the finer of their median
    step and sigma/2.  The left wing stops above omega' = 0.
    """
    reach = KERNEL_REACH * sigma
    run = _uniform_run(grid, grid)
    if run is not None and run[3] <= 0.5 * sigma:
        h = run[3]
        n = math.ceil(reach / h)
        left = grid[0] + h * np.arange(-n, 0)
        right = grid[0] + h * np.arange(grid.size, grid.size + n)
        return np.concatenate([left[left > 0.0], grid, right])
    step = min(float(np.median(np.diff(grid))), 0.5 * sigma)
    n = max(2, int(math.ceil(reach / step)))
    left = grid[0] - reach * np.linspace(1.0, 0.0, n, endpoint=False)
    left = left[left > 0.0]
    right = grid[-1] + reach * np.linspace(0.0, 1.0, n + 1)[1:]
    return np.concatenate([left, grid, right])


def _ladder(stats, p, omega, geometry, w_max, rel_tol, s_max,
            diagnostics: Diagnostics | None = None):
    """All coherent lines below w_max, truncated by accumulated weight.

    Lines gather toward the absolute ceiling as the order grows, so a
    frequency bound alone cannot stop the scan; batches of orders are
    resolved until a whole batch adds less than rel_tol of the running
    total weight.  Line positions are closed-form, so orders above w_max
    are dropped before any Bessel work, and the scan ends at the first
    batch with no line left.  Each batch adds its highest line to both
    order fields of `diagnostics`.
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
        s_max if last is None else last.order)


def _peak_sigmas(scenario: Scenario, geometry, entries) -> list:
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
    return (np.abs(hi - lo) / 2.0).tolist()


def energy_spectrum(scenario: Scenario, geometry: EmissionGeometry,
                    diagnostics: Diagnostics | None = None) -> SpectralCurve:
    """Broadened energy spectrum (eV per eV per sr) at one direction.

    The power spectral density is resolved on the scenario grid (smooth
    drives) or into discrete lines (coherent-like drives), broadened
    according to scenario.broadening, and multiplied by the pulse
    duration T = 2 pi / delta_omega.  A caller-supplied Diagnostics
    record accumulates the truncation counters of all internal passes.
    """
    hi = scenario.omega_grid.hi
    ceiling = emission.absolute_frequency_ceiling(
        scenario.electron.p, scenario.drive.omega, geometry)
    if hi > CEILING_SLACK * ceiling:
        raise KinematicallyForbidden(
            "grid extends to %g eV but no emission is possible above "
            "%g eV at this angle" % (hi, ceiling))
    meta = {
        "state": scenario.stats.label,
        "omega_eV": scenario.drive.omega,
        "rho_eV3": scenario.drive.rho,
        "delta_omega_eV": scenario.drive.delta_omega,
        "theta_deg": math.degrees(geometry.theta),
        "phi_deg": math.degrees(geometry.phi),
        "broadening": scenario.broadening,
        "gamma": scenario.electron.gamma,
        "direction": list(scenario.electron.direction),
    }
    build = _line_curves if scenario.stats.is_atomic else _smooth_curves
    [curve] = build(scenario, [(geometry, scenario.omega_grid)],
                    diagnostics or Diagnostics())
    return replace(curve, metadata=meta)


def _line_curves(scenario: Scenario, blocks, diagnostics: Diagnostics):
    """Energy curves of a coherent-like drive for (geometry, OmegaGrid)
    blocks: one line ladder per block, each line an analytic Gaussian.

    Every block adds its grid nodes to diagnostics.points.  Curves
    include the pulse duration factor.
    """
    sigma = scenario.drive.delta_omega
    t_pulse = pulse_duration(sigma).per_eV
    p = scenario.electron.p
    omega = scenario.drive.omega
    # a line is kept while twice the kernel reach of its width can touch
    # the grid.  drive_average widths grow with the line: (pi' + 3 mu) /
    # (s kappa + pi' + mu) (omega'_s / omega) sigma stays below
    # 3 (omega'_s / omega) sigma, so there the bound scales with the grid
    reach = 2.0 * KERNEL_REACH * sigma
    shrink = 1.0 - 3.0 * reach / omega
    curves = []
    for geometry, omega_grid in blocks:
        grid = omega_grid.points()
        diagnostics.add(points=grid.size)
        if scenario.broadening == "literal":
            w_top = grid[-1] + reach
        else:
            w_top = grid[-1] / shrink if shrink > 0.0 else math.inf
        w_top = min(w_top, emission.absolute_frequency_ceiling(
            p, omega, geometry))
        entries = _ladder(scenario.stats, p, omega, geometry, w_top,
                          scenario.rel_tol, scenario.s_max, diagnostics)
        if scenario.broadening == "drive_average":
            widths = _peak_sigmas(scenario, geometry, entries)
        else:
            widths = [sigma] * len(entries)
        peaks = tuple(GaussianPeak(center=q.omega_prime,
                                   mass=t_pulse * q.weight, sigma=width)
                      for q, width in zip(entries, widths))
        curves.append(SpectralCurve(omega=grid, smooth=np.zeros_like(grid),
                                    peaks=peaks))
    return curves


def _smooth_curves(scenario: Scenario, blocks, diagnostics: Diagnostics):
    """Energy curves of a smooth drive for (geometry, OmegaGrid) blocks.

    All blocks share one spectral_density_points call (one per Hermite
    node for drive_average), so a scan pays the engine's order loop once,
    not once per direction.  Curves include the pulse duration factor.
    """
    if not blocks:
        return []
    sigma = scenario.drive.delta_omega
    t_pulse = pulse_duration(sigma).per_eV
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
        wings = [_extended_nodes(grid, sigma) for grid in grids]
        dens = density(scenario.drive.omega, wings)
        smooth = [t_pulse * _gaussian_convolve_linear(x, d, sigma, grid)
                  for x, d, grid in zip(wings, dens, grids)]
    return [SpectralCurve(omega=grid, smooth=y)
            for grid, y in zip(grids, smooth)]


def band_integrate(curve: SpectralCurve, band) -> float:
    """Energy per steradian in [lo, hi]: exact on the curve's model.

    The smooth part is integrated as the piecewise-linear interpolant it
    is (exact, including fractional end segments); analytic peaks
    contribute their error-function band mass.  Model error is set by
    the sampling grid and is the caller's concern.
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
    for pk in curve.peaks:
        total += pk.band_mass(lo, hi)
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
    drive the whole scan is one engine pass over all angles' points;
    coherent-like drives resolve each angle's line ladder in turn.
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
    build = _line_curves if scenario.stats.is_atomic else _smooth_curves
    curves = build(scenario, blocks, diagnostics or Diagnostics())
    values = np.zeros(len(scenario.thetas))
    for i, curve in zip(live, curves):
        values[i] = band_integrate(curve, (lo, hi)) * (
            math.sin(scenario.thetas[i]) if jacobian else 1.0)
    meta = {
        "state": scenario.stats.label,
        "omega_eV": scenario.drive.omega,
        "rho_eV3": scenario.drive.rho,
        "band_eV": [lo, hi],
        "jacobian": jacobian,
        "broadening": scenario.broadening,
    }
    return AngularCurve(theta=np.asarray(scenario.thetas, dtype=float),
                        values=values, metadata=meta)
