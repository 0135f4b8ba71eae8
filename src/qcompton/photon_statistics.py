"""Phase-averaged field statistics R(E) for the supported drive states.

R(E) is the phase average of the scaled large-volume Husimi function,
R(E) = integral over phi of Q~(E e^{i phi}); it is the only channel
through which the drive's quantum state enters the emission spectrum.
Two invariants make states comparable at equal mean photon density rho:

    m1 = integral E R(E) dE   = 1          (normalization)
    m2 = integral E^3 R(E) dE = 2 omega rho (equal intensity)

Both invariants involve the drive only through the energy density
u = omega rho, and so does every family here: statistics built at
(omega, rho) and at (omega', omega rho / omega') give the same R(E) up to
rounding.  u is therefore the one drive quantity a PhaseAveragedStatistics carries; the
drive enters the spectrum otherwise only through its frequency omega.

Coherent-like states collapse to a single field amplitude ("atomic
peak" at A = sqrt(2 u), R(E) = delta(E - A)/E); genuinely fluctuating
states carry a smooth density exposed as log R to keep the far tail
(E^2 >> u) usable without underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .special_functions import bessel_i0_log_scaled


class NonNormalizable(ValueError):
    """Tabulated statistics whose moment integrals cannot be normalized."""


# Occupation used to evaluate the infinite-volume limit of the
# mixed-diagonal state.  The residual finite-size effects are a
# pointwise relative drift of order E^2/(8 nbar omega rho) and a
# flattening of the 1/E endpoint below E ~ sqrt(omega rho / nbar)
# whose moment deficit scales like nbar^{-1/2}; at 1e24 both sit
# around 1e-11, well under the 1e-8 comparison budget.
_MIXED_LIMIT_NBAR = 1.0e24

# Smooth built-in densities are numerically zero beyond this many
# standard scales; used as an integration/support hint only.
_SUPPORT_SIGMAS = 40.0


@dataclass(frozen=True)
class PhaseAveragedStatistics:
    """Drive-state statistics entering the spectrum only through R(E).

    Exactly one of peak_amplitude (atomic peak, coherent-like) and
    log_r_fn (smooth density) is set.  E is a field amplitude in eV^2,
    R carries eV^-4.
    """

    label: str
    energy_density: float         # u = omega rho, eV^4
    peak_amplitude: float | None = None
    log_r_fn: Callable | None = field(default=None, repr=False, compare=False)
    support_max: float = 0.0      # R treated as negligible beyond this E
    table: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def is_atomic(self) -> bool:
        return self.peak_amplitude is not None

    def log_r(self, e_field):
        """log R(E); -inf where R vanishes.  Scalar in, scalar out."""
        if self.is_atomic:
            raise TypeError("atomic-peak statistics have no smooth density; "
                            "use peak_amplitude")
        scalar = np.isscalar(e_field)
        out = self.log_r_fn(np.atleast_1d(np.asarray(e_field, dtype=float)))
        return float(out[0]) if scalar else out


def _require_drive(omega: float, rho: float, allow_zero_rho: bool) -> None:
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if rho < 0.0 or (rho == 0.0 and not allow_zero_rho):
        raise ValueError(f"photon density must be positive, got {rho}")


def _atomic_stats(label: str, omega: float,
                  rho: float) -> PhaseAveragedStatistics:
    """Coherent-like statistics under `label`: one atomic peak at A."""
    _require_drive(omega, rho, allow_zero_rho=True)
    return PhaseAveragedStatistics(label=label, energy_density=omega * rho,
                                   peak_amplitude=math.sqrt(2.0 * omega * rho))


def coherent_stats(omega: float, rho: float) -> PhaseAveragedStatistics:
    """Coherent drive: all weight at the single amplitude A = sqrt(2 omega rho)."""
    return _atomic_stats("coherent", omega, rho)


def fock_limit_stats(omega: float, rho: float) -> PhaseAveragedStatistics:
    """Large-n Fock state: same phase-averaged statistics as coherent."""
    return _atomic_stats("fock", omega, rho)


def cat_limit_stats(omega: float, rho: float) -> PhaseAveragedStatistics:
    """Schrodinger-cat superposition: phase averaging erases the coherence."""
    return _atomic_stats("cat", omega, rho)


def thermal_stats(omega: float, rho: float) -> PhaseAveragedStatistics:
    """Thermal drive: R(E) = exp(-E^2 / 2 omega rho) / (omega rho)."""
    _require_drive(omega, rho, allow_zero_rho=False)
    wr = omega * rho

    def log_r(e):
        return -e * e / (2.0 * wr) - math.log(wr)

    return PhaseAveragedStatistics(
        label="thermal", energy_density=wr, log_r_fn=log_r,
        support_max=_SUPPORT_SIGMAS * math.sqrt(2.0 * wr))


def bsv_stats(omega: float, rho: float) -> PhaseAveragedStatistics:
    """Bright squeezed vacuum: R(E) = exp(-E^2 / 4 omega rho) / (E sqrt(pi omega rho)).

    The 1/E endpoint is integrable; consumers integrate in u = E^2 or
    substitute it away.
    """
    _require_drive(omega, rho, allow_zero_rho=False)
    wr = omega * rho
    half_log = 0.5 * math.log(math.pi * wr)

    def log_r(e):
        with np.errstate(divide="ignore"):
            return -e * e / (4.0 * wr) - np.log(e) - half_log

    return PhaseAveragedStatistics(
        label="bsv", energy_density=wr, log_r_fn=log_r,
        support_max=_SUPPORT_SIGMAS * math.sqrt(4.0 * wr))


def mixed_diagonal_stats(omega: float, rho: float) -> PhaseAveragedStatistics:
    """Phase-mixed diagonal state built from its Husimi function.

    Evaluates the scaled infinite-volume limit of
    Q(alpha) = exp(-(nbar+1)/(2nbar+1) |alpha|^2) I0(nbar |alpha|^2 /
    (2nbar+1)) / (pi sqrt(2nbar+1)) with |alpha|^2 = (V / 2 omega) E^2
    and nbar = rho V, at a fixed very large occupation.  Agrees with
    bsv_stats pointwise (same Q~ limit).
    """
    _require_drive(omega, rho, allow_zero_rho=False)
    nbar = _MIXED_LIMIT_NBAR
    volume = nbar / rho
    denom = 2.0 * nbar + 1.0
    # E-independent pieces of log R = log(2 pi Q~)
    const = (math.log(2.0 * math.pi) + math.log(volume / (2.0 * omega))
             - math.log(math.pi) - 0.5 * math.log(denom))

    def log_r(e):
        # log R = const - (nbar+1)/(2nbar+1) |a|^2 + log I0(nbar |a|^2 /
        # (2nbar+1)); the I0 argument nearly cancels the Gaussian term,
        # so combine them analytically (the residue is |a|^2/(2nbar+1))
        # and use the exponentially scaled Bessel for what remains.
        alpha2 = (volume / (2.0 * omega)) * e * e
        return (const - alpha2 / denom
                + bessel_i0_log_scaled(nbar * alpha2 / denom))

    return PhaseAveragedStatistics(
        label="mixed_diagonal", energy_density=omega * rho, log_r_fn=log_r,
        support_max=_SUPPORT_SIGMAS * math.sqrt(4.0 * omega * rho))


def custom_tabulated_stats(omega: float, rho: float,
                           samples) -> PhaseAveragedStatistics:
    """Smooth statistics from tabulated (E, R) samples, all finite.

    Log-linear interpolation between nodes (zero outside the table),
    then the abscissa is rescaled by sqrt(2 omega rho m1 / m2) and the
    values renormalized so both moment invariants hold exactly; custom
    states stay equal-intensity comparable with the built-ins by
    construction.
    """
    _require_drive(omega, rho, allow_zero_rho=False)
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (N, 2) table of (E, R)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tabulated E and R values must be finite")
    e_in, r_in = arr[:, 0], arr[:, 1]
    if np.any(e_in < 0.0):
        raise ValueError("tabulated E values must be >= 0")
    if np.any(np.diff(e_in) <= 0.0):
        raise ValueError("tabulated E values must be strictly increasing")
    if np.any(r_in < 0.0):
        raise ValueError("tabulated R values must be >= 0")

    # trim zero-R edges; log-linear interpolation needs positive R inside
    keep = np.nonzero(r_in > 0.0)[0]
    if keep.size < 2:
        raise NonNormalizable("table needs at least two samples with R > 0")
    lo, hi = keep[0], keep[-1]
    if np.any(r_in[lo:hi + 1] <= 0.0):
        raise ValueError("R must be positive between the first and last "
                         "nonzero samples (log-linear interpolation)")
    e_in, r_in = e_in[lo:hi + 1], r_in[lo:hi + 1]

    # only ratios of R matter: integrating at a peak of 1 keeps the moments
    # of any table in range, and log_amp restores the normalization
    log_r_in = np.log(r_in)
    log_r_in -= log_r_in.max()
    m1, m2 = _table_moments("custom", e_in, log_r_in)
    if m1 <= 0.0 or m2 <= 0.0:
        raise NonNormalizable(f"table moments are degenerate: ({m1}, {m2})")
    scale = math.sqrt(2.0 * omega * rho * m1 / m2)
    log_amp = -math.log(scale * scale * m1)
    e_nodes = scale * e_in
    log_r_nodes = log_r_in + log_amp

    def log_r(e):
        return np.interp(e, e_nodes, log_r_nodes, left=-np.inf, right=-np.inf)

    return PhaseAveragedStatistics(
        label="custom", energy_density=omega * rho, log_r_fn=log_r,
        support_max=float(e_nodes[-1]), table=(e_nodes, log_r_nodes))


def tabulated_stats_from_file(path, omega: float,
                              rho: float) -> PhaseAveragedStatistics:
    """Load a two-column (E in eV^2, R in eV^-4) text table; '#' comments."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (E, R), "
                         f"got {data.shape[1]}")
    return custom_tabulated_stats(omega, rho, data)


# Drive-state families by config name, which is also each family's label.
FAMILIES = {
    "coherent": coherent_stats,
    "thermal": thermal_stats,
    "bsv": bsv_stats,
    "fock": fock_limit_stats,
    "cat": cat_limit_stats,
    "mixed_diagonal": mixed_diagonal_stats,
    "custom": custom_tabulated_stats,
}

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# Panel halving stops when two successive (m1, m2) estimates agree to
# _MOMENT_RTOL relative, or agree to _FLOOR_RTOL and have stopped getting
# closer: the rounding of the node positions, not the rule, then limits
# the estimate (steep tables).  It gives up after _MAX_HALVINGS halvings,
# at 2^16 panels for an analytic state.
_MOMENT_RTOL = 1e-13
_FLOOR_RTOL = 1e-8
_MAX_HALVINGS = 10
# Analytic densities start from this many equal panels on [0, support_max].
_START_PANELS = 64
# Panels per log R call; bounds the memory of a pass on a large table.
_CHUNK_PANELS = 2 ** 14


def _gauss_pass(label: str, log_r: Callable, edges: np.ndarray, split: int):
    """(m1, m2) by 20-node Gauss-Legendre, each panel of edges cut in split."""
    m1 = m2 = 0.0
    step = max(1, _CHUNK_PANELS // split)
    for i in range(0, edges.size - 1, step):
        lo, hi = edges[:-1][i:i + step], edges[1:][i:i + step]
        width = (hi - lo) / split
        half = 0.5 * np.repeat(width, split)[:, None]
        left = (lo[:, None] + width[:, None] * np.arange(split)).ravel()
        e = (left[:, None] + half) + half * _GL_NODES
        log_w = log_r(e.ravel()).reshape(e.shape)
        bad = np.isnan(log_w)
        if bad.any():
            raise ValueError(f"{label} statistics: log R(E) is NaN at "
                             f"E={e[bad][0]:.6g} eV^2")
        e_r = e * half * _GL_WEIGHTS * np.exp(log_w)
        m1 += float(np.sum(e_r))
        m2 += float(np.sum(e_r * e * e))
    return m1, m2


def _panel_moments(label: str, log_r: Callable, edges: np.ndarray):
    """(m1, m2) by 20-node Gauss-Legendre on panels, halved to convergence.

    Pass k cuts every starting panel (edges) into 2^k equal panels and
    evaluates log R on all their nodes.  Returns the first estimate that
    agrees with the one before it to _MOMENT_RTOL in both moments, or to
    _FLOOR_RTOL once that agreement has stopped improving; an estimate
    with a zero moment (a peak every node missed) is never returned.
    Raises ValueError naming the state and E if log R is NaN at a node, and
    NonNormalizable if the moments are infinite or still move after
    _MAX_HALVINGS halvings.
    """
    previous = change = None
    for halvings in range(_MAX_HALVINGS + 1):
        estimate = _gauss_pass(label, log_r, edges, 2 ** halvings)
        if not all(map(math.isfinite, estimate)):
            raise NonNormalizable(f"{label} statistics: moments are not "
                                  f"finite: {estimate}")
        last, change = change, None
        if previous is not None and min(estimate) > 0.0:
            change = max(abs(m - p) / m for m, p in zip(estimate, previous))
            if change <= _MOMENT_RTOL or (last is not None
                                          and last <= change <= _FLOOR_RTOL):
                return estimate
        previous = estimate
    raise NonNormalizable(
        f"{label} statistics: moments not converged after {_MAX_HALVINGS} "
        f"halvings: {estimate}")


def _table_moments(label: str, e_nodes: np.ndarray,
                   log_r_nodes: np.ndarray):
    """(m1, m2) of a log-linear table by the panel rule of _panel_moments.

    The panels start at the table's nodes.  A segment across which log R
    changes by D starts as 1 + floor(D / 25) equal panels, which keeps
    the exponential of the interpolant within the 20-node rule's full
    accuracy on every panel.
    """
    pieces = 1 + (np.abs(np.diff(log_r_nodes)) // 25.0).astype(int)
    # every panel's segment and its index k among that segment's pieces
    seg = np.repeat(np.arange(pieces.size), pieces)
    k = np.arange(seg.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    edges = np.append(e_nodes[seg] + (e_nodes[seg + 1] - e_nodes[seg])
                      * (k / pieces[seg]), e_nodes[-1])
    return _panel_moments(
        label, lambda e: np.interp(e, e_nodes, log_r_nodes), edges)


def moments(stats: PhaseAveragedStatistics):
    """Moment invariants (m1, m2) = (int E R dE, int E^3 R dE).

    Atomic peaks are analytic: (1, A^2).  Every smooth state goes through
    one rule (_panel_moments): tabulated states start from their nodes,
    analytic ones from 64 equal panels on [0, support_max].  Integrating
    E R and E^3 R in E keeps the integrable 1/E endpoint of BSV-like
    densities out of the integrand.  Raises ValueError if log R is NaN
    at a node and NonNormalizable if the moments do not converge.
    """
    if stats.is_atomic:
        a = stats.peak_amplitude
        return 1.0, a * a
    if stats.table is not None:
        return _table_moments(stats.label, *stats.table)
    return _panel_moments(
        stats.label, stats.log_r,
        np.linspace(0.0, stats.support_max, _START_PANELS + 1))
