"""Emission spectra of an electron driven by an intense quantized light mode.

Physics core.  Computes the per-frequency, per-solid-angle emitted power of
nonlinear Compton scattering where the drive's quantum state enters only
through its phase-averaged field statistics R(E): each harmonic order s
(the number of absorbed drive photons) contributes at a single effective
field amplitude E_s fixed by the scattering kinematics, weighted by R(E_s).

Conventions: natural units, energies in eV.  The drive is a monochromatic
photon mode k = omega (1, 0, 0, 1) propagating along +z with circular
polarization, so it enters only through its frequency omega.  The
electron four-momentum p may point anywhere but must be on shell, as
minkowski.electron_momentum builds it: p.p is taken to be m_e^2, not
formed from the components.  The emitted mode k' is parameterized by
(theta', phi') measured from +z.

Smooth statistics go through the harmonic sum directly
(smooth_spectral_density); coherent-like statistics concentrate R into a
single amplitude, so each harmonic collapses to a delta line in omega'
that is resolved analytically (coherent_peaks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import E_CHARGE, E_SQUARED, ELECTRON_MASS_EV
from .minkowski import EmissionGeometry, FourVector
from .photon_statistics import PhaseAveragedStatistics
from .special_functions import (MAX_ORDER, bessel_j_triple,
                                bessel_j_triples)

DEFAULT_REL_TOL = 1e-10     # truncation: term / accumulated sum
DEFAULT_PATIENCE = 5        # consecutive below-tolerance orders required
DEFAULT_S_MAX = MAX_ORDER - 1   # hard order cap: J_{s+1} stays in contract

# The engine's order blocks (see spectral_density_points): up to
# ORDER_BLOCK orders share one Bessel sweep, and so its per-step
# overhead, within BLOCK_ELEMENTS (order, point) entries.
ORDER_BLOCK = 32
BLOCK_ELEMENTS = 4096

# Below this fraction of sqrt(2 u), with u = omega rho the drive's energy
# density, the effective field counts as sitting on the kinematic edge:
# the squared amplitude in the emission bracket vanishes like E_s^2 and
# beats any integrable R(E) divergence, so the term is an exact zero for
# our purposes.
EDGE_FIELD_FRACTION = 1e-8

# p.p of the on-shell electron.  Formed from the components of p, it
# loses digits like gamma^2 eps and reads 0 from gamma ~ 1e8.
_MASS_SQ = ELECTRON_MASS_EV * ELECTRON_MASS_EV


class TruncationNotConverged(RuntimeError):
    """Harmonic sum hit the order cap before meeting the tolerance."""


def with_failure(exc: Exception, theta: float, omega_prime, order: int,
                 e_field=None, last_term_ratio=None) -> Exception:
    """exc carrying the point it failed at as its `failure` attribute,
    the record a run report writes: theta' (deg), omega' (eV), the order
    reached, for a NaN term the effective field E (eV^2), and for a sum
    stopped at the order cap the ratio its stop rule last compared with
    rel_tol (None where there is none)."""
    exc.failure = {"theta_prime_deg": math.degrees(theta),
                   "omega_prime_eV": (None if omega_prime is None
                                      else float(omega_prime)),
                   "order": int(order),
                   "e_field_eV2": None if e_field is None else float(e_field),
                   "last_term_ratio": (None if last_term_ratio is None
                                       else float(last_term_ratio))}
    return exc


@dataclass
class Diagnostics:
    """Truncation counters of a run, added to by each engine pass and
    coherent ladder as it goes, so a pass that raises leaves its counts.

    points counts evaluation points (grid nodes for a ladder).  The order
    fields hold the highest order with a non-zero term and the last order
    evaluated; for a ladder both are its highest kept line.  edge_guarded
    counts terms zeroed on the kinematic edge.  overcomputed counts the
    Bessel elements an engine order block evaluated and did not sum:
    rows below a point's first allowed order and rows after it
    converged.  Rows below the first order sit at xi = 0, which costs
    the sweep nothing, and still count.  Across passes the counts add
    up, and the order fields keep their maximum.
    """

    points: int = 0
    highest_order: int = 0
    orders_scanned: int = 0
    edge_guarded: int = 0
    overcomputed: int = 0

    def add(self, points=0, highest_order=0, orders_scanned=0,
            edge_guarded=0, overcomputed=0) -> None:
        self.points += points
        self.highest_order = max(self.highest_order, highest_order)
        self.orders_scanned = max(self.orders_scanned, orders_scanned)
        self.edge_guarded += edge_guarded
        self.overcomputed += overcomputed


class PeakEntry(NamedTuple):
    """One coherent-drive emission line: order, position, integrated power.

    weight is the emitted power per steradian integrated across the line
    (the omega'-delta resolved analytically).  A tuple, so a ladder's
    entries read as one (lines, 3) array.
    """

    order: int
    omega_prime: float        # eV
    weight: float             # eV^2 per steradian


def _light_cone_dot(p: FourVector, nx, ny, nz):
    """p.n = p^t - p.n_vec for n = (1, n_vec), n_vec a unit vector.

    The plain difference cancels when p runs along n_vec; there the
    on-shell identity (p^t)^2 - (p.n_vec)^2 = m^2 + |p x n_vec|^2 gives
    it without cancellation.  Scalar or equal-shape array components.
    """
    pn = p.x * nx + p.y * ny + p.z * nz
    cross_sq = ((p.y * nz - p.z * ny) ** 2 + (p.z * nx - p.x * nz) ** 2
                + (p.x * ny - p.y * nx) ** 2)
    # |p.n_vec| keeps the branch not taken free of a division by zero
    return np.where(pn > 0.0, (_MASS_SQ + cross_sq) / (p.t + np.abs(pn)),
                    p.t - p.x * nx - p.y * ny - p.z * nz)


def _drive_dot(p: FourVector, omega: float) -> float:
    """k.p of the drive k = omega (1, 0, 0, 1); omega must be a positive
    finite number."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"drive frequency must be a positive finite "
                         f"number, got {omega}")
    return omega * float(_light_cone_dot(p, 0.0, 0.0, 1.0))


def _direction_invariants(p: FourVector, omega: float, theta, phi):
    """Direction invariants kappa = k.n' and pi' = p.n', and the
    transverse components (n_x, n_y), of n' = (1, sin t cos p,
    sin t sin p, cos t), for scalar or equal-shape array angles.

    kappa = omega (1 - cos t) cancels toward t = 0, where an electron
    riding with the drive radiates; there it is taken as 2 omega
    sin^2(t/2) instead."""
    sin_th = np.sin(theta)
    nx = sin_th * np.cos(phi)
    ny = sin_th * np.sin(phi)
    nz = np.cos(theta)
    kappa = np.where(nz > 0.0, 2.0 * omega * np.sin(0.5 * theta) ** 2,
                     omega - omega * nz)
    piprime = _light_cone_dot(p, nx, ny, nz)
    return kappa, piprime, nx, ny


def _point_factors(p: FourVector, kp: float, kappa, nx, ny, omega_prime,
                   kpprime):
    """Order-independent factors of the amplitude at omega' along a
    direction with invariants (kappa, n_x, n_y), given kp = k.p and
    kpprime = k.p': |d| and X = ((k.p')^2 + (k.p)^2) / (2 m^2 k.k').

    d = p.eps/k.p - p'.eps/k.p' with p'.eps = p.eps - omega' n'.eps; the
    two quotients nearly cancel when p.eps != 0, so d is formed as
    (omega'/k.p') (n'.eps - (p.eps) kappa/k.p), its exact rearrangement
    through k.p - k.p' = omega' kappa.  For the drive polarization
    eps = (0, 1, i, 0)/sqrt(2), a.eps = -(a_x + i a_y)/sqrt(2) for both
    a = n' and a = p, so |d| needs only the transverse components."""
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_d = (np.abs(omega_prime / kpprime)
                 * np.hypot(nx - p.x * kappa / kp, ny - p.y * kappa / kp)
                 / math.sqrt(2.0))
        x_fac = ((kpprime * kpprime + kp * kp)
                 / (2.0 * _MASS_SQ * (omega_prime * kappa)))
    return abs_d, x_fac


def kinematic_max_frequency(s: int, p: FourVector, omega: float,
                            geometry: EmissionGeometry) -> float:
    """Largest emitted frequency (eV) with order-s support in direction k'.

    Both k.k' and p.k' are linear in omega', so the cutoff solves in
    closed form: omega'_max = s (k.p) / (s kappa + pi') with kappa, pi'
    the direction-only invariants k.n' and p.n'.
    """
    if s < 1:
        raise ValueError(f"harmonic order must be >= 1, got {s}")
    kappa, piprime, _, _ = _direction_invariants(p, omega, geometry.theta,
                                                 geometry.phi)
    return float(s * _drive_dot(p, omega) / (s * kappa + piprime))


def absolute_frequency_ceiling(p: FourVector, omega: float,
                               geometry: EmissionGeometry) -> float:
    """s -> infinity accumulation point of the per-order cutoffs."""
    kp = _drive_dot(p, omega)
    kappa, _, _, _ = _direction_invariants(p, omega, geometry.theta,
                                           geometry.phi)
    if kappa <= 0.0:
        return math.inf
    return float(kp / kappa)


def bessel_bracket(s, xi, zeta_x):
    """zeta_x (J_{s-1}^2 + J_{s+1}^2 - 2 J_s^2) - J_s^2 at argument xi.

    s is an int or an order array shaped like xi (a ladder batch).  With
    an int, a 1-D xi is at order s throughout and a 2-D xi is an engine
    order block, row b at order s + b (bessel_j_triple).  One formula
    serves every argument:
    the triple keeps its relative digits down to xi = 0, and at small xi
    the sideband difference is led by J_{s-1}^2, which outweighs J_s^2 by
    (2s/xi)^2, so it does not cancel there.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    # an int order goes through the name the bench tracer wraps
    jm, jc, jp = (bessel_j_triple(s, xi) if np.ndim(s) == 0
                  else bessel_j_triples(s, xi))
    return zeta_x * (jm * jm + jp * jp - 2.0 * jc * jc) - jc * jc


def spectral_density_points(stats: PhaseAveragedStatistics, p: FourVector,
                            omega: float, theta, phi, omega_prime, *,
                            rel_tol: float = DEFAULT_REL_TOL,
                            s_max: int = DEFAULT_S_MAX,
                            diagnostics: Diagnostics | None = None
                            ) -> np.ndarray:
    """Emitted power per unit omega' per steradian at flattened points.

    The workhorse behind smooth_spectral_density and the pipeline's
    angular scans: theta, phi, omega_prime are equal-length 1-D arrays,
    each entry one (direction, frequency) evaluation point.  All points
    share one pass over the harmonic order, so the expensive Bessel
    evaluations are vectorized across whatever points are still active.

    The pass takes the orders in blocks of B = min(ORDER_BLOCK,
    BLOCK_ELEMENTS // n), n the points live within ORDER_BLOCK orders,
    ending at s_max at the latest; a block holds the points live by its
    last order.  The effective field, the Bessel argument and the
    sideband factor are closed form in s, so a block is one (B, points)
    array expression, one bessel_bracket sweep and one log R call; a
    pass of more than BLOCK_ELEMENTS / 2 points takes one order at a
    time.  Every entry that is not live gets a zero term (log term -inf,
    sign 0), whatever log R is there: rows before a point's first
    allowed order, fields under the edge guard and, once a point
    converges, its later rows in the block.  The rows are then summed
    in order, exactly as one order at a time would sum them, each over
    a prefix of the columns with no mask.  Rows before a point's first
    order and after it converged are counted as overcomputed.

    The state is one table with a column per live point, sorted once by
    first allowed order; the joined, unconverged points are its leading
    columns.  A block's joiners are the next slice of the sorted rest,
    so the columns a row sums are a prefix, and points that converged
    in a block leave at its end.  Every Bessel and log R call sees the
    same elements as a pass in point order, and each step is
    elementwise, so the result does not depend on the order.

    Per point, the sum starts at the lowest kinematically allowed order
    and stops once DEFAULT_PATIENCE consecutive orders contribute less
    than rel_tol of the running sum (terms are accumulated in log space
    with a running max-shift, so far-tail orders underflow harmlessly);
    the row loop is the one place a point stops.  Raises ValueError for
    a NaN or infinite theta, phi or omega' before any work; TruncationNotConverged if
    a point is still live at s_max, or starts above it (before any
    order); ValueError if a summed term is NaN, as statistics whose log
    R(E) is NaN make it.  The last two name the lowest-index failing
    point and carry it as `failure` (see with_failure).
    Counters go into `diagnostics` order by order, so they survive a raise.
    """
    if stats.is_atomic:
        raise TypeError("atomic-peak statistics produce delta lines; "
                        "use coherent_peaks")

    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    wp = np.asarray(omega_prime, dtype=float)
    if not (th.shape == ph.shape == wp.shape and th.ndim == 1):
        raise ValueError("theta, phi, omega_prime must be equal-length "
                         "1-D arrays")
    for name, v in (("theta", th), ("phi", ph), ("omega_prime", wp)):
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite {name}: {v[~np.isfinite(v)][0]}")
    if np.any(wp <= 0.0):
        raise ValueError("omega_prime must be > 0")
    n_pts = th.size
    diagnostics = diagnostics or Diagnostics()
    diagnostics.add(points=n_pts)

    kp = _drive_dot(p, omega)
    # the direction invariants once per run of equal directions
    new_dir = np.ones(n_pts, dtype=bool)
    new_dir[1:] = (th[1:] != th[:-1]) | (ph[1:] != ph[:-1])
    heads = np.flatnonzero(new_dir)
    runs = np.diff(np.append(heads, n_pts))
    kappa, piprime, nx, ny = (
        np.repeat(v, runs)
        for v in _direction_invariants(p, omega, th[heads], ph[heads]))
    kkp = wp * kappa
    # as accurate as the given omega' allows: near the ceiling k.p/kappa
    # the difference only exposes the rounding of omega'
    kpprime = kp - kkp
    abs_d, x_fac = _point_factors(p, kp, kappa, nx, ny, wp, kpprime)
    alive = (kappa > 0.0) & (kpprime > 0.0)

    out = np.zeros(n_pts)
    if not alive.any():
        return out

    with np.errstate(divide="ignore", invalid="ignore"):
        prefactor = (omega * omega * wp * _MASS_SQ * kp
                     / (4.0 * math.pi ** 2 * p.t * kappa))
        b_lin = wp * piprime              # theta argument: s*(k.p') - b_lin
        s_min = np.where(alive, np.floor(b_lin / kpprime) + 1.0, np.inf)
    s_min = np.where(alive & (s_min < 1.0), 1.0, s_min)

    def capped(pts, why, ratio=None):
        i = int(pts.min())
        return with_failure(TruncationNotConverged(
            f"{pts.size} of {n_pts} points {why} s_max={s_max}; first at "
            f"theta'={math.degrees(th[i]):.6g} deg, omega'={wp[i]:.6g} eV"),
            th[i], wp[i], s_max, last_term_ratio=ratio)

    late = np.flatnonzero(alive & (s_min > s_max))
    if late.size:
        raise capped(late, "start above the order cap")

    edge_field = EDGE_FIELD_FRACTION * math.sqrt(2.0 * stats.energy_density)
    support_max = stats.support_max

    # one column per live point, by first order (ties in point order):
    # the constants, the point's index, then acc (the sum in units of
    # exp(shift)), shift (the running log-magnitude reference) and the
    # streak of negligible terms.  The joined, unconverged points are
    # its first n columns; those from column `joined` on have not joined.
    live_pts = np.flatnonzero(alive)
    live_pts = live_pts[np.argsort(s_min[live_pts], kind="stable")]
    starts = s_min[live_pts]
    n_live = live_pts.size
    table = np.vstack([v[live_pts] for v in (kpprime, b_lin, kkp, abs_d,
                                             x_fac, s_min)]
                      + [live_pts, np.zeros(n_live), np.full(n_live, -np.inf),
                         np.zeros(n_live)])
    n = joined = 0

    s = int(starts[0])
    while s <= s_max:
        width = n + int(np.searchsorted(starts, s + ORDER_BLOCK)) - joined
        # a block of orders s ... s + B - 1 over the points that join by
        # its end; B * points stays within BLOCK_ELEMENTS unless B = 1
        n_rows = min(ORDER_BLOCK, max(1, BLOCK_ELEMENTS // max(width, 1)),
                     s_max - s + 1)
        stop = int(np.searchsorted(starts, s + n_rows))
        if n + stop == joined:
            # no point is summing or joins by the block's end
            if joined == n_live:
                break
            s = int(starts[joined])       # skip orders nobody needs
            continue
        orders = np.arange(s, s + n_rows)
        # the joiners follow the old points in order of s_min, so the
        # columns active in a row are a prefix
        ends = n + np.searchsorted(starts[joined:stop], orders, side="right")
        if n < joined:
            table[:, n:n + stop - joined] = table[:, joined:stop]
        n += stop - joined
        joined = stop
        kpp, b, kk, ad, xf, sm, index, acc, shift, streak = table[:, :n]
        orders = orders[:, None]

        # closed form in s, so every row of the block is one expression;
        # theta vanishes at the order's cutoff, where the difference is
        # as accurate as the given omega' and the term goes to the edge
        # guard
        theta_arg = np.maximum(orders * kpp - b, 0.0)
        q = np.sqrt(kp * theta_arg / kk)
        e_field = (2.0 * omega / E_CHARGE) * q
        xi = 2.0 * q * ad
        zeta_x = theta_arg / kpp * xf

        # one Bessel sweep and one log R call over the whole block.  An
        # entry that is not live, a row before its point's first order
        # (where xi is already 0; there are none when every point joined
        # by the first row) or a field under the edge guard, gets a zero
        # bracket, so a zero term: log term -inf and sign 0, whatever log
        # R is there
        on_edge = e_field < edge_field
        bracket = bessel_bracket(s, xi, zeta_x)
        np.copyto(bracket, 0.0, where=on_edge if ends[0] == n
                  else on_edge | (orders < sm))
        sign = np.sign(bracket)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = stats.log_r(e_field.ravel()).reshape(e_field.shape)
            log_term = np.where(bracket != 0.0,
                                np.log(np.abs(bracket)) + log_w, -np.inf)

            # the rows in order, each summed as one order at a time would
            # be: a row sums its first m columns, of which `settled`
            # converged earlier in the block and see only zero terms
            settled = 0
            for row in range(n_rows):
                order = s + row
                m = int(ends[row])
                if m == settled:
                    # evaluated in vain: points before their s_min or
                    # after they converged
                    diagnostics.add(overcomputed=n)
                    continue
                lt = log_term[row, :m]
                e_now = e_field[row, :m]
                zero_term = ~np.isfinite(lt)
                any_zero = bool(zero_term.any())
                if any_zero:
                    bad = np.isnan(lt)
                    if bad.any():
                        cols = np.flatnonzero(bad)
                        c = cols[np.argmin(index[cols])]
                        i = int(index[c])
                        raise with_failure(ValueError(
                            f"emission term is NaN at order {order}, theta'="
                            f"{math.degrees(th[i]):.6g} deg, omega'="
                            f"{wp[i]:.6g} eV, E={e_now[c]:.6g} eV^2 (log "
                            f"R(E) or the Bessel bracket is NaN)"),
                            th[i], wp[i], order, e_now[c])
                diagnostics.add(
                    highest_order=(0 if any_zero and zero_term.all()
                                   else order),
                    orders_scanned=order,
                    # an edge term is a zero term
                    edge_guarded=(int(np.count_nonzero(on_edge[row, :m]))
                                  if any_zero else 0),
                    overcomputed=n - m + settled)

                # max-shift accumulation, in place: with d = lt - shift,
                # exp(-|d|) is exp(shift - lt) for a growing term, which
                # becomes the new shift, and exp(lt - shift) for any
                # other; a zero term adds nothing.  Then the convergence
                # bookkeeping: a term is negligible if it is below rel_tol
                # of the running sum (over the new shift a growing term is
                # 1); an exact zero with no sum yet only counts once the
                # effective field has left the statistics' support
                # (protects states whose R starts above E = 0).
                a, sh, st = acc[:m], shift[:m], streak[:m]
                sg = sign[row, :m]
                e = lt - sh                   # NaN where both are -inf
                grow = e > 0.0
                np.abs(e, out=e)
                np.negative(e, out=e)
                np.exp(e, out=e)
                if any_zero:
                    e[zero_term] = 0.0
                grown = a * e
                grown += sg
                np.add(a, sg * e, out=a, where=~grow)
                np.copyto(a, grown, where=grow)
                np.copyto(sh, lt, where=grow)
                np.copyto(e, 1.0, where=grow)
                small = e / np.abs(a) < rel_tol
                if any_zero:
                    small = np.where(a == 0.0,
                                     zero_term & (e_now > support_max),
                                     small | zero_term)
                st += 1.0
                np.copyto(st, 0.0, where=~small)
                # a point converges when its streak reaches the patience,
                # and its later rows in the block get zero terms (off the
                # edge count too).  Those stay negligible, and E_s grows
                # with s, so a point with no sum stays beyond support_max:
                # its streak only grows and equals the patience exactly
                # once
                done = st == DEFAULT_PATIENCE
                if done.any():
                    settled += int(np.count_nonzero(done))
                    np.copyto(log_term[row + 1:, :m], -np.inf, where=done)
                    np.copyto(sign[row + 1:, :m], 0.0, where=done)
                    np.copyto(on_edge[row + 1:, :m], False, where=done)
        s += n_rows
        if s > s_max and settled < n:
            # points still live after the row at s_max (every point has
            # joined by then): the first one's last term over its sum,
            # the ratio its stop rule compared with rel_tol, comes from
            # that row and the running sum
            left = np.flatnonzero(streak < DEFAULT_PATIENCE)
            c = left[np.argmin(index[left])]
            ratio = (math.exp(log_term[-1, c] - shift[c]) / abs(acc[c])
                     if acc[c] != 0.0 else None)
            raise capped(index[left],
                         f"still above rel_tol={rel_tol} at order cap", ratio)

        # the block's converged points leave, their density written out;
        # kept columns from the end fill their places
        if settled:
            gone = streak >= DEFAULT_PATIENCE
            i = index[gone].astype(np.intp)
            out[i] = prefactor[i] * acc[gone] * np.exp(shift[gone])
            n -= i.size
            holes = np.flatnonzero(gone[:n])
            table[:, holes] = table[:, n + np.flatnonzero(~gone[n:])]

    return out


def smooth_spectral_density(stats: PhaseAveragedStatistics, p: FourVector,
                            omega: float, geometry: EmissionGeometry,
                            omega_prime, **kwargs):
    """Master spectral density at fixed direction, vectorized over omega'.

    Power per unit emitted frequency per steradian (eV per eV per sr in
    natural units).  Scalar omega' in, scalar out.
    """
    scalar = np.isscalar(omega_prime)
    wp = np.atleast_1d(np.asarray(omega_prime, dtype=float))
    th = np.full_like(wp, geometry.theta)
    ph = np.full_like(wp, geometry.phi)
    out = spectral_density_points(stats, p, omega, th, ph, wp, **kwargs)
    return float(out[0]) if scalar else out


def coherent_line_positions(stats: PhaseAveragedStatistics, p: FourVector,
                            omega: float, geometry: EmissionGeometry,
                            orders) -> tuple:
    """Closed-form line positions of a coherent-like drive, no Bessel work.

    For each order s the statistics pin the effective field to the single
    amplitude A, and E_s(omega') = A solves in closed form because
    E_s^2 is a ratio of functions linear in omega':

        omega'_s = s (k.p) / (s kappa + pi' + mu),
        mu       = e^2 A^2 kappa / (4 omega^2 k.p),

    with kappa, pi' the direction invariants k.n' and p.n'.  mu is the
    intensity-dependent redshift; as A -> 0 each line moves to its
    kinematic cutoff s (k.p) / (s kappa + pi').  Returns the arrays (s,
    omega'_s, Theta_s) over `orders`, empty when kappa <= 0 (no order has
    support in that direction); Theta_s = s (k.p) mu / (s kappa + pi' +
    mu) is the cutoff combination at the line, free of cancellation.

    No line can fall outside (0, cutoff), so none is filtered: k.p > 0,
    pi' > 0 for a massive electron, and kappa > 0 makes mu > 0, so the
    denominator exceeds the cutoff's, which is positive.  In floating
    point a line meets its cutoff only where mu is lost to rounding
    against s kappa + pi', the free-electron limit it then sits at.
    """
    if not stats.is_atomic:
        raise TypeError("smooth statistics have no delta lines; use "
                        "smooth_spectral_density")
    amp = stats.peak_amplitude
    if amp <= 0.0:
        raise ValueError("peak amplitude must be > 0 (zero drive density "
                         "emits nothing)")
    s = np.asarray(orders, dtype=np.int64)
    if (s < 1).any():
        raise ValueError(f"harmonic order must be >= 1, got {s.min()}")

    kp = _drive_dot(p, omega)
    kappa, piprime, _, _ = _direction_invariants(p, omega, geometry.theta,
                                                 geometry.phi)
    if kappa <= 0.0:
        s = s[:0]
    mu = E_SQUARED * amp * amp * kappa / (4.0 * omega * omega * kp)
    denom = s * kappa + piprime + mu
    return s, s * kp / denom, s * kp * mu / denom


def coherent_peaks(stats: PhaseAveragedStatistics, p: FourVector,
                   omega: float, geometry: EmissionGeometry,
                   s_range) -> tuple:
    """Delta-line spectrum for coherent-like drives, resolved analytically.

    Lines sit at coherent_line_positions.  Each is the engine's order-s
    amplitude at the single field A, with xi = e (A/omega) |d| and
    zeta X = (Theta_s / k.p') X from the same per-point factors.
    Integrating the omega'-delta gives each line's weight without any
    quadrature:

        weight_s = e^2 m^2 omega'_s^3 bracket_s / (8 pi^2 s (k.p) p^t).

    The brackets of all orders come from one bessel_bracket call.
    Returns a tuple of PeakEntry sorted by order.
    """
    orders, positions, thetas = coherent_line_positions(
        stats, p, omega, geometry, s_range)
    kp = _drive_dot(p, omega)
    kappa, piprime, nx, ny = _direction_invariants(p, omega, geometry.theta,
                                                   geometry.phi)
    # k.p' = k.p (pi' + mu) / (s kappa + pi' + mu) = (omega'_s pi' +
    # Theta_s) / s at a line: a sum of positive terms, where k.p - omega'_s
    # kappa cancels near the ceiling
    kpprime = (positions * piprime + thetas) / orders
    abs_d, x_fac = _point_factors(p, kp, kappa, nx, ny, positions, kpprime)
    xi = E_CHARGE * (stats.peak_amplitude / omega) * abs_d
    brackets = bessel_bracket(orders, xi, thetas / kpprime * x_fac)
    weights = (E_SQUARED * _MASS_SQ * positions ** 3 * brackets
               / (8.0 * math.pi ** 2 * orders * kp * p.t))
    return tuple(map(PeakEntry._make, zip(
        orders.tolist(), positions.tolist(), weights.tolist())))
