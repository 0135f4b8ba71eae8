"""Bessel J of integer order, the scaled log of modified Bessel I0 and
the normal cdf.

These are the only special functions the package needs: J_{s-1}, J_s,
J_{s+1} at the harmonic argument xi_s (orders into the thousands at high
intensity), I0 inside one of the photon-statistics limits, and the
normal cdf in the pipeline's exact Gaussian convolution.  J_n is
evaluated in-package, so no platform math library decides its bits,
but numpy picks its exp, log and pow loops by CPU: the bits hold for
one numpy build and dispatch target.  One evaluator, _bessel_rows, takes
one order per element: it owns the contract check and splits elements
into four regimes.  x = 0 sets J_0 = 1 and nothing else.  The ascending
series takes small arguments: rows s and s+1 are polynomials in q =
x^2/4, summed by Horner's rule over one term count per call, fixed
before the loop from two majorants of every element's terms so that the
first dropped term is at most _SERIES_MARGIN of 1 plus the sum of
|terms|, a margin at which more terms changed no bit on the benchmark's
series calls; row s-1 is formed from their scaled sums, and the leads
(x/2)^n / n! from one exponential for row s-1 and a multiplication per
row above.  The rest take Miller's backward recurrence, one sweep per
regime and call, in one of two forms.  Elements with anchor order nu =
s-1 >= 160 and x <= 0.64 nu (the Debye regime; the thermal fig3 scan's
high orders far from their turning points) take a sweep that stops at
the lowest order it captures and scales each triple to J_{s-1} from
Debye's expansion (DLMF 10.19.3).  J_{s-1} is the largest of the three
rows below the turning point, so the sweep supplies only ratios of at
most 1, J_s / J_{s-1} and J_{s+1} / J_{s-1}, underflow reaches the
smaller rows first, and the three rows share one scale, so the
near-cancelling bracket keeps its digits.  Over the region the anchored
rows stay within 2e-13 of mpmath.  All other elements take the full
sweep to order 0 with sum-rule normalization (DLMF 10.74).  A sweep
starts at the latest order any of its elements needs: an element below
its turning point, x < n for its highest order n, needs only as many
orders above n as it takes J's decay at x / n to shrink the start's
contamination to 2^-106, one near or above it the pad of the Airy zone.
It takes a call's elements as maximal runs of one order, as engine blocks
and ladder batches lay them out, and copies each run into its row as one
slice as it passes the run's orders.  A mixed call gathers each regime's
orders from the per-element orders once.  The sweep forms each step in
place and rescales by the exact power of two 2^-600, as dense
multiplies, testing for it only as often as the call's own growth bound
requires: the largest growth a step can have from the call's start order
at its smallest argument fixes how many steps stay clear of overflow,
and an exact rescale gives the same bits whenever it is made.  Two entry
points share it: bessel_j_triples takes an order array shaped like the
argument (a coherent ladder batch in one call), bessel_j_triple one
order for every point of a 1-D argument, or a block of consecutive
orders, one per row of a 2-D argument (an engine pass, whose narrow
order steps then share one sweep).  Regime boundaries were fixed by
cross-validation against an arbitrary-precision oracle and are
constants, not runtime heuristics.  I0 is offered only exponentially
scaled, as log(e^-x I0(x)), the form its one caller must cancel in; from
1e16 on, where its expansion's corrections are below half an ulp, a call
returns the leading term -log(2 pi x)/2 alone, the same bits.  The
normal cdf, ndtr, ports to numpy the Cephes rational approximations that
scipy.special.ndtr evaluates, so the package needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

# Accuracy contract, 1e-12 relative over these orders and arguments:
# enforced by the oracle tests.
MAX_ORDER = 10_000
MAX_ARGUMENT = 1.0e4

# Series regime: x <= max(_SERIES_CAP, 2 sqrt(n)).  Below 2 sqrt(n) the
# alternating series has ratio < 1 from the first term, so no
# cancellation growth; the absolute cap keeps small-order sums short.
_SERIES_CAP = 8.0

# Series stop margin: a call sums terms until a majorant's next term is
# at most this fraction of 1 plus the majorant's sum (_series_terms).
# Horner's rule feeds a dropped term's change through every level, so it
# moves an element's last bit with a chance of about its size in ulps:
# over the 30.2 M series elements of 48 benchmark bank curves, six more
# terms moved 256 elements by an ulp at 1e-20, 3 at 1e-22 and none here.
_SERIES_MARGIN = 1e-23

# Backward recurrence start (_miller_start).  Below its turning point, x
# < n, an element's sweep converges at its own rate: per order up from n
# the minimal solution J_m falls, and the dominant Y_m grows, by at least
# e^arccosh(n / x), so from p orders above n the contamination is at most
# e^(-2 p arccosh(n / x)), and _MILLER_DECAY = 53 ln 2 keeps it at 2^-106,
# a factor of two in the exponent below one ulp (W. Gautschi, SIAM Rev. 9
# (1967); DLMF 3.6).  Near and above the turning point that rate tends to
# 1, and the pad above max(n, x) takes over: its cube-root term tracks
# the Airy-zone width of J_m(x) around m = x.
_MILLER_DECAY = 53.0 * math.log(2.0)
_MILLER_PAD = 40
_MILLER_PAD_SCALE = 15.0

# The decay start's ceiling without an arccosh, whose loop numpy picks by
# CPU: ceil(_MILLER_DECAY / arccosh(r)) <= c exactly when r >= cosh(
# _MILLER_DECAY / c), so a correctly rounded r = n / x is looked up among
# these thresholds, c = 364 down to 1.  Each is raised by 2^-46 relative,
# more than the roundings of _MILLER_DECAY / c (up to 37 * 2^-53 in the
# cosh) and of cosh itself, so an r just short of a threshold never
# passes it: near one, the rule errs to the later start.  The Airy pad is
# at most 363 (at MAX_ORDER), so beyond c = 364 the Airy start applies.
_DECAY_THRESHOLDS = np.array([math.cosh(_MILLER_DECAY / c) * (1.0 + 2.0 ** -46)
                              for c in range(364, 0, -1)])

# Miller rescaling: an element whose unnormalized J passes 2^600 is
# scaled by 2^-600, which is exact, so when it happens changes no bit
# (bar entries that underflow, which flush to zero by contract).  A call
# tests for it only as often as its own growth bound requires.  Every
# Miller element has x > _SERIES_CAP, so one step grows max(|J_m|,
# |J_{m+1}|) by at most g = 2 m_start / x_min + 1, x_min the call's
# smallest argument; the test then runs every L steps, L the largest
# with g^L within _RESCALE_HEADROOM, exactly.  Between two tests no value passes 2^600 g^L <=
# 2^1000, below finfo.max ~ 2^1024, and one rescale brings it back under
# 2^400.  L is 35 at the MAX_ORDER corner and 82-187 on the sweeps of
# the benchmark's fig3 thermal scan curves.
_RESCALE_THRESHOLD = 2.0 ** 600
_RESCALE_FACTOR = 2.0 ** -600
_RESCALE_HEADROOM = 2.0 ** 400

# Debye regime: anchor order nu = s - 1 >= _DEBYE_MIN_ORDER and x <=
# _DEBYE_MAX_RATIO nu, above the series.  _DEBYE_TERMS terms of DLMF
# 10.19.3 give J_nu within 2e-13 of mpmath over the region (u_8 / nu^8
# is still 5e-13 at its corner (160, 0.64)); just outside it the error
# grows to 7e-13 at (160, 0.70) and 3e-12 at (100, 0.64), so the bounds
# stay inside those measured points.
_DEBYE_MIN_ORDER = 160
_DEBYE_MAX_RATIO = 0.64
_DEBYE_TERMS = 9


def _debye_polynomials(terms: int) -> np.ndarray:
    """Q[k, j]: the Debye polynomials as u_k(p) = p^k sum_j Q[k, j] p^2j.

    u_0 = 1 and u_{k+1}(p) = p^2 (1 - p^2) u_k'(p) / 2 + int_0^p (1 - 5
    q^2) u_k(q) dq / 8 (DLMF 10.41.10), run on coefficient lists of p in
    floats; u_k has degree 3k and only the powers p^k, p^(k+2), ...
    """
    q = np.zeros((terms, terms))
    q[0, 0] = 1.0
    u = [1.0]
    for k in range(1, terms):
        new = [0.0] * (len(u) + 3)
        for n in range(1, len(u)):
            new[n + 1] += 0.5 * n * u[n]
            new[n + 3] -= 0.5 * n * u[n]
        for n, c in enumerate(u):
            new[n + 1] += c / (8.0 * (n + 1))
            new[n + 3] -= 5.0 * c / (8.0 * (n + 3))
        u = new
        q[k, :k + 1] = u[k::2]
    return q


_DEBYE_Q = _debye_polynomials(_DEBYE_TERMS)

# log n! for every order a triple can reach, so the series looks its
# leading terms up instead of calling lgamma per element
_LOG_FACTORIAL = np.array([math.lgamma(n + 1.0)
                           for n in range(MAX_ORDER + 1)])


class OutOfContract(ValueError):
    """Input outside the documented (order, argument) accuracy contract."""


def _series_threshold(n: np.ndarray) -> np.ndarray:
    return np.maximum(_SERIES_CAP, 2.0 * np.sqrt(n))


def _series_terms(pair: np.ndarray, q: np.ndarray) -> int:
    """The number of terms K past the leading 1 that the series sums for
    the orders pair (rows s and s+1, one column or one per element) at q
    = x^2 / 4.

    Two majorants bound every element's |term_k| = q^k / (k! (n+1)_k) in
    both rows: q_max^k / (k! (n_min+1)_k), and (max q / (n+1))^k / k!,
    which stays short when small orders sit beside large arguments at
    large orders.  Each dominates in ratio as well: every earlier term
    of an element over its term k is at least the majorant's, so an
    element's first dropped term over 1 plus the sum of its |terms| is
    at most the majorant's.  K is the smaller count at which either
    majorant's next term falls to _SERIES_MARGIN of 1 plus its sum, and
    at least 1, so that Horner's rule starts from a term.  With one order
    column max q / (n+1) is q_max / (n_min+1), without a pass over the
    elements.
    """
    q_max = float(q.max(initial=0.0))
    n_min = float(pair[0].min(initial=np.inf))
    p = q_max / (n_min + 1.0) if pair.shape[1] == 1 else float(
        (q / (pair[0] + 1.0)).max(initial=0.0))
    top_a = top_b = bound_a = bound_b = 1.0
    k = 0
    while True:
        k += 1
        top_a *= q_max / (k * (n_min + k))
        top_b *= p / k
        if top_a <= _SERIES_MARGIN * bound_a or (
                top_b <= _SERIES_MARGIN * bound_b):
            return max(k - 1, 1)
        bound_a += top_a
        bound_b += top_b


def _jn_series(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascending power series for a triple's three rows, x > 0.

    n holds the orders s-1, s, s+1 as rows, one column per element of x
    or a single column shared by all.  Valid for each x below
    _series_threshold of its lowest order.  Only rows s and s+1 are
    summed, as the polynomials T_n = sum_k (-q)^k / (k! (n+1)_k) in q =
    x^2 / 4 by Horner's rule over the call's term count _series_terms,
    from reciprocals 1 / (k (n+k)) tabulated once, (K, 2, 1) for one
    order column or (K, 2, N) for an order per element.  Every element's
    first dropped term is at most _SERIES_MARGIN of 1 plus its sum of
    |terms|, a margin at which further terms changed no bit of any
    benchmark element, so an element's value does not depend on the
    call around it.  Row s-1 comes from the two sums through T_{s-1} =
    T_s - x^2 / (4 s (s+1)) T_{s+1}; unlike (2s/x) J_s - J_{s+1}, that
    cannot lose J_{s-1} to an underflowed J_s.  The leads (x/2)^n / n!
    take one exponential, for row s-1 (flushed to 0 below e^-745), and
    rows s and s+1 one multiplication by x / 2n each.
    """
    q = x * x / 4.0
    neg_q = -q
    pair = n[1:]
    k = np.arange(_series_terms(pair, q), 0, -1.0)[:, None, None]
    # 1 / (k (n+k)), formed in place: one table's memory at most
    recips = pair + k
    recips *= k
    np.divide(1.0, recips, out=recips)
    rows = np.empty((3, x.size))
    total = rows[1:]
    # from the innermost level 1 - q / (K (n+K)) outwards, in place: on
    # wide calls, fresh (rows x points) temporaries every step cost more
    # than the arithmetic
    np.multiply(recips[0], neg_q, out=total)
    total += 1.0
    for recip in recips[1:]:
        total *= recip
        total *= neg_q
        total += 1.0
    np.multiply(neg_q / (n[1] * n[2]), total[1], out=rows[0])
    rows[0] += total[0]
    half = x / 2.0
    log_lead = n[0] * np.log(half) - _LOG_FACTORIAL[n[0].astype(np.intp)]
    lead = np.where(log_lead < -745.0, 0.0, np.exp(log_lead))
    rows[0] *= lead
    for row in (1, 2):
        lead *= half / n[row]
        rows[row] *= lead
    return rows


def _miller_start(n: np.ndarray, x: np.ndarray) -> int:
    """The (even) order a backward sweep starts from: the latest start any
    element needs, n the highest row s + 1 of each element of x, or one
    for all.

    An element needs the earlier of its decay start, n + ceil(_MILLER_DECAY
    / arccosh(n / x)) for x < n, and its Airy start, max(n, x) +
    _MILLER_PAD + floor(_MILLER_PAD_SCALE max(n, x)^(1/3)), so no call
    starts later than at the Airy start of its largest order and argument.
    """
    base = np.maximum(n, np.ceil(x))
    scale = _MILLER_PAD_SCALE
    pad = np.floor(scale * np.cbrt(base))
    # numpy picks its cube-root loop by CPU, and a loop may round a
    # perfect cube's root down, so exact products settle the floor:
    # (pad + 1)^3 <= scale^3 base
    up = pad + 1.0
    pad += up * up * up <= scale * scale * scale * base
    airy = base + _MILLER_PAD + pad
    decay = n + _decay_pad(n / x)
    m_start = int(np.minimum(decay, airy).max())
    return m_start + m_start % 2


def _decay_pad(r: np.ndarray) -> np.ndarray:
    """ceil(_MILLER_DECAY / arccosh(r)) from _DECAY_THRESHOLDS, or inf
    where that is above 364 (r <= 1 included)."""
    passed = np.searchsorted(_DECAY_THRESHOLDS, r, side="right")
    return np.where(passed > 0, len(_DECAY_THRESHOLDS) + 1.0 - passed, np.inf)


def _debye_j(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu(x) from _DEBYE_TERMS terms of Debye's expansion, inside the
    Debye regime (nu >= _DEBYE_MIN_ORDER, 0 < x <= _DEBYE_MAX_RATIO nu).

    With z = x / nu = sech a, t = tanh a = sqrt((1 - z)(1 + z)) and p = 1
    / t, J_nu(x) = e^(nu (t - a)) / sqrt(2 pi nu t) sum_k u_k(p) / nu^k
    (DLMF 10.19.3).  The exponent is formed as nu (t - log1p(t) + log z),
    which is t - a without the cancellation of an arctanh, the prefactor
    enters it as a log, and e^-745 and below flush to zero as the contract
    allows.  The sum of u_k(p) / nu^k = (p / nu)^k Q_k(p^2) is two Horner
    evaluations: every Q_k at p^2 at once, one power of p^2 per step,
    then the polynomial in p / nu whose coefficients they are.
    """
    z = x / nu
    t = np.sqrt((1.0 - z) * (1.0 + z))
    p = 1.0 / t
    log_j = nu * (t - np.log1p(t) + np.log(z)) - 0.5 * np.log(
        2.0 * math.pi * nu * t)
    y, r = p * p, p / nu
    q = np.zeros((_DEBYE_TERMS, p.size))      # Q_k(p^2), one row per k
    for j in range(_DEBYE_TERMS - 1, -1, -1):
        # Q_k has degree k, so only rows k >= j have a p^2j term
        q[j:] *= y
        q[j:] += _DEBYE_Q[j:, j, None]
    total = q[-1]
    for q_k in q[-2::-1]:
        total = total * r + q_k
    return np.exp(log_j) * total


def _rescale_interval(m_start: int, x_min: float) -> int:
    """Steps between two rescale tests of a sweep from m_start whose
    smallest argument is x_min: the most steps L with g^L within
    _RESCALE_HEADROOM, g = 2 m_start / x_min + 1 the largest growth of
    one step.

    L is decided in integers, so no libm rounding can move it: with g =
    num / 2^k, g^L <= 2^400 is num^L <= 2^(400 + k L).  The logarithm
    only gives the first guess, from which L steps to the answer."""
    g = 2.0 * m_start / x_min + 1.0
    num, den = g.as_integer_ratio()
    k = den.bit_length() - 1
    cap = int(_RESCALE_HEADROOM)
    steps = int(math.log(_RESCALE_HEADROOM, g))
    power = num ** steps
    while power > cap << k * steps:
        steps -= 1
        power //= num
    while power * num <= cap << k * (steps + 1):
        steps += 1
        power *= num
    return steps


def _miller_rows(s: np.ndarray, x: np.ndarray,
                 anchor: np.ndarray | None = None) -> np.ndarray:
    """Backward recurrence, one sweep, normalized by the sum rule or by
    an anchor.

    Returns J_{s-1}, J_s, J_{s+1} at x as a (3, x.size) array, s one
    order per element of x or a single order for all.  The sweep starts
    at _miller_start, the latest start any of its elements needs, and
    captures each entry as m passes its order.  The elements are taken as
    maximal runs of one order (a shared order is one run, an engine block
    or a ladder batch ascending runs), so a capture copies a run into its
    row as one contiguous slice; any order layout works, unsorted orders
    just form more runs.  All x must exceed _SERIES_CAP; the caller
    routes smaller arguments to the series.  Every _rescale_interval
    steps, elements with J_m or J_{m+1} above _RESCALE_THRESHOLD are
    scaled by the exact power of two _RESCALE_FACTOR, as dense multiplies
    by a factor that is 1 for the others; the growth bound beside those
    constants keeps the steps between two tests finite.

    Without an anchor the sweep runs to order 0 and each element is
    normalized by its own sum, J_0 + 2 sum_k J_2k (DLMF 10.74).  With
    anchor, the true J_{s-1} per element (the Debye regime's), it stops
    at the lowest order it captures and keeps no sum: each triple is
    (rows / rows[0]) * anchor, the ratios formed before the product so
    that a tiny anchor does not underflow against large raw rows.  An
    element leaves the recurrence once its triple is captured, so later
    rescales of the sweep cannot flush its rows to zero.
    """
    m_start = _miller_start(s + 1.0, x)
    every = _rescale_interval(m_start, float(x.min()))
    sum_rule = anchor is None
    lowest = 0 if sum_rule else int(s.min()) - 1

    # J order -> (row, run) of the entries it fills: row k of a run of
    # order r holds J_{r-1+k}
    s = np.broadcast_to(s, x.shape)
    bounds = [0, *(np.flatnonzero(s[1:] != s[:-1]) + 1).tolist(), x.size]
    capture = {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        r = int(s[a])
        for k in range(3):
            capture.setdefault(r - 1 + k, []).append((k, slice(a, b)))

    inv_x = 1.0 / x
    j_hi = np.zeros_like(x)                 # unnormalized J at m+1
    j_lo = np.full_like(x, 1e-30)           # unnormalized J at m
    t = np.empty_like(x)
    # sum of J_{2k}, k >= 1: 2 even + J_0 is the sum rule's norm, and
    # doubling once is exactly doubling every term
    even = np.zeros_like(x)
    out = np.zeros((3, x.size))
    for m in range(m_start, lowest, -1):
        # J_{m-1} = (2m / x) J_m - J_{m+1}, formed in place
        np.multiply(inv_x, 2.0 * m, out=t)
        t *= j_lo
        t -= j_hi
        j_hi, j_lo, t = j_lo, t, j_hi
        if m % every == 0:
            # t is free until the next step
            np.maximum(np.abs(j_lo, out=t), np.abs(j_hi), out=t)
            big = t > _RESCALE_THRESHOLD
            if big.any():
                scale = np.where(big, _RESCALE_FACTOR, 1.0)
                j_lo *= scale
                j_hi *= scale
                even *= scale
                out *= scale
        idx = m - 1
        if idx in capture:
            for row, run in capture[idx]:
                out[row, run] = j_lo[run]
                if row == 0 and not sum_rule:
                    j_lo[run] = j_hi[run] = 0.0
        if sum_rule and idx and idx % 2 == 0:
            even += j_lo
    if sum_rule:
        return out / (2.0 * even + j_lo)
    return out / out[0] * anchor


def _bessel_rows(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_{s-1}, J_s, J_{s+1} at 1-D x: a (3, x.size) array.

    s holds one order per element of x, or a single order for all of
    them; the rows then stay one column, so the series forms its
    reciprocals per row rather than per point.  The one regime dispatch of
    the module, made per element: x = 0 is exact, x up to
    _series_threshold(s - 1) takes the series, and the rest Miller's
    recurrence, split in two sweeps.  Elements of the Debye regime,
    s - 1 >= _DEBYE_MIN_ORDER and x <= _DEBYE_MAX_RATIO (s - 1), take
    the sweep anchored to _debye_j at J_{s-1}, which stops at the call's
    lowest order: below it the recurrence would only carry the sum rule
    down.  The others take the full sweep.  A call whose points all take
    the series returns its array directly; with one order, that is found
    from the smallest and largest argument, which the contract check
    reads anyway, without element masks.  Any other call gathers each
    regime's orders from s once and scatters its rows back; x = 0 needs
    no rows of its own, as only J_0 = 1 is non-zero there.
    """
    bad = (s != np.round(s)) | (s < 1) | (s >= MAX_ORDER)   # NaN: first
    if bad.any():
        raise OutOfContract(f"triple orders must be integers in [1, "
                            f"{MAX_ORDER - 1}], got {s[bad][0]}")
    lo, hi = x.min(initial=np.inf), x.max(initial=0.0)
    if not (lo >= 0.0 and hi <= MAX_ARGUMENT):         # NaN fails both
        raise OutOfContract(f"argument must lie in [0, {MAX_ARGUMENT:g}]")

    # integer orders held as floats: exact, and the series then forms
    # its reciprocals 1 / (k (n + k)) without casting
    triple = np.arange(-1.0, 2.0)[:, None]
    if s.size == 1 and lo > 0.0 and hi <= _series_threshold(s[0] - 1.0):
        return _jn_series(s + triple, x)
    zero = x == 0.0
    small = ~zero & (x <= _series_threshold(s - 1.0))
    if small.all():                      # orders per element: by masks
        return _jn_series(s + triple, x)
    sweep = ~zero & ~small
    debye = sweep & (s > _DEBYE_MIN_ORDER) & (
        x <= _DEBYE_MAX_RATIO * (s - 1.0))
    rest = sweep & ~debye

    def orders(mask):
        return s if s.size == 1 else s[mask]

    out = np.zeros((3, x.size))
    out[0, zero & (s == 1.0)] = 1.0
    if small.any():
        out[:, small] = _jn_series(orders(small) + triple, x[small])
    if debye.any():
        s_d, x_d = orders(debye), x[debye]
        out[:, debye] = _miller_rows(s_d, x_d, _debye_j(s_d - 1.0, x_d))
    if rest.any():
        out[:, rest] = _miller_rows(orders(rest), x[rest])
    return out


def bessel_j_triples(orders, x):
    """(J_{s-1}, J_s, J_{s+1}) per element, each at its own order s >= 1.

    orders is an array shaped like x, or one order for every point.
    Evaluating all three from one backward-recurrence pass keeps their
    relative normalization consistent, which matters for the
    near-cancelling bracket; the elements of a call share one sweep.
    Returns three arrays of the broadcast shape; accuracy per the module
    contract, and values below the double-precision floor flush to zero.
    """
    s = np.asarray(orders, dtype=float)
    xa = np.asarray(x, dtype=float)
    if s.size != 1:
        s, xa = np.broadcast_arrays(s, xa)
    out = _bessel_rows(s.ravel(), xa.ravel())
    return tuple(out.reshape((3,) + xa.shape))


def bessel_j_triple(s: int, x):
    """bessel_j_triples from order s on, for a scalar or array argument.

    A scalar or 1-D x takes order s at every point: the orders stay one
    column.  A 2-D x of shape (B, N) is a block of consecutive orders,
    row b at order s + b, evaluated in one sweep with an order per
    element; a single row is the 1-D case.
    """
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 2 and len(xa) > 1:
        return bessel_j_triples(s + np.arange(len(xa))[:, None], xa)
    return bessel_j_triples(s, xa)


_I0_SERIES_MAX = 30.0
# above this the expansion's log1p(corrections), about 1/(8x), is below
# half an ulp of -log(2 pi x)/2 (tested), so adding it changes no bit
_I0_TAIL_CUT = 1e16


def _i0_series_log(xs: np.ndarray) -> np.ndarray:
    """log I0 by power series; accumulates I0 - 1 so tiny x stays exact."""
    q = xs * xs / 4.0
    term = np.ones_like(xs)
    excess = np.zeros_like(xs)
    for k in range(1, 120):
        term = term * q / (k * k)
        excess += term
        if np.all(term <= 1e-18 * (1.0 + excess)):
            break
    return np.log1p(excess)


def _i0_asymptotic_tail(xl: np.ndarray) -> np.ndarray:
    """log(e^-x I0(x)) from the large-argument expansion."""
    corr = np.zeros_like(xl)
    term = np.ones_like(xl)
    for k in range(1, 9):
        term = term * (2 * k - 1) ** 2 / (8.0 * k * xl)
        corr += term
    return -0.5 * np.log(2.0 * math.pi * xl) + np.log1p(corr)


def bessel_i0_log_scaled(x):
    """log(e^-x I0(x)) for x >= 0, overflow-free to arbitrarily large x.

    Power series up to x = 30 (I0(30) still fits a double), then the
    large-argument expansion -log(2 pi x)/2 + log1p(sum of 1/x
    corrections).  From _I0_TAIL_CUT on, the corrections are below half
    an ulp of the leading term, so a call whose arguments all lie there
    returns -log(2 pi x)/2 alone, the same bits.  The leading
    exponential is removed analytically, so callers that must cancel a
    large e^-x factor never form the two big numbers that would
    otherwise eat their precision.  NaN gives NaN.
    """
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if xa.size and xa.min() >= _I0_TAIL_CUT:          # NaN fails this
        out = -0.5 * np.log(2.0 * math.pi * xa)
        return float(out[0]) if scalar else out
    if np.any(xa < 0.0):
        raise ValueError("argument must be >= 0")
    out = np.zeros_like(xa)
    out[np.isnan(xa)] = np.nan

    small = (xa > 0.0) & (xa <= _I0_SERIES_MAX)
    if small.any():
        xs = xa[small]
        out[small] = _i0_series_log(xs) - xs

    large = xa > _I0_SERIES_MAX
    if large.any():
        out[large] = _i0_asymptotic_tail(xa[large])
    return float(out[0]) if scalar else out


# Cephes ndtr.c coefficients, highest power first; U, Q and S have a
# leading 1.  erf(w) = w T(w^2) / U(w^2) for |w| < 1, and erfc(w) =
# exp(-w^2) P(w) / Q(w) for 1 <= w < 8, exp(-w^2) R(w) / S(w) above.
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
           2.23200534594684319226e3, 7.00332514112805075473e3,
           5.55923013010394962768e4)
_NDTR_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
           4.59432382970980127987e3, 2.26290000613890934246e4,
           4.92673942608635921086e4)
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_NDTR_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)

# erfc(w) underflows to zero well before this; clipping |w| here keeps
# an infinite argument out of the rational function (inf / inf)
_NDTR_CLIP = 40.0


def _horner(coefs, x):
    out = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _by_branch(inside, x, on_inside, on_outside):
    """on_inside(x) where the mask inside holds, on_outside(x) elsewhere.

    An empty side is never evaluated, and a call wholly on one side
    returns that branch's array without masking or scattering.
    """
    if inside.all():
        return on_inside(x)
    if not inside.any():
        return on_outside(x)
    out = np.empty_like(x)
    out[inside] = on_inside(x[inside])
    out[~inside] = on_outside(x[~inside])
    return out


def _ndtr_core(w):
    w2 = w * w
    return 0.5 + 0.5 * (w * _horner(_NDTR_T, w2) / _horner(_NDTR_U, w2))


def _erfc_near(z):
    return np.exp(-z * z) * _horner(_NDTR_P, z) / _horner(_NDTR_Q, z)


def _erfc_far(z):
    z = np.minimum(z, _NDTR_CLIP)
    return np.exp(-z * z) * _horner(_NDTR_R, z) / _horner(_NDTR_S, z)


def _ndtr_tail(w):
    z = np.abs(w)                     # NaN takes the far branch, stays NaN
    half = 0.5 * _by_branch(z < 8.0, z, _erfc_near, _erfc_far)
    return np.where(w > 0.0, 1.0 - half, half)


def ndtr(x):
    """Standard normal cdf, (1 + erf(x / sqrt 2)) / 2, elementwise.

    With w = x / sqrt 2, |w| < 1 takes 1/2 + erf(w) / 2 and the rest the
    tail erfc(|w|) / 2 (its complement for x > 0), each element by its
    own branch only; a branch no element takes costs nothing.  Within
    1e-15 relative of scipy.special.ndtr and 5e-14 of the exact value
    for |x| <= 12; -inf, +inf and NaN give 0, 1 and NaN.  Returns an
    array shaped like x, or a float for a scalar.
    """
    xa = np.asarray(x, dtype=float)
    w = xa.ravel() * math.sqrt(0.5)
    out = _by_branch(np.abs(w) < 1.0, w, _ndtr_core, _ndtr_tail)
    return out.reshape(xa.shape)[()]
