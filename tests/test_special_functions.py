"""Special functions against an arbitrary-precision oracle (mpmath);
the normal cdf also against scipy's, whose approximations it ports."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from qcompton import special_functions
from qcompton.special_functions import (_DEBYE_MAX_RATIO,
                                        _DEBYE_MIN_ORDER, _DEBYE_Q,
                                        _DEBYE_TERMS,
                                        _I0_TAIL_CUT, _NDTR_CLIP,
                                        _NDTR_P, _NDTR_Q, _NDTR_R,
                                        _NDTR_S, _NDTR_T, _NDTR_U,
                                        _RESCALE_FACTOR, _RESCALE_HEADROOM,
                                        _RESCALE_THRESHOLD, _SERIES_CAP,
                                        _SERIES_MARGIN,
                                        MAX_ARGUMENT, MAX_ORDER,
                                        OutOfContract, _bessel_rows,
                                        _horner, _i0_asymptotic_tail,
                                        _jn_series, _miller_rows,
                                        _miller_start,
                                        _rescale_interval,
                                        _series_terms, _series_threshold,
                                        bessel_i0_log_scaled,
                                        bessel_j_triple, bessel_j_triples,
                                        ndtr)


def _oracle_jn(n: int, x: float) -> float:
    # working precision grows with the argument so the oracle itself
    # never limits the comparison
    with mp.workdps(40 + int(0.55 * x)):
        return float(mp.besselj(n, mp.mpf(x)))


def _oracle_i0_log(x: float) -> float:
    with mp.workdps(60):
        return float(mp.log(mp.besseli(0, mp.mpf(x))))


def _jn(n: int, x):
    """J_n as one row of a triple: J_0 is row 0 of s = 1, J_MAX_ORDER
    row 2 of s = MAX_ORDER - 1, every other order the middle row."""
    s = min(max(n, 1), MAX_ORDER - 1)
    return bessel_j_triple(s, x)[n - s + 1]


def _close(got: float, want: float, rel: float) -> bool:
    if want == 0.0:
        return abs(got) < 1e-300
    return abs(got - want) <= rel * abs(want)


def test_bessel_j_small_arguments():
    for n in (0, 1, 2, 5, 9):
        for x in (0.0, 1e-8, 1e-3, 0.5, 2.0, 7.5):
            want = _oracle_jn(n, x)
            got = _jn(n, x)
            if abs(want) < 1e-280:        # below the documented flush floor
                assert abs(got) < 1e-270
            else:
                assert _close(got, want, 1e-12), (n, x, got, want)


def test_bessel_j_oscillatory_region():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(0, 60))
        x = float(rng.uniform(8.0, 400.0))
        want = _oracle_jn(n, x)
        got = _jn(n, x)
        # near zeros of J_n compare absolutely at the local amplitude scale
        amp = math.sqrt(2.0 / (math.pi * x))
        assert abs(got - want) <= 1e-11 * amp, (n, x, got, want)


# 25-digit values at the cases' largest arguments, from mpmath.besselj at
# the oracle's 40 + 0.55 x digits (unchanged at 60 digits more):
# J_10000(9990) alone takes about 8 s there.  J_5000(2500) = 3.94e-982 is
# below the double range and parses as 0.
_J_AT_HIGH_ARGUMENTS = {(5000, 2500.0): 3.937105195202580025427163e-982,
                        (10000, 9990.0): 1.245942468094699983428784e-2,
                        (2000, 1999.5): 3.421102977699910540902656e-2}


def test_bessel_j_huge_orders():
    # the regime the harmonic ladder actually visits: order comparable
    # to or far above the argument
    cases = [(100, 95.0), (500, 480.0), (1000, 30.0), (5000, 2500.0),
             (10000, 9990.0), (2000, 1999.5), (300, 10.0)]
    for n, x in cases:
        want = (_J_AT_HIGH_ARGUMENTS[n, x] if (n, x) in _J_AT_HIGH_ARGUMENTS
                else _oracle_jn(n, x))
        got = _jn(n, x)
        if want == 0.0 or abs(want) < 1e-290:
            assert abs(got) <= 1e-280
        else:
            assert _close(got, want, 5e-11), (n, x, got, want)


def test_bessel_j_array_matches_scalar():
    # the backward recurrence starts from the batch-wide maximum, so
    # batching may move the last ulp; anything beyond that is a bug
    xs = np.linspace(0.0, 120.0, 97)
    rows = bessel_j_triple(7, xs)
    amp = math.sqrt(2.0 / math.pi) / 3.0   # loose amplitude floor
    for i, x in enumerate(xs):
        single = bessel_j_triple(7, float(x))
        for row, v in zip(rows, single):
            assert abs(row[i] - v) <= 1e-14 * amp


# one batch over every regime: (order, argument) per element
_ZERO = [(1, 0.0), (2, 0.0), (3000, 0.0)]
_SERIES = [(1, 1e-3), (2, 0.5), (40, 7.0), (900, 50.0), (3000, 100.0)]
_MILLER = [(10, 9.5), (60, 55.0), (100, 60.0), (500, 400.0),
           (1200, 1100.0), (3000, 2700.0)]


def test_bessel_j_triples_mixed_batch():
    pairs = _ZERO + _SERIES + _MILLER
    orders = np.array([s for s, _ in pairs])
    xs = np.array([x for _, x in pairs])
    rows = np.array(bessel_j_triples(orders, xs))
    for i, (s, x) in enumerate(pairs):
        single = bessel_j_triple(s, x)
        for row, n in enumerate((s - 1, s, s + 1)):
            got = rows[row, i]
            assert _close(got, _oracle_jn(n, x), 1e-12), (n, x, got)
            if i < len(_ZERO) + len(_SERIES):
                # x = 0 and the series do not depend on the batch
                assert got == single[row], (n, x)
            else:
                # the batch's sweep starts above the largest order
                assert got == pytest.approx(single[row], rel=2e-14), (n, x)


def test_bessel_j_triple_order_block_rows():
    # a 2-D argument is a block of consecutive orders: row b at order
    # s + b, each element in its own regime (x = 0, series, Miller)
    s = 60
    xs = np.array([[0.0, 0.5, 14.0, 55.0, 300.0],
                   [1e-3, 7.0, 15.5, 61.0, 120.0],
                   [0.0, 2.0, 40.0, 63.0, 90.0]])
    rows = np.array(bessel_j_triple(s, xs))
    assert rows.shape == (3,) + xs.shape
    for b, row_x in enumerate(xs):
        for i, x in enumerate(row_x):
            for r in range(3):
                n = s + b - 1 + r
                want = _oracle_jn(n, float(x))
                got = rows[r, b, i]
                if abs(want) < 1e-280:
                    assert abs(got) < 1e-270, (n, x, got)
                else:
                    assert _close(got, want, 1e-12), (n, x, got, want)
    # one row is the single-order column
    one = np.array(bessel_j_triple(s, xs[:1]))
    assert one.shape == (3, 1, xs.shape[1])
    assert one[:, 0].tolist() == np.array(
        bessel_j_triple(s, xs[0])).tolist()


@pytest.mark.parametrize("evaluate, shape", [
    (lambda: bessel_j_triples([], []), (0,)),
    (lambda: bessel_j_triples(np.ones((2, 0)), np.zeros((2, 0))), (2, 0)),
    (lambda: bessel_j_triples(3, np.zeros(0)), (0,)),
    (lambda: bessel_j_triple(5, np.zeros((3, 0))), (3, 0)),
    (lambda: bessel_j_triple(5, np.zeros((1, 0))), (1, 0))],
    ids=["orders-1d", "orders-2d", "one-order", "block", "one-row-block"])
def test_bessel_j_takes_empty_input(evaluate, shape):
    rows = evaluate()
    assert len(rows) == 3
    assert all(row.shape == shape and row.dtype == float for row in rows)


def _forward_terms(pair, q, count):
    """|term_k| of the summed rows for k = 1..count, each by the forward
    recursion the majorants of _series_terms take, and 1 plus their
    running sums: two (count, 2, elements) arrays."""
    term = np.ones(np.broadcast_shapes(pair.shape, q.shape))
    bound = np.ones_like(term)
    terms, bounds = [], []
    for k in range(1, count + 1):
        term = term * (q / (k * (pair + k)))
        terms.append(term)
        bounds.append(bound)
        bound = bound + term
    return np.array(terms), np.array(bounds)


# near zeros of J_0 and J_1 the sums cancel far below the terms
_J01_ZEROS = np.array([2.404825557695773, 3.831705970207512,
                       5.520078110286311, 7.015586669815619])


def _series_cases():
    """(orders, x) per order s: triples at one shared order column and at
    an order per element, over the series range and near zeros."""
    rng = np.random.default_rng(5)
    for s in (1, 2, 7, 40, 400):
        n = s + np.arange(-1.0, 2.0)[:, None]
        cap = max(_SERIES_CAP, 2.0 * math.sqrt(s - 1))
        near_zeros = _J01_ZEROS[:, None] * (1.0 + np.linspace(-1e-9, 1e-9, 5))
        x = np.concatenate([rng.uniform(1e-3, cap, 300),
                            near_zeros.ravel()])
        yield n, x
        yield n + rng.integers(0, 3, x.size), x


def test_series_drops_only_terms_below_its_margin():
    # Horner's rule sums a term count fixed per call: in both summed rows
    # and both order layouts, every element's first dropped term is at
    # most _SERIES_MARGIN of 1 plus the sum of its |terms| before it
    for n, x in _series_cases():
        pair, q = n[1:], x * x / 4.0
        count = _series_terms(pair, q)
        terms, bounds = _forward_terms(pair, q, count + 1)
        assert np.all(terms[-1] <= _SERIES_MARGIN * bounds[-1]), count


def test_series_more_terms_change_no_bit(monkeypatch):
    # at the margin, summing six terms more moves no bit of any element
    want = [_jn_series(n, x) for n, x in _series_cases()]
    count = special_functions._series_terms
    monkeypatch.setattr(special_functions, "_series_terms",
                        lambda pair, q: count(pair, q) + 6)
    for (n, x), rows in zip(_series_cases(), want):
        assert np.array_equal(_jn_series(n, x), rows)


@pytest.mark.parametrize("s, x", [(1, 1e-3), (1, 2.404825557695773),
                                  (2, 3.831705970207512), (7, 3.3),
                                  (40, 7.0), (400, 30.0)])
def test_series_element_does_not_depend_on_its_call(s, x):
    # the term count is the call's, yet an element's triple is the same
    # bits alone, in a 5 000-point one-order call and beside an element
    # of much larger q / (n + 1) in a per-element call; engine blocks and
    # angular scans rely on it to be independent of their batch shape
    rng = np.random.default_rng(11)
    wide = rng.uniform(1e-3, float(_series_threshold(s - 1.0)), 5000)
    wide[1234] = x
    neighbour = (1, 7.9)
    alone = np.array(bessel_j_triple(s, x))
    assert np.array_equal(np.array(bessel_j_triple(s, wide))[:, 1234], alone)
    beside = bessel_j_triples([s, neighbour[0]], [x, neighbour[1]])
    assert np.array_equal(np.array(beside)[:, 0], alone)
    # the three calls sum different numbers of terms
    pair = s + np.arange(2.0)[:, None]
    pairs = np.array([[s, neighbour[0]], [s + 1, neighbour[0] + 1]], float)
    counts = [_series_terms(pair, np.array([x * x / 4.0])),
              _series_terms(pair, wide * wide / 4.0),
              _series_terms(pairs, np.array([x, neighbour[1]]) ** 2 / 4.0)]
    assert counts[0] not in counts[1:], counts


def test_series_row_below_against_oracle():
    # row s-1 comes from the two summed rows, not from a sum of its own:
    # relative to the oracle, or where J_{s-1} oscillates and is small
    # (beside its zeros) at its amplitude scale sqrt(2 / (pi x))
    for n, x in _series_cases():
        got = _jn_series(n, x)[0]
        for order, xv, g in zip(np.broadcast_to(n[0], x.shape).tolist(),
                                x.tolist(), got.tolist()):
            want = _oracle_jn(int(order), xv)
            amp = math.sqrt(2.0 / (math.pi * xv))
            if abs(want) < 1e-280:
                assert abs(g) < 1e-270, (order, xv, g)
            elif xv > order and abs(want) < 0.1 * amp:
                assert abs(g - want) <= 1e-12 * amp, (order, xv, g, want)
            else:
                assert _close(g, want, 1e-12), (order, xv, g, want)


@pytest.mark.parametrize("s, x", [(2, 1e-200), (1, 1e-300)])
def test_series_row_below_survives_underflow(s, x):
    # J_{s+1}, and at s = 2 also J_s, underflow to 0 while J_{s-1} does
    # not: the scaled sums keep it, in both order layouts, where
    # (2s/x) J_s - J_{s+1} would give 0 at s = 2
    per_element = bessel_j_triples(np.array([s, s]), np.array([x, x]))
    for triple in (bessel_j_triple(s, x), [v[0] for v in per_element]):
        for got, order in zip(triple, (s - 1, s, s + 1)):
            want = _oracle_jn(order, x)
            if want == 0.0:
                assert got == 0.0, (order, got)
            else:
                assert _close(got, want, 1e-12), (order, got, want)
        assert triple[0] > 0.0 and triple[2] == 0.0


# order 1 just inside Miller's regime, where one step grows J the most,
# beside the largest order and argument, which set the sweep's start
_GROWTH_CORNER = (np.array([1, MAX_ORDER - 1]),
                  np.array([np.nextafter(_SERIES_CAP, np.inf), MAX_ARGUMENT]))


# order 50 at x = 340 grows through eight rescales on its way down from
# the start set by order 2000 (whose J underflows to zero), yet x_min is
# large enough for more than 100 steps between two tests.  Through the
# regime dispatch order 2000 at x = 320 takes the Debye regime's sweep,
# so the full sweep is called directly
_LONG_CADENCE = (np.array([2000, 50]), np.array([320.0, 340.0]))


def test_rescale_interval_changes_no_bit(monkeypatch):
    # rescaling by a power of two is exact, so testing for it every step
    # or at each call's own cadence must give the same bits
    rng = np.random.default_rng(23)
    block_x = rng.uniform(0.0, 900.0, (32, 60))
    pairs = _ZERO + _SERIES + _MILLER
    mixed = (np.array([s for s, _ in pairs]), np.array([x for _, x in pairs]))
    orders, xs = _LONG_CADENCE
    assert _rescale_interval(_miller_start(orders.max() + 1, xs.max()),
                             xs.min()) > 100

    def evaluate():
        return [np.array(bessel_j_triple(700, block_x)),
                np.array(bessel_j_triples(*mixed)),
                np.array(bessel_j_triples(*_GROWTH_CORNER)),
                _miller_rows(*_LONG_CADENCE)]

    sparse = evaluate()
    assert np.all(sparse[-1][:, 1] != 0.0)
    monkeypatch.setattr(special_functions, "_rescale_interval",
                        lambda m_start, x_min: 1)
    for got, want in zip(sparse, evaluate()):
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)


def test_rescale_headroom_is_provable():
    # Miller elements have x > _SERIES_CAP, so a step of a sweep from
    # m_start grows max(|J_m|, |J_{m+1}|) by at most g = 2 m_start / x_min
    # + 1.  Over the steps between two tests a value from just below the
    # threshold must stay finite, and one rescale must bring it back
    # under; the cadence is the longest the headroom allows
    x_low = float(np.nextafter(_SERIES_CAP, np.inf))
    calls = [(1, x_low, x_low), (MAX_ORDER - 1, MAX_ARGUMENT, MAX_ARGUMENT),
             (MAX_ORDER - 1, MAX_ARGUMENT, x_low)]
    for s in (1, 7, 60, 700, 3000, MAX_ORDER - 1):
        for x_max in np.geomspace(x_low, MAX_ARGUMENT, 7):
            calls += [(s, x_max, x_min)
                      for x_min in np.geomspace(x_low, x_max, 5)]
    for s, x_max, x_min in calls:
        m_start = _miller_start(s + 1, x_max)
        growth = 2.0 * m_start / x_min + 1.0
        every = _rescale_interval(m_start, x_min)
        assert every >= 1
        assert _RESCALE_THRESHOLD * growth ** every < np.finfo(float).max
        assert growth ** every <= _RESCALE_THRESHOLD
        assert growth ** (every + 1) > _RESCALE_HEADROOM


def _miller_slot_map(n, x):
    """The backward sweep as it captured before order runs: orders n as
    (3, elements) rows or one shared column, each order's entries found
    by a stable argsort, unique, split and divmod, and gathered and
    scattered as index arrays."""
    m_start = _miller_start(int(n.max()), float(x.max()))
    every = _rescale_interval(m_start, float(x.min()))
    if n.shape[1] == 1:
        slot = {int(r): (row, slice(None))
                for row, r in enumerate(n[:, 0].tolist())}
    else:
        by_order = np.argsort(n, axis=None, kind="stable")
        orders, first = np.unique(n.ravel()[by_order], return_index=True)
        slot = {int(r): np.divmod(idx, x.size) for r, idx
                in zip(orders.tolist(), np.split(by_order, first[1:]))}
    inv_x = 1.0 / x
    j_hi = np.zeros_like(x)
    j_lo = np.full_like(x, 1e-30)
    t = np.empty_like(x)
    even = np.zeros_like(x)
    out = np.zeros((len(n), x.size))
    for m in range(m_start, 0, -1):
        np.multiply(inv_x, 2.0 * m, out=t)
        t *= j_lo
        t -= j_hi
        j_hi, j_lo, t = j_lo, t, j_hi
        if m % every == 0:
            np.maximum(np.abs(j_lo, out=t), np.abs(j_hi), out=t)
            big = t > _RESCALE_THRESHOLD
            if big.any():
                scale = np.where(big, _RESCALE_FACTOR, 1.0)
                j_lo *= scale
                j_hi *= scale
                even *= scale
                out *= scale
        idx = m - 1
        if idx in slot:
            rows, cols = slot[idx]
            out[rows, cols] = j_lo[cols]
        if idx and idx % 2 == 0:
            even += j_lo
    return out / (2.0 * even + j_lo)


def _rows_by_slot_map(s, x):
    """_bessel_rows as it dispatched before: every regime's rows gathered
    from a (3, elements) order array, x = 0 as three rows of its own."""
    n = s + np.arange(-1.0, 2.0)[:, None]
    zero = x == 0.0
    small = ~zero & (x <= _series_threshold(n[0]))
    rest = ~zero & ~small

    def part(mask):
        return n if s.size == 1 else n[:, mask]

    out = np.zeros((3, x.size))
    out[:, zero] = part(zero) == 0
    if small.any():
        out[:, small] = _jn_series(part(small), x[small])
    if rest.any():
        out[:, rest] = _miller_slot_map(part(rest), x[rest])
    return out


def _order_layouts():
    """(orders, x) in every layout a sweep meets, all x in Miller's
    regime or, for the block, mixed with x = 0 and the series."""
    rng = np.random.default_rng(41)
    wide = rng.uniform(9.0, 900.0, 256)
    block = rng.uniform(0.0, 700.0, (32, 40))
    block[rng.random(block.shape) < 0.3] = 0.0
    ladder = np.arange(1.0, 257.0)
    yield "shared", np.array([700.0]), wide
    yield "block", np.broadcast_to(300.0 + np.arange(32.0)[:, None],
                                   block.shape).ravel(), block.ravel()
    yield "first-order-block", np.broadcast_to(
        1.0 + np.arange(32.0)[:, None], block.shape).ravel(), block.ravel()
    yield "ladder", ladder, wide
    yield "descending", ladder[::-1].copy(), wide
    yield "unsorted", rng.permutation(ladder), wide
    yield "repeated", rng.integers(1, 12, wide.size).astype(float), wide
    yield "repeated-runs", np.repeat([40.0, 3.0, 40.0, 41.0], 64), wide


def _in_debye_regime(s, x):
    """Elements above the series with anchor order s - 1 >= the Debye
    regime's lowest and x within its ratio of s - 1."""
    return ((x > _series_threshold(s - 1.0)) & (s - 1.0 >= _DEBYE_MIN_ORDER)
            & (x <= _DEBYE_MAX_RATIO * (s - 1.0)))


def _assert_triples_match_oracle(s, x, rows):
    """Each triple in rows against the oracle at 1e-12, below the flush
    floor absolutely."""
    for col, (order, xv) in enumerate(zip(
            np.broadcast_to(s, x.shape).tolist(), x.tolist())):
        for row in range(3):
            n = int(order) - 1 + row
            want = _oracle_jn(n, xv)
            got = rows[row, col]
            if abs(want) < 1e-290:
                assert abs(got) <= 1e-280, (n, xv, got)
            else:
                assert _close(got, want, 1e-12), (n, xv, got, want)


@pytest.mark.parametrize("name, s, x", list(_order_layouts()),
                         ids=[c[0] for c in _order_layouts()])
def test_miller_runs_match_the_slot_map(name, s, x):
    # capturing by order runs moves the same values into the same rows
    # as the slot map did: the sweep keeps every bit, and so does a whole
    # call through the regime dispatch outside the Debye regime, whose
    # elements take a sweep of their own and meet the oracle instead
    rows = _bessel_rows(s, x)
    debye = _in_debye_regime(s, x)
    outside = ~debye
    assert np.array_equal(rows[:, outside], _rows_by_slot_map(
        s if s.size == 1 else s[outside], x[outside]))
    _assert_triples_match_oracle(s if s.size == 1 else s[debye], x[debye],
                                 rows[:, debye])
    rest = x > _series_threshold(s - 1.0)
    if rest.any():
        part = s if s.size == 1 else s[rest]
        n = part + np.arange(-1.0, 2.0)[:, None]
        assert np.array_equal(_miller_rows(part, x[rest]),
                              _miller_slot_map(n, x[rest]))


@pytest.fixture
def debye_calls(monkeypatch):
    """The elements each call of the Debye anchor received."""
    calls = []
    anchor = special_functions._debye_j

    def spy(nu, x):
        calls.append(x.size)
        return anchor(nu, x)

    monkeypatch.setattr(special_functions, "_debye_j", spy)
    return calls


def test_debye_regime_corner_against_oracle(debye_calls):
    # the regime's corner, where all its Debye terms count (u_8 / nu^8
    # is 5e-13), beside the nearest elements outside it, which the full
    # sweep keeps
    nu = _DEBYE_MIN_ORDER
    x = _DEBYE_MAX_RATIO * nu
    s = np.array([nu + 1.0, nu + 1.0, nu])
    xs = np.array([x, np.nextafter(x, np.inf), x])
    assert _in_debye_regime(s, xs).tolist() == [True, False, False]
    rows = np.array(bessel_j_triples(s, xs))
    assert debye_calls == [1]
    _assert_triples_match_oracle(s, xs, rows)


@pytest.mark.parametrize("nu", [_DEBYE_MIN_ORDER, 300, MAX_ORDER - 2])
def test_debye_regime_at_the_series_edge(nu, debye_calls):
    # one ulp above the series threshold an element leaves the series for
    # the Debye regime; the smallest x / nu it takes is 2 / sqrt(nu),
    # 0.02 at the largest anchor order, where J has underflowed
    x = float(np.nextafter(_series_threshold(float(nu)), np.inf))
    s = np.array([nu + 1.0])
    rows = np.array(bessel_j_triples(s, np.array([x])))
    assert debye_calls == [1]
    _assert_triples_match_oracle(s, np.array([x]), rows)
    assert (rows[:, 0] > 0.0).all() == (nu < MAX_ORDER - 2)


# J_nu, J_nu+1 and J_nu+2 at x = 0.64 nu as 25-digit values, from
# mpmath.besselj at the oracle's 40 + 0.55 x digits (unchanged at 60
# digits): about 0.3 s each there.  Near nu = 3000 they cross the smallest
# normal double (2.2e-308) and then the smallest subnormal (4.9e-324).
_J_AT_THE_UNDERFLOW_EDGE = {
    2760: (5.056772154465785499418418e-300, 1.829125506891182136070094e-300,
           6.613160752970695930419337e-301),
    2950: (1.689181574547073069091599e-320, 6.110287083343226722452394e-321,
           2.209304151717682506072369e-321),
    2990: (8.26069982396528019474137e-325, 2.98816838936145098565919e-325,
           1.080449478480475721779535e-325)}


def test_debye_regime_at_the_underflow_edge(debye_calls):
    # normal values keep 1e-12, subnormal ones their absolute resolution,
    # and values below the smallest subnormal flush to exactly zero
    nus = list(_J_AT_THE_UNDERFLOW_EDGE)
    s = np.array(nus) + 1.0
    rows = np.array(bessel_j_triples(s, _DEBYE_MAX_RATIO * (s - 1.0)))
    assert debye_calls == [len(nus)]
    tiny = np.finfo(float).tiny
    for col, nu in enumerate(nus):
        for row, want in enumerate(_J_AT_THE_UNDERFLOW_EDGE[nu]):
            got = rows[row, col]
            if want >= tiny:
                assert _close(got, want, 1e-12), (nu, row, got, want)
            else:
                assert abs(got - want) <= 1e-12 * tiny, (nu, row, got)
    assert (rows[:, -1] == 0.0).all()


def test_debye_regime_flushes_without_warnings(debye_calls):
    # the largest order at the regime's edge: every row far below the
    # double range, exactly zero, and no overflow, underflow or 0 / 0
    # reaches a warning
    s = MAX_ORDER - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = bessel_j_triples(s, _DEBYE_MAX_RATIO * (s - 1))
    assert debye_calls == [1]
    assert [float(r) for r in rows] == [0.0, 0.0, 0.0]


def test_debye_regime_keeps_the_recurrence():
    # J_{s-1} + J_{s+1} = (2s / x) J_s for a seeded sample of the region,
    # in one call; below x < s - 1 the three terms have one sign, so the
    # identity holds relative to its right side
    rng = np.random.default_rng(31)
    nu = rng.integers(_DEBYE_MIN_ORDER, 2_500, 400).astype(float)
    x = rng.uniform(_series_threshold(nu), _DEBYE_MAX_RATIO * nu)
    s = nu + 1.0
    assert _in_debye_regime(s, x).all()
    jm, j0, jp = bessel_j_triples(s, x)
    rhs = 2.0 * s / x * j0
    keep = rhs > 1e-290
    assert keep.sum() > 100
    assert np.all(np.abs(jm + jp - rhs)[keep] <= 1e-12 * rhs[keep])


def test_debye_regime_elements_leave_the_sweep_once_captured():
    # a ladder call, one order each from 1 to 3000 at x = 0.6 s + 5: the
    # Debye sweep runs from order 3 000 down to 160 and grows the high
    # orders' recurrence by about 2^1000 through their turning points.
    # Kept in the sweep, their captured rows would ride those rescales
    # into zero, and rows / rows[0] would be 0 / 0
    s = np.arange(1.0, 3001.0)
    x = 0.6 * s + 5.0
    debye = _in_debye_regime(s, x)
    assert debye.sum() > 2_000
    rows = np.array(bessel_j_triples(s, x))
    assert np.isfinite(rows).all()
    for i in np.flatnonzero(debye)[::250].tolist():
        alone = np.array(bessel_j_triples(s[i], x[i]))
        assert np.allclose(rows[:, i], alone, rtol=1e-13, atol=0.0), i


def _debye_polynomials_exactly(terms):
    """u_k(p) by the recurrence of DLMF 10.41.10 in exact rationals, as
    coefficient lists of p."""
    polys = [[Fraction(1)]]
    for _ in range(1, terms):
        u = polys[-1]
        new = [Fraction(0)] * (len(u) + 3)
        for n, c in enumerate(u):
            # p^2 (1 - p^2) u'(p) / 2 + int_0^p (1 - 5 q^2) u(q) dq / 8
            new[n + 1] += n * c / 2 + c / (8 * (n + 1))
            new[n + 3] += -n * c / 2 - 5 * c / (8 * (n + 3))
        polys.append(new)
    return polys


def test_debye_polynomials_match_exact_rationals():
    exact = _debye_polynomials_exactly(_DEBYE_TERMS)
    # DLMF 10.41.10's first two
    assert exact[1] == [0, Fraction(3, 24), 0, Fraction(-5, 24)]
    assert exact[2] == [0, 0, Fraction(81, 1152), 0, Fraction(-462, 1152),
                        0, Fraction(385, 1152)]
    want = np.zeros_like(_DEBYE_Q)
    for k, u in enumerate(exact):
        # only p^k, p^(k+2), ..., p^3k
        assert not any(u[:k]) and not any(u[k + 1::2])
        want[k, :k + 1] = [float(c) for c in u[k::2]]
    assert np.all(np.abs(_DEBYE_Q - want) <= 4e-16 * np.abs(want))


def test_empty_calls_never_reach_the_sweep(monkeypatch):
    # a sweep starts from its call's largest order and argument, which an
    # empty call has not got: it is answered before the sweep
    def no_sweep(s, x):
        raise AssertionError("empty call reached the sweep")

    monkeypatch.setattr(special_functions, "_miller_rows", no_sweep)
    for evaluate in (lambda: bessel_j_triples([], []),
                     lambda: bessel_j_triples(3, np.zeros(0)),
                     lambda: bessel_j_triple(5, np.zeros((3, 0)))):
        assert all(row.size == 0 for row in evaluate())


# 25-digit values of J_9998, J_9999 and J_10000 at x = 1e4, from
# mpmath.besselj at 5 540 digits (unchanged at 5 600): each takes about
# 10 s to compute, too long for the suite
_J_AT_MAX_ARGUMENT = (0.02252730523075527097424125,
                      0.02164689994397242498145547,
                      0.02076216527720078450367339)


def test_bessel_j_worst_corner_against_oracle():
    # order MAX_ORDER - 1 one ulp above its series threshold and at
    # MAX_ARGUMENT, in one call with the growth corner's order 1
    x_edge = float(np.nextafter(_series_threshold(MAX_ORDER - 2.0), np.inf))
    s = MAX_ORDER - 1
    rows = np.array(bessel_j_triples(np.array([1, s, s]),
                                     np.array([_GROWTH_CORNER[1][0], x_edge,
                                               MAX_ARGUMENT])))
    assert np.isfinite(rows).all()
    wants = [[_oracle_jn(n, float(_GROWTH_CORNER[1][0])) for n in (0, 1, 2)],
             [_oracle_jn(n, x_edge) for n in (s - 1, s, s + 1)],
             _J_AT_MAX_ARGUMENT]
    for col, want in enumerate(wants):
        for row, w in enumerate(want):
            got = rows[row, col]
            if abs(w) < 1e-290:
                assert abs(got) <= 1e-280, (col, row, got)
            else:
                assert _close(got, w, 5e-11), (col, row, got, w)


@pytest.mark.parametrize("bad", [0, MAX_ORDER, 2.5])
def test_bessel_j_triples_rejects_one_bad_order(bad):
    with pytest.raises(OutOfContract):
        bessel_j_triples(np.array([3, bad, 5]), np.array([1.0, 1.0, 20.0]))


def test_bessel_triple_consistency():
    # J_s also appears as the top row of triple s-1 and the bottom row
    # of triple s+1; their series thresholds and recurrence start
    # orders differ, so agreement cross-checks the regimes
    rng = np.random.default_rng(19)
    for _ in range(60):
        s = int(rng.integers(1, 800))
        x = float(rng.uniform(0.0, min(900.0, s * 1.5 + 20.0)))
        jm, j0, jp = bessel_j_triple(s, x)
        above = bessel_j_triple(s + 1, x)
        assert j0 == pytest.approx(above[0], rel=1e-12, abs=1e-280)
        assert jp == pytest.approx(above[1], rel=1e-12, abs=1e-280)
        if s > 1:
            below = bessel_j_triple(s - 1, x)
            assert jm == pytest.approx(below[1], rel=1e-12, abs=1e-280)
            assert j0 == pytest.approx(below[2], rel=1e-12, abs=1e-280)
        if x > 0.0 and abs(j0) > 1e-250:
            # three-term recurrence ties the triple together
            lhs = jm + jp
            rhs = 2.0 * s * j0 / x
            scale = max(abs(jm), abs(j0), abs(jp))
            assert abs(lhs - rhs) <= 1e-9 * max(scale, abs(rhs))


@pytest.mark.parametrize("evaluate", [
    lambda: bessel_j_triples(5, [np.nan]),
    lambda: bessel_j_triples(5, [1.0, np.nan]),
    lambda: bessel_j_triples([5, 6], [np.nan, 1.0]),
    lambda: bessel_j_triple(5, [[1.0, 2.0], [np.nan, 3.0]])],
    ids=["one-order", "one-order-beside-series", "per-element", "block"])
def test_bessel_j_triples_rejects_nan_arguments(evaluate):
    # NaN is outside the argument contract in every order layout
    with pytest.raises(OutOfContract):
        evaluate()


def test_bessel_j_contract_bounds():
    with pytest.raises(OutOfContract):       # J_{-1}
        bessel_j_triple(0, 1.0)
    with pytest.raises(OutOfContract):       # J_{MAX_ORDER + 1}
        bessel_j_triple(MAX_ORDER, 1.0)
    with pytest.raises(OutOfContract):
        bessel_j_triple(2, -0.5)
    with pytest.raises(OutOfContract):
        bessel_j_triple(2, MAX_ARGUMENT * 1.01)
    with pytest.raises(OutOfContract):       # J_{2.5} is not integer order
        bessel_j_triple(2.5, 1.0)


def test_i0_log_against_oracle():
    for x in (0.0, 1e-12, 1e-4, 0.3, 1.0, 5.0, 29.0, 31.0, 100.0, 1e4, 1e8):
        want = _oracle_i0_log(x)
        got = bessel_i0_log_scaled(x) + x
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), x


def test_i0_log_scaled_relation():
    # log(e^-x I0) itself, where the oracle cancels x in extended precision
    for x in np.geomspace(1e-6, 1e4, 30):
        with mp.workdps(60):
            xm = mp.mpf(float(x))
            want = float(mp.log(mp.besseli(0, xm)) - xm)
        assert bessel_i0_log_scaled(float(x)) == pytest.approx(
            want, rel=1e-10, abs=1e-12)
    # far asymptotic: log(e^-x I0) ~ -log(2 pi x)/2
    big = 1e12
    assert bessel_i0_log_scaled(big) == pytest.approx(
        -0.5 * math.log(2.0 * math.pi * big), rel=1e-10)


def test_i0_rejects_negative():
    with pytest.raises(ValueError):
        bessel_i0_log_scaled(-1.0)


def test_i0_log_scaled_keeps_nan():
    # a NaN log R must reach the engine's NaN check, not read 0
    assert math.isnan(bessel_i0_log_scaled(float("nan")))
    x = np.array([0.0, 1.0, np.nan, 40.0, 1e17])
    got = bessel_i0_log_scaled(x)
    assert np.isnan(got).tolist() == [False, False, True, False, False]
    assert got[0] == 0.0
    beside_cut = bessel_i0_log_scaled(np.array([1e17, np.nan]))
    assert np.isnan(beside_cut).tolist() == [False, True]


def test_i0_tail_cut_is_provable():
    # from _I0_TAIL_CUT on, log1p of the expansion's corrections (below
    # twice the first, 1/(8x)) is under half the gap from
    # |log(2 pi x)/2| to the next double toward zero, and the two only
    # move apart as x grows: the cut returns the expansion's bits
    lead = 0.5 * math.log(2.0 * math.pi * _I0_TAIL_CUT)
    gap = lead - float(np.nextafter(lead, 0.0))
    assert 2.0 / (8.0 * _I0_TAIL_CUT) < 0.5 * gap
    x = np.geomspace(_I0_TAIL_CUT, 1e300, 2001)
    assert np.array_equal(bessel_i0_log_scaled(x), _i0_asymptotic_tail(x))
    # the same bits one element at a time and beside arguments below it
    assert bessel_i0_log_scaled(_I0_TAIL_CUT) == _i0_asymptotic_tail(
        np.array([_I0_TAIL_CUT]))[0]
    mixed = bessel_i0_log_scaled(np.concatenate([[50.0], x]))
    assert np.array_equal(mixed[1:], _i0_asymptotic_tail(x))


# --------------------------------------------------------------- normal cdf

def _ndtr_points(count):
    """count points on [-12, 12] plus both sides of each branch edge,
    |x| / sqrt 2 = 1 and 8."""
    edges = [e * math.sqrt(2.0) for e in (-8.0, -1.0, 1.0, 8.0)]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    return np.concatenate([np.linspace(-12.0, 12.0, count), edges, near])


def test_ndtr_matches_scipy():
    # the same Cephes approximations: a mistyped coefficient shows here
    x = _ndtr_points(400_001)
    want = scipy.special.ndtr(x)
    assert np.all(np.abs(ndtr(x) - want) <= 1e-15 * want)


def test_ndtr_against_oracle():
    x = _ndtr_points(2_001)
    got = ndtr(x)
    with mp.workdps(40):
        want = np.array([float(mp.ncdf(mp.mpf(v))) for v in x])
    assert np.all(np.abs(got - want) <= 5e-14 * want)


def test_ndtr_special_values():
    assert ndtr(-0.0) == 0.5 and ndtr(0.0) == 0.5
    assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0
    assert math.isnan(ndtr(np.nan))
    assert isinstance(ndtr(0.3), float)


def _ndtr_every_branch(x):
    """ndtr as first ported: every branch masked and evaluated, even
    an empty one, then scattered."""
    w = x.ravel() * math.sqrt(0.5)
    z = np.abs(w)
    out = np.empty_like(w)
    core = z < 1.0
    wc = w[core]
    wc2 = wc * wc
    out[core] = 0.5 + 0.5 * (wc * _horner(_NDTR_T, wc2)
                             / _horner(_NDTR_U, wc2))
    tail = ~core
    zt = z[tail]
    near = zt < 8.0
    half = np.empty_like(zt)
    zn = zt[near]
    half[near] = (np.exp(-zn * zn) * _horner(_NDTR_P, zn)
                  / _horner(_NDTR_Q, zn))
    zf = np.minimum(zt[~near], _NDTR_CLIP)
    half[~near] = (np.exp(-zf * zf) * _horner(_NDTR_R, zf)
                   / _horner(_NDTR_S, zf))
    half *= 0.5
    out[tail] = np.where(w[tail] > 0.0, 1.0 - half, half)
    return out.reshape(x.shape)


@pytest.mark.parametrize("x", [
    np.zeros(0),
    np.linspace(-1.4, 1.4, 41),                           # all core
    np.concatenate([np.linspace(-80.0, -11.4, 30),        # all far tail
                    [-np.inf, 11.4, 40.0, np.inf, np.nan]]),
    np.linspace(-11.3, -1.5, 30),                         # all near tail
    np.linspace(-30.0, 30.0, 301),                        # every branch
], ids=["empty", "core", "far", "near", "mixed"])
def test_ndtr_skipping_branches_changes_no_bit(x):
    got = ndtr(x)
    want = _ndtr_every_branch(x)
    assert got.shape == x.shape
    assert np.array_equal(got, want, equal_nan=True)


def test_ndtr_keeps_shape_without_warnings():
    x = np.array([[-np.inf, -1e300, -40.0, -12.0],
                  [-0.0, 0.0, 1.0, np.nan],
                  [12.0, 40.0, 1e300, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtr(x)
        assert ndtr(np.zeros(0)).shape == (0,)
    assert got.shape == x.shape
    want = scipy.special.ndtr(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.allclose(got, want, rtol=1e-15, atol=0.0, equal_nan=True)
