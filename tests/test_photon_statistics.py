"""Phase-averaged field statistics: closed forms, moments, tables."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from qcompton.photon_statistics import (FAMILIES, NonNormalizable,
                                        PhaseAveragedStatistics, bsv_stats,
                                        cat_limit_stats, coherent_stats,
                                        custom_tabulated_stats,
                                        fock_limit_stats,
                                        mixed_diagonal_stats, moments,
                                        tabulated_stats_from_file,
                                        thermal_stats)

OMEGA = 2.25
RHO = 3.4e-5         # eV^3; arbitrary positive test density


def test_coherent_is_atomic_peak():
    st = coherent_stats(OMEGA, RHO)
    assert st.is_atomic
    assert st.peak_amplitude == pytest.approx(math.sqrt(2.0 * OMEGA * RHO),
                                              rel=1e-15)
    with pytest.raises(TypeError):
        st.log_r(1.0)


def test_fock_and_cat_collapse_to_coherent():
    st_c = coherent_stats(OMEGA, RHO)
    for maker in (fock_limit_stats, cat_limit_stats):
        st = maker(OMEGA, RHO)
        assert st.is_atomic
        assert st.peak_amplitude == st_c.peak_amplitude


def test_thermal_closed_form():
    st = thermal_stats(OMEGA, RHO)
    wr = OMEGA * RHO
    for e in np.geomspace(1e-5, 0.2, 25):
        want = -e * e / (2.0 * wr) - math.log(wr)
        assert st.log_r(float(e)) == pytest.approx(want, rel=1e-13)


def test_bsv_closed_form():
    st = bsv_stats(OMEGA, RHO)
    wr = OMEGA * RHO
    for e in np.geomspace(1e-5, 0.2, 25):
        want = -e * e / (4.0 * wr) - math.log(e) - 0.5 * math.log(math.pi * wr)
        assert st.log_r(float(e)) == pytest.approx(want, rel=1e-13)


def test_moment_invariants_all_states():
    # every state must carry m1 = 1 and m2 = 2 omega rho: same mean
    # intensity, different fluctuations
    makers = (coherent_stats, fock_limit_stats, cat_limit_stats,
              thermal_stats, bsv_stats, mixed_diagonal_stats)
    for maker in makers:
        st = maker(OMEGA, RHO)
        m1, m2 = moments(st)
        assert m1 == pytest.approx(1.0, rel=1e-8), st.label
        assert m2 == pytest.approx(2.0 * OMEGA * RHO, rel=1e-8), st.label


def test_moments_against_direct_quadrature():
    # independent check of the panel rule in moments(): scipy's
    # adaptive quad on the same integrand in E
    st = thermal_stats(OMEGA, RHO)
    wr = OMEGA * RHO

    def f1(e):
        return e * math.exp(-e * e / (2.0 * wr)) / wr

    ref, _ = quad(f1, 0.0, 40.0 * math.sqrt(wr), epsabs=1e-14, epsrel=1e-12)
    m1, _ = moments(st)
    assert m1 == pytest.approx(ref, rel=1e-10)


def test_mixed_diagonal_matches_bsv_pointwise():
    st_m = mixed_diagonal_stats(OMEGA, RHO)
    st_b = bsv_stats(OMEGA, RHO)
    grid = np.geomspace(1e-6 * math.sqrt(OMEGA * RHO),
                        10.0 * math.sqrt(OMEGA * RHO), 60)
    got = st_m.log_r(grid)
    want = st_b.log_r(grid)
    assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_families_depend_on_energy_density_only(label):
    # the drive enters R(E) only through u = omega rho: the same family
    # built at (omega, rho) and at (omega', omega rho / omega') must be
    # one distribution, which is what lets drive_average vary the drive
    # frequency at fixed statistics
    e = np.linspace(1e-4, 8.0, 400)
    table = np.column_stack([e, 3.7e5 * np.exp(-((e - 2.0) ** 2) / 0.5)])
    maker = FAMILIES[label]
    extra = (table,) if label == "custom" else ()
    u = OMEGA * RHO
    st = maker(OMEGA, RHO, *extra)
    for omega2 in (1.3, 1.01 * OMEGA, 7.0):
        st2 = maker(omega2, u / omega2, *extra)
        assert st2.energy_density == pytest.approx(u, rel=1e-15)
        assert st2.support_max == pytest.approx(st.support_max, rel=1e-14)
        assert moments(st2) == pytest.approx(moments(st), rel=1e-12)
        if st.is_atomic:
            assert st2.peak_amplitude == pytest.approx(st.peak_amplitude,
                                                       rel=1e-15)
            continue
        grid = np.geomspace(1e-6, 0.999, 41) * st.support_max
        got, want = st2.log_r(grid), st.log_r(grid)
        finite = np.isfinite(want)
        assert np.array_equal(finite, np.isfinite(got))
        assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


def test_custom_table_is_rescaled_to_invariants():
    # a half-Gaussian sampled on an arbitrary abscissa with arbitrary
    # overall scale: the constructor must restore both invariants
    e = np.linspace(1e-4, 8.0, 400)
    r = 3.7e5 * np.exp(-((e - 2.0) ** 2) / 0.5)
    st = custom_tabulated_stats(OMEGA, RHO, np.column_stack([e, r]))
    assert st.label == "custom"
    m1, m2 = moments(st)
    assert m1 == pytest.approx(1.0, rel=1e-9)
    assert m2 == pytest.approx(2.0 * OMEGA * RHO, rel=1e-9)
    st2 = custom_tabulated_stats(OMEGA, 2.0 * RHO, np.column_stack([e, r]))
    m1b, m2b = moments(st2)
    assert m1b == pytest.approx(1.0, rel=1e-9)
    assert m2b == pytest.approx(4.0 * OMEGA * RHO, rel=1e-9)


def test_custom_table_scale_does_not_matter():
    # only ratios of R enter: a table near the top of the float range,
    # whose third moment overflows at the scale it is given, normalizes
    # to the same statistics as the unscaled table, without a warning
    e = np.linspace(0.01, 20.0, 400)
    plain = custom_tabulated_stats(OMEGA, RHO,
                                   np.column_stack([e, np.exp(-e / 5.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = custom_tabulated_stats(
            OMEGA, RHO, np.column_stack([e, 1e305 * np.exp(-e / 5.0)]))
    np.testing.assert_allclose(big.table[0], plain.table[0], rtol=1e-14)
    e_probe = np.linspace(0.0, 1.01 * plain.support_max, 257)
    np.testing.assert_allclose(big.log_r(e_probe), plain.log_r(e_probe),
                               rtol=1e-14)


def _large_table():
    # 70 001 nodes: more panels than an analytic state ever reaches
    e = np.linspace(0.0, 12.0, 70_001)
    return np.column_stack([e, np.exp(-0.5 * e * e)])


def _steep_table():
    # log R jumps by tens between nodes that lie close together, so the
    # rounding of the node positions keeps successive panel estimates
    # about 1e-12 apart however far the panels are halved
    rng = np.random.default_rng(36)
    e = np.sort(rng.uniform(0.0, 20.0, 400))
    log_r = rng.normal(0.0, 20.0, e.size).cumsum()
    return np.column_stack([e, np.exp(log_r - log_r.max())])


@pytest.mark.parametrize("table", [_large_table, _steep_table])
def test_hard_tables_are_normalized(table):
    st = custom_tabulated_stats(OMEGA, RHO, table())
    m1, m2 = moments(st)
    assert m1 == pytest.approx(1.0, rel=1e-9)
    assert m2 == pytest.approx(2.0 * OMEGA * RHO, rel=1e-9)


def test_custom_table_validation():
    good_e = np.array([0.1, 0.2, 0.3])
    good_r = np.array([1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        custom_tabulated_stats(OMEGA, RHO, np.ones((3, 3)))
    with pytest.raises(ValueError):
        custom_tabulated_stats(OMEGA, RHO,
                               np.column_stack([good_e[::-1], good_r]))
    with pytest.raises(ValueError):
        custom_tabulated_stats(OMEGA, RHO,
                               np.column_stack([good_e, -good_r]))
    with pytest.raises(ValueError):   # interior zero breaks log interpolation
        custom_tabulated_stats(
            OMEGA, RHO,
            np.column_stack([np.array([0.1, 0.2, 0.3, 0.4]),
                             np.array([1.0, 0.0, 1.0, 1.0])]))
    with pytest.raises(NonNormalizable):
        custom_tabulated_stats(
            OMEGA, RHO, np.column_stack([good_e, np.zeros(3)]))


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_custom_table_rejects_non_finite_samples(column, bad):
    # refused before any arithmetic, which a NaN R would take to np.repeat
    # with a RuntimeWarning, and an inf E to a NaN log R(E)
    table = np.column_stack([[0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 2.0, 1.0]])
    table[2, column] = bad
    with pytest.raises(ValueError, match="must be finite"):
        custom_tabulated_stats(OMEGA, RHO, table)


def test_tabulated_from_file(tmp_path):
    e = np.linspace(0.01, 5.0, 200)
    r = np.exp(-e)
    path = tmp_path / "table.txt"
    lines = ["# E R"] + [f"{a:.12e} {b:.12e}" for a, b in zip(e, r)]
    path.write_text("\n".join(lines) + "\n")
    st = tabulated_stats_from_file(path, OMEGA, RHO)
    m1, m2 = moments(st)
    assert m1 == pytest.approx(1.0, rel=1e-9)
    assert m2 == pytest.approx(2.0 * OMEGA * RHO, rel=1e-9)
    assert st.log_r(st.support_max * 1.01) == -np.inf


def test_drive_validation():
    with pytest.raises(ValueError):
        coherent_stats(0.0, RHO)
    with pytest.raises(ValueError):
        thermal_stats(OMEGA, 0.0)
    with pytest.raises(ValueError):
        bsv_stats(OMEGA, -1.0)
    # zero density is well-defined for atomic-peak states (free electron)
    assert coherent_stats(OMEGA, 0.0).peak_amplitude == 0.0


@pytest.mark.parametrize("rel_sigma", [0.05, 1e-3])
def test_hand_built_statistics_accepted(rel_sigma):
    # consumers only rely on the documented surface: label,
    # energy_density, log_r / peak_amplitude, support_max; at
    # sigma/A = 1e-3 the peak is narrower than the 64 starting panels,
    # so moments() must halve them until it resolves it
    wr = OMEGA * RHO
    a = math.sqrt(2.0 * wr)
    sigma = rel_sigma * a

    def log_r(e):
        return (-((e - a) ** 2) / (2.0 * sigma * sigma)
                - 0.5 * math.log(2.0 * math.pi * sigma * sigma) - np.log(e))

    st = PhaseAveragedStatistics(label="custom", energy_density=wr,
                                 log_r_fn=log_r, support_max=a + 40 * sigma)
    m1, m2 = moments(st)
    # exact Gaussian moments: int N(a, sigma) dE = 1, int E^2 N = a^2 + sigma^2
    assert m1 == pytest.approx(1.0, rel=1e-8)
    assert m2 == pytest.approx(a * a + sigma * sigma, rel=1e-8)


def _thermal_shaped(log_r):
    wr = OMEGA * RHO
    return PhaseAveragedStatistics(label="hand_thermal", energy_density=wr,
                                   log_r_fn=log_r,
                                   support_max=40.0 * math.sqrt(2.0 * wr))


def test_nan_statistics_raise():
    # a NaN in log R must reach the caller as an error naming the state
    # and the field, never as NaN moments
    wr = OMEGA * RHO
    root_u = math.sqrt(wr)

    def log_r(e):
        out = -e * e / (2.0 * wr) - math.log(wr)
        return np.where((e > 0.5 * root_u) & (e < 0.7 * root_u), np.nan, out)

    with pytest.raises(ValueError, match=r"hand_thermal.*NaN at E="):
        moments(_thermal_shaped(log_r))


def test_unconverged_moments_raise():
    # noise of 1e-3 in log R keeps successive panel estimates about 1e-5
    # apart, so the halving must stop at its cap with NonNormalizable; so
    # must a peak every node misses; an infinite density is refused at once
    wr = OMEGA * RHO
    rng = np.random.default_rng(7)

    def noisy(e):
        return (-e * e / (2.0 * wr) - math.log(wr)
                + rng.normal(0.0, 1e-3, np.shape(e)))

    with pytest.raises(NonNormalizable, match="hand_thermal.*not converged"):
        moments(_thermal_shaped(noisy))
    # a peak of width 1e-5 A on [0, 40 A] falls between the nodes of the
    # first passes, whose estimates underflow to exactly (0, 0); agreeing
    # zeros are no answer, and the peak is still unresolved at the cap
    a = math.sqrt(2.0 * wr)
    sigma = 1e-5 * a

    def narrow(e):
        return (-((e - a) ** 2) / (2.0 * sigma * sigma)
                - 0.5 * math.log(2.0 * math.pi * sigma * sigma) - np.log(e))

    with pytest.raises(NonNormalizable, match="hand_thermal.*not converged"):
        moments(_thermal_shaped(narrow))
    with pytest.raises(NonNormalizable, match="hand_thermal.*not finite"):
        moments(_thermal_shaped(lambda e: np.full(np.shape(e), np.inf)))
