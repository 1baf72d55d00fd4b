"""Property tests over random grids, seeds and lattice windows.

The Weyl calculus invariants are checked on both application paths: a
real function symbol (separable) and the Sigma that build_symbols makes
from a small random state (general).  The model nonlinearity is checked
for the skew identity behind L^2 conservation, with no time stepping.
The lattice sweeps, which run over D4 orbit representatives, are checked
against brute-force loops over every tuple of small windows, and the
lattice index rule against numpy's FFT layout.
Examples are derandomized, so every run draws the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from census_oracles import (check_census, oracle_scan3, oracle_scan4, scan3_id,
                            scan4_id)
from gcwaves.dispersion import (DispersionParams, ScanWindow, WeightParams,
                                _interval_lengths_vec, exceptional_measure_bounds,
                                lam, scan_four_wave, scan_three_wave, weight_K_arr)
from gcwaves.energy import depletion_checks, energy_symbol
from gcwaves.fields import Grid, inner, l2_norm, random_field
from gcwaves.goodvar import build_symbols, random_state
from gcwaves.lattice import coords, flat, lattice_disk, norms
from gcwaves.model import ModelConfig, nonlinearity
from gcwaves.paradiff import ParadiffConfig, Symbol, weyl_apply

CASES = dict(m=st.integers(4, 8).map(lambda k: 2 * k),
             seed=st.integers(0, 2 ** 16))
CHIS = pytest.mark.parametrize("chi", [-2, -3])
SETTINGS = settings(max_examples=20, derandomize=True, deadline=None, database=None)


def _check_self_adjoint_and_conjugation(a, grid, cfg, seed):
    u = random_field(grid, seed=seed + 1)
    v = random_field(grid, seed=seed + 2)
    lhs = inner(weyl_apply(a, u, cfg), v)
    rhs = inner(u, weyl_apply(a, v, cfg))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    # conj(T_a u) = T_{a'} conj(u), a'(y, zeta) = conj(a(y, -zeta))
    left = weyl_apply(a, u, cfg).conj()
    right = weyl_apply(a.conj_flip(), u.conj(), cfg)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-13 * (
        1e-30 + np.max(np.abs(left.coeffs)))


@CHIS
@SETTINGS
@given(**CASES)
def test_weyl_invariants_real_function_symbol(m, seed, chi):
    grid = Grid(m)
    a = Symbol.from_function(random_field(grid, seed=seed, real=True))
    _check_self_adjoint_and_conjugation(a, grid, ParadiffConfig(chi_exponent=chi), seed)


@CHIS
@SETTINGS
@given(**CASES)
def test_weyl_invariants_good_variable_sigma(m, seed, chi):
    grid = Grid(m)
    cfg = ParadiffConfig(chi_exponent=chi)
    state = random_state(grid, DispersionParams(1.0, 1.0), amplitude=0.05, seed=seed)
    sigma = build_symbols(state, cfg).Sigma
    assert not sigma.is_separable
    _check_self_adjoint_and_conjugation(sigma, grid, cfg, seed)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(m=st.integers(4, 32).map(lambda k: 2 * k), seed=st.integers(0, 2 ** 16),
       decay=st.sampled_from([0.0, 0.02, 0.25]), band=st.integers(0, 10),
       amplitude=st.floats(1e-3, 1e3))
def test_nonlinearity_is_skew_on_dealiased_fields(m, seed, decay, band, amplitude):
    # Re<N(U), U> = 0 to rounding: the retained products are alias-free, and
    # transport plus half-divergence pair to a skew operator
    grid = Grid(m)
    cfg = ModelConfig(DispersionParams(1.0, 1.0), grid, 0.1, 1e-2, 1.0,
                      velocity_band=band)
    u = random_field(grid, seed=seed, decay=decay) * amplitude
    nl = nonlinearity(u, cfg)
    assert abs(np.real(inner(nl, u))) <= 1e-13 * max(l2_norm(nl) * l2_norm(u), 1e-300)


# ---------------------------------------------------------------------------
# lattice sweeps over D4 orbit representatives
# ---------------------------------------------------------------------------

# the 8 lattice symmetries of Z^2
D4 = [lambda v, s1=s1, s2=s2, t=t: (s1 * v[t], s2 * v[1 - t])
      for s1 in (1, -1) for s2 in (1, -1) for t in (0, 1)]
CENSUS = settings(max_examples=6, derandomize=True, deadline=None, database=None)
WINDOWS = dict(g=st.floats(0.05, 20.0), hi=st.integers(1, 8), lo=st.integers(1, 3))


def _cuts(data):
    """Record counts: one at random, and one that cuts a group of equal gaps."""
    def cuts(ties):
        n = [data.draw(st.integers(0, 400), label="n_records")]
        return n + ([data.draw(st.sampled_from(ties), label="tie")] if ties else [])
    return cuts


def _closed_under_d4(full, ident, images):
    """Every record's images are records, with the same gap bit for bit;
    images(g, key) lists the keys the image may be recorded under."""
    gaps = {ident(r): r.normalized_gap for r in full.records}
    for g in D4:
        for k, gap in gaps.items():
            assert gap in [gaps.get(i) for i in images(g, k)]


@CENSUS
@given(kappa=st.floats(0.05, 1.0), data=st.data(), **WINDOWS)
def test_scan3_reduced_sweep_matches_oracle(g, kappa, hi, lo, data):
    lo = min(lo, hi)
    params, wp = DispersionParams(g, 1.0), WeightParams(kappa)
    full = check_census(lambda n: scan_three_wave(params, wp, ScanWindow(hi, lo), n_records=n),
                        oracle_scan3(params, wp, hi, lo), scan3_id, _cuts(data))
    _closed_under_d4(full, scan3_id, lambda g, k: [(g(k[0]), g(k[1]), k[2])])


@CENSUS
@given(data=st.data(), **WINDOWS)
def test_scan4_reduced_sweep_matches_oracle(g, hi, lo, data):
    hi, lo = min(hi, 4), min(lo, hi, 2)   # the full scan lists ~14k records at (4, 2)
    params = DispersionParams(g, 1.0)
    full = check_census(lambda n: scan_four_wave(params, ScanWindow(hi, lo), n_records=n),
                        oracle_scan4(params, hi, lo), scan4_id, _cuts(data))

    def images(g, k):   # the image pair is listed in either order
        v, xi, eta, (i1, i2) = k
        return [(g(v), g(xi), g(eta), (i1, i2)), (g(v), g(eta), g(xi), (i2, i1))]

    _closed_under_d4(full, scan4_id, images)


def _depletion_oracle(params, N, radius, max_offset):
    """(mprime_min, mprime_max, factor_C, n_pairs_mprime, n_pairs_factor) by
    a double loop over every xi and offset."""
    off = max(max_offset, radius // 8 + 1)
    square = [(a, b) for a in range(-off, off + 1) for b in range(-off, off + 1)]
    ratios, c_best, n_fac = [], 0.0, 0
    for xi in lattice_disk(radius, include_origin=True).tolist():
        for rho in square:
            if rho == [0, 0] or rho == (0, 0):
                continue
            eta = (xi[0] - rho[0], xi[1] - rho[1])
            s = (xi[0] + eta[0], xi[1] + eta[1])
            dot = xi[0] ** 2 + xi[1] ** 2 - eta[0] ** 2 - eta[1] ** 2
            rn, sn = math.hypot(*rho), math.hypot(*s)
            d = dot ** 2 / (1.0 + s[0] ** 2 + s[1] ** 2)
            if rn <= max_offset and d > 0.0:
                ratios.append(abs(energy_symbol(N, xi, eta)) / d)
            if 16.0 * rn < sn:
                n_fac += 1
                cos2 = (dot / (rn * sn)) ** 2
                br = math.sqrt(1.0 + rn * rn)
                core = (1.0 + math.hypot(*xi) + math.hypot(*eta)) * br ** 2
                for i1 in (1, -1):
                    phi = lam(params, xi) - i1 * lam(params, rho) - lam(params, eta)
                    c_best = max(c_best, cos2 * core / (phi ** 2 + br ** 3))
    return min(ratios, default=math.inf), max(ratios, default=0.0), c_best, len(ratios), n_fac


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(g=st.floats(0.05, 20.0), N=st.floats(0.5, 6.0), radius=st.integers(1, 6),
       max_offset=st.integers(1, 3))
@example(g=1.0, N=2.0, radius=3, max_offset=2)   # axis points: orbits of 4
def test_depletion_checks_match_double_loop(g, N, radius, max_offset):
    params = DispersionParams(g, 1.0)
    rep = depletion_checks(params, N, radius, max_offset=max_offset)
    mp_min, mp_max, c_best, n_mp, n_fac = _depletion_oracle(params, N, radius, max_offset)
    assert (rep.n_pairs_mprime, rep.n_pairs_factor) == (n_mp, n_fac)
    assert rep.mprime_min == pytest.approx(mp_min, rel=1e-12)
    assert rep.mprime_max == pytest.approx(mp_max, rel=1e-12)
    assert rep.factor_C == pytest.approx(c_best, rel=1e-12)


def _measure_rows(B, wp, cutoff):
    """(a, b, c, K, F(0), F(B)) of every admissible (eta, xi) pair, in order."""
    pts = lattice_disk(cutoff)
    ie, ix = np.divmod(np.arange(len(pts) ** 2), len(pts))
    a, b, c = (np.hypot(v[:, 0], v[:, 1]) for v in (pts[ie], pts[ix], pts[ie] + pts[ix]))
    ok = (b >= a) & (c >= b) & (c > 0.0)
    a, b, c = a[ok], b[ok], c[ok]
    k = weight_K_arr(wp, b, a, c)
    f0 = np.array([v ** 1.5 for v in a]) + b ** 1.5 - c ** 1.5
    fB = (np.array([np.sqrt(v * B + v ** 3) for v in a]) + np.sqrt(b * B + b ** 3)
          - np.sqrt(c * B + c ** 3))
    return a, b, c, k, f0, fB


def _measure_reference(B, js, wp, cutoff):
    """The per-level path: every (eta, xi) pair in order, and each level's
    selected rows through _interval_lengths_vec; plus the distinct (a, b, c)
    of the rows some level selects."""
    a, b, c, k, f0, fB = _measure_rows(B, wp, cutoff)
    out = []
    for j in js:
        delta = 2.0 ** (-j) * k
        sel = (f0 < delta) & (fB > -delta)
        lengths = _interval_lengths_vec(a[sel], b[sel], c[sel], delta[sel], B)
        out.append((float(lengths.sum()), int(np.count_nonzero(lengths)), a.size))
    delta = 2.0 ** (-min(js)) * k    # the loosest level selects every other's rows
    sel = (f0 < delta) & (fB > -delta)
    n_distinct = len(set(zip(a[sel].tolist(), b[sel].tolist(), c[sel].tolist())))
    return [row + (n_distinct,) for row in out]


def _measure_got(B, js, wp, cutoff):
    return [(m.total, m.n_intervals, m.n_pairs, m.n_bisected)
            for m in exceptional_measure_bounds(B, js, wp, cutoff)]


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(B=st.floats(5.0, 60.0), kappa=st.floats(0.05, 1.0), cutoff=st.integers(1, 8),
       js=st.lists(st.integers(5, 12), min_size=1, max_size=4))
def test_measure_distinct_rows_equal_per_level_bisection(B, kappa, cutoff, js):
    wp = WeightParams(kappa)
    assert _measure_got(B, js, wp, cutoff) == _measure_reference(B, js, wp, cutoff)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5, 6, math.sqrt(2.0), 4.5])
@pytest.mark.parametrize("B, kappa, js", [
    (5.0, 1.0, [5, 6, 7]), (17.5, 0.3, [9]),
    # B just below the root x0 = 5.31936... of F at (a, b, c) = (1, sqrt 13,
    # sqrt 20), e.g. eta = (1, 0), xi = (3, 2): there F(B) = -1.5 delta_5, so
    # no level keeps the row, but a pre-filter at 2 delta_5 would bisect it
    (5.317443006, 1.0, [5]),
    # here F(B) = -delta_5 / 2: kept at j = 5, not selected at j = 8
    (5.318721863, 1.0, [5, 8])])
def test_measure_representative_sweep_equals_reference(cutoff, B, kappa, js):
    # the sweep runs over the representative eta (axis and diagonal ones
    # included) and restores every kept row of the window in (eta, xi) order
    wp = WeightParams(kappa)
    assert _measure_got(B, js, wp, cutoff) == _measure_reference(B, js, wp, cutoff)


def test_measure_bisects_each_distinct_row_once():
    # at the benchmark flags 524 distinct (a, b, c) are bisected, however many
    # rows (4,332 per level) share them
    wp = WeightParams(1.0)
    got = _measure_got(5.0, [5, 6, 7], wp, 16)
    assert got == _measure_reference(5.0, [5, 6, 7], wp, 16)
    assert {n_bisected for *_, n_bisected in got} == {524}


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 40), side=st.integers(0, 60))
def test_index_rule_matches_fft_layout(n, side):
    # flat inverts coords on the centered n-box, odd and even n alike
    k1, k2 = coords(n)
    assert np.array_equal(flat(np.stack((k1, k2), axis=-1), n), np.arange(n * n))
    # fftshift moves the coefficient of frequency k to flat index flat(k, n)
    k = np.fft.fftfreq(n, 1.0 / n).round().astype(int)
    K = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1)
    a = np.arange(n * n).reshape(n, n)
    assert np.array_equal(np.fft.fftshift(a).ravel()[flat(K, n)], a)
    # norms(2 s + 1) is the |v| table of the square [-s, s]^2, bit for bit
    axis = np.arange(-side, side + 1)
    square = np.hypot(*np.meshgrid(axis, axis, indexing="ij")).ravel()
    assert norms(2 * side + 1).tobytes() == square.tobytes()
