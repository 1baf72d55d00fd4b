"""The energy layer's fast routes against a brute-force row loop, and the
unfiltered energy sum against an exact one.

``row_sums`` is the row-by-row evaluation the library used before the FFT
route and the near-resonant plan: per row rho = xi - eta it shifts Ghat,
the inside mask and Lambda(eta), forms Phi and the filter there and sums
over xi.  It is kept here, unoptimized, as the oracle.  ``mp_energy_total``
sums the unfiltered energy identity's terms in mpmath at 40 digits.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcwaves import energy
from gcwaves.dispersion import DispersionParams, lam_abs
from gcwaves.energy import (C_ENERGY, BulkSymbol, ModulationFilter, energy_symbol_arr,
                            increment_audit, mu_one, trilinear, trivial_resonance_sum)
from gcwaves.errors import SmallDivisorError
from gcwaves.fields import FourierField, Grid, bump, phi_le, random_field
from gcwaves.model import ModelConfig
from gcwaves.lattice import coords

P = DispersionParams(1.0, 1.0)
SETTINGS = settings(max_examples=20, derandomize=True, deadline=None, database=None)
SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def shift2(arr, r1, r2):
    """out[i, j] = arr[i - r1, j - r2], zero outside; centered layout."""
    m = arr.shape[0]
    out = np.zeros_like(arr)
    i0, i1 = max(0, r1), m + min(0, r1)
    j0, j1 = max(0, r2), m + min(0, r2)
    if i0 >= i1 or j0 >= j1:
        return out
    out[i0:i1, j0:j1] = arr[i0 - r1:i1 - r1, j0 - r2:j1 - r2]
    return out


def rows_above(coeffs, row_tol):
    tol = row_tol * np.max(np.abs(coeffs)) if row_tol else 0.0
    return [(int(i), int(j)) for i, j in np.argwhere(np.abs(coeffs) > tol)]


def row_sums(mu, filt, fc, rows, gc, hconj, params, weighted=False):
    """sum_rho fc(rho) sum_xi mu filt(Phi) [1/(i Phi)] Ghat(eta) hconj(xi),
    centered m x m arrays, xi, eta and rho on the grid."""
    i1, i2 = filt.signs
    m = gc.shape[0]
    K1, K2 = (k.reshape(m, m) for k in coords(m))
    k1, k2 = K1.astype(float), K2.astype(float)
    lam_xi = lam_abs(params, np.hypot(K1, K2))
    ones = np.ones((m, m))
    total = 0.0 + 0.0j
    for i, j in rows:
        r1, r2 = i - m // 2, j - m // 2
        lam_rho = float(lam_abs(params, math.hypot(r1, r2)))
        inside = shift2(ones, r1, r2) > 0.5
        phi_mod = lam_xi - i1 * lam_rho - i2 * shift2(lam_xi, r1, r2)
        w = np.where(inside, filt._weight(phi_mod, bump(phi_mod)), 0.0)
        if weighted:
            if np.any((w > 0.0) & (np.abs(phi_mod) < energy.SMALL_DIVISOR_GUARD)):
                raise SmallDivisorError(f"row ({r1},{r2})")
            w = np.where(w > 0.0, w / (1j * np.where(w > 0.0, phi_mod, 1.0)), 0.0)
        muv = mu(k1, k2, k1 - r1, k2 - r2)
        total += fc[i, j] * np.sum(muv * w * shift2(gc, r1, r2) * hconj)
    return complex(total)


def oracle_trilinear(mu, filt, F, G, H, weighted=False, row_tol=0.0, absolute=False):
    """The oracle for trilinear; absolute=True sums |terms| instead (for a
    nonnegative filter)."""
    fc, gc, hc = (np.fft.fftshift(X.coeffs) for X in (F, G, H))
    rows = rows_above(fc, row_tol)
    if absolute:
        amu = lambda *a: np.abs(mu(*a))
        return row_sums(amu, filt, np.abs(fc), rows, np.abs(gc), np.abs(hc), P).real
    return row_sums(mu, filt, fc, rows, gc, np.conj(hc), P, weighted)


def close(got, ref, rel=1e-12):
    return abs(got - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# the energy routes: FFT total and plan parts
# ---------------------------------------------------------------------------

def _energy_operands(grid, U, N, band):
    k1, k2 = grid.freqs()
    W = FourierField(grid, (1.0 + (k1 * k1 + k2 * k2).astype(float)) ** (N / 2) * U.coeffs)
    mu = lambda x1, x2, e1, e2: energy_symbol_arr(N, x1, x2, e1, e2, C_ENERGY, band)
    return W, mu


# the sums are O(N): below N ~ 1e-290 they are subnormal floats, which hold
# fewer digits than the 1e-12 checks ask for
@pytest.mark.parametrize("m", [8, 10, 12, 14, 16])
@SETTINGS
@given(seed=st.integers(0, 10_000), N=st.just(0.0) | st.floats(1e-200, 6.0),
       D=st.floats(0.0, 3.5), band=st.integers(0, 4), decay=st.floats(0.05, 0.5))
def test_energy_routes_match_row_loop(m, seed, N, D, band, decay):
    grid = Grid(m)
    U = random_field(grid, seed=seed, decay=decay)
    W, mu = _energy_operands(grid, U, N, band)
    iU = 1j * U
    total = oracle_trilinear(mu, ModulationFilter(), iU, W, W, row_tol=1e-14).real
    assert close(energy._energy_total(U, N, C_ENERGY, band), total)

    k1, k2 = grid.freqs()
    low = phi_le(np.hypot(k1, k2), D)
    lo = ModulationFilter("le0")
    lh, ll = energy._energy_le0_parts(U, N, P, C_ENERGY, band, [1.0 - low, low])
    H_hi, H_lo = (FourierField(grid, w * W.coeffs) for w in (1.0 - low, low))
    ref_ll = oracle_trilinear(mu, lo, iU, W, H_lo, row_tol=1e-14).real
    assert close(ll, ref_ll)
    # loMod_hiFreq is pure cancellation: compare against the size of its terms
    ref_lh = oracle_trilinear(mu, lo, iU, W, H_hi, row_tol=1e-14).real
    scale = oracle_trilinear(mu, lo, iU, W, H_hi, row_tol=1e-14, absolute=True)
    assert abs(lh - ref_lh) <= 1e-12 * scale
    ref_hi = oracle_trilinear(mu, ModulationFilter("gt0"), iU, W, W, row_tol=1e-14).real
    assert close(energy._energy_total(U, N, C_ENERGY, band) - (lh + ll), ref_hi)


# ---------------------------------------------------------------------------
# the unfiltered sum against mpmath, down to N -> 0
# ---------------------------------------------------------------------------

@functools.cache
def _mp_terms(m, seed, band):
    """The field random_field(Grid(m), seed, decay 0.5) and, per pair (xi,
    eta) of its nonzero coefficients with Uhat(rho) != 0 and phi_{<=band}(rho)
    > 0, (q(xi), q(eta), phi(rho) Re(i Uhat(rho) Uhat(eta) conj Uhat(xi))),
    the last at 40 digits from the exact float coefficients."""
    grid = Grid(m)
    U = random_field(grid, seed=seed, decay=0.5)
    k1, k2 = grid.freqs()
    u = np.asarray(U.coeffs)
    with mpmath.workdps(40):
        coef = {(int(k1[i, j]), int(k2[i, j])): mpmath.mpc(u[i, j].real, u[i, j].imag)
                for i, j in zip(*np.nonzero(u))}
        terms = []
        for xi, u_xi in coef.items():
            for eta, u_eta in coef.items():
                rho = (xi[0] - eta[0], xi[1] - eta[1])
                phi = float(phi_le(math.hypot(*rho), band))
                if rho in coef and phi > 0.0:
                    z = coef[rho] * u_eta * mpmath.conj(u_xi)
                    terms.append((xi[0] ** 2 + xi[1] ** 2, eta[0] ** 2 + eta[1] ** 2,
                                  -phi * z.imag))
    return U, terms


def mp_energy_total(m, seed, band, N):
    """(U, the unfiltered sum sum m(xi,eta) What(eta) conj(What(xi)) i Uhat(rho)
    as c (q(xi) - q(eta)) ((1+q(eta))^N - (1+q(xi))^N) phi(rho) Re(...) at
    40 digits)."""
    U, terms = _mp_terms(m, seed, band)
    with mpmath.workdps(40):
        power = functools.cache(lambda q: mpmath.power(1 + q, mpmath.mpf(N)))
        total = mpmath.fsum((qx - qe) * (power(qe) - power(qx)) * t for qx, qe, t in terms)
        return U, float(C_ENERGY * total)


@pytest.mark.parametrize("N", [5.96e-8, 1e-9, 1e-5, 3.0, 5.0, 50.0, -1e-9, -50.0])
@pytest.mark.parametrize("m,seed", [(8, 0), (12, 4)], ids=["8", "12"])
def test_energy_total_matches_mpmath(m, seed, N):
    # the FFT total and the row loop over energy_symbol_arr's m stay at
    # rounding level for every N: as N -> 0, where the powers (1+q)^N
    # cancel, for large N, and for N < 0, where (1+q)^N - 1 -> -1
    band = 1
    U, ref = mp_energy_total(m, seed, band, N)
    assert close(energy._energy_total(U, N, C_ENERGY, band), ref)
    W, mu = _energy_operands(U.grid, U, N, band)
    assert close(oracle_trilinear(mu, ModulationFilter(), 1j * U, W, W, row_tol=1e-14).real,
                 ref)


# ---------------------------------------------------------------------------
# the general-mu sums: every filter kind and sign pair
# ---------------------------------------------------------------------------

def mu_mixed(x1, x2, e1, e2):
    """A symbol with no symmetry, so any swapped index shows."""
    return 1.0 + 0.3 * x1 - 0.2 * e2 + 0.05 * x2 * e1


FILTERS = [("none", 0.0), ("le0", 0.0), ("gt0", 0.0), ("leB", -1.5), ("leB", 1.0),
           ("B_to_0", -1.5), ("B_to_0", 1.0)]


@pytest.mark.parametrize("signs", SIGNS, ids=["pp", "pm", "mp", "mm"])
@pytest.mark.parametrize("kind,B", FILTERS, ids=[f"{k}{b:+g}" for k, b in FILTERS])
def test_trilinear_matches_row_loop(kind, B, signs):
    g = Grid(12)
    F, G, H = (random_field(g, seed=s, decay=0.15) for s in (31, 32, 33))
    filt = ModulationFilter(kind, signs, B)
    assert close(trilinear(mu_mixed, filt, F, G, H, P),
                 oracle_trilinear(mu_mixed, filt, F, G, H))


@pytest.mark.parametrize("signs", SIGNS, ids=["pp", "pm", "mp", "mm"])
def test_weighted_trilinear_matches_row_loop(signs):
    g = Grid(12)
    F, G, H = (random_field(g, seed=s, decay=0.15) for s in (34, 35, 36))
    for kind, B in (("gt0", 0.0), ("B_to_0", -1.0)):
        filt = ModulationFilter(kind, signs, B)
        assert close(trilinear(mu_mixed, filt, F, G, H, P, weighted=True, row_tol=1e-3),
                     oracle_trilinear(mu_mixed, filt, F, G, H, weighted=True, row_tol=1e-3))


@pytest.mark.parametrize("mu", [mu_one, BulkSymbol(-2)], ids=["mu_one", "bulk"])
@pytest.mark.parametrize("signs", SIGNS, ids=["pp", "pm", "mp", "mm"])
def test_trivial_resonance_matches_row_loop(mu, signs):
    g = Grid(10)
    U = random_field(g, seed=37, decay=0.2)
    W = random_field(g, seed=38, decay=0.2)
    uc = np.fft.fftshift(U.coeffs)
    rows = rows_above(uc, 1e-14)
    fc, hc = 1j * np.abs(uc) ** 2, np.abs(np.fft.fftshift(W.coeffs)) ** 2
    for filt, weighted in ((ModulationFilter("le0", signs), False),
                           (ModulationFilter("none", signs), False),
                           (ModulationFilter("leB", signs, -1.0), False),
                           (ModulationFilter("gt0", signs), True)):
        ref = row_sums(mu, filt, fc, rows, np.ones(uc.shape), hc, P, weighted)
        assert close(trivial_resonance_sum(mu, filt, U, W, P, weighted=weighted), ref)


# ---------------------------------------------------------------------------
# the near-resonant plan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 11], ids=["grid-box", "dealiased-box"])
@pytest.mark.parametrize("signs", SIGNS, ids=["pp", "pm", "mp", "mm"])
def test_plan_holds_exactly_the_near_resonant_pairs(n, signs):
    # brute force over every pair of the centered n x n box
    k = np.arange(n) - n // 2
    x1, x2, e1, e2 = (a.ravel() for a in np.meshgrid(k, k, k, k, indexing="ij"))
    r1, r2 = x1 - e1, x2 - e2
    inside = (r1 >= k[0]) & (r1 <= k[-1]) & (r2 >= k[0]) & (r2 <= k[-1])
    lam = lambda a, b: lam_abs(P, np.hypot(a, b))
    i1, i2 = signs
    phi = lam(x1, x2) - i1 * lam(r1, r2) - i2 * lam(e1, e2)
    le0 = bump(phi)
    want = inside & (le0 > 0.0)
    flat = lambda a, b: (a + n // 2) * n + (b + n // 2)
    want_pairs = flat(x1, x2)[want].astype(np.int64) * n * n + flat(e1, e2)[want]

    plan = energy._ResonantPlan(n, P, signs)
    got_pairs = plan.xi.astype(np.int64) * n * n + plan.eta
    assert len(plan.xi) == int(want.sum()) > 0
    order, want_order = np.argsort(got_pairs), np.argsort(want_pairs)
    assert np.array_equal(got_pairs[order], want_pairs[want_order])
    assert np.array_equal(plan.le0[order], le0[want][want_order])
    assert len(plan.xi) < inside.sum()   # a strict subset of the box's pairs


def test_plan_is_invisible():
    # cold cache, warm cache and an evicted-then-rebuilt plan give
    # bit-identical sums
    g = Grid(12)
    F, G, H = (random_field(g, seed=s, decay=0.15) for s in (40, 41, 42))
    cfg = ModelConfig(P, Grid(16), 0.05, 1e-3, 0.005, seed=1)
    filt = ModulationFilter("le0", (1, -1))

    def sums():
        audit = increment_audit(cfg, None, audit_times=[0.002], N=4.0, D=1.0)
        return [trilinear(mu_mixed, filt, F, G, H, P), audit.parts_rows]

    energy._resonant_plan.cache_clear()
    cold = sums()
    assert energy._resonant_plan.cache_info().currsize == 2
    warm = sums()
    assert energy._resonant_plan.cache_info().hits >= 2
    for s in SIGNS:   # evict both plans
        energy._resonant_plan(9, P, s)
    assert energy._resonant_plan.cache_info().currsize == 3
    rebuilt = sums()
    assert cold == warm == rebuilt

