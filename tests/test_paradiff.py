import itertools
import math

import numpy as np
import pytest

from gcwaves import paradiff
from gcwaves.errors import ConfigError
from gcwaves.fields import (FourierField, Grid, inner, l2_norm,
                            lp_project, mean, product_exact, random_field,
                            synthesize)
from gcwaves.paradiff import (ParadiffConfig, SeparableTerm, Symbol,
                              assemble_matrix, compose_residual_field,
                              composition_residual, default_zeta_samples,
                              error_kernel_apply, paracomp_remainder,
                              paralin_remainder, poisson_bracket, symbol_norm,
                              weyl_apply)

CFG = ParadiffConfig(chi_exponent=-2)
G16 = Grid(16)
TWO_PI = 2.0 * np.pi


def _mult(p):
    return Symbol.multiplier(lambda z1, z2: np.hypot(z1, z2) ** p, p,
                             dgz=(lambda z1, z2: p * np.hypot(z1, z2) ** (p - 2) * z1,
                                  lambda z1, z2: p * np.hypot(z1, z2) ** (p - 2) * z2))


def test_config_validation():
    with pytest.raises(ConfigError):
        ParadiffConfig(chi_exponent=0)
    assert ParadiffConfig().chi_exponent == -20  # the faithful default


def test_t_one_is_identity_minus_mean():
    f = random_field(G16, seed=3, mean_zero=False)
    out = weyl_apply(Symbol.constant(1.0), f, CFG)
    diff = np.array(out.coeffs - f.coeffs)
    diff[0, 0] += f.coeffs[0, 0]
    assert np.max(np.abs(diff)) == 0.0
    assert mean(out) == 0.0


def test_t_a_kills_constants():
    const = FourierField.single_mode(G16, (0, 0), 2.5)
    for sym in (Symbol.from_function(random_field(G16, seed=4)), _mult(1.0)):
        assert np.all(weyl_apply(sym, const, CFG).coeffs == 0.0)


def test_output_always_mean_free():
    f = random_field(G16, seed=5, mean_zero=False)
    sym = Symbol.from_function(random_field(G16, seed=6, real=True))
    assert mean(weyl_apply(sym, f, CFG)) == 0.0


def test_multiplier_symbol_acts_diagonally():
    f = random_field(G16, seed=7)
    out = weyl_apply(_mult(0.5), f, CFG)
    k1, k2 = G16.freqs()
    expect = np.where(np.hypot(k1, k2) > 0, np.hypot(k1, k2) ** 0.5, 0.0) * f.coeffs
    assert np.max(np.abs(out.coeffs - expect)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_self_adjointness_real_order0():
    for seed in range(3):
        a = Symbol.from_function(random_field(G16, seed=20 + seed, real=True))
        u = random_field(G16, seed=30 + seed)
        v = random_field(G16, seed=40 + seed)
        lhs = inner(weyl_apply(a, u, CFG), v)
        rhs = inner(u, weyl_apply(a, v, CFG))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_hermitian_matrix_small_grid():
    g = Grid(8)
    a = Symbol.from_function(random_field(g, seed=8, real=True))
    mat = assemble_matrix(a, g, CFG)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-13 * (1.0 + np.max(np.abs(mat)))


def test_conjugation_identity():
    # conj(T_a f) = T_{a'} conj(f), a'(y, zeta) = conj(a(y, -zeta))
    f = random_field(G16, seed=9)
    fld = random_field(G16, seed=10)
    a = Symbol.separable([SeparableTerm(
        fld, lambda z1, z2: (z1 + 2j * z2) * np.hypot(z1, z2) ** 0.5,
        (lambda z1, z2: np.hypot(z1, z2) ** 0.5 + (z1 + 2j * z2) * 0.5 * z1 * np.hypot(z1, z2) ** -1.5,
         lambda z1, z2: 2j * np.hypot(z1, z2) ** 0.5 + (z1 + 2j * z2) * 0.5 * z2 * np.hypot(z1, z2) ** -1.5))],
        order=1.5)
    lhs = weyl_apply(a, f, CFG).conj()
    rhs = weyl_apply(a.conj_flip(), f.conj(), CFG)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * np.max(np.abs(lhs.coeffs) + 1e-30)


def test_linearity():
    a = Symbol.from_function(random_field(G16, seed=11, real=True))
    b = Symbol.from_function(random_field(G16, seed=12, real=True))
    f = random_field(G16, seed=13)
    h = random_field(G16, seed=14)
    lhs = weyl_apply(a, f + 2.0 * h, CFG)
    rhs = weyl_apply(a, f, CFG) + 2.0 * weyl_apply(a, h, CFG)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * np.max(np.abs(lhs.coeffs))
    absum = Symbol.separable(list(a.terms) + list(b.terms), 0.0)
    lhs2 = weyl_apply(absum, f, CFG)
    rhs2 = weyl_apply(a, f, CFG) + weyl_apply(b, f, CFG)
    assert np.max(np.abs(lhs2.coeffs - rhs2.coeffs)) <= 1e-13 * np.max(np.abs(lhs2.coeffs))


def test_general_path_matches_separable_path():
    fld = random_field(G16, seed=15, real=True)
    fs = synthesize(fld)
    gen = Symbol.general(lambda X1, X2, Z1, Z2: fs * np.sqrt(Z1 ** 2 + Z2 ** 2), 1.0)
    sep = Symbol.separable([SeparableTerm(fld, lambda z1, z2: np.sqrt(z1 ** 2 + z2 ** 2))], 1.0)
    u = random_field(G16, seed=16)
    o1 = weyl_apply(gen, u, CFG)
    o2 = weyl_apply(sep, u, CFG)
    assert np.max(np.abs(o1.coeffs - o2.coeffs)) <= 1e-13 * np.max(np.abs(o2.coeffs))


def test_faithful_chi_kills_desk_scale_paraproducts():
    # at chi = -20 every |xi-eta| >= 1 interaction needs |xi+eta| >~ 2^20
    cfg20 = ParadiffConfig(chi_exponent=-20)
    a = Symbol.from_function(random_field(G16, seed=17, real=True))
    u = random_field(G16, seed=18)
    out = weyl_apply(a, u, cfg20)
    assert np.max(np.abs(out.coeffs)) == 0.0


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------

def test_poisson_closed_form():
    # a = |zeta|^2, b = sin x1  ->  {a, b} = -2 zeta_1 cos x1
    a = _mult(2.0)
    sc = FourierField.single_mode(G16, (1, 0), -0.5j) + FourierField.single_mode(G16, (-1, 0), 0.5j)
    b = Symbol.from_function(FourierField(G16, sc.coeffs, True))
    br = poisson_bracket(a, b)
    X1, X2 = G16.x()
    for z in ((1.5, 0.5), (-2.0, 3.0)):
        got = br.eval(X1, X2, np.asarray(z[0]), np.asarray(z[1]))
        assert np.max(np.abs(got - (-2 * z[0] * np.cos(X1)))) <= 1e-12


def test_poisson_antisymmetry_diagonal():
    fld = random_field(G16, seed=19, real=True)
    a = Symbol.separable([SeparableTerm(
        fld, lambda z1, z2: np.hypot(z1, z2),
        (lambda z1, z2: z1 / np.hypot(z1, z2), lambda z1, z2: z2 / np.hypot(z1, z2)))],
        order=1.0)
    br = poisson_bracket(a, a)
    X1, X2 = G16.x()
    vals = br.eval(X1, X2, np.asarray(2.0), np.asarray(-1.0))
    assert np.max(np.abs(vals)) <= 1e-12


def test_poisson_finite_difference_fallback():
    # general symbols without callbacks: FD in zeta with step 1/4
    fs = synthesize(random_field(G16, seed=21, real=True))
    a = Symbol.general(lambda X1, X2, Z1, Z2: fs * (Z1 ** 2 + Z2 ** 2), 2.0)
    b = _mult(1.0)
    br = poisson_bracket(a, b)
    X1, X2 = G16.x()
    z = (3.0, 1.0)
    got = br.eval(X1, X2, np.asarray(z[0]), np.asarray(z[1]))
    # {a,b} = -grad_z a . grad_x b + grad_x a . grad_z b; b multiplier:
    # = grad_x a . z/|z| ... a = f(x)|z|^2: grad_z a = 2 f z; grad_x b = 0
    k1, k2 = G16.freqs()
    fhat = np.fft.fft2(fs)
    fx1 = np.fft.ifft2(1j * k1 * fhat).real
    fx2 = np.fft.ifft2(1j * k2 * fhat).real
    r = math.hypot(*z)
    expect = (fx1 * z[0] + fx2 * z[1]) * (z[0] ** 2 + z[1] ** 2) / r / (z[0] ** 2 + z[1] ** 2) * r
    # direct: grad_x a . grad_zeta b = (f_x1 z1/r + f_x2 z2/r) |z|^2 / ... recompute plainly:
    expect = (fx1 * z[0] / r + fx2 * z[1] / r) * (z[0] ** 2 + z[1] ** 2)
    # FD error on a quadratic-in-zeta symbol is zero for the x-derivative
    # term; the zeta-derivative of a is exact for central differences too
    # (quadratic), so agreement should be ~1e-12
    assert np.max(np.abs(got - expect)) <= 1e-10 * (1 + np.max(np.abs(expect)))


# ---------------------------------------------------------------------------
# symbol norms
# ---------------------------------------------------------------------------

def test_symbol_norm_unimodular_function():
    a = Symbol.from_function(FourierField.single_mode(G16, (1, 0), 1.0))
    rep = symbol_norm(a, 0.0, 0, [(1.0, 0.0), (2.5, 2.0)], G16)
    assert rep.value == pytest.approx(TWO_PI, rel=1e-12)


def test_symbol_norm_order_one_multiplier():
    a = _mult(1.0)
    samples = default_zeta_samples(8.0)
    rep = symbol_norm(a, 1.0, 0, samples, G16)
    # <z>^{-1} |z| * ||1||_{L^2} <= 2 pi with margin
    assert rep.value <= TWO_PI * 1.0 + 1e-9
    assert rep.value >= TWO_PI * 0.7


def test_symbol_norm_homogeneous_in_amplitude():
    fld = random_field(G16, seed=22, real=True)
    a = Symbol.from_function(fld)
    a2 = Symbol.from_function(fld * 2.0)
    samples = [(1.0, 0.0)]
    r1 = symbol_norm(a, 0.0, 1, samples, G16)
    r2 = symbol_norm(a2, 0.0, 1, samples, G16)
    assert r2.value == pytest.approx(2.0 * r1.value, rel=1e-12)


def test_zeta_samples_respect_domain():
    with pytest.raises(ConfigError):
        symbol_norm(_mult(1.0), 1.0, 0, [(0.25, 0.25)], G16)
    assert all(z1 * z1 + z2 * z2 > 0.25 for z1, z2 in default_zeta_samples(8.0))


# ---------------------------------------------------------------------------
# error kernels and composition
# ---------------------------------------------------------------------------

def test_error_kernel_vanishes_for_affine_multiplier():
    a = Symbol.multiplier(lambda z1, z2: 3.0 * z1 - 2.0 * z2 + 0.5, 1.0,
                          dgz=(lambda z1, z2: 3.0 * np.ones(np.broadcast(z1, z2).shape),
                               lambda z1, z2: -2.0 * np.ones(np.broadcast(z1, z2).shape)))
    b = Symbol.from_function(random_field(G16, seed=23, real=True))
    f = random_field(G16, seed=24)
    for side in ("left", "right"):
        e = error_kernel_apply(a, b, f, side, CFG)
        assert np.max(np.abs(e.coeffs)) <= 1e-13


def test_error_kernel_vanishes_for_constant_b():
    a = _mult(0.5)
    b = Symbol.constant(1.0)
    f = random_field(G16, seed=25)
    e = error_kernel_apply(a, b, f, "left", CFG)
    assert np.max(np.abs(e.coeffs)) <= 1e-13  # xi = eta on the rho = 0 row


def test_error_kernel_matches_composition_residual():
    a = _mult(0.5)
    b = Symbol.from_function(random_field(G16, seed=26, real=True))
    f = random_field(G16, seed=27)
    res = compose_residual_field(a, b, f, CFG)
    ek = error_kernel_apply(a, b, f, "left", CFG)
    assert np.max(np.abs(res.coeffs - ek.coeffs)) <= 1e-10 * (1 + np.max(np.abs(ek.coeffs)))


def test_error_kernel_requires_multiplier_with_gradient():
    b = Symbol.from_function(random_field(G16, seed=28, real=True))
    f = random_field(G16, seed=29)
    with pytest.raises(ConfigError):
        error_kernel_apply(b, b, f, "left", CFG)
    with pytest.raises(ConfigError):
        error_kernel_apply(Symbol.multiplier(lambda z1, z2: np.hypot(z1, z2), 1.0),
                           b, f, "left", CFG)


def test_composition_multiplier_pair_exact():
    # two Fourier multipliers commute and compose exactly: residual == 0
    g = Grid(32)
    rep = composition_residual(_mult(1.0), _mult(0.5), 1.0, 0.5, [1, 2, 3], g, CFG)
    assert rep.exact_zero
    assert rep.slope == -math.inf


def test_composition_constant_symbol_zero_residual():
    g = Grid(32)
    rep = composition_residual(Symbol.constant(2.0),
                               Symbol.from_function(random_field(g, seed=30, real=True)),
                               0.0, 0.0, [1, 2, 3], g, CFG)
    assert rep.exact_zero


def test_composition_order_slope():
    g = Grid(64)
    cfg = ParadiffConfig(chi_exponent=-2, row_tol=1e-14)
    f = random_field(g, seed=31, real=True, decay=0.5)
    b = Symbol.separable([SeparableTerm(
        f, lambda z1, z2: np.hypot(z1, z2) ** 0.5,
        (lambda z1, z2: 0.5 * np.hypot(z1, z2) ** -1.5 * z1,
         lambda z1, z2: 0.5 * np.hypot(z1, z2) ** -1.5 * z2))], 0.5)
    rep = composition_residual(_mult(1.0), b, 1.0, 0.5, [2, 3, 4], g, cfg)
    assert rep.slope <= rep.expected + 0.3


def test_function_symbol_smoothing_slope():
    # spread-spectrum function symbols (rows ~ <rho>^{-9}); RemBounds-type
    # smoothing shows as slope ~ -7 across the bands
    g = Grid(64)
    cfg = ParadiffConfig(chi_exponent=-2)
    rng = np.random.default_rng(7)
    k1, k2 = g.freqs()
    rho = np.hypot(k1, k2)
    prof = np.where(rho <= 24, (1.0 + rho) ** -9.0, 0.0)
    c = prof * np.exp(2j * np.pi * rng.random((64, 64))) * TWO_PI ** 2
    fb = Symbol.from_function(FourierField.from_coeffs(g, c, check_real=False))
    rep = composition_residual(fb, fb, 0.0, 0.0, [2, 3, 4], g, cfg)
    assert rep.slope <= -6.0 + 0.5


# ---------------------------------------------------------------------------
# paralinearization
# ---------------------------------------------------------------------------

def test_paralin_single_modes_with_faithful_chi():
    # f = g = e^{ix1}: |xi-eta|/|xi+eta| = 1/3 is outside the chi = -20
    # support, both paraproducts vanish, H(f,g) = fg = e^{2ix1}
    cfg20 = ParadiffConfig(chi_exponent=-20)
    f = FourierField.single_mode(G16, (1, 0), 1.0)
    h = paralin_remainder(f, f, cfg20)
    expect = FourierField.single_mode(G16, (2, 0), 1.0)
    assert np.max(np.abs(h.coeffs - expect.coeffs)) <= 1e-12 * TWO_PI ** 2


def test_paralin_constant_factor():
    # H(c, g) = c g - T_c g - T_g c = c * mean(g) at the zero mode
    c0 = 1.7
    const = FourierField.single_mode(G16, (0, 0), c0)
    gfld = random_field(G16, seed=32, real=True, mean_zero=False)
    h = paralin_remainder(FourierField(G16, const.coeffs, True), gfld, CFG)
    direct = np.zeros((16, 16), complex)
    direct[0, 0] = c0 * gfld.coeffs[0, 0]
    assert np.max(np.abs(h.coeffs - direct)) <= 1e-12 * np.max(np.abs(gfld.coeffs))


def test_paralin_symmetric():
    f = random_field(G16, seed=33, real=True)
    g = random_field(G16, seed=34, real=True)
    h1 = paralin_remainder(f, g, CFG)
    h2 = paralin_remainder(g, f, CFG)
    assert np.max(np.abs(h1.coeffs - h2.coeffs)) <= 1e-13 * np.max(np.abs(h1.coeffs))


def test_paralin_separated_bands_vanish():
    # kernel 1 - chi(...) - chi(...) vanishes when min/max frequency ratio
    # is far below the chi support threshold
    g = Grid(64)
    f = lp_project(random_field(g, seed=35, real=True, decay=0.0), 1)
    h = lp_project(random_field(g, seed=36, real=True, decay=0.0), 5)
    rem = paralin_remainder(f, h, CFG)
    assert np.max(np.abs(rem.coeffs)) <= 1e-12 * np.max(np.abs(product_exact(f, h).coeffs))


def test_omega2_identity_direct_assembly():
    # Omega_2 = (1/2) H(|grad| w, |grad| w) - (1/2) H(grad w, grad w)
    # matches term-by-term direct assembly
    from gcwaves.fields import apply_multiplier, dx

    w = random_field(G16, seed=37, real=True)
    absgrad = apply_multiplier(w, lambda k1, k2: np.hypot(k1, k2))
    w1 = dx(w, 0)
    w2 = dx(w, 1)
    omega2 = (0.5 * paralin_remainder(absgrad, absgrad, CFG)
              - 0.5 * (paralin_remainder(w1, w1, CFG) + paralin_remainder(w2, w2, CFG)))
    # direct assembly of each H piece
    def direct_h(a, b):
        prod = product_exact(a, b)
        ta = weyl_apply(Symbol.from_function(a), b, CFG)
        tb = weyl_apply(Symbol.from_function(b), a, CFG)
        return prod - ta - tb

    ref = (0.5 * direct_h(absgrad, absgrad)
           - 0.5 * (direct_h(w1, w1) + direct_h(w2, w2)))
    assert np.max(np.abs(omega2.coeffs - ref.coeffs)) <= 1e-12 * (1 + np.max(np.abs(ref.coeffs)))


def test_paracomp_epsilon_slope():
    # F(u) = u + u^3: || F(eps u) - T_{F'(eps u)} (eps u) || = O(eps^3)
    from gcwaves.goodvar import fit_loglog

    u = random_field(G16, seed=38, real=True)
    eps_list = [0.3, 0.1, 0.03, 0.01]
    vals = []
    for eps in eps_list:
        rem = paracomp_remainder(u * eps, {3: 1.0}, CFG)
        vals.append(l2_norm(rem))
    assert fit_loglog(eps_list, vals) >= 3.0 - 0.2


def test_composition_order_precondition():
    g = Grid(16)
    with pytest.raises(ConfigError):
        composition_residual(_mult(11.0), _mult(1.0), 11.0, 1.0, [1, 2], g, CFG)


# ---------------------------------------------------------------------------
# the chi-support plan: oracle and cache state
# ---------------------------------------------------------------------------

def _brute_force(a, f, cfg, kernel=None):
    """T_a f straight from the module docstring's double sum over (xi, eta),
    kept on the grid's retained square (Nyquist rows zero) like every field."""
    m = f.grid.size
    X1, X2 = f.grid.x()
    box = range(-m // 2, m // 2)
    atilde = {}
    out = np.zeros((m, m), complex)
    for x1, x2, e1, e2 in itertools.product(box, repeat=4):
        r1, r2 = x1 - e1, x2 - e2
        if (x1, x2) == (0, 0) or (x1 + e1, x2 + e2) == (0, 0) or r1 not in box or r2 not in box:
            continue
        chi = cfg.chi(math.hypot(r1, r2) / math.hypot(x1 + e1, x2 + e2))
        if chi == 0.0:
            continue
        z = (0.5 * (x1 + e1), 0.5 * (x2 + e2))
        if z not in atilde:
            vals = a.eval(X1, X2, np.asarray(z[0]), np.asarray(z[1]))
            atilde[z] = np.fft.fft2(vals) * (TWO_PI / m) ** 2
        term = chi * atilde[z][r1 % m, r2 % m] * f.coeffs[e1 % m, e2 % m] / TWO_PI ** 2
        if kernel is not None:
            term *= kernel(x1, x2, r1, r2, *z)
        out[x1 % m, x2 % m] += term
    return FourierField(f.grid, out).coeffs


def _kernel(a, side):
    """error_kernel_apply's Taylor factor for a multiplier a, per pair."""
    t = a.terms[0]
    ga = lambda z1, z2: complex(t.gz(np.asarray(float(z1)), np.asarray(float(z2))))
    da = lambda z1, z2: (complex(t.dgz[0](np.asarray(z1), np.asarray(z2))),
                         complex(t.dgz[1](np.asarray(z1), np.asarray(z2))))

    def k(x1, x2, r1, r2, z1, z2):
        d1, d2 = da(z1, z2)
        lin = 0.5 * (r1 * d1 + r2 * d2)
        if side == "left":
            return ga(x1, x2) - ga(z1, z2) - lin
        return ga(x1 - r1, x2 - r2) - ga(z1, z2) + lin
    return k


def _oracle_case(case, g):
    fld = random_field(g, seed=50, real=True, decay=0.3)
    fs = synthesize(fld)
    gen = Symbol.general(lambda X1, X2, Z1, Z2: fs * np.sqrt(1.0 + Z1 ** 2 + Z2 ** 2)
                         + 1j * np.cos(X1 - 2 * X2) * Z1 / np.hypot(Z1, Z2), 1.0)
    multi = Symbol.separable([
        SeparableTerm(fld, lambda z1, z2: np.hypot(z1, z2) ** 0.5),
        SeparableTerm(random_field(g, seed=51), lambda z1, z2: (z1 + 2j * z2) / np.hypot(z1, z2)),
        SeparableTerm(None, lambda z1, z2: np.hypot(z1, z2))], 1.0)
    if case == "general":
        return gen, CFG, gen, None, None
    if case == "separable":
        return multi, CFG, multi, None, None
    if case == "row_tol":
        cfg = ParadiffConfig(chi_exponent=-2, row_tol=0.3)
        c = fld.coeffs
        kept = FourierField(g, np.where(np.abs(c) > 0.3 * np.max(np.abs(c)), c, 0.0), True)
        assert 0 < np.count_nonzero(kept.coeffs) < np.count_nonzero(c)
        return Symbol.from_function(fld), cfg, Symbol.from_function(kept), None, None
    side, b = {"kernel-left": ("left", gen), "kernel-right": ("right", multi)}[case]
    return b, CFG, b, _mult(0.5), side


@pytest.mark.parametrize("m", [8, 12])
@pytest.mark.parametrize("case", ["general", "separable", "row_tol",
                                  "kernel-left", "kernel-right"])
def test_weyl_apply_matches_brute_force_double_sum(case, m):
    g = Grid(m)
    sym, cfg, ref_sym, a, side = _oracle_case(case, g)
    f = random_field(g, seed=52, mean_zero=False)
    if a is None:
        got = weyl_apply(sym, f, cfg).coeffs
        ref = _brute_force(ref_sym, f, cfg)
    else:
        got = error_kernel_apply(a, sym, f, side, cfg).coeffs
        ref = _brute_force(ref_sym, f, cfg, _kernel(a, side))
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_plan_cache_state_is_invisible(monkeypatch):
    # cold cache, warm cache, and a plan already extended by the general
    # path all give bit-identical results on both paths
    monkeypatch.setattr(paradiff, "_PLANS", {})
    gen = _oracle_case("general", G16)[0]
    fld = random_field(G16, seed=53, real=True)
    sep = Symbol.separable([
        SeparableTerm(fld, lambda z1, z2: np.hypot(z1, z2) ** 0.5),
        SeparableTerm(None, lambda z1, z2: z1 - 0.5j * z2)], 0.5)
    f = random_field(G16, seed=54)
    cold = weyl_apply(sep, f, CFG).coeffs
    plan = paradiff._PLANS[(16, -2)]
    assert len(plan.row_start) - 1 < 16 * 16   # rows only out to |rho| <= 5 sqrt(2)
    warm = weyl_apply(sep, f, CFG).coeffs
    gen_after_sep = weyl_apply(gen, f, CFG).coeffs
    after_full = weyl_apply(sep, f, CFG).coeffs
    paradiff._PLANS.clear()
    gen_cold = weyl_apply(gen, f, CFG).coeffs
    after_gen_cold = weyl_apply(sep, f, CFG).coeffs
    for other in (warm, after_full, after_gen_cold):
        assert np.array_equal(cold, other)
    assert np.array_equal(gen_cold, gen_after_sep)


def test_plan_holds_only_the_rows_a_symbol_needs(monkeypatch):
    # a single-mode function symbol on 128^2 extends the plan to |rho| <= 1
    # (rho = 0 and the four unit rows), not to the full ~46M-entry support
    monkeypatch.setattr(paradiff, "_PLANS", {})
    g = Grid(128)
    e1 = Symbol.from_function(FourierField.single_mode(g, (1, 0), 1.0))
    weyl_apply(e1, random_field(g, seed=55), CFG)
    plan = paradiff._PLANS[(128, -2)]
    assert len(plan.row_start) - 1 == 5
    assert len(plan.xi) <= 5 * 128 ** 2


def test_plan_cache_keeps_only_recent_plans_and_eviction_is_invisible(monkeypatch):
    # the cache holds at most _MAX_PLANS plans, least recently used evicted
    # first; a plan rebuilt after eviction gives bit-identical results on
    # both paths, and the two sizes used last stay cached
    monkeypatch.setattr(paradiff, "_PLANS", {})
    sizes = [8, 12] + [12 + 2 * k for k in range(1, paradiff._MAX_PLANS + 1)]
    gen8 = _oracle_case("general", Grid(8))[0]
    sep8 = Symbol.from_function(random_field(Grid(8), seed=56, real=True))
    f8 = random_field(Grid(8), seed=57)
    first = [weyl_apply(s, f8, CFG).coeffs for s in (gen8, sep8)]
    plan8 = paradiff._PLANS[(8, -2)]
    for m in sizes[1:]:
        weyl_apply(Symbol.constant(1.0), random_field(Grid(m), seed=m), CFG)
        assert len(paradiff._PLANS) <= paradiff._MAX_PLANS
    assert (8, -2) not in paradiff._PLANS
    assert list(paradiff._PLANS)[-2:] == [(sizes[-2], -2), (sizes[-1], -2)]
    again = [weyl_apply(s, f8, CFG).coeffs for s in (gen8, sep8)]
    assert paradiff._PLANS[(8, -2)] is not plan8
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    # a hit moves a plan to the most recent end instead of rebuilding it
    kept = paradiff._PLANS[(sizes[-1], -2)]
    weyl_apply(Symbol.constant(1.0), random_field(Grid(sizes[-1]), seed=1), CFG)
    assert paradiff._PLANS[(sizes[-1], -2)] is kept
    assert list(paradiff._PLANS)[-1] == (sizes[-1], -2)
