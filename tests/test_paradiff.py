import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcwaves import paradiff
from gcwaves.errors import ConfigError, NumericAbortError
from gcwaves.fields import (FourierField, Grid, inner, l2_norm,
                            lp_project, mean, product_exact, random_field,
                            synthesize)
from gcwaves.lattice import BLOCK
from gcwaves.paradiff import (ParadiffConfig, SeparableTerm, Symbol,
                              compose_residual_field, composition_residual,
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


def assemble_matrix(a, grid, cfg):
    """Dense matrix of T_a in centered frequency ordering."""
    m = grid.size
    mat = np.zeros((m * m, m * m), np.complex128)
    for idx in range(m * m):
        basis = np.zeros((m, m), np.complex128)
        basis[divmod(idx, m)] = 1.0
        fld = FourierField(grid, np.fft.ifftshift(basis))
        mat[:, idx] = np.fft.fftshift(weyl_apply(a, fld, cfg).coeffs).ravel()
    return mat


def default_zeta_samples(radius, n_rays=8, n_random=16, seed=7):
    """Half-lattice sample points with 1/2 < |zeta| <= radius."""
    pts = set()
    radii = [1.0]
    r = 1.0
    while r < radius:
        r *= 2.0
        radii.append(min(r, float(radius)))
    for rr in radii:
        for q in range(n_rays):
            th = 2 * math.pi * q / n_rays
            z = (round(2 * rr * math.cos(th)) / 2.0, round(2 * rr * math.sin(th)) / 2.0)
            if z[0] ** 2 + z[1] ** 2 > 0.25:
                pts.add(z)
    rng = np.random.default_rng(seed)
    while len(pts) < n_rays + n_random:
        z = tuple(np.round(rng.uniform(-2 * radius, 2 * radius, 2)) / 2.0)
        if 0.25 < z[0] ** 2 + z[1] ** 2 <= radius ** 2:
            pts.add(z)
    return sorted(pts)


def test_config_validation():
    with pytest.raises(ConfigError):
        ParadiffConfig(chi_exponent=0)
    assert ParadiffConfig().chi_exponent == -20  # the faithful default


@pytest.mark.parametrize("kw", [{"chi_exponent": math.nan}, {"chi_exponent": -math.inf},
                                {"row_tol": math.nan}, {"row_tol": math.inf},
                                {"row_tol": -1.0}, {"row_tol": 1.0}],
                         ids=["chi-nan", "chi-minus-inf", "tol-nan", "tol-inf", "tol-negative",
                              "tol-one"])
def test_config_rejects_values_that_zero_the_operator(kw):
    # each of these would give T_a f = 0 (row_tol >= 1 drops every row)
    with pytest.raises(ConfigError):
        ParadiffConfig(**{"chi_exponent": -2, **kw})


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


def _cubic():
    # a = zeta1^3 + 2 zeta2^3 has no gradient callbacks: zeta-derivatives are
    # central differences, 3 zeta_j^2 + h^2 per unit coefficient at step h
    return Symbol.general(lambda X1, X2, Z1, Z2: Z1 ** 3 + 2.0 * Z2 ** 3 + 0.0 * X1, 3.0)


def test_zeta_difference_is_central_at_step_one_quarter():
    X1, X2 = G16.x()
    d1, d2 = _cubic().dzeta(X1, X2, np.asarray(2.0), np.asarray(-1.0))
    assert np.all(d1 == 3.0 * 4.0 + 1.0 / 16.0)
    assert np.all(d2 == 2.0 * (3.0 * 1.0 + 1.0 / 16.0))


def test_symbol_norm_zeta_derivatives_at_step_one_quarter():
    # one sample, <zeta>^2 = 6: the d/dzeta1 part 12.0625 * 6^{-1} is the largest
    rep = symbol_norm(_cubic(), 3.0, 1, [(2.0, -1.0)], G16)
    assert rep.value == pytest.approx(TWO_PI * (12.0 + 1.0 / 16.0) / 6.0, rel=1e-14)


def test_sampled_norm_weights_each_sample():
    # constants c_k at zeta_k: max_k <zeta_k>^{-l} |c_k| 2 pi
    values = np.stack([np.full((16, 16), 3.0), np.full((16, 16), -4.0j)])
    samples = [(1.0, 0.0), (0.0, 3.0)]
    assert paradiff.sampled_norm(values, 1.0, samples) == pytest.approx(
        TWO_PI * 3.0 / math.sqrt(2.0), rel=1e-14)
    assert paradiff.sampled_norm(values, -1.0, samples) == pytest.approx(
        TWO_PI * 4.0 * math.sqrt(10.0), rel=1e-14)
    assert paradiff.sampled_norm(values, 0.0, samples) == pytest.approx(TWO_PI * 4.0, rel=1e-14)


def test_sampled_norm_raises_on_a_nan_sample():
    # the NaN sample is not skipped in favour of the finite one, whatever
    # its place in the stack
    values = np.stack([np.full((8, 8), 1.0), np.full((8, 8), 1.0)])
    values[1, 3, 5] = np.nan
    samples = [(1.0, 0.0), (-4.0, 0.0)]
    with pytest.raises(NumericAbortError, match=r"zeta = \(-4.0, 0.0\)"):
        paradiff.sampled_norm(values, 0.0, samples)
    with pytest.raises(NumericAbortError, match=r"zeta = \(-4.0, 0.0\)"):
        paradiff.sampled_norm(values[::-1], 0.0, samples[::-1])
    values[1, 3, 5] = np.inf
    with pytest.raises(NumericAbortError):
        paradiff.sampled_norm(values, 0.0, samples)


def test_symbol_norm_raises_on_a_nan_sample():
    # sqrt(zeta1) is NaN at zeta1 = -4: the norm is not that of (1, 0) alone
    g = Grid(8)
    a = Symbol.general(lambda X1, X2, Z1, Z2: np.sqrt(Z1) + 0.0 * X1, 0.5)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericAbortError, match=r"zeta = \(-4.0, 0.0\)"):
            symbol_norm(a, 0.0, 0, [(1.0, 0.0), (-4.0, 0.0)], g)
    assert symbol_norm(a, 0.0, 0, [(1.0, 0.0)], g).value == pytest.approx(TWO_PI, rel=1e-14)


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


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "full"])
def test_error_kernel_checks_its_side_on_entry(constant):
    # a constant input walks no entry, so the weight is never evaluated
    b = Symbol.from_function(random_field(G16, seed=30, real=True))
    f = random_field(G16, seed=31, mean_zero=False)
    if constant:
        f = FourierField.from_coeffs(G16, np.pad([[2.0]], ((0, 15), (0, 15))))
    with pytest.raises(ConfigError):
        error_kernel_apply(_mult(0.5), b, f, "middle", CFG)


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
    if case == "general-real":   # the imaginary part is skipped, not transformed
        real = Symbol.general(lambda X1, X2, Z1, Z2: fs * np.sqrt(1.0 + Z1 ** 2 + Z2 ** 2)
                              + np.cos(X1 - 2 * X2) * Z1 / np.hypot(Z1, Z2), 1.0)
        return real, CFG, real, None, None
    if case == "general-imag":   # the real part is skipped
        imag = Symbol.general(lambda X1, X2, Z1, Z2: 1j * np.sin(2 * X1 + X2) * Z2
                              * np.hypot(Z1, Z2) ** -0.5 + 0.5j * fs, 0.5)
        return imag, CFG, imag, None, None
    if case == "conj-flip":      # a zeta-free term whose mark survives conj_flip
        cfld = random_field(g, seed=49)
        cf = Symbol.from_function(cfld).conj_flip()
        assert cf.terms[0].gz is paradiff._one_fn
        return cf, CFG, Symbol.from_function(cfld.conj()), None, None
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
@pytest.mark.parametrize("case", ["general", "general-real", "general-imag", "separable",
                                  "row_tol", "conj-flip", "kernel-left", "kernel-right"])
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


def _centered(f):
    return np.fft.fftshift(f.coeffs).ravel()


@pytest.mark.parametrize("m", [8, 12, 32])
@pytest.mark.parametrize("part", ["real", "imag", "complex"])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(shrink=st.integers(0, 16), seed=st.integers(0, 2 ** 16))
@example(shrink=1, seed=5)    # rho1 = +-(M/2 - 1) with rho2 < 0: the box's lower corners
@example(shrink=0, seed=6)    # |rho_i| = M/2, the Nyquist rows, read from either side
def test_box_dft_matches_direct_sum(m, part, shrink, seed):
    # sum_x a(x, zeta) e^{-i rho . x} per entry (midpoint, rho1, rho2), with
    # the full 2-d phase of each grid point, against the general path's read
    # (_rfft_read) of real (float64), purely imaginary and complex samples,
    # at every rho of the box |rho_i| <= R, R = M/2 - shrink mod M/2 + 1
    radius = (m // 2 - shrink) % (m // 2 + 1)
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 7))
    shape = (nb, m, m)
    vals = {"real": lambda: rng.standard_normal(shape),
            "imag": lambda: 1j * rng.standard_normal(shape),
            "complex": lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)}[part]()
    n = int(rng.integers(1, 60))
    mid = rng.integers(0, nb, n + 4)
    r1, r2 = rng.integers(-radius, radius + 1, (2, n + 4))
    r1[:4], r2[:4] = (-radius, radius, -radius, radius), (-radius, -radius, radius, radius)
    got = paradiff._rfft_read(vals, mid, r1, r2)
    i1, i2 = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    want = np.array([np.sum(vals[b] * np.exp(-2j * np.pi * ((a * i1 + c * i2) % m) / m))
                     for b, a, c in zip(mid, r1, r2)])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert paradiff._rfft_read(np.zeros(shape), mid, r1, r2) == 0.0


@pytest.mark.parametrize("m", [12, 32])
def test_every_plan_rho_reads_its_hermitian_partner(m):
    # every rho a box plan holds, down to its most negative rho2 and with
    # rho1 of either sign (wrapped mod M when negative), is read against the
    # direct sum; for real samples a rho with rho2 != 0 reads bit for bit
    # the conjugate of what its partner -rho reads
    plans = paradiff._plans(m, -2)
    rng = np.random.default_rng(m)
    vals = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
    x = TWO_PI * np.arange(m) / m
    for k in (3, m // 2 - 1):
        plan = plans.box(k)
        plan.extend(np.inf)
        rho = np.flatnonzero(np.bincount(plan.rho, minlength=m * m))
        r1, r2 = plan.k1[rho], plan.k2[rho]
        low = r2 == r2.min()
        assert r2.min() < 0 and np.any(low & (r1 < 0)) and np.any(low & (r1 > 0))
        mid = np.arange(len(rho)) % 2
        got = paradiff._rfft_read(vals, mid, r1, r2)
        want = np.array([np.sum(vals[b] * np.exp(-1j * (a * x[:, None] + c * x[None, :])))
                         for b, a, c in zip(mid, r1, r2)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        off = r2 != 0
        real = paradiff._rfft_read(vals.real, mid[off], r1[off], r2[off])
        partner = paradiff._rfft_read(vals.real, mid[off], -r1[off], -r2[off])
        assert np.array_equal(real, np.conj(partner))


def test_plan_cache_state_is_invisible():
    # cold cache, warm cache, and plans already extended by the general
    # path or built for another support box all give bit-identical results
    # on both paths
    paradiff._plans.cache_clear()
    gen = _oracle_case("general", G16)[0]
    fld = random_field(G16, seed=53, real=True)
    sep = Symbol.separable([
        SeparableTerm(fld, lambda z1, z2: np.hypot(z1, z2) ** 0.5),
        SeparableTerm(None, lambda z1, z2: z1 - 0.5j * z2)], 0.5)
    f = random_field(G16, seed=54)
    wide = FourierField(G16, np.ones((16, 16), complex))
    cold = weyl_apply(sep, f, CFG).coeffs
    plan = paradiff._plans(16, -2).covering(_centered(f))
    assert len(plan.row_start) - 1 < 16 * 16   # rows only out to |rho| <= 5 sqrt(2)
    warm = weyl_apply(sep, f, CFG).coeffs
    gen_after_sep = weyl_apply(gen, f, CFG).coeffs
    after_full = weyl_apply(sep, f, CFG).coeffs
    weyl_apply(gen, wide, CFG)
    after_wide = weyl_apply(sep, f, CFG).coeffs
    paradiff._plans.cache_clear()
    gen_cold = weyl_apply(gen, f, CFG).coeffs
    after_gen_cold = weyl_apply(sep, f, CFG).coeffs
    for other in (warm, after_full, after_wide, after_gen_cold):
        assert np.array_equal(cold, other)
    assert np.array_equal(gen_cold, gen_after_sep)


def test_plan_holds_only_the_rows_a_symbol_needs():
    # a single-mode function symbol on 128^2 extends the plan of its input's
    # box to |rho| <= 1 (rho = 0 and the four unit rows), not to the full
    # ~46M-entry support, and builds no other box
    paradiff._plans.cache_clear()
    g = Grid(128)
    e1 = Symbol.from_function(FourierField.single_mode(g, (1, 0), 1.0))
    f = random_field(g, seed=55)
    weyl_apply(e1, f, CFG)
    plans = paradiff._plans(128, -2)
    plan = plans.covering(_centered(f))
    assert list(plans._boxes.values()) == [plan]
    assert len(plan.row_start) - 1 == 5
    assert len(plan.xi) <= 5 * 128 ** 2


def test_plan_cache_keeps_only_recent_plans_and_eviction_is_invisible():
    # the cache holds the plans of at most 3 grid sizes, least recently
    # used evicted first, every support box of a grid in its one entry; a
    # hit returns the same plans, and plans rebuilt after eviction are new
    # ones that give bit-identical results on both paths
    cache, info = paradiff._plans, paradiff._plans.cache_info
    cache.cache_clear()
    assert info().maxsize == 3
    gen8 = _oracle_case("general", Grid(8))[0]
    sep8 = Symbol.from_function(random_field(Grid(8), seed=56, real=True))
    f8 = random_field(Grid(8), seed=57)
    first = [weyl_apply(s, f8, CFG).coeffs for s in (gen8, sep8)]
    plans8 = cache(8, -2)
    for m in (12, 14, 16):
        for f in (random_field(Grid(m), seed=m), FourierField.single_mode(Grid(m), (1, 1), 1.0)):
            weyl_apply(Symbol.constant(1.0), f, CFG)
        assert len(cache(m, -2)._boxes) == 2
        assert info().currsize <= 3
    # 8 is evicted, 12 is kept; the hit makes 14 the least recently used
    hits = info().hits
    kept = cache(12, -2)
    assert info().hits == hits + 1
    misses = info().misses
    again = [weyl_apply(s, f8, CFG).coeffs for s in (gen8, sep8)]
    assert info().misses == misses + 1
    assert cache(8, -2) is not plans8
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    # rebuilding 8 evicted 14, the least recently used, not 12
    weyl_apply(Symbol.constant(1.0), random_field(Grid(12), seed=1), CFG)
    assert cache(12, -2) is kept
    misses = info().misses
    cache(14, -2)
    assert info().misses == misses + 1


@pytest.mark.parametrize("m", [12, 32])
def test_box_plan_is_the_full_plan_restricted_to_its_box(m):
    # an input supported in |eta|_inf <= K gets the plan of the entries of
    # the full plan with |eta|_inf <= K, in the full plan's order
    paradiff._plans.cache_clear()
    g = Grid(m)
    plans = paradiff._plans(m, -2)
    full = plans.box(m // 2 - 1)
    full.extend(np.inf)
    eta1, eta2 = full.k1[full.xi] - full.k1[full.rho], full.k2[full.xi] - full.k2[full.rho]
    row = np.repeat(np.arange(m * m), np.diff(full.row_start))
    rng = np.random.default_rng(m)
    for k in (0, 3, m // 2 - 1):
        c = np.zeros((m, m), complex)
        c[k % m, -k % m] = 1.0                     # the box's corner eta = (k, -k)
        c[k % m, 0] = complex(*rng.standard_normal(2))
        plan = plans.covering(_centered(FourierField(g, c)))
        assert plan.radius == k
        plan.extend(np.inf)
        sel = np.flatnonzero((np.abs(eta1) <= k) & (np.abs(eta2) <= k))
        for name in ("xi", "rho", "mid", "chi"):
            assert np.array_equal(getattr(plan, name), getattr(full, name)[sel])
        assert np.array_equal(np.diff(plan.row_start), np.bincount(row[sel], minlength=m * m))
    assert plans.covering(np.zeros(m * m)).radius == 0


@pytest.mark.parametrize("kind", ["separable", "kernel"])
def test_apply_is_independent_of_the_pass_length(kind):
    # the walk in passes of 1 << 13 entries and of 1 << 15, on a 32^2 plan
    # of 0.16M entries: bit-identical, because every complex product takes
    # its gathered operand first, as numpy's temporary elision does
    g = Grid(32)
    rng = np.random.default_rng(58)
    f = FourierField.from_coeffs(
        g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), check_real=False)
    sym = Symbol.separable([
        SeparableTerm(random_field(g, seed=59, decay=0.0), lambda z1, z2: (z1 + 2j * z2) / np.hypot(z1, z2)),
        SeparableTerm(None, lambda z1, z2: z1 - 0.5j * z2)], 1.0)

    def apply():
        if kind == "kernel":
            return error_kernel_apply(_mult(0.5), sym, f, "right", CFG).coeffs
        return weyl_apply(sym, f, CFG).coeffs

    assert paradiff.BLOCK == 1 << 13
    paradiff._plans.cache_clear()
    short = apply()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paradiff, "BLOCK", 1 << 15)
        paradiff._plans.cache_clear()
        long = apply()
        assert len(paradiff._plans(32, -2).box(15).xi) > 4 << 15   # five long passes
    paradiff._plans.cache_clear()
    assert np.array_equal(short, long)


def _row_entries_by_position(plan, rows):
    """The entries of plan rows ``rows`` in order, in chunks of BLOCK, by a
    per-position search."""
    lo = plan.row_start[rows]
    cnt = plan.row_start[rows + 1] - lo
    end = np.cumsum(cnt)
    for c0 in range(0, int(end[-1]), BLOCK):
        pos = np.arange(c0, min(c0 + BLOCK, int(end[-1])))
        r = np.searchsorted(end, pos, side="right")
        yield lo[r] + (pos - (end[r] - cnt[r]))


def _apply_active_rows(a, grid, cfg, plan, out, fc, extra_weight):
    """Oracle for paradiff._apply_rows: only the entries of the rows some
    term occupies, gathered row by row from the full plan whatever the
    support of fc."""
    m = grid.size
    plan = paradiff._plans(m, cfg.chi_exponent).box(m // 2 - 1)
    coefs = np.zeros((len(a.terms), m * m), np.complex128)
    for c, term in zip(coefs, a.terms):
        if term.spatial is None:
            c[(m // 2) * m + m // 2] = 1.0
            continue
        sc = np.fft.fftshift(term.spatial.coeffs).ravel()
        tol = cfg.row_tol * np.max(np.abs(sc)) if cfg.row_tol else 0.0
        kept = np.abs(sc) > tol
        c[kept] = sc[kept] / paradiff._FOUR_PI2
    active = np.flatnonzero(np.any(coefs != 0.0, axis=0)[plan.rows])
    if not len(active):
        return
    n = plan.extend(plan.row_sq[active[-1]])
    live = np.flatnonzero(plan.mid_row < n)
    z1, z2 = plan.zeta(live)
    gz = np.zeros((len(a.terms), len(plan.mid_row)), np.complex128)
    for g, term in zip(gz, a.terms):
        g[live] = term.gz(z1, z2)
    for e in _row_entries_by_position(plan, active):
        rho, mid = plan.rho[e], plan.mid[e]
        w = coefs[0, rho] * gz[0, mid]
        for c, g in zip(coefs[1:], gz[1:]):
            w += c[rho] * g[mid]
        plan.accumulate(out, e, w, fc, extra_weight)


def _sparse_field(g, rng, n_modes, kmax):
    c = np.zeros((g.size, g.size), complex)
    for _ in range(n_modes):
        k = rng.integers(-kmax, kmax + 1, 2)
        c[k[0] % g.size, k[1] % g.size] = complex(*rng.standard_normal(2)) * TWO_PI ** 2
    return FourierField.from_coeffs(g, c, check_real=False)


@pytest.mark.parametrize("kind", ["dense", "row_tol", "high_row", "multi", "kernel", "boxed"])
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16))
def test_separable_apply_matches_active_row_walk(kind, seed):
    # every kind gets its own draws at 32^2
    _check_separable_walk(32, kind, seed)


@pytest.mark.parametrize("m, kind, seed", [(64, "high_row", 3), (32, "row_tol", 11),
                                           (32, "boxed", 3), (32, "boxed", 7), (32, "boxed", 8)])
def test_separable_apply_matches_active_row_walk_pinned(m, kind, seed):
    # fixed cases that stay whatever the draws: boxes 1, 5 and 15, and 64^2
    _check_separable_walk(m, kind, seed)


def _check_separable_walk(m, kind, seed):
    """The prefix walk of the input's box plan against a walk over only the
    occupied rows of the full plan, at sizes whose plans span several
    BLOCK-entry passes."""
    g = Grid(m)
    rng = np.random.default_rng(seed)
    full = lambda: FourierField.from_coeffs(
        g, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), check_real=False)
    f = full()
    cfg, kernel = CFG, None
    if kind == "dense":          # every row of the grid occupied
        sym = Symbol.from_function(full())
    elif kind == "row_tol":      # dropped rows inside the walk and at its end
        cfg = ParadiffConfig(chi_exponent=-2, row_tol=float(rng.uniform(0.05, 0.6)))
        sym = Symbol.from_function(random_field(g, seed=seed, decay=0.02))
    elif kind == "high_row":     # one occupied row (and its mirror) far out
        k = rng.integers(m // 8, m // 4 + 1, 2) * rng.choice([-1, 1], 2)
        fld = FourierField.single_mode(g, k, 1.0) + FourierField.single_mode(g, -k, 0.5)
        sym = Symbol.separable([SeparableTerm(fld, lambda z1, z2: np.hypot(z1, z2) ** 0.5)], 0.5)
    else:
        sym = Symbol.separable([
            SeparableTerm(random_field(g, seed=seed, decay=0.05),
                          lambda z1, z2: (z1 + 2j * z2) / np.hypot(z1, z2)),
            SeparableTerm(_sparse_field(g, rng, 6, m // 2 - 1), lambda z1, z2: np.hypot(z1, z2)),
            SeparableTerm(None, lambda z1, z2: z1 - 0.5j * z2)], 1.0)
        if kind == "kernel":     # error_kernel_apply's extra_weight hook
            kernel = (_mult(float(rng.uniform(-1.0, 1.5))), str(rng.choice(["left", "right"])))
        if kind == "boxed":      # fhat supported in a random eta box
            box = int(rng.integers(1, m // 2))
            k1, k2 = g.freqs()
            inside = (np.abs(k1) <= box) & (np.abs(k2) <= box)
            f = FourierField.from_coeffs(g, np.where(inside, f.coeffs, 0.0), check_real=False)

    def apply():
        if kernel is None:
            return weyl_apply(sym, f, cfg).coeffs
        return error_kernel_apply(kernel[0], sym, f, kernel[1], cfg).coeffs

    got = apply()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paradiff, "_apply_rows", _apply_active_rows)
        want = apply()
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the general path's +-s pairing of midpoints
# ---------------------------------------------------------------------------

def _even_general(g, seed):
    """An even general symbol (zeta only through Z1^2, Z1 Z2 and Z2^2, with
    a complex x-dependent coefficient) and the same evaluator undeclared."""
    fs = synthesize(random_field(g, seed=seed))
    fn = lambda X1, X2, Z1, Z2: np.sqrt(1.0 + Z1 ** 2 + 0.5 * (Z1 * Z2) + Z2 ** 2) * fs
    return Symbol.general(fn, 1.0, even=True), Symbol.general(fn, 1.0)


@pytest.mark.parametrize("m, chis", [(6, (-1, -2, -3)), (8, (-1, -2, -3)), (12, (-1, -2, -3)),
                                     (16, (-1, -2, -3)), (20, (-1, -3)), (32, (-2,))])
def test_every_plan_midpoint_is_paired_with_its_mirror(m, chis):
    # rep[j] is the position of the larger id of {s, -s}, the odd one: every
    # box plan checked holds -s with each midpoint s
    for chi in chis:
        plans = paradiff._plans(m, chi)
        for k in range(m // 2):
            plan = plans.box(k)
            perm, start, ids, rep = plan.by_midpoint()
            s1, s2 = plan.sums[0][ids], plan.sums[1][ids]
            at = {(a, b): j for j, (a, b) in enumerate(zip(s1, s2))}
            mirror = np.array([at[(-a, -b)] for a, b in zip(s1, s2)])
            assert np.array_equal(rep, np.maximum(np.arange(len(ids)), mirror))
            assert np.all(ids[rep] % 2 == 1)
            assert np.array_equal(ids[rep] // 2, ids // 2)   # a pair's ids are adjacent


def _unpair(plan, mp, seed):
    """Unpair a third of the plan's +-s pairs in its by_midpoint record: each
    midpoint of those pairs is left to represent itself."""
    perm, start, ids, rep = plan.by_midpoint()
    rep = rep.copy()
    lower = np.flatnonzero(rep > np.arange(len(ids)))
    gone = np.random.default_rng(seed).choice(lower, len(lower) // 3, replace=False)
    rep[rep[gone]] = rep[gone]            # upper midpoints left on their own
    rep[gone] = gone                      # and their lower mirrors
    mp.setattr(plan, "_by_mid", (perm, start, ids, rep))


def test_midpoints_without_a_mirror_are_walked_at_themselves(monkeypatch):
    # an even symbol on a partly unpaired plan still gets the undeclared
    # one's sums
    g = Grid(12)
    even, plain = _even_general(g, 60)
    f = random_field(g, seed=61, mean_zero=False)
    _unpair(paradiff._plans(12, -2).covering(_centered(f)), monkeypatch, 62)
    assert np.array_equal(weyl_apply(even, f, CFG).coeffs, weyl_apply(plain, f, CFG).coeffs)


@pytest.mark.parametrize("block, batch", [(BLOCK, None), (64, 8)], ids=["default", "short"])
@pytest.mark.parametrize("kind", ["undeclared", "even", "unpaired"])
def test_general_entries_are_accumulated_once_in_midpoint_order(kind, block, batch):
    # whatever the walk samples, the passes hold every plan entry exactly
    # once, in the plan's midpoint order (perm), in passes of at most BLOCK
    # entries; "short" walks many batches of 8 samples and many passes of 64
    # entries
    g = Grid(12)
    even, plain = _even_general(g, 65)
    f = random_field(g, seed=66, mean_zero=False)
    seen = []
    accumulate = paradiff._ChiPlan.accumulate

    def record(plan, out, e, *args):
        seen.append(np.array(e))
        accumulate(plan, out, e, *args)

    paradiff._plans.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paradiff, "BLOCK", block)
        if batch:
            mp.setattr(paradiff, "_SAMPLES", batch * 12 * 12)
        plan = paradiff._plans(12, -2).covering(_centered(f))
        if kind == "unpaired":
            _unpair(plan, mp, 67)
        mp.setattr(paradiff._ChiPlan, "accumulate", record)
        weyl_apply(plain if kind == "undeclared" else even, f, CFG)
        perm = plan.by_midpoint()[0]
    paradiff._plans.cache_clear()
    assert len(perm) > 10 * 64                     # many passes at 64 entries
    assert all(0 < len(e) <= block for e in seen)
    assert np.array_equal(np.concatenate(seen), perm)


def test_the_walk_holds_one_batch():
    # an even symbol walked in batches of 5 samples (10 midpoints): once a
    # batch's passes are done, the entries accumulated so far are perm up to
    # that batch's last midpoint, so no weight outlives its batch
    g = Grid(12)
    even = _even_general(g, 68)[0]
    f = random_field(g, seed=69, mean_zero=False)
    events = []   # None for a batch's transform, else a pass's entries
    read, accumulate = paradiff._rfft_read, paradiff._ChiPlan.accumulate

    def transform(*args):
        events.append(None)
        return read(*args)

    def record(plan, out, e, *args):
        events.append(np.array(e))
        accumulate(plan, out, e, *args)

    batch = 5
    paradiff._plans.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paradiff, "_SAMPLES", batch * 12 * 12)
        mp.setattr(paradiff, "_rfft_read", transform)
        mp.setattr(paradiff._ChiPlan, "accumulate", record)
        plan = paradiff._plans(12, -2).covering(_centered(f))
        weyl_apply(even, f, CFG)
        perm, start, ids, rep = plan.by_midpoint()
    paradiff._plans.cache_clear()
    last = np.flatnonzero(rep == np.arange(len(ids)))   # the pairs' odd members
    ends = [start[last[min(k + batch, len(last)) - 1] + 1] for k in range(0, len(last), batch)]
    batches = [i for i, ev in enumerate(events) if ev is None] + [len(events)]
    assert len(batches) - 1 == len(ends) > 20
    for end, stop in zip(ends, batches[1:]):
        done = [perm[:0]] + [ev for ev in events[:stop] if ev is not None]
        assert np.array_equal(np.concatenate(done), perm[:end])


@pytest.mark.parametrize("kind", ["general", "even", "separable", "kernel"])
def test_one_entry_passes_round_like_long_ones(kind):
    # passes of one entry against passes of BLOCK: numpy's one-element
    # complex product in place would round without FMA
    g = Grid(8)
    f = random_field(g, seed=63, mean_zero=False)
    even, plain = _even_general(g, 64)
    sym = {"general": plain, "even": even, "kernel": plain,
           "separable": _oracle_case("separable", g)[0]}[kind]

    def apply():
        if kind == "kernel":
            return error_kernel_apply(_mult(0.5), sym, f, "left", CFG).coeffs
        return weyl_apply(sym, f, CFG).coeffs

    paradiff._plans.cache_clear()
    long = apply()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paradiff, "BLOCK", 1)
        paradiff._plans.cache_clear()
        short = apply()
    paradiff._plans.cache_clear()
    assert np.array_equal(short, long)
