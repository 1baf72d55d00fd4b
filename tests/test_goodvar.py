import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gcwaves import cli, goodvar, paradiff
from gcwaves.dispersion import DispersionParams, lam
from gcwaves.errors import ConfigError, PositivityError
from gcwaves.fields import (FourierField, Grid, apply_multiplier, dx, l2_norm,
                            random_field, sobolev_norm, synthesize)
from gcwaves.goodvar import (SurfaceState, build_good_variable, build_symbols,
                             expansion_check, fit_loglog, ladder,
                             linear_good_variable, quadratic_energy,
                             random_state)
from gcwaves.paradiff import (ParadiffConfig, Symbol, poisson_bracket, symbol_norm,
                              weyl_apply)

CFG = ParadiffConfig(chi_exponent=-2)
P11 = DispersionParams(1.0, 1.0)
G32 = Grid(32)


def _real(grid, coeffs):
    return FourierField(grid, coeffs, True)


def _cos_x1(grid, amp=1.0):
    c = (FourierField.single_mode(grid, (1, 0), amp / 2)
         + FourierField.single_mode(grid, (-1, 0), amp / 2))
    return _real(grid, c.coeffs)


def _zero(grid):
    return _real(grid, FourierField.zero(grid).coeffs)


def test_state_validation():
    w = random_field(G32, seed=1, real=True)
    with pytest.raises(ConfigError):
        SurfaceState(random_field(G32, seed=0), w, P11)  # complex h
    bad = FourierField.single_mode(G32, (0, 0), 1.0)
    with pytest.raises(ConfigError):
        SurfaceState(_real(G32, bad.coeffs), w, P11)     # nonzero mean


def test_flat_interface_symbol_collapse():
    w = random_field(G32, seed=2, real=True, decay=0.3)
    st = SurfaceState(_zero(G32), w, P11)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    for z in ((2.0, 1.0), (0.5, -1.5), (6.0, 0.0)):
        r = math.hypot(*z)
        za = (np.asarray(z[0]), np.asarray(z[1]))
        assert np.max(np.abs(syms.lambda1.eval(X1, X2, *za) - r)) <= 1e-12 * r
        assert np.max(np.abs(syms.lambda0.eval(X1, X2, *za))) <= 1e-12
        assert np.max(np.abs(syms.ell.eval(X1, X2, *za) - r ** 2)) <= 1e-12 * r ** 2
        assert np.max(np.abs(syms.Sigma.eval(X1, X2, *za) - lam(P11, z))) <= 1e-12 * lam(P11, z)
        assert np.max(np.abs(syms.Sigma1.eval(X1, X2, *za))) <= 1e-13
        assert np.max(np.abs(syms.lambda1_0.eval(X1, X2, *za))) <= 1e-13


def test_general_symbols_are_pointwise_in_x():
    st = random_state(G32, P11, amplitude=0.5, seed=12)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    for name in ("lambda0", "lam", "Sigma", "sqrt_g_ell", "inv_sqrt_g_ell", "mprime"):
        sym = getattr(syms, name)
        assert not sym.is_separable
        for z in ((2.0, 1.0), (-3.5, 0.5)):
            za = (np.asarray(z[0]), np.asarray(z[1]))
            full = sym.eval(X1, X2, *za)
            assert np.array_equal(sym.eval(X1[::2, ::3], X2[::2, ::3], *za), full[::2, ::3])
            assert sym.eval(X1[5, 7], X2[5, 7], *za) == full[5, 7]


def test_separable_symbols_are_pointwise_in_x():
    st = random_state(G32, P11, amplitude=0.5, seed=12)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    for name in ("ell", "Sigma1", "lambda1_0", "gamma", "v1_dot_zeta"):
        sym = getattr(syms, name)
        assert sym.is_separable
        for z in ((2.0, 1.0), (-3.5, 0.5)):
            za = (np.asarray(z[0]), np.asarray(z[1]))
            full = sym.eval(X1, X2, *za)
            assert np.array_equal(sym.eval(X1[::2, ::3], X2[::2, ::3], *za), full[::2, ::3])
            assert sym.eval(X1[5, 7], X2[5, 7], *za) == full[5, 7]
    # the exact zeta-gradient reads x through the same rule
    za = (np.asarray(1.5), np.asarray(-2.0))
    full = syms.v1_dot_zeta.dzeta(X1, X2, *za)
    sub = syms.v1_dot_zeta.dzeta(X1[::2, ::3], X2[::2, ::3], *za)
    for d, d_sub in zip(full, sub):
        assert np.array_equal(d_sub, d[::2, ::3])


def _count_applies(monkeypatch):
    """Record is_separable of every weyl_apply call made through either module."""
    calls = []
    real = paradiff.weyl_apply

    def counting(a, f, cfg, *args, **kwargs):
        calls.append(a.is_separable)
        return real(a, f, cfg, *args, **kwargs)

    monkeypatch.setattr(paradiff, "weyl_apply", counting)
    monkeypatch.setattr(goodvar, "weyl_apply", counting)
    return calls


def test_expansion_check_makes_no_apply(monkeypatch):
    calls = _count_applies(monkeypatch)
    base = random_state(Grid(8), P11, amplitude=1.0, seed=3)
    expansion_check(base, [1e-1, 1e-3], CFG, powers=(-1.0, 1.0))
    assert calls == []


def test_symbols_command_builds_one_principal_family_per_eps(monkeypatch, tmp_path):
    # the expansion check and the good variable of each eps share one family
    calls = []
    real = goodvar.principal_family

    def counting(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(goodvar, "principal_family", counting)
    assert cli.dispatch(["symbols", "--grid", "8", "--eps-list", "1e-1,1e-3",
                         "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) == 2


def test_symbols_command_makes_four_general_applies_per_eps(monkeypatch, tmp_path):
    # build_good_variable per eps: stage 1 (3) plus T_{m'} (1); none elsewhere
    calls = _count_applies(monkeypatch)
    assert cli.dispatch(["symbols", "--grid", "8", "--eps-list", "1e-1,1e-3",
                         "--out", str(tmp_path)]) == cli.EXIT_OK
    assert calls.count(False) == 8


def test_lambda0_matches_spectral_bracket():
    # reference: x-derivatives of P = lambda1/A and Q = (zeta.grad h)/A taken
    # spectrally on the grid, as against the chain rule in build_symbols
    st = random_state(G32, P11, amplitude=0.1, seed=5)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    dh1 = synthesize(dx(st.h, 0)).real
    dh2 = synthesize(dx(st.h, 1)).real
    A = 1.0 + dh1 ** 2 + dh2 ** 2
    lap = synthesize(dx(dx(st.h, 0), 0) + dx(dx(st.h, 1), 1)).real
    k1, k2 = G32.freqs()

    def grad(F):
        Fh = np.fft.fft2(F)
        return np.fft.ifft2(1j * k1 * Fh).real, np.fft.ifft2(1j * k2 * Fh).real

    for z1, z2 in ((1.0, 0.0), (0.5, 1.0), (-1.5, 2.0), (8.0, 0.5), (-6.0, 1.5)):
        dot = z1 * dh1 + z2 * dh2
        l1 = np.sqrt(A * (z1 ** 2 + z2 ** 2) - dot ** 2)
        dxP, dxQ = grad(l1 / A), grad(dot / A)
        dzP = ((A * z1 - dot * dh1) / l1 / A, (A * z2 - dot * dh2) / l1 / A)
        br = (dxP[0] * dh1 / A + dxP[1] * dh2 / A - dzP[0] * dxQ[0] - dzP[1] * dxQ[1])
        ref = A ** 2 / (2.0 * l1) * br + 0.5 * lap
        got = syms.lambda0.eval(X1, X2, np.asarray(z1), np.asarray(z2))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def _lambda0_chain_rule(state):
    """lambda0 = (A^2 / 2 lambda1) {lambda1/A, (zeta.grad h)/A} + Lap h / 2 at
    grid index i, each bracket gradient by the chain rule at every (x, zeta):
    the oracle for the quadratic-form evaluation N/Q + c0 in goodvar."""
    h = state.h
    dh1 = synthesize(dx(h, 0)).real
    dh2 = synthesize(dx(h, 1)).real
    A = 1.0 + dh1 ** 2 + dh2 ** 2
    d11 = synthesize(dx(dx(h, 0), 0)).real
    d12 = synthesize(dx(dx(h, 0), 1)).real
    d22 = synthesize(dx(dx(h, 1), 1)).real
    dA = (2.0 * (dh1 * d11 + dh2 * d12), 2.0 * (dh1 * d12 + dh2 * d22))

    def lambda0(i, Z1, Z2):
        a = A[i]
        dot = Z1 * dh1[i] + Z2 * dh2[i]
        l1 = np.sqrt(a * (Z1 ** 2 + Z2 ** 2) - dot ** 2)
        br = 0.0
        for z, hj, dAj, hj1, hj2 in ((Z1, dh1[i], dA[0][i], d11[i], d12[i]),
                                     (Z2, dh2[i], dA[1][i], d12[i], d22[i])):
            ddot = Z1 * hj1 + Z2 * hj2                      # d_j (zeta.grad h)
            dl1 = (dAj * (Z1 ** 2 + Z2 ** 2) - 2.0 * dot * ddot) / (2.0 * l1)
            dxP = dl1 / a - l1 * dAj / a ** 2
            dxQ = ddot / a - dot * dAj / a ** 2
            dzP = (a * z - dot * hj) / l1 / a
            br = br + dxP * hj / a - dzP * dxQ
        return a ** 2 / (2.0 * l1) * br + 0.5 * (d11[i] + d22[i])
    return lambda0


@pytest.mark.parametrize("m", [8, 12, 16])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16),
       amplitude=st.floats(0.01, 1.5), sigma=st.floats(0.1, 3.0),
       zeta=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
                     min_size=1, max_size=8))
def test_lambda0_quadratic_form_matches_chain_rule(m, seed, amplitude, sigma, zeta):
    # lambda0 = N/Q + c0 against the chain-rule bracket, at every grid point
    # and random zeta with |zeta| > 1/2; lambda1 = sqrt(Q) against its formula
    grid = Grid(m)
    zeta = [z for z in zeta if z[0] ** 2 + z[1] ** 2 > 0.25]
    assume(zeta)
    state = random_state(grid, DispersionParams(1.0, sigma), amplitude=amplitude, seed=seed)
    try:
        fam, _ = goodvar.principal_family(state)
    except PositivityError:
        assume(False)
    oracle = _lambda0_chain_rule(state)
    X1, X2 = grid.x()
    i = paradiff.grid_index(X1, X2, m)
    dh1 = synthesize(dx(state.h, 0)).real
    dh2 = synthesize(dx(state.h, 1)).real
    for z1, z2 in zeta:
        Z1, Z2 = np.asarray(z1), np.asarray(z2)
        got = fam["lambda0"].eval(X1, X2, Z1, Z2)
        ref = oracle(i, Z1, Z2)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        l1 = np.sqrt((1.0 + dh1 ** 2 + dh2 ** 2) * (z1 ** 2 + z2 ** 2)
                     - (z1 * dh1 + z2 * dh2) ** 2)
        assert np.max(np.abs(fam["lambda1"].eval(X1, X2, Z1, Z2) - l1)) <= 1e-14 * np.max(l1)


def test_fully_flat_state_mprime_and_gamma_vanish():
    st = SurfaceState(_zero(G32), _zero(G32), P11)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    za = (np.asarray(2.0), np.asarray(-1.0))
    assert np.max(np.abs(syms.mprime.eval(X1, X2, *za))) == 0.0
    assert np.max(np.abs(syms.gamma.eval(X1, X2, *za))) == 0.0


def test_lambda1_0_single_mode_closed_form():
    eps = 1e-3
    st = SurfaceState(_cos_x1(G32, eps), _zero(G32), P11)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    z = (2.0, 1.0)
    r2 = z[0] ** 2 + z[1] ** 2
    got = syms.lambda1_0.eval(X1, X2, np.asarray(z[0]), np.asarray(z[1]))
    expect = -eps * np.cos(X1) * z[1] ** 2 / (2 * r2)
    assert np.max(np.abs(got - expect)) <= 1e-12 * eps


def test_gamma_single_mode_closed_form():
    # omega = cos x1 makes Im U = |grad|^{1/2} omega = cos x1 at a flat
    # interface, so gamma = -(z1^2/|z|^2) cos x1
    st = SurfaceState(_zero(G32), _cos_x1(G32), P11)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    z = (2.0, 1.0)
    got = syms.gamma.eval(X1, X2, np.asarray(z[0]), np.asarray(z[1]))
    expect = -(z[0] ** 2 / (z[0] ** 2 + z[1] ** 2)) * np.cos(X1)
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_gamprop_identity_exact():
    # {V1 . zeta, |zeta|^p} = p gamma |zeta|^p for p in {1/2, 1}
    st = random_state(G32, P11, amplitude=0.5, seed=3)
    syms = build_symbols(st, CFG)
    X1, X2 = G32.x()
    for p in (0.5, 1.0):
        mult = Symbol.multiplier(
            lambda z1, z2, p=p: np.hypot(z1, z2) ** p, p,
            dgz=(lambda z1, z2, p=p: p * np.hypot(z1, z2) ** (p - 2) * z1,
                 lambda z1, z2, p=p: p * np.hypot(z1, z2) ** (p - 2) * z2))
        br = poisson_bracket(syms.v1_dot_zeta, mult)
        for z in ((2.0, 1.0), (-3.5, 0.5)):
            za = (np.asarray(z[0]), np.asarray(z[1]))
            lhs = br.eval(X1, X2, *za)
            rhs = p * math.hypot(*z) ** p * syms.gamma.eval(X1, X2, *za)
            scale = max(1e-30, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_positivity_guard():
    st = SurfaceState(_cos_x1(G32, 3.0), _zero(G32), P11)  # Lam^2 h ~ 4.2 > g
    with pytest.raises(PositivityError):
        build_symbols(st, CFG)


def test_flat_good_variable_multiplier_route():
    # h = 0: the Sigma component of U collapses to i |grad|^{1/2} omega
    w = random_field(G32, seed=4, real=True, decay=0.3)
    st = SurfaceState(_zero(G32), w, P11)
    gv = build_good_variable(st, CFG)
    half = apply_multiplier(w, lambda k1, k2: np.hypot(k1, k2) ** 0.5)
    got = gv.H + 1j * gv.Psi_sigma
    assert np.max(np.abs(got.coeffs - (1j * half).coeffs)) <= 1e-12 * np.max(np.abs(half.coeffs))
    # the m' correction is quadratically small in the data
    assert l2_norm(gv.mprime_term) <= 0.2 * l2_norm(w) ** 2


def test_omega_zero_gives_real_U():
    h = _cos_x1(G32, 1e-2)
    st = SurfaceState(h, _zero(G32), P11)
    gv = build_good_variable(st, CFG)
    assert np.max(np.abs(gv.U.coeffs - gv.H.coeffs)) <= 1e-13 * np.max(np.abs(gv.H.coeffs))
    assert np.max(np.abs(np.imag(synthesize(gv.U)))) <= 1e-13


def test_good_variable_epsilon_slopes():
    base = random_state(G32, P11, amplitude=1.0, seed=5)
    eps_list = [1e-1, 1e-2, 1e-3]
    u_lin, h_re, psi_im = [], [], []
    for eps in eps_list:
        st = base.scaled(eps)
        gv = build_good_variable(st, CFG)
        u_lin.append(sobolev_norm(gv.U - linear_good_variable(st), 3.0))
        h_re.append(l2_norm(gv.H - gv.U.real_part()))
        psi_im.append(l2_norm(gv.Psi - gv.U.imag_part()))
    assert 1.8 <= fit_loglog(eps_list, u_lin) <= 2.2
    assert 1.8 <= fit_loglog(eps_list, h_re) <= 2.2
    assert 1.8 <= fit_loglog(eps_list, psi_im) <= 2.2


def test_expansion_check_slopes_and_p0():
    base = random_state(G32, P11, amplitude=1.0, seed=6)
    reports = expansion_check(base, [1e-1, 1e-2, 1e-3], CFG, powers=(1.0,))
    by_name = {r.name: r for r in reports}
    assert 1.8 <= by_name["Sigma_minus_Lam_minus_Sigma1"].slope <= 2.2
    assert 1.8 <= by_name["g_ell_pow_1.0"].slope <= 2.2
    assert 1.8 <= by_name["lambda_pow_1.0"].slope <= 2.2
    # p = 0 is the identity case: remainder identically zero
    rep0 = expansion_check(base, [1e-1, 1e-2, 1e-3], CFG, powers=(0.0,))
    z = {r.name: r for r in rep0}
    assert max(z["g_ell_pow_0.0"].values) <= 1e-12
    assert max(z["lambda_pow_0.0"].values) <= 1e-12


def _expansion_check_by_symbol_norm(state, eps_list, powers, zeta_samples):
    """expansion_check's values through symbol_norm: every remainder a
    general Symbol (Sigma's from the symbol algebra) with r = 0."""
    p0, grid = state.params, state.grid
    lead = lambda Z1, Z2: p0.g + p0.sigma * (Z1 ** 2 + Z2 ** 2)
    lam_mult = Symbol.multiplier(lambda z1, z2: np.sqrt(goodvar._lam2(p0, z1, z2)), 1.5)
    values = {}
    for eps in eps_list:
        st = state.scaled(eps)
        fam, _ = goodvar.principal_family(st)
        lam2h = synthesize(apply_multiplier(st.h, lambda k1, k2: goodvar._lam2(p0, k1, k2))).real
        for p in powers:
            rem_gl = lambda X1, X2, Z1, Z2, p=p: (
                (fam["ell"].eval(X1, X2, Z1, Z2) + p0.g) ** p * lead(Z1, Z2) ** (-p)
                - 1.0 + p * lam2h / lead(Z1, Z2))
            rem_lam = lambda X1, X2, Z1, Z2, p=p: (
                fam["lam"].eval(X1, X2, Z1, Z2) ** p * np.hypot(Z1, Z2) ** (-p)
                - 1.0 - p * fam["lambda1_0"].eval(X1, X2, Z1, Z2) / np.hypot(Z1, Z2))
            for name, rem in ((f"g_ell_pow_{p}", rem_gl), (f"lambda_pow_{p}", rem_lam)):
                rep = symbol_norm(Symbol.general(rem, 0.0), 0.0, 0, zeta_samples, grid)
                values.setdefault(name, []).append(rep.value)
        rep = symbol_norm(fam["Sigma"] - lam_mult - fam["Sigma1"], 1.5, 0, zeta_samples, grid)
        values.setdefault("Sigma_minus_Lam_minus_Sigma1", []).append(rep.value)
    return values


@pytest.mark.parametrize("m", [8, 12])
@pytest.mark.parametrize("seed", [5, 29])
def test_expansion_check_equals_symbol_norm_route(m, seed):
    # the remainders read straight from the family's samples give the
    # symbol_norm values bit for bit, at every power (p = 0 included)
    base = random_state(Grid(m), P11, amplitude=0.8, seed=seed)
    eps_list, powers = [1e-1, 1e-2, 1e-3], (-2.0, 0.0, 0.5, 1.0)
    zeta_samples = [(1.0, 0.0), (0.5, 1.0), (-1.5, 2.0), (4.5, 4.0), (8.0, 0.5)]
    reports = expansion_check(base, eps_list, CFG, powers=powers, zeta_samples=zeta_samples)
    oracle = _expansion_check_by_symbol_norm(base, eps_list, powers, zeta_samples)
    assert {r.name: r.values for r in reports} == oracle
    assert all(v > 0.0 for r in reports if "_pow_0.0" not in r.name for v in r.values)


def test_expansion_check_needs_two_decades():
    base = random_state(G32, P11, amplitude=1.0, seed=7)
    with pytest.raises(ConfigError):
        expansion_check(base, [0.1, 0.05], CFG)


def test_ladder_basics_and_flat_collapse():
    w = random_field(G32, seed=8, real=True, decay=0.3)
    st = SurfaceState(_zero(G32), w, P11)
    gv = build_good_variable(st, CFG)
    rep = ladder(gv.U, 2, gv.symbols, P11, CFG)
    # W_0 = U
    assert np.max(np.abs(rep.fields[0].coeffs - gv.U.coeffs)) == 0.0
    # flat interface: W_n = Lambda^n U exactly
    assert all(d <= 1e-10 * l2_norm(gv.U) for d in rep.deviations)
    assert 0.0 < rep.equivalence_ratio < math.inf


def test_ladder_deviation_epsilon_slope():
    base = random_state(G32, P11, amplitude=1.0, seed=9)
    eps_list = [1e-1, 1e-2, 1e-3]
    devs = []
    for eps in eps_list:
        st = base.scaled(eps)
        gv = build_good_variable(st, CFG)
        rep = ladder(gv.U, 1, gv.symbols, P11, CFG)
        devs.append(rep.deviations[1] / max(sobolev_norm(gv.U, 1.5), 1e-300))
    # || W_1 - Lambda U || <= C eps ||U||_{H^{3/2}}: relative slope >= 1
    assert fit_loglog(eps_list, devs) >= 1.0 - 0.1


def test_quadratic_energy_closed_form():
    st = SurfaceState(_cos_x1(G32, 1.0), _zero(G32), P11)
    assert quadratic_energy(st) == pytest.approx(4 * np.pi ** 2, rel=1e-12)
    st0 = SurfaceState(_zero(G32), _zero(G32), P11)
    assert quadratic_energy(st0) == 0.0


def test_quadratic_energy_additive_over_disjoint_supports():
    h1 = _cos_x1(G32, 0.7)
    c2 = (FourierField.single_mode(G32, (0, 3), 0.4)
          + FourierField.single_mode(G32, (0, -3), 0.4))
    h2 = _real(G32, c2.coeffs)
    z = _zero(G32)
    e1 = quadratic_energy(SurfaceState(h1, z, P11))
    e2 = quadratic_energy(SurfaceState(h2, z, P11))
    both = quadratic_energy(SurfaceState(_real(G32, h1.coeffs + h2.coeffs), z, P11))
    assert both == pytest.approx(e1 + e2, rel=1e-12)


def test_symbols_record_chi_exponent():
    st = random_state(G32, P11, amplitude=0.1, seed=10)
    gv = build_good_variable(st, CFG)
    assert gv.chi_exponent == -2
    assert "V1" in gv.symbols.mprime.name  # the velocity-proxy substitution is recorded


def test_export_symbol_trace(tmp_path):
    from gcwaves.goodvar import export_symbol_trace

    st = random_state(Grid(8), P11, amplitude=0.1, seed=11)
    syms = build_symbols(st, CFG)
    path = tmp_path / "trace.csv"
    export_symbol_trace(syms.Sigma1, Grid(8), [(1.0, 0.0), (2.0, 1.5)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,zeta1,zeta2,re,im"
    assert len(lines) == 1 + 2 * 8 * 8
    cols = lines[1].split(",")
    assert len(cols) == 6


def _symbol_trace_loop(sym, grid, zeta_samples):
    """The trace CSV one element at a time, as export_symbol_trace wrote it."""
    X1, X2 = grid.x()
    text = "x1,x2,zeta1,zeta2,re,im\n"
    for (z1, z2) in zeta_samples:
        vals = sym.eval(X1, X2, np.asarray(z1), np.asarray(z2))
        vals = np.asarray(vals, np.complex128) + np.zeros_like(X1, np.complex128)
        for i in range(grid.size):
            for j in range(grid.size):
                text += (f"{float(X1[i, j])!r},{float(X2[i, j])!r},{z1!r},{z2!r},"
                         f"{float(vals[i, j].real)!r},{float(vals[i, j].imag)!r}\n")
    return text


@pytest.mark.parametrize("m, seed", [(8, 11), (12, 12), (16, 13)])
def test_symbol_trace_matches_loop_oracle(tmp_path, m, seed):
    # real and complex, x-dependent and x-free symbols: the CSV is byte-equal
    from gcwaves.goodvar import export_symbol_trace

    grid = Grid(m)
    st = random_state(grid, P11, amplitude=0.3, seed=seed)
    syms = build_symbols(st, CFG)
    samples = [(1.0, 0.0), (2.0, 1.5), (4.0, -3.0), (-0.5, 0.5)]
    for k, sym in enumerate((syms.Sigma1, syms.gamma, syms.mprime, syms.lam,
                             Symbol.constant(-0.0), Symbol.constant(1 - 2j))):
        path = tmp_path / f"trace{k}.csv"
        export_symbol_trace(sym, grid, samples, path)
        assert path.read_text() == _symbol_trace_loop(sym, grid, samples)


# ---------------------------------------------------------------------------
# the pointwise symbols are even in zeta: one sample per +-s pair
# ---------------------------------------------------------------------------

EVEN = ("lambda1", "lambda0", "lam", "Sigma", "sqrt_g_ell", "inv_sqrt_g_ell", "mprime")


@functools.lru_cache(maxsize=3)
def _family(m, chi):
    state = random_state(Grid(m), P11, amplitude=0.3, seed=m - chi)
    return build_symbols(state, ParadiffConfig(chi_exponent=chi))


# every box radius at 8^2, 12^2 and 16^2; at 20^2 a box whose batches
# would round otherwise unpadded (BLAS takes another kernel for a short
# one); at 32^2 four more boxes
PAIRING = [pytest.param(m, chi, radii, id=f"{m}-chi{chi}-r{'-'.join(map(str, radii))}")
           for m, chi, radii in
           [(m, chi, tuple(range(m // 2))) for m in (8, 12, 16) for chi in (-1, -2, -3)]
           + [(32, -1, (3,)), (32, -2, (0, 9)), (32, -3, (5,)), (20, -1, (1,))]]


@pytest.mark.parametrize("m, chi, radii", PAIRING)
def test_even_symbols_apply_bit_for_bit_as_undeclared(m, chi, radii):
    # the same evaluator declared even and not: equal sums, bit for bit,
    # for inputs supported in each eta box |eta|_inf <= radius
    syms = _family(m, chi)
    cfg = ParadiffConfig(chi_exponent=chi)
    g = Grid(m)
    k1, k2 = g.freqs()
    rng = np.random.default_rng(m * 100 + radii[0])
    for radius in radii:
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        c[radius % m, -radius % m] = 1.0          # the box's corner is occupied
        f = FourierField(g, np.where((np.abs(k1) <= radius) & (np.abs(k2) <= radius), c, 0.0))
        for name in EVEN:
            sym = getattr(syms, name)
            assert sym.even
            plain = Symbol.general(sym.fn, sym.order)
            got = weyl_apply(sym, f, cfg).coeffs
            assert got.tobytes() == weyl_apply(plain, f, cfg).coeffs.tobytes(), (name, radius)
            assert radius == 0 or np.max(np.abs(got)) > 0.0


@pytest.mark.parametrize("m", [8, 12])
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16),
       zeta=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
                     min_size=1, max_size=4))
def test_pointwise_symbols_are_even_bit_for_bit(m, seed, zeta):
    assume(all(z1 * z1 + z2 * z2 > 0.25 for z1, z2 in zeta))
    g = Grid(m)
    syms = build_symbols(random_state(g, P11, amplitude=0.3, seed=seed), CFG)
    X1, X2 = g.x()
    Z1, Z2 = (np.array([z[i] for z in zeta]).reshape(-1, 1, 1) for i in (0, 1))
    for name in EVEN:
        fn = getattr(syms, name).fn
        assert fn(X1, X2, Z1, Z2).tobytes() == fn(X1, X2, -Z1, -Z2).tobytes(), name
