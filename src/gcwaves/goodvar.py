"""Surface symbols and the improved good variable.

From an interface state (h, omega) this module builds the principal symbol
family

    lambda1 = sqrt((1+|grad h|^2)|zeta|^2 - (zeta . grad h)^2)
    lambda0 = (1+|grad h|^2)^2/(2 lambda1) * {lambda1/(1+|grad h|^2),
               (zeta.grad h)/(1+|grad h|^2)} + (Lap h)/2
    ell     = L_ij zeta_i zeta_j - (g|grad| + sigma|grad|^3) h
    Sigma   = sqrt((lambda1+lambda0)(g + ell))

plus the first-order expansion symbols Sigma1 and lambda1_0, the velocity
proxy V1 = |grad|^{-1/2} grad Im U, the auxiliary symbol
m' = (i/2) div V1 / sqrt(g+ell), and the angular symbol gamma, and then the
complex good variable

    U = T_{sqrt(g+ell)} h + i T_Sigma T_{1/sqrt(g+ell)} omega + i T_{m'} omega.

The exact velocity field needs the Dirichlet-Neumann operator, which is out
of numerical reach here; V1 is its leading-order stand-in and every object
depending on m' or gamma records that substitution.  Since m' itself needs
Im U, the construction is two-stage: U0 (without the m' term) defines V1
and m', then U = U0 + i T_{m'} omega; the difference is cubic in the data
size.  All x-dependence is spectral; zeta-callbacks carry exact gradients
wherever the formulas are closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionParams
from .errors import ConfigError, PositivityError
from .fields import (FourierField, Grid, analyze, apply_multiplier, dx,
                     l2_norm, mean, random_field, sobolev_norm, synthesize)
from .paradiff import (EXPERIMENT_CHI, ParadiffConfig, SeparableTerm, Symbol,
                       symbol_norm, weyl_apply)


@dataclass(frozen=True)
class SurfaceState:
    """Real mean-zero interface elevation h and trace variable omega."""

    h: FourierField
    omega: FourierField
    params: DispersionParams

    def __post_init__(self):
        for name, f in (("h", self.h), ("omega", self.omega)):
            if not f.is_real_valued:
                raise ConfigError(f"{name} must be real-valued")
            if abs(mean(f)) > 1e-12 * (1.0 + l2_norm(f)):
                raise ConfigError(f"{name} must have zero average")
        if self.h.grid != self.omega.grid:
            raise ConfigError("h and omega must share a grid")

    @property
    def grid(self) -> Grid:
        return self.h.grid

    def scaled(self, factor: float) -> "SurfaceState":
        return SurfaceState(self.h * factor, self.omega * factor, self.params)


def random_state(grid: Grid, params: DispersionParams, amplitude=1.0, seed=0,
                 decay=0.35) -> SurfaceState:
    """Smooth random state with ||h||_{H^1} + || |grad|^{1/2} omega || ~ amplitude."""
    h = random_field(grid, seed=seed, decay=decay, real=True)
    w = random_field(grid, seed=seed + 1, decay=decay, real=True)
    nh = sobolev_norm(h, 1.0)
    nw = l2_norm(apply_multiplier(w, lambda k1, k2: np.sqrt(np.hypot(k1, k2))))
    s = amplitude / (nh + nw)
    return SurfaceState(h * s, w * s, params)


@dataclass
class WWSymbols:
    """The symbol family built from one state (all paradiff Symbols)."""

    lambda1: Symbol       # order 1
    lambda0: Symbol       # order 0
    lam: Symbol           # lambda1 + lambda0
    ell: Symbol           # order 2
    sqrt_g_ell: Symbol    # (g+ell)^{1/2}
    inv_sqrt_g_ell: Symbol
    Sigma: Symbol         # order 3/2
    Sigma1: Symbol        # order 1/2
    lambda1_0: Symbol     # order 0 (first-order part of lambda0)
    mprime: Symbol        # order -1  (uses the V1 proxy)
    mprime1: Symbol       # its leading-order form
    gamma: Symbol         # order 1/2 in use (angular symbol, uses Im U)
    v1: tuple             # the velocity proxy fields (V1_1, V1_2)
    v1_dot_zeta: Symbol   # V1 . zeta (order 1)
    imU: FourierField     # the Im U the proxies were built from
    H: FourierField       # stage 1: T_{sqrt(g+ell)} h
    psi_sigma: FourierField  # stage 1: T_Sigma T_{1/sqrt(g+ell)} omega


def _lam_zeta_fns(params):
    g, s = params.g, params.sigma

    def val(z1, z2):
        r = np.hypot(z1, z2)
        return np.sqrt(g * r + s * r ** 3)

    def d(z1, z2, comp):
        r = np.hypot(z1, z2)
        lamv = np.sqrt(g * r + s * r ** 3)
        dr = (g + 3 * s * r ** 2) / (2 * lamv)
        return dr * (z1 if comp == 0 else z2) / r

    return val, (lambda z1, z2: d(z1, z2, 0), lambda z1, z2: d(z1, z2, 1))


def power_of_g_ell_fn(state_fields, g, p):
    """Closure family (g+ell)^p with exact zeta-gradients."""
    L11, L12, L22, lam2h = state_fields

    def base(Z1, Z2):
        return g + L11 * Z1 ** 2 + 2 * L12 * Z1 * Z2 + L22 * Z2 ** 2 - lam2h

    fn = lambda X1, X2, Z1, Z2: base(Z1, Z2) ** p
    d1 = lambda X1, X2, Z1, Z2: p * base(Z1, Z2) ** (p - 1) * 2 * (L11 * Z1 + L12 * Z2)
    d2 = lambda X1, X2, Z1, Z2: p * base(Z1, Z2) ** (p - 1) * 2 * (L12 * Z1 + L22 * Z2)
    return fn, (d1, d2)


def build_symbols(state: SurfaceState, cfg: ParadiffConfig | None = None) -> WWSymbols:
    """Construct the full symbol family from (h, omega).

    Raises PositivityError (with the offending grid point) when
    1 + |grad h|^2 or inf_{|zeta|>1/2} (g + ell) fails to stay positive.
    """
    if cfg is None:
        cfg = ParadiffConfig(chi_exponent=EXPERIMENT_CHI)
    grid = state.grid
    params = state.params
    g, sig = params.g, params.sigma
    m = grid.size

    h = state.h
    dh1 = synthesize(dx(h, 0)).real
    dh2 = synthesize(dx(h, 1)).real
    A = 1.0 + dh1 ** 2 + dh2 ** 2
    _positivity(A, grid, "1+|grad h|^2")

    d11 = synthesize(dx(dx(h, 0), 0)).real
    d12 = synthesize(dx(dx(h, 0), 1)).real
    d22 = synthesize(dx(dx(h, 1), 1)).real
    lap = d11 + d22

    # mean-curvature coefficients and the ell symbol (separable, exact grads)
    sqA = np.sqrt(A)
    L11 = sig / sqA * (1.0 - dh1 * dh1 / A)
    L12 = sig / sqA * (-dh1 * dh2 / A)
    L22 = sig / sqA * (1.0 - dh2 * dh2 / A)
    lam2h_f = apply_multiplier(h, lambda k1, k2: _lam2(params, k1, k2))
    lam2h = synthesize(lam2h_f).real
    # inf over |zeta| > 1/2 of L zeta.zeta is lambda_min(L)/4 = sigma A^{-3/2}/4
    _positivity(g + sig * A ** -1.5 * 0.25 - lam2h, grid, "g + ell")

    ell = Symbol.separable([
        SeparableTerm(analyze(L11, grid), lambda z1, z2: z1 * z1 + 0.0 * z2,
                      (lambda z1, z2: 2 * z1, lambda z1, z2: 0.0 * z2)),
        SeparableTerm(analyze(L12, grid), lambda z1, z2: 2 * z1 * z2,
                      (lambda z1, z2: 2 * z2, lambda z1, z2: 2 * z1)),
        SeparableTerm(analyze(L22, grid), lambda z1, z2: z2 * z2 + 0.0 * z1,
                      (lambda z1, z2: 0.0 * z1, lambda z1, z2: 2 * z2)),
        SeparableTerm(lam2h_f * (-1.0), lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                      (lambda z1, z2: 0.0 * z1, lambda z1, z2: 0.0 * z2)),
    ], order=2.0, name="ell")

    gl_fields = (L11, L12, L22, lam2h)
    fn_sqrt, d_sqrt = power_of_g_ell_fn(gl_fields, g, 0.5)
    sqrt_g_ell = Symbol.general(fn_sqrt, 1.0, dz=d_sqrt, name="sqrt(g+ell)")
    fn_inv, d_inv = power_of_g_ell_fn(gl_fields, g, -0.5)
    inv_sqrt_g_ell = Symbol.general(fn_inv, -1.0, dz=d_inv, name="1/sqrt(g+ell)")

    # principal Dirichlet-Neumann symbol and its subprincipal correction
    def l1_fn(X1, X2, Z1, Z2):
        return np.sqrt(A * (Z1 ** 2 + Z2 ** 2) - (Z1 * dh1 + Z2 * dh2) ** 2)

    def l1_d(comp):
        def d(X1, X2, Z1, Z2):
            v = l1_fn(X1, X2, Z1, Z2)
            dot = Z1 * dh1 + Z2 * dh2
            z = Z1 if comp == 0 else Z2
            dh = dh1 if comp == 0 else dh2
            return (A * z - dot * dh) / v
        return d

    lambda1 = Symbol.general(l1_fn, 1.0, dz=(l1_d(0), l1_d(1)), name="lambda1")

    kf = np.fft.fftfreq(m, 1.0 / m)
    K1f, K2f = np.meshgrid(kf, kf, indexing="ij")

    def lambda0_fn(X1, X2, Z1, Z2):
        # (A^2 / 2 lambda1) {lambda1/A, (zeta.grad h)/A} + lap h / 2,
        # x-derivatives spectral at fixed zeta, zeta-derivatives closed-form
        l1 = l1_fn(X1, X2, Z1, Z2)
        dot = Z1 * dh1 + Z2 * dh2
        P = l1 / A
        Q = dot / A
        Ph = np.fft.fft2(P + 0j, axes=(-2, -1))
        Qh = np.fft.fft2(Q + 0j, axes=(-2, -1))
        dxP = (np.fft.ifft2(1j * K1f * Ph, axes=(-2, -1)),
               np.fft.ifft2(1j * K2f * Ph, axes=(-2, -1)))
        dxQ = (np.fft.ifft2(1j * K1f * Qh, axes=(-2, -1)),
               np.fft.ifft2(1j * K2f * Qh, axes=(-2, -1)))
        dzP = ((A * Z1 - dot * dh1) / l1 / A, (A * Z2 - dot * dh2) / l1 / A)
        dzQ = (dh1 / A, dh2 / A)
        br = (dxP[0] * dzQ[0] + dxP[1] * dzQ[1]
              - dzP[0] * dxQ[0] - dzP[1] * dxQ[1])
        return A ** 2 / (2.0 * l1) * br + 0.5 * lap

    lambda0 = Symbol.general(lambda0_fn, 0.0, name="lambda0")
    lam_sym = lambda1 + lambda0
    lam_sym.order = 1.0
    lam_sym.name = "lambda"

    def sigma_fn(X1, X2, Z1, Z2):
        gl = (g + L11 * Z1 ** 2 + 2 * L12 * Z1 * Z2 + L22 * Z2 ** 2 - lam2h)
        return np.sqrt((l1_fn(X1, X2, Z1, Z2) + lambda0_fn(X1, X2, Z1, Z2)) * gl)

    Sigma = Symbol.general(sigma_fn, 1.5, name="Sigma")

    # first-order expansion symbols (separable, exact zeta-gradients)
    lamv, dlam = _lam_zeta_fns(params)
    one = lambda z1, z2: np.ones(np.broadcast(z1, z2).shape)
    zero2 = (lambda z1, z2: np.zeros(np.broadcast(z1, z2).shape),) * 2

    lambda1_0 = Symbol.separable(
        [SeparableTerm(analyze(0.5 * lap, grid), one, zero2)]
        + [SeparableTerm(analyze(-0.5 * fld, grid), _ratio_fn(i, j), _ratio_dfn(i, j))
           for (i, j), fld in (((0, 0), d11), ((0, 1), 2 * d12), ((1, 1), d22))],
        order=0.0, name="lambda1_0")

    Sigma1 = Symbol.separable(
        [SeparableTerm(analyze(0.25 * lap, grid), _lam_over_r(params), _lam_over_r_d(params))]
        + [SeparableTerm(analyze(-0.25 * fld, grid), _lam_ratio_fn(params, i, j), None)
           for (i, j), fld in (((0, 0), d11), ((0, 1), 2 * d12), ((1, 1), d22))]
        + [SeparableTerm(analyze(-0.5 * lam2h, grid), _r_over_lam(params), _r_over_lam_d(params))],
        order=0.5, name="Sigma1")

    # --- stage 1: U without the m' correction, to get Im U and V1 ----------
    omega = state.omega
    H = weyl_apply(sqrt_g_ell, h, cfg)
    psi_sigma = weyl_apply(Sigma, weyl_apply(inv_sqrt_g_ell, omega, cfg), cfg)
    U0 = H + 1j * psi_sigma
    imU = U0.imag_part()

    inv_half = lambda k1, k2: np.hypot(k1, k2) ** -0.5
    v1_1 = apply_multiplier(dx(imU, 0), inv_half, "|grad|^{-1/2}")
    v1_2 = apply_multiplier(dx(imU, 1), inv_half, "|grad|^{-1/2}")
    div_v1 = synthesize(dx(v1_1, 0) + dx(v1_2, 1))
    div_v1 = div_v1.real if np.isrealobj(div_v1) else div_v1.real

    def mprime_fn(X1, X2, Z1, Z2):
        gl = (g + L11 * Z1 ** 2 + 2 * L12 * Z1 * Z2 + L22 * Z2 ** 2 - lam2h)
        return 0.5j * div_v1 * gl ** -0.5

    def mprime_d(comp):
        def d(X1, X2, Z1, Z2):
            gl = (g + L11 * Z1 ** 2 + 2 * L12 * Z1 * Z2 + L22 * Z2 ** 2 - lam2h)
            dgl = 2 * (L11 * Z1 + L12 * Z2) if comp == 0 else 2 * (L12 * Z1 + L22 * Z2)
            return 0.5j * div_v1 * (-0.5) * gl ** -1.5 * dgl
        return d

    mprime = Symbol.general(mprime_fn, -1.0, dz=(mprime_d(0), mprime_d(1)),
                            name="mprime[V1 proxy]")

    m32 = apply_multiplier(imU, lambda k1, k2: np.hypot(k1, k2) ** 1.5)
    mprime1 = Symbol.separable(
        [SeparableTerm(m32 * 0.5j, _inv_sqrt_gsig(params), _inv_sqrt_gsig_d(params))],
        order=-1.0, name="mprime1")

    gamma_terms = []
    for (i, j), w in (((0, 0), 1.0), ((0, 1), 2.0), ((1, 1), 1.0)):
        gij = apply_multiplier(dx(dx(imU, i), j),
                               lambda k1, k2: np.hypot(k1, k2) ** -0.5, "|grad|^{-1/2}")
        gamma_terms.append(SeparableTerm(gij * w, _ratio_fn(i, j), _ratio_dfn(i, j)))
    gamma = Symbol.separable(gamma_terms, order=0.5, name="gamma[Im U]")

    v1_dot_zeta = Symbol.separable([
        SeparableTerm(v1_1, lambda z1, z2: z1 + 0.0 * z2,
                      (lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                       lambda z1, z2: np.zeros(np.broadcast(z1, z2).shape))),
        SeparableTerm(v1_2, lambda z1, z2: z2 + 0.0 * z1,
                      (lambda z1, z2: np.zeros(np.broadcast(z1, z2).shape),
                       lambda z1, z2: np.ones(np.broadcast(z1, z2).shape))),
    ], order=1.0, name="V1.zeta")

    return WWSymbols(lambda1, lambda0, lam_sym, ell, sqrt_g_ell, inv_sqrt_g_ell,
                     Sigma, Sigma1, lambda1_0, mprime, mprime1, gamma,
                     (v1_1, v1_2), v1_dot_zeta, imU, H, psi_sigma)


def _positivity(arr, grid, what):
    if np.min(arr) <= 0.0:
        i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
        x1, x2 = grid.x()
        raise PositivityError(
            f"{what} is not positive at grid point ({x1[i, j]:.4f}, {x2[i, j]:.4f})")


def _ratio_fn(i, j):
    def f(z1, z2):
        r2 = z1 * z1 + z2 * z2
        zz = (z1, z2)
        return zz[i] * zz[j] / r2
    return f


def _ratio_dfn(i, j):
    def d(comp):
        def f(z1, z2):
            r2 = z1 * z1 + z2 * z2
            zz = (z1, z2)
            num = zz[i] * zz[j]
            dnum = (zz[j] if i == comp else 0.0) + (zz[i] if j == comp else 0.0)
            return dnum / r2 - num * 2 * zz[comp] / r2 ** 2
        return f
    return (d(0), d(1))


def _lam_over_r(params):
    def f(z1, z2):
        r = np.hypot(z1, z2)
        return np.sqrt(params.g * r + params.sigma * r ** 3) / r
    return f


def _lam_over_r_d(params):
    g, s = params.g, params.sigma

    def d(comp):
        def f(z1, z2):
            r = np.hypot(z1, z2)
            lamv = np.sqrt(g * r + s * r ** 3)
            # d/dr (lam/r) = (dlam/dr * r - lam)/r^2
            dlam = (g + 3 * s * r ** 2) / (2 * lamv)
            z = z1 if comp == 0 else z2
            return (dlam * r - lamv) / r ** 2 * z / r
        return f
    return (d(0), d(1))


def _lam_ratio_fn(params, i, j):
    lof = _lam_over_r(params)
    rat = _ratio_fn(i, j)
    return lambda z1, z2: lof(z1, z2) * rat(z1, z2)


def _r_over_lam(params):
    def f(z1, z2):
        r = np.hypot(z1, z2)
        return r / np.sqrt(params.g * r + params.sigma * r ** 3)
    return f


def _r_over_lam_d(params):
    g, s = params.g, params.sigma

    def d(comp):
        def f(z1, z2):
            r = np.hypot(z1, z2)
            lamv = np.sqrt(g * r + s * r ** 3)
            dlam = (g + 3 * s * r ** 2) / (2 * lamv)
            z = z1 if comp == 0 else z2
            return (lamv - r * dlam) / lamv ** 2 * z / r
        return f
    return (d(0), d(1))


def _inv_sqrt_gsig(params):
    g, s = params.g, params.sigma
    return lambda z1, z2: (g + s * (z1 * z1 + z2 * z2)) ** -0.5


def _inv_sqrt_gsig_d(params):
    g, s = params.g, params.sigma

    def d(comp):
        def f(z1, z2):
            z = z1 if comp == 0 else z2
            return -s * z * (g + s * (z1 * z1 + z2 * z2)) ** -1.5
        return f
    return (d(0), d(1))


def _lam2(params, k1, k2):
    r = np.hypot(k1, k2)
    return params.g * r + params.sigma * r ** 3


# ---------------------------------------------------------------------------
# the good variable
# ---------------------------------------------------------------------------

@dataclass
class GoodVariable:
    U: FourierField
    H: FourierField          # T_{sqrt(g+ell)} h
    Psi: FourierField        # T_Sigma T_{1/sqrt(g+ell)} omega + T_{m'} omega
    Psi_sigma: FourierField  # the Sigma part of Psi alone
    mprime_term: FourierField
    symbols: WWSymbols
    chi_exponent: int


def build_good_variable(state: SurfaceState, cfg: ParadiffConfig | None = None) -> GoodVariable:
    """U = T_{sqrt(g+ell)} h + i T_Sigma T_{1/sqrt(g+ell)} omega + i T_{m'} omega.

    The first two terms are build_symbols' stage 1, carried on WWSymbols."""
    if cfg is None:
        cfg = ParadiffConfig(chi_exponent=EXPERIMENT_CHI)
    syms = build_symbols(state, cfg)
    mp_term = weyl_apply(syms.mprime, state.omega, cfg)
    psi = syms.psi_sigma + mp_term
    U = syms.H + 1j * psi
    return GoodVariable(U, syms.H, psi, syms.psi_sigma, mp_term, syms, cfg.chi_exponent)


def linear_good_variable(state: SurfaceState) -> FourierField:
    """The flat-interface normal form sqrt(g + sigma |grad|^2) h + i |grad|^{1/2} omega."""
    p = state.params
    a = apply_multiplier(state.h, lambda k1, k2: np.sqrt(p.g + p.sigma * (k1 ** 2 + k2 ** 2)))
    b = apply_multiplier(state.omega, lambda k1, k2: np.sqrt(np.hypot(k1, k2)))
    return a + 1j * b


def quadratic_energy(state: SurfaceState) -> float:
    """|| |grad|^{1/2} omega ||_{L^2}^2 + || (g - sigma Lap)^{1/2} h ||_{L^2}^2."""
    p = state.params
    a = apply_multiplier(state.omega, lambda k1, k2: np.hypot(k1, k2) ** 0.5, "|grad|^{1/2}")
    b = apply_multiplier(state.h, lambda k1, k2: np.sqrt(p.g + p.sigma * (k1 ** 2 + k2 ** 2)))
    return l2_norm(a) ** 2 + l2_norm(b) ** 2


# ---------------------------------------------------------------------------
# scaling checks and the derivative ladder
# ---------------------------------------------------------------------------

def fit_loglog(xs, ys):
    """Least-squares slope of log(y) against log(x); ignores exact zeros."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    keep = ys > 0.0
    if keep.sum() < 2:
        return -math.inf
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


@dataclass
class SlopeReport:
    name: str
    eps: list
    values: list
    slope: float

    def to_json(self):
        return {"name": self.name, "eps": list(self.eps),
                "values": list(self.values), "slope": self.slope}


def expansion_check(state: SurfaceState, eps_list, cfg: ParadiffConfig | None = None,
                    powers=(-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), zeta_samples=None):
    """epsilon-scaling of the first-order symbol expansions.

    For each scale eps the state (eps h, eps omega) is built and the sampled
    symbol norms of

        (g+ell)^p (g+sigma|zeta|^2)^{-p} - 1 + p Lam^2 h / (g+sigma|zeta|^2)
        lambda^p |zeta|^{-p} - 1 - p lambda1_0 / |zeta|
        Sigma - Lam(zeta) - Sigma1                  (order-3/2 weighted)

    are measured; the expected log-log slope is 2 (p = 0 is identically 0).
    """
    if cfg is None:
        cfg = ParadiffConfig(chi_exponent=EXPERIMENT_CHI)
    if not eps_list or not all(0.0 < e < math.inf for e in eps_list):
        raise ConfigError(f"eps values must be finite and > 0, got {list(eps_list)}")
    if max(eps_list) / min(eps_list) < 99:
        raise ConfigError("eps values should span at least two decades")
    grid = state.grid
    p0 = state.params
    if zeta_samples is None:
        zeta_samples = [(1.0, 0.0), (0.5, 1.0), (-1.5, 2.0), (3.0, -0.5),
                        (4.5, 4.0), (-6.0, 1.5), (2.5, -2.5), (8.0, 0.5)]
    lamv, dlam = _lam_zeta_fns(p0)
    lam_mult = Symbol.multiplier(lamv, 1.5, dgz=dlam, name="Lam")
    values = {f"g_ell_pow_{p}": [] for p in powers}
    values.update({f"lambda_pow_{p}": [] for p in powers})
    values["Sigma_minus_Lam_minus_Sigma1"] = []

    for eps in eps_list:
        st = state.scaled(eps)
        syms = build_symbols(st, cfg)
        lam2h = synthesize(apply_multiplier(st.h, lambda k1, k2: _lam2(p0, k1, k2))).real
        X1, X2 = grid.x()
        for p in powers:
            def rem_gl(Xa, Xb, Z1, Z2, p=p):
                gl = syms.ell.eval(Xa, Xb, Z1, Z2) + p0.g
                lead = p0.g + p0.sigma * (Z1 ** 2 + Z2 ** 2)
                return (gl ** p) * lead ** (-p) - 1.0 + p * lam2h / lead

            rep = symbol_norm(Symbol.general(rem_gl, 0.0), 0.0, 0, zeta_samples, grid)
            values[f"g_ell_pow_{p}"].append(rep.value)

            def rem_lam(Xa, Xb, Z1, Z2, p=p):
                lam_full = syms.lam.eval(Xa, Xb, Z1, Z2)
                r = np.hypot(Z1, Z2)
                l10 = syms.lambda1_0.eval(Xa, Xb, Z1, Z2)
                return (lam_full ** p) * r ** (-p) - 1.0 - p * l10 / r

            rep = symbol_norm(Symbol.general(rem_lam, 0.0), 0.0, 0, zeta_samples, grid)
            values[f"lambda_pow_{p}"].append(rep.value)

        rem_sigma = syms.Sigma - lam_mult - syms.Sigma1
        rep = symbol_norm(rem_sigma, 1.5, 0, zeta_samples, grid)
        values["Sigma_minus_Lam_minus_Sigma1"].append(rep.value)

    return [SlopeReport(name, list(eps_list), vals, fit_loglog(eps_list, vals))
            for name, vals in values.items()]


def export_symbol_trace(sym: Symbol, grid: Grid, zeta_samples, path):
    """Write symbol values over the (x-grid x zeta-sample) product as CSV
    with columns x1, x2, zeta1, zeta2, re, im (plot-ready)."""
    X1, X2 = grid.x()
    with open(path, "w") as fh:
        fh.write("x1,x2,zeta1,zeta2,re,im\n")
        for (z1, z2) in zeta_samples:
            vals = sym.eval(X1, X2, np.asarray(z1), np.asarray(z2))
            vals = np.asarray(vals, np.complex128) + np.zeros_like(X1, np.complex128)
            for i in range(grid.size):
                for j in range(grid.size):
                    fh.write(f"{float(X1[i, j])!r},{float(X2[i, j])!r},"
                             f"{z1!r},{z2!r},"
                             f"{float(vals[i, j].real)!r},{float(vals[i, j].imag)!r}\n")


@dataclass
class LadderReport:
    fields: list           # W_n = (T_Sigma)^n U, n = 0..n_max
    deviations: list       # ||W_n - Lam^n U||_{L^2}
    sum_norms: float       # sum_n ||W_n||_{L^2}
    target_norm: float     # ||U||_{H^{3 n_max / 2}}
    equivalence_ratio: float


def ladder(U: FourierField, n_max: int, symbols: WWSymbols, params: DispersionParams,
           cfg: ParadiffConfig) -> LadderReport:
    """Differentiated variables W_n = (T_Sigma)^n U and the norm equivalence.

    Callers should keep n_max <= 2N/3 for the configured Sobolev index N
    (each rung costs 3/2 derivatives of regularity)."""
    from .dispersion import lam_grid

    ws = [U]
    for _ in range(n_max):
        ws.append(weyl_apply(symbols.Sigma, ws[-1], cfg))
    devs = []
    for n, w in enumerate(ws):
        lam_n = apply_multiplier(U, lambda k1, k2: lam_grid(params, k1, k2) ** n)
        devs.append(l2_norm(w - lam_n))
    total = sum(l2_norm(w) for w in ws)
    target = sobolev_norm(U, 1.5 * n_max)
    return LadderReport(ws, devs, total, target,
                        total / target if target > 0 else math.inf)
