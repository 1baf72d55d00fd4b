"""Surface symbols and the improved good variable.

From an interface state (h, omega) this module builds the principal symbol
family

    lambda1 = sqrt((1+|grad h|^2)|zeta|^2 - (zeta . grad h)^2)
    lambda0 = (1+|grad h|^2)^2/(2 lambda1) * {lambda1/(1+|grad h|^2),
               (zeta.grad h)/(1+|grad h|^2)} + (Lap h)/2
    ell     = L_ij zeta_i zeta_j - (g|grad| + sigma|grad|^3) h
    Sigma   = sqrt((lambda1+lambda0)(g + ell))

In zeta the Dirichlet-Neumann symbols are quadratic forms with coefficients
that depend on x only, so they are evaluated as

    lambda1 = sqrt(Q),   lambda0 = N/Q + c0,
    Q = q11 zeta1^2 + q12 zeta1 zeta2 + q22 zeta2^2,  q = (A - h_1^2, -2 h_1 h_2, A - h_2^2),

with A = 1+|grad h|^2, N = n11 zeta1^2 + n12 zeta1 zeta2 + n22 zeta2^2 and
c0 = Lap h/2 - sum_j h_j d_j A/(2A) the bracket expanded once per state
(principal_family); no (x, zeta) sample repeats the chain rule.

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
size.  The x-derivatives in the symbols are spectral derivatives of h,
taken once; every symbol is then a pointwise function of (x, zeta).

Only the symbols from m' on need Im U, and so the three stage-1
applications.  The principal family (lambda, ell, Sigma, Sigma1, lambda1_0
and sqrt(g+ell)^{+-1}) is built without any, and expansion_check reads
only that family: it applies no operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionParams, lam_grid
from .errors import ConfigError, PositivityError
from .fields import (FourierField, Grid, analyze, apply_multiplier, dx, fit_line,
                     l2_norm, mean, random_field, sobolev_norm, synthesize, write_csv)
from .paradiff import (EXPERIMENT_CHI, ParadiffConfig, SeparableTerm, Symbol,
                       grid_index, sampled_norm, weyl_apply, zeta_arrays)


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
    if not 0.0 < amplitude < math.inf:
        raise ConfigError(f"amplitude must be finite and > 0, got {amplitude!r}")
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


def principal_family(state: SurfaceState):
    """The symbols of build_symbols that do not read Im U, as a dict keyed
    by WWSymbols field name, and the pointwise g_ell(i, Z1, Z2) = g + ell at
    grid index i that m' reuses.  Makes no operator application."""
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
    # grad A = 2 (h_1 grad h_1 + h_2 grad h_2), h_j = d_j h
    dA = (2.0 * (dh1 * d11 + dh2 * d12), 2.0 * (dh1 * d12 + dh2 * d22))

    # mean-curvature coefficients and the ell symbol
    sqA = np.sqrt(A)
    L11 = sig / sqA * (1.0 - dh1 * dh1 / A)
    L12 = sig / sqA * (-dh1 * dh2 / A)
    L22 = sig / sqA * (1.0 - dh2 * dh2 / A)
    lam2h_f = apply_multiplier(h, lambda k1, k2: _lam2(params, k1, k2))
    lam2h = synthesize(lam2h_f).real
    # inf over |zeta| > 1/2 of L zeta.zeta is lambda_min(L)/4 = sigma A^{-3/2}/4
    _positivity(g + sig * A ** -1.5 * 0.25 - lam2h, grid, "g + ell")

    one = lambda z1, z2: np.ones(np.broadcast(z1, z2).shape)
    ell = Symbol.separable([
        SeparableTerm(analyze(L11, grid), lambda z1, z2: z1 * z1 + 0.0 * z2),
        SeparableTerm(analyze(L12, grid), lambda z1, z2: 2 * z1 * z2),
        SeparableTerm(analyze(L22, grid), lambda z1, z2: z2 * z2 + 0.0 * z1),
        SeparableTerm(lam2h_f * (-1.0), one),
    ], order=2.0, name="ell")

    # The general symbols read their fields at the grid points x, through
    # the index i = grid_index(X1, X2, m); no evaluator transforms in x.
    def g_ell(i, Z1, Z2):
        return g + L11[i] * Z1 ** 2 + 2 * L12[i] * Z1 * Z2 + L22[i] * Z2 ** 2 - lam2h[i]

    sqrt_g_ell = _pointwise(lambda i, Z1, Z2: g_ell(i, Z1, Z2) ** 0.5, m, 1.0,
                            "sqrt(g+ell)")
    inv_sqrt_g_ell = _pointwise(lambda i, Z1, Z2: g_ell(i, Z1, Z2) ** -0.5, m, -1.0,
                                "1/sqrt(g+ell)")

    # The Dirichlet-Neumann symbols as quadratic forms in zeta with field
    # coefficients: lambda1 = sqrt(Q) with Q = A|zeta|^2 - (zeta.grad h)^2,
    # and lambda0 = (A^2 / 2 lambda1) {lambda1/A, (zeta.grad h)/A} + Lap h/2
    # = N/Q + c0, the bracket expanded with D = zeta.grad h:
    #   N  = sum_j h_j d_jQ / 4 - (A zeta_j - D h_j)(d_j D - D d_jA / A) / 2,
    #   c0 = Lap h / 2 - sum_j h_j d_jA / (2A),   d_jQ = d_jA |zeta|^2 - 2 D d_j D.
    grad = (dh1, dh2)
    hess = ((d11, d12), (d12, d22))
    q11, q12, q22 = A - dh1 ** 2, -2.0 * dh1 * dh2, A - dh2 ** 2
    n11 = n12 = n22 = 0.0
    for j in (0, 1):
        hj, Hj, aj = grad[j], hess[j], dA[j]
        u = (A * (j == 0) - hj * dh1, A * (j == 1) - hj * dh2)   # A zeta_j - D h_j
        v = (Hj[0] - aj / A * dh1, Hj[1] - aj / A * dh2)          # d_j D - D d_jA / A
        n11 = n11 + 0.25 * hj * aj - 0.5 * hj * dh1 * Hj[0] - 0.5 * u[0] * v[0]
        n22 = n22 + 0.25 * hj * aj - 0.5 * hj * dh2 * Hj[1] - 0.5 * u[1] * v[1]
        n12 = n12 - 0.5 * hj * (dh1 * Hj[1] + dh2 * Hj[0]) - 0.5 * (u[0] * v[1] + u[1] * v[0])
    c0 = 0.5 * lap - (dh1 * dA[0] + dh2 * dA[1]) / (2.0 * A)

    def quad(c11, c12, c22, i, Z1, Z2):
        return c11[i] * Z1 ** 2 + c12[i] * (Z1 * Z2) + c22[i] * Z2 ** 2

    def lambda1_fn(i, Z1, Z2):
        return np.sqrt(quad(q11, q12, q22, i, Z1, Z2))

    def lambda0_fn(i, Z1, Z2):
        return quad(n11, n12, n22, i, Z1, Z2) / quad(q11, q12, q22, i, Z1, Z2) + c0[i]

    def lam_fn(i, Z1, Z2):
        Q = quad(q11, q12, q22, i, Z1, Z2)
        return np.sqrt(Q) + quad(n11, n12, n22, i, Z1, Z2) / Q + c0[i]

    lambda1 = _pointwise(lambda1_fn, m, 1.0, "lambda1")
    lambda0 = _pointwise(lambda0_fn, m, 0.0, "lambda0")
    lam_sym = _pointwise(lam_fn, m, 1.0, "lambda")
    Sigma = _pointwise(lambda i, Z1, Z2: np.sqrt(lam_fn(i, Z1, Z2) * g_ell(i, Z1, Z2)),
                       m, 1.5, "Sigma")

    # first-order expansion symbols (separable)
    lambda1_0 = Symbol.separable(
        [SeparableTerm(analyze(0.5 * lap, grid), one)]
        + [SeparableTerm(analyze(-0.5 * fld, grid), _ratio_fn(i, j))
           for (i, j), fld in (((0, 0), d11), ((0, 1), 2 * d12), ((1, 1), d22))],
        order=0.0, name="lambda1_0")

    Sigma1 = Symbol.separable(
        [SeparableTerm(analyze(0.25 * lap, grid), _lam_over_r(params))]
        + [SeparableTerm(analyze(-0.25 * fld, grid), _lam_ratio_fn(params, i, j))
           for (i, j), fld in (((0, 0), d11), ((0, 1), 2 * d12), ((1, 1), d22))]
        + [SeparableTerm(analyze(-0.5 * lam2h, grid), _r_over_lam(params))],
        order=0.5, name="Sigma1")

    fam = dict(lambda1=lambda1, lambda0=lambda0, lam=lam_sym, ell=ell,
               sqrt_g_ell=sqrt_g_ell, inv_sqrt_g_ell=inv_sqrt_g_ell, Sigma=Sigma,
               Sigma1=Sigma1, lambda1_0=lambda1_0)
    return fam, g_ell


def _pointwise(fn, m, order, name):
    """A general symbol fn(i, Z1, Z2) of the grid index i of x on an m x m
    grid, declared even in zeta: every one here reads zeta only through
    Z1 ** 2, Z1 * Z2 and Z2 ** 2, whose bits do not change when zeta does
    sign."""
    return Symbol.general(lambda X1, X2, Z1, Z2: fn(grid_index(X1, X2, m), Z1, Z2),
                          order, name=name, even=True)


def build_symbols(state: SurfaceState, cfg: ParadiffConfig | None = None,
                  family=None) -> WWSymbols:
    """Construct the full symbol family from (h, omega).

    The principal family (lambda, ell, Sigma, Sigma1, lambda1_0 and
    sqrt(g+ell)^{+-1}) is principal_family(state), passed as ``family`` by a
    caller that has built it already; stage 1 then makes the three
    general-path applies that give Im U, and from it m', m'_1, gamma and
    V1.  Every symbol is pointwise in (x, zeta): its x-arrays may hold
    any subset of the grid points, in any broadcastable shape.  Raises
    PositivityError (with the offending grid point) when 1 + |grad h|^2 or
    inf_{|zeta|>1/2} (g + ell) fails to stay positive.
    """
    if cfg is None:
        cfg = ParadiffConfig(chi_exponent=EXPERIMENT_CHI)
    fam, g_ell = principal_family(state) if family is None else family
    params = state.params
    m = state.grid.size
    h = state.h

    # --- stage 1: U without the m' correction, to get Im U and V1 ----------
    omega = state.omega
    H = weyl_apply(fam["sqrt_g_ell"], h, cfg)
    psi_sigma = weyl_apply(fam["Sigma"], weyl_apply(fam["inv_sqrt_g_ell"], omega, cfg), cfg)
    U0 = H + 1j * psi_sigma
    imU = U0.imag_part()

    inv_half = lambda k1, k2: np.hypot(k1, k2) ** -0.5
    v1_1 = apply_multiplier(dx(imU, 0), inv_half, "|grad|^{-1/2}")
    v1_2 = apply_multiplier(dx(imU, 1), inv_half, "|grad|^{-1/2}")
    div_v1 = synthesize(dx(v1_1, 0) + dx(v1_2, 1)).real

    mprime = _pointwise(lambda i, Z1, Z2: 0.5j * div_v1[i] * g_ell(i, Z1, Z2) ** -0.5,
                        m, -1.0, "mprime[V1 proxy]")

    m32 = apply_multiplier(imU, lambda k1, k2: np.hypot(k1, k2) ** 1.5)
    mprime1 = Symbol.separable(
        [SeparableTerm(m32 * 0.5j, _inv_sqrt_gsig(params))], order=-1.0, name="mprime1")

    gamma_terms = []
    for (i, j), w in (((0, 0), 1.0), ((0, 1), 2.0), ((1, 1), 1.0)):
        gij = apply_multiplier(dx(dx(imU, i), j),
                               lambda k1, k2: np.hypot(k1, k2) ** -0.5, "|grad|^{-1/2}")
        gamma_terms.append(SeparableTerm(gij * w, _ratio_fn(i, j)))
    gamma = Symbol.separable(gamma_terms, order=0.5, name="gamma[Im U]")

    # the exact zeta-gradient here is read by the gamma bracket identity
    v1_dot_zeta = Symbol.separable([
        SeparableTerm(v1_1, lambda z1, z2: z1 + 0.0 * z2,
                      (lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                       lambda z1, z2: np.zeros(np.broadcast(z1, z2).shape))),
        SeparableTerm(v1_2, lambda z1, z2: z2 + 0.0 * z1,
                      (lambda z1, z2: np.zeros(np.broadcast(z1, z2).shape),
                       lambda z1, z2: np.ones(np.broadcast(z1, z2).shape))),
    ], order=1.0, name="V1.zeta")

    return WWSymbols(**fam, mprime=mprime, mprime1=mprime1, gamma=gamma,
                     v1=(v1_1, v1_2), v1_dot_zeta=v1_dot_zeta, imU=imU, H=H,
                     psi_sigma=psi_sigma)


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


def _lam_over_r(params):
    def f(z1, z2):
        r = np.hypot(z1, z2)
        return np.sqrt(params.g * r + params.sigma * r ** 3) / r
    return f


def _lam_ratio_fn(params, i, j):
    lof = _lam_over_r(params)
    rat = _ratio_fn(i, j)
    return lambda z1, z2: lof(z1, z2) * rat(z1, z2)


def _r_over_lam(params):
    def f(z1, z2):
        r = np.hypot(z1, z2)
        return r / np.sqrt(params.g * r + params.sigma * r ** 3)
    return f


def _inv_sqrt_gsig(params):
    g, s = params.g, params.sigma
    return lambda z1, z2: (g + s * (z1 * z1 + z2 * z2)) ** -0.5


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


def build_good_variable(state: SurfaceState, cfg: ParadiffConfig | None = None,
                        family=None) -> GoodVariable:
    """U = T_{sqrt(g+ell)} h + i T_Sigma T_{1/sqrt(g+ell)} omega + i T_{m'} omega.

    The first two terms are build_symbols' stage 1, carried on WWSymbols;
    ``family`` is passed on to it."""
    if cfg is None:
        cfg = ParadiffConfig(chi_exponent=EXPERIMENT_CHI)
    syms = build_symbols(state, cfg, family)
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
    return fit_line(np.log(xs[keep]), np.log(ys[keep]))[0]


@dataclass
class SlopeReport:
    name: str
    eps: list
    values: list
    slope: float


def expansion_check(state: SurfaceState, eps_list, cfg: ParadiffConfig | None = None,
                    powers=(-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), zeta_samples=None,
                    families=None):
    """epsilon-scaling of the first-order symbol expansions.

    For each scale eps the state (eps h, eps omega) is built and the sampled
    symbol norms of

        (g+ell)^p (g+sigma|zeta|^2)^{-p} - 1 + p Lam^2 h / (g+sigma|zeta|^2)
        lambda^p |zeta|^{-p} - 1 - p lambda1_0 / |zeta|
        Sigma - Lam(zeta) - Sigma1                  (order-3/2 weighted)

    are measured; the expected log-log slope is 2 (p = 0 is identically 0).
    Only the principal family enters (principal_family, no stage 1), so no
    operator is applied and ``cfg`` does not change the result; ``families``
    may hold principal_family(state.scaled(eps)) per eps, built once for
    this check and the good variables of the same states.  Per eps, ell,
    lambda and lambda1_0 are sampled once on the full grid at every zeta
    sample (one broadcast call each), every remainder is formed from those
    samples, and paradiff.sampled_norm measures it.
    """
    if not eps_list or not all(0.0 < e < math.inf for e in eps_list):
        raise ConfigError(f"eps values must be finite and > 0, got {list(eps_list)}")
    if max(eps_list) / min(eps_list) < 99:
        raise ConfigError("eps values should span at least two decades")
    p0 = state.params
    if zeta_samples is None:
        zeta_samples = [(1.0, 0.0), (0.5, 1.0), (-1.5, 2.0), (3.0, -0.5),
                        (4.5, 4.0), (-6.0, 1.5), (2.5, -2.5), (8.0, 0.5)]
    X1, X2 = state.grid.x()
    Z1, Z2 = zeta_arrays(zeta_samples)
    lead = p0.g + p0.sigma * (Z1 ** 2 + Z2 ** 2)
    r = np.hypot(Z1, Z2)
    lam_z = np.sqrt(_lam2(p0, Z1, Z2))
    values = {f"g_ell_pow_{p}": [] for p in powers}
    values.update({f"lambda_pow_{p}": [] for p in powers})
    values["Sigma_minus_Lam_minus_Sigma1"] = []

    for k, eps in enumerate(eps_list):
        st = state.scaled(eps)
        fam, _ = principal_family(st) if families is None else families[k]
        lam2h = synthesize(apply_multiplier(st.h, lambda k1, k2: _lam2(p0, k1, k2))).real
        gl = fam["ell"].eval(X1, X2, Z1, Z2) + p0.g
        lam = fam["lam"].eval(X1, X2, Z1, Z2)
        l10 = fam["lambda1_0"].eval(X1, X2, Z1, Z2)
        for p in powers:
            rem_gl = (gl ** p) * lead ** (-p) - 1.0 + p * lam2h / lead
            values[f"g_ell_pow_{p}"].append(sampled_norm(rem_gl, 0.0, zeta_samples))
            rem_lam = (lam ** p) * r ** (-p) - 1.0 - p * l10 / r
            values[f"lambda_pow_{p}"].append(sampled_norm(rem_lam, 0.0, zeta_samples))
        rem_sigma = (fam["Sigma"].eval(X1, X2, Z1, Z2) - lam_z
                     - fam["Sigma1"].eval(X1, X2, Z1, Z2))
        values["Sigma_minus_Lam_minus_Sigma1"].append(sampled_norm(rem_sigma, 1.5, zeta_samples))

    return [SlopeReport(name, list(eps_list), vals, fit_loglog(eps_list, vals))
            for name, vals in values.items()]


#: the columns of a symbol trace
TRACE_COLUMNS = ("x1", "x2", "zeta1", "zeta2", "re", "im")


def export_symbol_trace(sym: Symbol, grid: Grid, zeta_samples, path):
    """Write symbol values over the (x-grid x zeta-sample) product as CSV
    with the columns TRACE_COLUMNS (plot-ready)."""
    X1, X2 = grid.x()
    x1, x2 = (list(map(repr, X.ravel().tolist())) for X in (X1, X2))   # not once per zeta

    def rows():
        for (z1, z2) in zeta_samples:
            vals = sym.eval(X1, X2, np.asarray(z1), np.asarray(z2))
            vals = (np.asarray(vals, np.complex128) + np.zeros_like(X1, np.complex128)).ravel()
            yield from zip(x1, x2, [z1] * len(x1), [z2] * len(x1),
                           vals.real.tolist(), vals.imag.tolist())

    write_csv(path, TRACE_COLUMNS, rows())


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
