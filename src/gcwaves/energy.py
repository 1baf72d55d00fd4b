"""Energy functionals, the depletion-factored energy symbol, and
modulation-split trilinear increment accounting for the model equation.

The Sobolev energy E_N = (2 pi)^{-2} sum <xi>^{2N} |Uhat|^2 evolves along
the model flow according to the exact Fourier identity

    dE_N/dt = Re sum_{xi,eta} m(xi,eta) What(eta) conj(What(xi)) i Uhat(xi-eta),

with W = <grad>^N U and the real symbol

    m(xi,eta) = c [(xi-eta).(xi+eta)]
                ((1+|eta|^2)^N - (1+|xi|^2)^N)
                / ((1+|eta|^2)^{N/2} (1+|xi|^2)^{N/2}) phi_{<=B}(xi-eta),

where B is the model's velocity band (V = P_{<=B} Im U; 10 by default).
The constant c is determined by the normalization conventions; expanding
d/dt ||<grad>^N U||^2 under the model equation in Fourier variables and
symmetrizing in (xi, eta) gives

    c = -1 / (2 (2 pi)^4),

which the increment audit validates end-to-end against finite differences
of E_N along integrated trajectories.  Note m is symmetric, m(xi,eta) =
m(eta,xi): both bracketed factors flip sign under the swap.

m factors through the depletion weight d(xi,eta) = [(xi-eta).(xi+eta)]^2
/ (1+|xi+eta|^2) as m = d * m' with |m'| bounded above and below; the
angular bulk symbol mu0 = |xi-eta|^{3/2} chi(.) cos^2(angle) is the
corresponding object for the differentiated-variable bulk term.

How the sums are computed.  With a = (1+|.|^2)^{N/2} the symbol separates,

    m(xi,eta) = c (|xi|^2 - |eta|^2) (a(eta)/a(xi) - a(xi)/a(eta)) phi_{<=B}(|xi-eta|),

four products f(xi) g(eta) times a function of xi - eta, so the unfiltered
sum is four FFT convolutions with phi folded into i Uhat.  The model keeps
U on the dealiased square (3 kmax < M), where the circular convolutions are
exact.  The modulation filter le0 = bump(Phi) vanishes for |Phi| >= 8/5, so
the {|Phi| <= 1} parts are one gather-and-sum over a cached plan of the
near-resonant pairs, a small share of all pairs as the paper's counting
bounds predict, and the {|Phi| > 1} part is the total minus them.  The
general-mu trilinear sums go through one pair-sum kernel: near-resonant
filters read the same plan, the others walk every pair of the box in
blocks (``gcwaves.lattice``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionParams, lam_abs
from .errors import ConfigError, SmallDivisorError
from .fields import (R_IN, R_OUT, FourierField, bump, check_power, dealias, l2_norm,
                     phi_le, sobolev_norm, write_json)
from .lattice import coords, disk_reps, flat, norms, plan_cache, row_blocks
from .model import VELOCITY_BAND, ModelConfig, SolverState, Stepper, initial_data

#: the derived normalization constant of the energy symbol
C_ENERGY = -0.5 * (2.0 * np.pi) ** -4

#: the energy sums drop the modes of U below ROW_TOL * max|Uhat|
ROW_TOL = 1e-14

#: the audit's parts are sampled every PARTS_EVERY steps (a cadence of 5 dt)
PARTS_EVERY = 5


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------

def energy_EN(U: FourierField, N: float) -> float:
    """E_N = ||<grad>^N U||_{L^2}^2 = (2 pi)^{-2} sum <xi>^{2N} |Uhat|^2."""
    return sobolev_norm(U, N) ** 2


def energy_ladder(w_fields) -> float:
    """The differentiated-variable variant (1/2) sum_n ||W_n||_{L^2}^2."""
    return 0.5 * sum(l2_norm(w) ** 2 for w in w_fields)


# ---------------------------------------------------------------------------
# symbols on Z^2 x Z^2
# ---------------------------------------------------------------------------

def energy_symbol(N, xi, eta) -> float:
    """m(xi, eta) evaluated at a single lattice pair, at the default band."""
    return float(energy_symbol_arr(N, np.asarray([xi[0]], float), np.asarray([xi[1]], float),
                                   np.asarray([eta[0]], float), np.asarray([eta[1]], float))[0])


def energy_symbol_arr(N, xi1, xi2, eta1, eta2, band=VELOCITY_BAND):
    """Vectorized m(xi, eta) with the cutoff phi_{<=band}(xi - eta)."""
    r1 = xi1 - eta1
    r2 = xi2 - eta2
    return _symbol(r1 * (xi1 + eta1) + r2 * (xi2 + eta2), 1.0 + xi1 * xi1 + xi2 * xi2,
                   phi_le(np.hypot(r1, r2), band), N)


def _symbol(dot, w_xi, phi, N):
    """m from dot = (xi-eta).(xi+eta) = |xi|^2 - |eta|^2, w_xi = 1+|xi|^2 and
    phi = phi_{<=B}(|xi-eta|).  With w = 1+|.|^2 the weights enter as g =
    (w_eta^N - w_xi^N) / (w_eta w_xi)^{N/2} = -sign(dot) 2 sinh(y), y = (N/2)
    log1p(|dot| / min(w_xi, w_eta)): by sinh while |y| < 1, where the powers
    would cancel, and by the powers beyond, where sinh amplifies y's rounding."""
    w_eta = w_xi - dot
    y = 0.5 * N * np.log1p(np.abs(dot) / np.minimum(w_xi, w_eta))
    return C_ENERGY * dot * np.where(np.abs(y) < 1.0, -2.0 * np.sign(dot) * np.sinh(y),
                                     (w_eta ** N - w_xi ** N) / (w_eta * w_xi) ** (N / 2.0)) * phi


def depletion_factor(xi1, xi2, eta1, eta2):
    """d(xi,eta) = [(xi-eta).(xi+eta)]^2 / (1 + |xi+eta|^2)."""
    s1 = xi1 + eta1
    s2 = xi2 + eta2
    dot = (xi1 - eta1) * s1 + (xi2 - eta2) * s2
    return dot ** 2 / (1.0 + s1 * s1 + s2 * s2)


@dataclass(frozen=True)
class BulkSymbol:
    """mu0(xi,eta) = |xi-eta|^{3/2} chi(|xi-eta|/|xi+eta|) cos^2(angle)."""

    chi_exponent: int = -2

    def __call__(self, xi1, xi2, eta1, eta2):
        r1 = xi1 - eta1
        r2 = xi2 - eta2
        s1 = xi1 + eta1
        s2 = xi2 + eta2
        rn = np.hypot(r1, r2)
        sn = np.hypot(s1, s2)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos2 = np.where((rn > 0) & (sn > 0),
                            ((r1 * s1 + r2 * s2) / np.where(rn * sn > 0, rn * sn, 1.0)) ** 2,
                            0.0)
            chi = np.where(sn > 0, bump(rn / np.where(sn > 0, sn, 1.0)
                                        / 2.0 ** self.chi_exponent), 0.0)
        return rn ** 1.5 * chi * cos2


def mu_one(xi1, xi2, eta1, eta2):
    return np.ones(np.broadcast(xi1, eta1).shape)


# ---------------------------------------------------------------------------
# modulation filters and trilinear sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulationFilter:
    """Smooth filter in the modulation Phi_{i1 i2}(xi,eta) =
    Lam(xi) - i1 Lam(xi-eta) - i2 Lam(eta).

    kinds: "none" (no filter), "le0" phi_{<=0}(Phi), "gt0" phi_{>0}(Phi),
    "leB" phi_{<=B}(Phi), "B_to_0" phi_{<=0} - phi_{<=B} (the (B, 0] band).
    le0 + gt0 = 1 pointwise.
    """

    kind: str = "none"
    signs: tuple = (1, 1)
    B: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "le0", "gt0", "leB", "B_to_0"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")

    def _weight(self, phi_mod, le0):
        """The filter on phi_mod, given le0 = bump(phi_mod)."""
        if self.kind == "none":
            return np.ones_like(phi_mod)
        if self.kind == "le0":
            return le0
        if self.kind == "gt0":
            return 1.0 - le0
        if self.kind == "leB":
            return bump(phi_mod / 2.0 ** self.B)
        return le0 - bump(phi_mod / 2.0 ** self.B)

    @property
    def _near_resonant(self):
        """True when the filter vanishes wherever bump(Phi) does."""
        return self.kind == "le0" or (self.kind in ("leB", "B_to_0") and self.B <= 0.0)


# |Phi| below this inside a division-weighted filter is a small-divisor error
SMALL_DIVISOR_GUARD = 1e-12


def _row_mask(coeffs, row_tol):
    """The coefficients above row_tol * max|coeffs| (row_tol 0: the nonzero ones)."""
    a = np.abs(coeffs)
    return a > (row_tol * np.max(a) if row_tol else 0.0)


def _phase(lam, signs, xi, eta, rho):
    """Phi_{i1 i2} = Lam(xi) - i1 Lam(rho) - i2 Lam(eta) from the Lambda table."""
    i1, i2 = signs
    return lam[xi] - i1 * lam[rho] - i2 * lam[eta]


def _box_pairs(n, rows):
    """Every pair of the centered n-box with rho = xi - eta one of the flat
    points ``rows`` and eta in the box: flat (xi, eta, rho) arrays, about BLOCK
    pairs per block, blocks of rows in the order given, xi in flat order."""
    k = np.arange(n)
    k1, k2 = coords(n)
    origin = int(flat((0, 0), n))
    for lo, hi in row_blocks(len(rows), n * n):
        r = rows[lo:hi]
        e1 = k[:, None] - k1[r][:, None, None]   # eta's box coordinates
        e2 = k[None, :] - k2[r][:, None, None]
        b, x1, x2 = np.nonzero((e1 >= 0) & (e1 < n) & (e2 >= 0) & (e2 < n))
        xi = x1 * n + x2
        yield xi, xi - r[b] + origin, r[b]


class _ResonantPlan:
    """The near-resonant pairs of the centered n x n box for one sign pair.

    One entry per pair (xi, eta) with xi, eta and rho = xi - eta in the box
    and le0 = bump(Phi) > 0: int32 flat indices of xi and eta and float64
    le0, rows in flat order.  Built by one vectorized walk over every pair
    with the box's Lambda table, which the plan keeps; read-only after.
    """

    def __init__(self, n, params, signs):
        self.n = n
        self.lam = lam_abs(params, norms(n))
        xis, etas, le0s = [], [], []
        for xi, eta, rho in _box_pairs(n, np.arange(n * n)):
            phi = _phase(self.lam, signs, xi, eta, rho)
            near = np.flatnonzero(np.abs(phi) < R_OUT)   # bump is 0 beyond
            le0 = bump(phi[near])
            pos = le0 > 0.0
            xis.append(xi[near[pos]])
            etas.append(eta[near[pos]])
            le0s.append(le0[pos])
        self.xi = np.concatenate(xis).astype(np.int32)
        self.eta = np.concatenate(etas).astype(np.int32)
        self.le0 = np.concatenate(le0s)
        for a in (self.lam, self.xi, self.eta, self.le0):
            a.flags.writeable = False

    def entries(self, rows):
        """The entries whose rho is in the boolean row mask ``rows``, as
        (xi, eta, rho, le0) blocks of at most BLOCK entries."""
        origin = int(flat((0, 0), self.n))
        for lo, hi in row_blocks(len(self.xi), 1):
            xi, eta = self.xi[lo:hi], self.eta[lo:hi]
            rho = xi - eta + origin
            sel = rows[rho]
            yield xi[sel], eta[sel], rho[sel], self.le0[lo:hi][sel]


# the audit needs one plan (the dealiased box, signs (+, +)); the general
# trilinear sums cycle through a few sign pairs
@plan_cache
def _resonant_plan(n, params, signs):
    """The cached near-resonant plan for (box size, g, sigma, signs); the
    Phi-support radius is the bump's, 8/5, for every plan."""
    return _ResonantPlan(n, params, signs)


def _pair_sums(mu, filt, fc, gc, hconjs, params, rows, weighted=False):
    """The one pair-sum kernel behind every filtered trilinear sum:

        sum_{xi,eta} fc(rho) mu(xi,eta) filt(Phi) [1/(i Phi)] gc(eta) hconj(xi)

    for each hconj in ``hconjs``, over the pairs (xi, eta) of the centered
    n x n box of the arrays with rho = xi - eta in the box and in the
    boolean mask ``rows``.  Near-resonant filters (le0, and leB and B_to_0
    with B <= 0) read the cached plan; the others walk every pair in
    blocks.  Division-weighted sums raise SmallDivisorError when the filter
    leaves any |Phi| < 1e-12 in support.
    """
    n = fc.shape[0]
    fc, gc, rows = fc.ravel(), gc.ravel(), rows.ravel()
    hconjs = [h.ravel() for h in hconjs]
    if filt._near_resonant:
        plan = _resonant_plan(n, params, tuple(filt.signs))
        lam, blocks = plan.lam, plan.entries(rows)
    else:
        lam = lam_abs(params, norms(n))
        blocks = ((xi, eta, rho, None)
                  for xi, eta, rho in _box_pairs(n, np.flatnonzero(rows)))
    k1, k2 = coords(n)
    sums = [0.0 + 0.0j] * len(hconjs)
    for xi, eta, rho, le0 in blocks:
        phi = _phase(lam, filt.signs, xi, eta, rho)
        if le0 is None and filt.kind in ("gt0", "B_to_0"):
            le0 = bump(phi)
        w = filt._weight(phi, le0)
        if weighted:
            small = (w > 0.0) & (np.abs(phi) < SMALL_DIVISOR_GUARD)
            if small.any():
                r = rho[np.argmax(small)]
                raise SmallDivisorError(
                    f"|Phi| < {SMALL_DIVISOR_GUARD} inside a division-weighted filter "
                    f"(row ({k1[r]},{k2[r]}))")
            w = np.where(w > 0.0, w / (1j * np.where(w > 0.0, phi, 1.0)), 0.0)
        muv = mu(k1[xi].astype(float), k2[xi].astype(float),
                 k1[eta].astype(float), k2[eta].astype(float))
        base = fc[rho] * muv * w * gc[eta]
        for j, h in enumerate(hconjs):
            sums[j] += np.sum(base * h[xi])
    return [complex(s) for s in sums]


def trilinear(mu, filt: ModulationFilter, F: FourierField, G: FourierField,
              H: FourierField, params: DispersionParams, weighted=False,
              row_tol=0.0) -> complex:
    """sum_{xi,eta} mu(xi,eta) Fhat(xi-eta) Ghat(eta) conj(Hhat)(−xi)
    * filt(Phi(xi,eta)) * [1/(i Phi) if weighted].

    conj(Hhat)(-xi) is the coefficient of conj(H) at -xi, i.e.
    conj(Hhat(xi)).  xi, eta and xi - eta run over the grid's frequencies;
    the sum goes through the pair-sum kernel.  Division-weighted sums raise
    SmallDivisorError when the filter leaves any |Phi| < 1e-12 in support.
    ``row_tol`` drops the rows rho = xi - eta with |Fhat(rho)| below
    row_tol * max|Fhat| (exactness requires 0).
    """
    if F.grid != G.grid or F.grid != H.grid:
        raise ConfigError("trilinear operands must share a grid")
    fc, gc, hc = (np.fft.fftshift(X.coeffs) for X in (F, G, H))
    return _pair_sums(mu, filt, fc, gc, [np.conj(hc)], params, _row_mask(fc, row_tol),
                      weighted)[0]


def trivial_resonance_sum(mu, filt: ModulationFilter, U: FourierField,
                          W: FourierField, params: DispersionParams,
                          weighted=False) -> complex:
    """The trivial-resonance four-wave diagonal

        S = sum_{xi,eta} i mu(xi,eta) filt(Phi) [1/(i Phi)]
            |Uhat(xi-eta)|^2 |What(xi)|^2 ,

    i.e. the rho = xi, paired-opposite-signs configuration.  For real mu
    and filter the unweighted S (the default) is purely imaginary, so Re S
    vanishes: the time-reversibility mechanism that kills trivial
    resonances.  With weighted=True the 1/(i Phi) weight makes S real
    instead; it needs a filter that excludes Phi = 0 ("gt0", "B_to_0"),
    because eta = 0 (or xi = 0) gives Phi = 0 exactly in every row and the
    small-divisor guard raises SmallDivisorError.  The pair-sum kernel runs
    with row coefficients i |Uhat|^2, an all-ones G and |What|^2 as conj(H);
    rows with |Uhat| below ROW_TOL * max|Uhat| are dropped.
    """
    if U.grid != W.grid:
        raise ConfigError("trivial_resonance_sum operands must share a grid")
    uc = np.fft.fftshift(U.coeffs)
    return _pair_sums(mu, filt, 1j * np.abs(uc) ** 2, np.ones(uc.shape),
                      [np.abs(np.fft.fftshift(W.coeffs)) ** 2], params,
                      _row_mask(uc, ROW_TOL), weighted)[0]


# ---------------------------------------------------------------------------
# the increment audit
# ---------------------------------------------------------------------------

@dataclass
class EnergyAudit:
    N: float
    D: float
    c: float
    rows: list            # per audit time: t, E_N, dE_dt_fd, dE_dt_trilinear, rel_err
    parts_rows: list      # per parts time: t, hiMod, loMod_hiFreq, loMod_loFreq
    totals: dict          # time-integrated parts (trapezoid)
    max_rel_err: float

    def to_json(self):
        return {"N": self.N, "D": self.D, "c": self.c,
                "rows": self.rows, "parts": self.parts_rows,
                "totals": self.totals, "max_rel_err": self.max_rel_err}

    def save(self, path):
        """Strict JSON (RFC 8259): a non-finite number is written as null."""
        write_json(path, self)


def _w_field(U: FourierField, N: float) -> FourierField:
    k1, k2 = U.grid.freqs()
    w = (1.0 + (k1 * k1 + k2 * k2).astype(float)) ** (N / 2.0)
    return FourierField(U.grid, w * U.coeffs, False)


def _energy_total(U: FourierField, N: float, band) -> float:
    """Re sum m(xi,eta) What(eta) conj(What(xi)) i Uhat(xi-eta) by FFT.

    With q = |.|^2 and A = (1+q)^N the summand is c (q(xi) - q(eta))
    (A(eta) - A(xi)) Fhat(rho) Uhat(eta) conj(Uhat(xi)), Fhat = i Uhat
    phi_{<=band}.  Only differences of A enter, so A may be replaced by
    B = A/K - 1, K = (1+q0)^N its smallest value on the grid (q0 = 0 for
    N >= 0, the largest q otherwise), and the sum is

        c K sum_xi conj(Uhat) [q (F*BU) - qB (F*U) - F*(qBU) + B (F*(qU))],

    F*G = M^2 fft2(ifft2(Fhat) ifft2(Ghat)) the circular convolution, exact
    for U on the dealiased square.  Modes with |Uhat| below ROW_TOL *
    max|Uhat| are dropped from F, as the pair sums drop their rows; phi is
    skipped where its plateau covers the grid.  B is expm1(y), y = N
    log1p((q - q0) / (1 + q0)) >= 0, while y < 1 (A cancels in the sum as
    N -> 0, A - 1 as N -> -inf) and A/K - 1 beyond."""
    m = U.grid.size
    k1, k2 = U.grid.freqs()
    q = (k1 * k1 + k2 * k2).astype(float)
    q0 = 0.0 if N >= 0 else float(q.max())
    y = N * np.log1p((q - q0) / (1.0 + q0))
    big = np.where(y < 1.0, np.expm1(y), (1.0 + q) ** N / (1.0 + q0) ** N - 1.0)
    u = np.asarray(U.coeffs)
    f = np.where(_row_mask(u, ROW_TOL), 1j * u, 0.0)
    if math.hypot(m // 2, m // 2) >= R_IN * 2.0 ** band:
        f = f * phi_le(np.hypot(k1, k2), band)
    fx = np.fft.ifft2(f)

    def conv(g):
        return np.fft.fft2(fx * np.fft.ifft2(g))

    inner = q * conv(big * u) - q * big * conv(u) - conv(q * big * u) + big * conv(q * u)
    return float(C_ENERGY * (1.0 + q0) ** N * m * m * np.real(np.sum(np.conj(u) * inner)))


def _energy_le0_parts(U: FourierField, N: float, params: DispersionParams, band,
                      out_weights):
    """Re sum m(xi,eta) le0(Phi_{++}) What(eta) conj(w What)(xi) i Uhat(xi-eta)
    for each output weight w, over the near-resonant plan of the dealiased
    square (U must lie on it)."""
    h, k = U.grid.size // 2, U.grid.kmax_dealias
    box = slice(h - k, h + k + 1)

    def cen(a):
        return np.fft.fftshift(a)[box, box]

    W = _w_field(U, N).coeffs
    fc = cen(1j * U.coeffs)
    mu = lambda x1, x2, e1, e2: energy_symbol_arr(N, x1, x2, e1, e2, band)
    sums = _pair_sums(mu, ModulationFilter("le0", (1, 1)), fc, cen(W),
                      [np.conj(cen(w * W)) for w in out_weights], params,
                      _row_mask(fc, ROW_TOL))
    return [float(np.real(v)) for v in sums]


def energy_derivative_trilinear(U: FourierField, N: float,
                                params: DispersionParams) -> float:
    """Re sum m(xi,eta) What(eta) conj(What(xi)) i Uhat(xi-eta) at the
    default velocity band, by FFT.  U must lie on the dealiased square, as
    the model's states do (ConfigError otherwise).  ``params`` is not read:
    the unfiltered sum involves no Phi."""
    if np.any(np.asarray(U.coeffs)[~U.grid.dealias_mask()]):
        raise ConfigError("energy_derivative_trilinear needs U on the dealiased square")
    return _energy_total(U, N, VELOCITY_BAND)


def increment_audit(cfg: ModelConfig, initial: FourierField | None,
                    audit_times, N=None, D=6.0) -> EnergyAudit:
    """Dual-route check of the energy identity along a model trajectory.

    At each audit time the trajectory is sampled on a 5-point stencil of
    spacing dt and dE_N/dt is formed by 4th-order central differences; the
    trilinear route evaluates the m-symbol sum at the center state by FFT.
    The accumulated increment is also decomposed into {|Phi| > 1} and
    {|Phi| <= 1} x {|xi| > 2^D, |xi| <= 2^D} parts every PARTS_EVERY = 5
    steps, from t = 0, and integrated by the trapezoid rule.  The two
    {|Phi| <= 1} parts are one gather-and-sum each over the cached
    near-resonant plan, the frequency split weighting the output slot, and
    hiMod = total - (loMod_hiFreq + loMod_loFreq).  Every route reads the
    symbol's cutoff phi_{<=B} from cfg.velocity_band.
    """
    if N is None:
        N = cfg.sobolev_index
    if not math.isfinite(N):
        raise ConfigError(f"N must be finite, got {N!r}")
    m = cfg.grid.size
    check_power(N, 2 * (m // 2) ** 2, f"on the {m}^2 grid")
    if not math.isfinite(D):
        raise ConfigError(f"D must be finite, got {D!r}")
    if not len(audit_times):
        raise ConfigError("no audit time given: the audit would check nothing")
    if not all(math.isfinite(t) for t in audit_times):
        raise ConfigError(f"audit times must be finite, got {list(audit_times)}")
    if initial is None:
        initial = initial_data(cfg)
    u0 = dealias(initial)
    stepper = Stepper(cfg)
    state = SolverState(0.0, u0, l2_norm(u0))
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-12))
    audit_steps = sorted({int(round(t / cfg.dt)) for t in audit_times})
    if any(s < 2 or s > n_steps - 2 for s in audit_steps):
        raise ConfigError("audit times must sit >= 2 steps inside the run")

    k1, k2 = cfg.grid.freqs()
    low_freq = phi_le(np.hypot(k1, k2), D)
    band = cfg.velocity_band

    # the identity couples dE/dt to the nonlinearity actually integrated:
    # with the nonlinear term off every symbol sum is identically zero
    def total(U):
        return 0.0 if cfg.linear_only else _energy_total(U, N, band)

    def parts(U, tot):
        if cfg.linear_only:
            return 0.0, 0.0, 0.0
        lh, ll = _energy_le0_parts(U, N, cfg.params, band, [1.0 - low_freq, low_freq])
        return tot - (lh + ll), lh, ll

    stencil_nbhd = {}
    for s in audit_steps:
        for off in range(-2, 3):
            stencil_nbhd.setdefault(s + off, []).append(s)

    energies = {}
    center_total = {}    # audit step -> the FFT total at its center state
    parts_rows = []
    for n in range(n_steps + 1):
        if n:
            state = stepper.step(state)
        if n in stencil_nbhd:
            for s in stencil_nbhd[n]:
                energies.setdefault(s, {})[n - s] = energy_EN(state.U, N)
                if n == s:
                    center_total[s] = total(state.U)
        if n % PARTS_EVERY == 0:
            h, lh, ll = parts(state.U, center_total[n] if n in center_total else total(state.U))
            parts_rows.append({"t": state.t, "hiMod": h, "loMod_hiFreq": lh,
                               "loMod_loFreq": ll})

    rows = []
    max_rel = 0.0
    for s in audit_steps:
        e = energies[s]
        fd = (-e[2] + 8.0 * e[1] - 8.0 * e[-1] + e[-2]) / (12.0 * cfg.dt)
        tv = center_total[s]
        rel = abs(fd - tv) / abs(tv) if tv != 0.0 else abs(fd)
        max_rel = max(max_rel, rel)
        rows.append({"t": s * cfg.dt, "E_N": e[0], "dE_dt_fd": fd,
                     "dE_dt_trilinear": tv, "rel_err": rel})

    totals = {"hiMod": 0.0, "loMod_hiFreq": 0.0, "loMod_loFreq": 0.0}
    for a, b in zip(parts_rows, parts_rows[1:]):
        w = 0.5 * (b["t"] - a["t"])
        for key in totals:
            totals[key] += w * (a[key] + b[key])
    return EnergyAudit(N, D, C_ENERGY, rows, parts_rows, totals, max_rel)


# ---------------------------------------------------------------------------
# depletion checks
# ---------------------------------------------------------------------------

@dataclass
class DepletionReport:
    radius: int
    mprime_min: float
    mprime_max: float
    factor_C: float          # smallest admissible constant in the correlation bound
    n_pairs_mprime: int
    n_pairs_factor: int
    N: float


def depletion_checks(params: DispersionParams, N: float, radius: int,
                     max_offset=8) -> DepletionReport:
    """(a) bounds of |m'| = |m / d| over |xi| <= radius, 0 < |xi-eta| <=
    max_offset, |xi| != |eta|; (b) the smallest admissible constant C in

        cos^2(angle(xi-eta, xi+eta)) <= C (Phi_{i+}^2 + <xi-eta>^3)
                                          / ((1+|xi|+|eta|) <xi-eta>^2)

    over 0 < |xi-eta| < 2^{-4} |xi+eta| and both signs i.

    Offsets rho = xi - eta run over |rho_i| <= max(max_offset, radius // 8
    + 1).  |v|, Lambda(|v|) and 1+|v|^2 are tabulated once on a square
    holding every xi, eta and xi + eta, and gathered for blocks of offsets
    of about BLOCK pairs each.  Every quantity reads norms only, so
    it is the same bit for bit on each image of (xi, rho) under the lattice
    symmetries D4: xi runs over the representatives 0 <= xi_2 <= xi_1 against
    every offset, and a pair counts as many pairs as its xi's orbit holds."""
    if not math.isfinite(N):
        raise ConfigError(f"N must be finite, got {N!r}")
    if radius < 1:
        raise ConfigError(f"radius must be >= 1, got {radius!r}")
    off_max = max(max_offset, radius // 8 + 1)
    side = 2 * radius + off_max
    check_power(N, 2 * side * side, f"on the depletion square at radius {radius}")
    n = 2 * side + 1
    abs_sq = norms(n)
    lam_sq = lam_abs(params, abs_sq)
    k1, k2 = coords(n)
    w_sq = 1.0 + (k1 * k1 + k2 * k2)                   # 1 + |v|^2, exact

    pts, size = disk_reps(radius, include_origin=True)
    x_at = flat(pts, n)
    abs_x, lam_x, w_x = abs_sq[x_at], lam_sq[x_at], w_sq[x_at]
    offs = [(r1, r2) for r1 in range(-off_max, off_max + 1)
            for r2 in range(-off_max, off_max + 1) if r1 or r2]
    rn = np.array([math.hypot(r1, r2) for r1, r2 in offs])
    order = np.argsort(rn, kind="stable")    # the |m'| offsets first
    offs, rn = np.array(offs)[order], rn[order]
    n_near = int(np.searchsorted(rn, max_offset, side="right"))
    origin = flat((0, 0), n)
    shift = flat(offs, n) - origin           # flat(eta) = flat(xi) - shift
    br = np.sqrt(1.0 + rn * rn)
    br2 = np.array([b ** 2 for b in br.tolist()])
    br3 = np.array([b ** 3 for b in br.tolist()])
    lam_rho = lam_abs(params, rn)
    phi_rho = phi_le(np.hypot(offs[:, 0], offs[:, 1]), VELOCITY_BAND)

    mp_min, mp_max = math.inf, 0.0
    n_mp = 0
    c_best = 0.0
    n_fac = 0
    for lo, hi in row_blocks(len(offs), len(pts)):
        e_at = x_at - shift[lo:hi, None]         # eta, per (offset, point)
        s_at = x_at + e_at - origin              # xi + eta
        dot = w_x - w_sq[e_at]                   # (xi-eta).(xi+eta) = |xi|^2 - |eta|^2

        # |m'| over 0 < |rho| <= max_offset and d > 0
        nb = min(hi, n_near) - lo
        if nb > 0:
            d = dot[:nb] ** 2 / w_sq[s_at[:nb]]
            mvals = _symbol(dot[:nb], w_x, phi_rho[lo:lo + nb, None], N)
            pos = d > 0.0
            ratio = np.abs(mvals[pos]) / d[pos]
            if ratio.size:
                mp_min = min(mp_min, float(ratio.min()))
                mp_max = max(mp_max, float(ratio.max()))
                n_mp += int(np.count_nonzero(pos, axis=0) @ size)

        # correlation bound on 0 < |xi-eta| < 2^{-4}|xi+eta|
        sn = abs_sq[s_at]
        sel = rn[lo:hi, None] * 16.0 < sn
        n_sel = np.count_nonzero(sel, axis=0)
        if not n_sel.any():
            continue

        def pick(a):   # a per offset (column) or per point (row), at the selected pairs
            return np.broadcast_to(a, sel.shape)[sel]

        e = e_at[sel]
        cos2 = (dot[sel] / (pick(rn[lo:hi, None]) * sn[sel])) ** 2
        denom_core = (1.0 + pick(abs_x) + abs_sq[e]) * pick(br2[lo:hi, None])
        lx, lr, le, b3 = pick(lam_x), pick(lam_rho[lo:hi, None]), lam_sq[e], pick(br3[lo:hi, None])
        for i1 in (1, -1):
            phi_mod = lx - i1 * lr - le
            rhs = (phi_mod ** 2 + b3) / denom_core
            c_best = max(c_best, float(np.max(cos2 / rhs)))
        n_fac += int(n_sel @ size)
    return DepletionReport(radius, mp_min, mp_max, c_best, n_mp, n_fac, N)
