"""Energy functionals, the depletion-factored energy symbol, and
modulation-split trilinear increment accounting for the model equation.

The Sobolev energy E_N = (2 pi)^{-2} sum <xi>^{2N} |Uhat|^2 evolves along
the model flow according to the exact Fourier identity

    dE_N/dt = Re sum_{xi,eta} m(xi,eta) What(eta) conj(What(xi)) i Uhat(xi-eta),

with W = <grad>^N U and the real symbol

    m(xi,eta) = c [(xi-eta).(xi+eta)]
                ((1+|eta|^2)^N - (1+|xi|^2)^N)
                / ((1+|eta|^2)^{N/2} (1+|xi|^2)^{N/2}) phi_{<=10}(xi-eta).

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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionParams, lam_abs, lattice_disk
from .errors import CadenceError, ConfigError, SmallDivisorError
from .fields import FourierField, bump, dealias, l2_norm, phi_le, sobolev_norm
from .model import ModelConfig, SolverState, _Stepper, initial_data
from .paradiff import _centered, _centered_freqs

#: the derived normalization constant of the energy symbol
C_ENERGY = -0.5 * (2.0 * np.pi) ** -4

#: the phi_{<=10} cutoff riding on the symbol (from V = P_{<=10} Im U)
SYMBOL_BAND = 10


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

def energy_symbol(N, xi, eta, c=C_ENERGY) -> float:
    """m(xi, eta) evaluated at a single lattice pair."""
    return float(energy_symbol_arr(N, np.asarray([xi[0]], float), np.asarray([xi[1]], float),
                                   np.asarray([eta[0]], float), np.asarray([eta[1]], float),
                                   c)[0])


def energy_symbol_arr(N, xi1, xi2, eta1, eta2, c=C_ENERGY):
    """Vectorized m(xi, eta)."""
    r1 = xi1 - eta1
    r2 = xi2 - eta2
    dot = r1 * (xi1 + eta1) + r2 * (xi2 + eta2)
    wxi = 1.0 + xi1 * xi1 + xi2 * xi2
    wet = 1.0 + eta1 * eta1 + eta2 * eta2
    return (c * dot * (wet ** N - wxi ** N) / (wet ** (N / 2.0) * wxi ** (N / 2.0))
            * phi_le(np.hypot(r1, r2), SYMBOL_BAND))


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


_GUARD = 1e-12


def _rows(coeffs, row_tol):
    """Centered indices of the coefficients above row_tol * max|coeffs|."""
    tol = row_tol * np.max(np.abs(coeffs)) if row_tol else 0.0
    return [(int(i), int(j)) for i, j in np.argwhere(np.abs(coeffs) > tol)]


def _row_sums(mu, fc, rows, gc, pairs, params, weighted=False):
    """The one row loop behind every trilinear sum: per row rho = xi - eta
    (centered indices ``rows`` into fc) it shifts Ghat, the inside mask and
    Lam(eta), forms Phi, bump(Phi) and mu(xi, eta) once, then returns

        sum_rho fc(rho) sum_xi mu filt(Phi) [1/(i Phi)] Ghat(eta) conjH(xi)

    for each (filt, conjH) in ``pairs``.  Arrays are centered; the filters
    share one sign pair, as Phi is formed once per row.
    """
    (i1, i2), = {f.signs for f, _ in pairs}
    filts = list(dict.fromkeys(f for f, _ in pairs))
    need_le0 = any(f.kind in ("le0", "gt0", "B_to_0") for f in filts)
    m = gc.shape[0]
    K1, K2 = _centered_freqs(m)
    k1, k2 = K1.astype(float), K2.astype(float)
    lam_xi = lam_abs(params, np.hypot(K1, K2))
    ones = np.ones((m, m))
    sums = [0.0 + 0.0j] * len(pairs)
    for i, j in rows:
        r1, r2 = i - m // 2, j - m // 2
        lam_rho = float(lam_abs(params, math.hypot(r1, r2)))
        g_shift = _shift2(gc, r1, r2)
        inside = _shift2(ones, r1, r2) > 0.5
        phi_mod = lam_xi - i1 * lam_rho - i2 * _shift2(lam_xi, r1, r2)
        le0 = bump(phi_mod) if need_le0 else None
        ws = {}
        for f in filts:
            w = np.where(inside, f._weight(phi_mod, le0), 0.0)
            if weighted:
                if np.any((w > 0.0) & (np.abs(phi_mod) < _GUARD)):
                    raise SmallDivisorError(
                        f"|Phi| < {_GUARD} inside a division-weighted filter "
                        f"(row ({r1},{r2}))")
                w = np.where(w > 0.0, w / (1j * np.where(w > 0.0, phi_mod, 1.0)), 0.0)
            ws[f] = w
        muv = mu(k1, k2, k1 - r1, k2 - r2)
        for k, (f, hconj) in enumerate(pairs):
            sums[k] += fc[i, j] * np.sum(muv * ws[f] * g_shift * hconj)
    return [complex(s) for s in sums]


def trilinear(mu, filt: ModulationFilter, F: FourierField, G: FourierField,
              H: FourierField, params: DispersionParams, weighted=False,
              row_tol=0.0) -> complex:
    """sum_{xi,eta} mu(xi,eta) Fhat(xi-eta) Ghat(eta) conj(Hhat)(−xi)
    * filt(Phi(xi,eta)) * [1/(i Phi) if weighted].

    conj(Hhat)(-xi) is the coefficient of conj(H) at -xi, i.e.
    conj(Hhat(xi)).  One row pass with the single pair (filt, H).
    Division-weighted sums raise SmallDivisorError when the filter leaves
    any |Phi| < 1e-12 in support.  ``row_tol`` drops F-rows below
    row_tol * max|Fhat| (exactness requires 0).
    """
    if F.grid != G.grid or F.grid != H.grid:
        raise ConfigError("trilinear operands must share a grid")
    fc = _centered(F.coeffs)
    return _row_sums(mu, fc, _rows(fc, row_tol), _centered(G.coeffs),
                     [(filt, np.conj(_centered(H.coeffs)))], params, weighted)[0]


def _shift2(arr, r1, r2):
    """out[i, j] = arr[i - r1, j - r2], zero outside; centered layout."""
    m = arr.shape[0]
    out = np.zeros_like(arr)
    i0, i1 = max(0, r1), m + min(0, r1)
    j0, j1 = max(0, r2), m + min(0, r2)
    if i0 >= i1 or j0 >= j1:
        return out
    out[i0:i1, j0:j1] = arr[i0 - r1:i1 - r1, j0 - r2:j1 - r2]
    return out


def trivial_resonance_sum(mu, filt: ModulationFilter, U: FourierField,
                          W: FourierField, params: DispersionParams,
                          weighted=False, row_tol=1e-14) -> complex:
    """The trivial-resonance four-wave diagonal

        S = sum_{xi,eta} i mu(xi,eta) filt(Phi) [1/(i Phi)]
            |Uhat(xi-eta)|^2 |What(xi)|^2 ,

    i.e. the rho = xi, paired-opposite-signs configuration.  For real mu
    and filter the unweighted S (the default) is purely imaginary, so Re S
    vanishes: the time-reversibility mechanism that kills trivial
    resonances.  With weighted=True the 1/(i Phi) weight makes S real
    instead; it needs a filter that excludes Phi = 0 ("gt0", "B_to_0"),
    because eta = 0 (or xi = 0) gives Phi = 0 exactly in every row and the
    small-divisor guard raises SmallDivisorError.  One row pass with row
    coefficients i |Uhat|^2, an all-ones G (its shift is the inside mask)
    and |What|^2 as conj(H); rows with |Uhat| below row_tol * max|Uhat| are
    dropped.
    """
    if U.grid != W.grid:
        raise ConfigError("trivial_resonance_sum operands must share a grid")
    uc = _centered(U.coeffs)
    return _row_sums(mu, 1j * np.abs(uc) ** 2, _rows(uc, row_tol), np.ones(uc.shape),
                     [(filt, np.abs(_centered(W.coeffs)) ** 2)], params, weighted)[0]


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
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _w_field(U: FourierField, N: float) -> FourierField:
    k1, k2 = U.grid.freqs()
    w = (1.0 + (k1 * k1 + k2 * k2).astype(float)) ** (N / 2.0)
    return FourierField(U.grid, w * U.coeffs, False)


def _energy_sums(U: FourierField, N: float, params: DispersionParams, c,
                 pairs, row_tol=1e-14):
    """Re sum m(xi,eta) What(eta) conj(Hhat(xi)) i Uhat(xi-eta) for each
    (filter, output weight) pair, all in one row pass; Hhat = weight * What
    (weight None: H = W)."""
    W = _w_field(U, N)
    fc = _centered((1j * U).coeffs)
    wc = _centered(W.coeffs)
    hpairs = [(f, np.conj(wc if wts is None else _centered(wts * W.coeffs)))
              for f, wts in pairs]
    mu = lambda x1, x2, e1, e2: energy_symbol_arr(N, x1, x2, e1, e2, c)
    sums = _row_sums(mu, fc, _rows(fc, row_tol), wc, hpairs, params)
    return [float(np.real(v)) for v in sums]


def energy_derivative_trilinear(U: FourierField, N: float,
                                params: DispersionParams, c=C_ENERGY,
                                row_tol=1e-14) -> float:
    """Re sum m(xi,eta) What(eta) conj(What(xi)) i Uhat(xi-eta)."""
    return _energy_sums(U, N, params, c, [(ModulationFilter(), None)], row_tol)[0]


def increment_audit(cfg: ModelConfig, initial: FourierField | None,
                    audit_times, N=None, D=6.0, parts_cadence=None,
                    c=C_ENERGY) -> EnergyAudit:
    """Dual-route check of the energy identity along a model trajectory.

    At each audit time the trajectory is sampled on a 5-point stencil of
    spacing dt and dE_N/dt is formed by 4th-order central differences; the
    trilinear route evaluates the m-symbol sum at the center state.  The
    accumulated increment is also decomposed into {|Phi| > 1} and
    {|Phi| <= 1} x {|xi| > 2^D, |xi| <= 2^D} parts at the parts cadence
    (which must stay within 10 dt; coarser raises CadenceError).  The three
    parts at one time come from one row pass, whose bump(Phi) gives both
    modulation filters; the frequency split weights the output slot.
    """
    if N is None:
        N = cfg.sobolev_index
    if parts_cadence is None:
        parts_cadence = 5.0 * cfg.dt
    if parts_cadence > 10.0 * cfg.dt + 1e-15:
        raise CadenceError(
            f"parts cadence {parts_cadence} exceeds 10 dt = {10 * cfg.dt}")
    if initial is None:
        initial = initial_data(cfg)
    u0 = dealias(initial)
    stepper = _Stepper(cfg)
    state = SolverState(0.0, u0, l2_norm(u0))
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-12))
    audit_steps = sorted({int(round(t / cfg.dt)) for t in audit_times})
    if any(s < 2 or s > n_steps - 2 for s in audit_steps):
        raise ConfigError("audit times must sit >= 2 steps inside the run")
    parts_every = max(1, int(round(parts_cadence / cfg.dt)))

    k1, k2 = cfg.grid.freqs()
    low_freq = phi_le(np.hypot(k1, k2), D)
    lo = ModulationFilter("le0", (1, 1))
    parts = [(ModulationFilter("gt0", (1, 1)), None), (lo, 1.0 - low_freq), (lo, low_freq)]

    # the identity couples dE/dt to the nonlinearity actually integrated:
    # with the nonlinear term off every symbol sum is identically zero
    def sums(U, pairs):
        if cfg.linear_only:
            return [0.0] * len(pairs)
        return _energy_sums(U, N, cfg.params, c, pairs)

    stencil_nbhd = {}
    for s in audit_steps:
        for off in range(-2, 3):
            stencil_nbhd.setdefault(s + off, []).append(s)

    energies = {}
    centers = {}
    parts_rows = []
    for n in range(n_steps + 1):
        if n:
            state = stepper.step(state)
        if n in stencil_nbhd:
            for s in stencil_nbhd[n]:
                energies.setdefault(s, {})[n - s] = energy_EN(state.U, N)
                if n == s:
                    centers[s] = state.U
        if n % parts_every == 0:
            h, lh, ll = sums(state.U, parts)
            parts_rows.append({"t": state.t, "hiMod": h, "loMod_hiFreq": lh,
                               "loMod_loFreq": ll})

    rows = []
    max_rel = 0.0
    for s in audit_steps:
        e = energies[s]
        fd = (-e[2] + 8.0 * e[1] - 8.0 * e[-1] + e[-2]) / (12.0 * cfg.dt)
        tv = sums(centers[s], [(ModulationFilter(), None)])[0]
        rel = abs(fd - tv) / abs(tv) if tv != 0.0 else abs(fd)
        max_rel = max(max_rel, rel)
        rows.append({"t": s * cfg.dt, "E_N": e[0], "dE_dt_fd": fd,
                     "dE_dt_trilinear": tv, "rel_err": rel})

    totals = {"hiMod": 0.0, "loMod_hiFreq": 0.0, "loMod_loFreq": 0.0}
    for a, b in zip(parts_rows, parts_rows[1:]):
        w = 0.5 * (b["t"] - a["t"])
        for key in totals:
            totals[key] += w * (a[key] + b[key])
    return EnergyAudit(N, D, c, rows, parts_rows, totals, max_rel)


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

    def to_json(self):
        return {"radius": self.radius, "mprime_min": self.mprime_min,
                "mprime_max": self.mprime_max, "factor_C": self.factor_C,
                "n_pairs_mprime": self.n_pairs_mprime,
                "n_pairs_factor": self.n_pairs_factor, "N": self.N}


def depletion_checks(params: DispersionParams, N: float, radius: int,
                     max_offset=8, c=C_ENERGY) -> DepletionReport:
    """(a) bounds of |m'| = |m / d| over |xi| <= radius, 0 < |xi-eta| <=
    max_offset, |xi| != |eta|; (b) the smallest admissible constant C in

        cos^2(angle(xi-eta, xi+eta)) <= C (Phi_{i+}^2 + <xi-eta>^3)
                                          / ((1+|xi|+|eta|) <xi-eta>^2)

    over 0 < |xi-eta| < 2^{-4} |xi+eta| and both signs i."""
    x1, x2 = np.ascontiguousarray(lattice_disk(radius, include_origin=True).T, dtype=float)
    lam_xi = lam_abs(params, np.hypot(x1, x2))

    mp_min, mp_max = math.inf, 0.0
    n_mp = 0
    c_best = 0.0
    n_fac = 0
    off_max = max(max_offset, radius // 8 + 1)
    for r1 in range(-off_max, off_max + 1):
        for r2 in range(-off_max, off_max + 1):
            rn = math.hypot(r1, r2)
            if rn == 0.0:
                continue
            e1 = x1 - r1
            e2 = x2 - r2
            if rn <= max_offset:
                dvals = depletion_factor(x1, x2, e1, e2)
                mask = dvals > 0.0
                if mask.any():
                    mvals = energy_symbol_arr(N, x1[mask], x2[mask],
                                              e1[mask], e2[mask], c)
                    ratio = np.abs(mvals) / dvals[mask]
                    mp_min = min(mp_min, float(ratio.min()))
                    mp_max = max(mp_max, float(ratio.max()))
                    n_mp += int(mask.sum())
            # correlation bound on 0 < |xi-eta| < 2^{-4}|xi+eta|
            s1 = x1 + e1
            s2 = x2 + e2
            sn = np.hypot(s1, s2)
            sel = rn * 16.0 < sn
            if not sel.any():
                continue
            cos2 = ((r1 * s1[sel] + r2 * s2[sel]) / (rn * sn[sel])) ** 2
            lam_eta = lam_abs(params, np.hypot(e1[sel], e2[sel]))
            lam_rho = float(lam_abs(params, rn))
            br = math.sqrt(1.0 + rn * rn)
            denom_core = (1.0 + np.hypot(x1[sel], x2[sel])
                          + np.hypot(e1[sel], e2[sel])) * br ** 2
            cmax = 0.0
            for i1 in (1, -1):
                phi_mod = lam_xi[sel] - i1 * lam_rho - lam_eta
                rhs = (phi_mod ** 2 + br ** 3) / denom_core
                cmax = max(cmax, float(np.max(cos2 / rhs)))
            c_best = max(c_best, cmax)
            n_fac += int(sel.sum())
    return DepletionReport(radius, mp_min, mp_max, c_best, n_mp, n_fac, N)
