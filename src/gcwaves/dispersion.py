"""Dispersion relation on Z^2 and exhaustive small-divisor censuses.

The dispersion relation is Lambda(v) = sqrt(g |v| + sigma |v|^3).  Phase
(modulation) functions are signed combinations of Lambda over interacting
lattice frequencies; the scans below enumerate lattice windows exhaustively
and report empirical lower-bound constants for |phase| / weight, never
certified ones.

All scans are deterministic.  A scan keeping n records keeps the n smallest
tuples by (normalized gap, dyadic shell of |xi|, xi, offset, signs), points
and sign tuples compared lexicographically, ties included; the records are
then listed by (gap, frequencies).  Shell statistics and tuple counts cover
every tuple in the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import ConfigError, ResourceBudgetError

# near-zero phases are re-evaluated at this precision to kill cancellation
_REEVAL_THRESHOLD = 1e-9
_MP_DPS = 50

_SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: preset "generic" gravity values offered in configs; genericity is
#: empirical (reported gaps), never asserted membership in the full-measure set
GENERIC_G = (math.sqrt(2.0), math.e, math.pi / 2.0)


# ---------------------------------------------------------------------------
# parameter and window types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionParams:
    """Gravity g and surface tension sigma (both dimensionless, > 0)."""

    g: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (self.g > 0.0 and self.sigma > 0.0):
            raise ConfigError("g and sigma must be positive")

    @property
    def y(self) -> float:
        """The reduced parameter g / sigma (the one genericity is about)."""
        return self.g / self.sigma


@dataclass(frozen=True)
class SignPattern:
    """Ordered +-1 signs; length 2, 3 or 4 for 3-, 4-, 5-wave phases."""

    signs: tuple

    def __post_init__(self):
        s = tuple(int(v) for v in self.signs)
        if len(s) not in (2, 3, 4) or any(v not in (-1, 1) for v in s):
            raise ConfigError(f"invalid sign pattern {self.signs}")
        object.__setattr__(self, "signs", s)

    def __iter__(self):
        return iter(self.signs)

    def __len__(self):
        return len(self.signs)


@dataclass(frozen=True)
class WeightParams:
    """Exponent kappa in (0, 1] of the logarithmic small-divisor weight."""

    kappa: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError("kappa must lie in (0, 1]")


@dataclass(frozen=True)
class ScanWindow:
    """Lattice window: |xi| <= max_high_freq, small offsets <= max_low_freq."""

    max_high_freq: int
    max_low_freq: int
    shell_mode: bool = True

    def __post_init__(self):
        if self.max_high_freq < 1 or self.max_low_freq < 1:
            raise ConfigError("window bounds must be >= 1")
        if self.max_low_freq > self.max_high_freq:
            raise ConfigError("max_low_freq must not exceed max_high_freq")


@dataclass(frozen=True)
class ResonanceRecord:
    frequencies: tuple
    signs: SignPattern
    phase_value: float
    weight: float
    normalized_gap: float
    flags: tuple = ()

    def __post_init__(self):
        if not self.weight > 0.0:
            raise ConfigError("record weight must be positive")


# ---------------------------------------------------------------------------
# the dispersion relation and phase functions
# ---------------------------------------------------------------------------

def lam(params: DispersionParams, v) -> float:
    """Lambda(v) = sqrt(g|v| + sigma |v|^3); Lambda(0) = 0, even in v."""
    r = math.hypot(float(v[0]), float(v[1]))
    return math.sqrt(params.g * r + params.sigma * r ** 3)


def lam_abs(params: DispersionParams, r):
    """Vectorized Lambda as a function of |v| (r may be any ndarray)."""
    r = np.asarray(r, dtype=float)
    return np.sqrt(params.g * r + params.sigma * r ** 3)


def lam_grid(params: DispersionParams, k1, k2):
    """Lambda evaluated on frequency arrays (k1, k2)."""
    return lam_abs(params, np.hypot(k1, k2))


def _lam_mp(params, v):
    r2 = mpmath.mpf(int(v[0]) ** 2 + int(v[1]) ** 2)
    r = mpmath.sqrt(r2)
    return mpmath.sqrt(mpmath.mpf(params.g) * r + mpmath.mpf(params.sigma) * r ** 3)


def phase3(params, signs, xi, eta) -> float:
    """Quadratic phase Lambda(xi) - i1 Lambda(xi-eta) - i2 Lambda(eta)."""
    i1, i2 = tuple(signs)
    d = (xi[0] - eta[0], xi[1] - eta[1])
    return lam(params, xi) - i1 * lam(params, d) - i2 * lam(params, eta)


def phase3_sym(params, signs, v1, v2, v3) -> float:
    """Symmetric 3-wave form i1 L(v1) + i2 L(v2) + i3 L(v3), sum v_i = 0."""
    if (v1[0] + v2[0] + v3[0], v1[1] + v2[1] + v3[1]) != (0, 0):
        raise ConfigError("3-wave frequencies must sum to zero")
    i1, i2, i3 = tuple(signs)
    return i1 * lam(params, v1) + i2 * lam(params, v2) + i3 * lam(params, v3)


def phase4(params, signs, xi, eta, rho) -> float:
    """4-wave phase L(xi) - ia L(rho) - ib L(xi-eta) - ic L(eta-rho).

    With ia = + this is the iterated-normal-form modulation; it equals
    phase3((ib,+), xi, eta) + phase3((ic,+), eta, rho).
    """
    ia, ib, ic = tuple(signs)
    d1 = (xi[0] - eta[0], xi[1] - eta[1])
    d2 = (eta[0] - rho[0], eta[1] - rho[1])
    return (lam(params, xi) - ia * lam(params, rho)
            - ib * lam(params, d1) - ic * lam(params, d2))


def phase5(params, signs, xi, eta, rho, theta) -> float:
    """5-wave phase; equals phase4((+,ib,ic), xi,eta,rho) + phase3((id,+), rho,theta)."""
    ia, ib, ic, idd = tuple(signs)
    d1 = (xi[0] - eta[0], xi[1] - eta[1])
    d2 = (eta[0] - rho[0], eta[1] - rho[1])
    d3 = (rho[0] - theta[0], rho[1] - theta[1])
    return (lam(params, xi) - ia * lam(params, theta) - ib * lam(params, d1)
            - ic * lam(params, d2) - idd * lam(params, d3))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _jb(v):  # japanese bracket of a lattice point
    return math.sqrt(1.0 + v[0] ** 2 + v[1] ** 2)


def weight_K(wp: WeightParams, v1, v2, v3) -> float:
    """K_kappa = <v>_max^{-3/2} log(1+<v>_max)^{-(1+kappa)} min(<v_i>)^{-4}.

    Defined on nonzero lattice points only.
    """
    for v in (v1, v2, v3):
        if v[0] == 0 and v[1] == 0:
            raise ConfigError("weight_K requires nonzero lattice points")
    b = (_jb(v1), _jb(v2), _jb(v3))
    bmax, bmin = max(b), min(b)
    return bmax ** -1.5 * math.log1p(bmax) ** -(1.0 + wp.kappa) * bmin ** -4.0


def weight_K_arr(wp: WeightParams, a1, a2, a3):
    """Vectorized K_kappa from the three |v_i| arrays."""
    b1 = np.sqrt(1.0 + np.asarray(a1, float) ** 2)
    b2 = np.sqrt(1.0 + np.asarray(a2, float) ** 2)
    b3 = np.sqrt(1.0 + np.asarray(a3, float) ** 2)
    bmax = np.maximum(b1, np.maximum(b2, b3))
    bmin = np.minimum(b1, np.minimum(b2, b3))
    return _k_max_factor(wp, bmax) * bmin ** -4.0


def _k_max_factor(wp, b):
    """The factor b^{-3/2} log(1+b)^{-(1+kappa)} of K_kappa at the largest bracket."""
    return b ** -1.5 * np.log1p(b) ** -(1.0 + wp.kappa)


# ---------------------------------------------------------------------------
# lattice enumeration helpers
# ---------------------------------------------------------------------------

def lattice_disk(radius, include_origin=False):
    """All lattice points with |v| <= radius as an (n, 2) int array,
    lex-sorted; origin optional."""
    r = int(math.floor(radius))
    a, b = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    keep = a * a + b * b <= radius * radius
    if not include_origin:
        keep &= (a != 0) | (b != 0)
    return np.stack((a[keep], b[keep]), axis=1)


def _disk_size(radius):
    """len(lattice_disk(radius)), counted row by row without listing the
    points, so budgets are checked before any enumeration."""
    r2 = radius * radius
    r = int(math.floor(radius))
    return sum(2 * math.isqrt(math.floor(r2 - a * a)) + 1 for a in range(-r, r + 1)) - 1


def _square_abs(side):
    """|v| over the square [-side, side]^2, flattened row-major (see _flat)."""
    return np.hypot(*np.meshgrid(np.arange(-side, side + 1),
                                 np.arange(-side, side + 1), indexing="ij")).ravel()


def _flat(pts, side):
    """Row-major index of lattice points in the square [-side, side]^2; the
    index of v - u is _flat(v) - _flat(u) + _flat(0)."""
    pts = np.asarray(pts)
    return (pts[..., 0] + side) * (2 * side + 1) + (pts[..., 1] + side)


def _by_shell(pts):
    """Points stably sorted by dyadic shell, so that position is rank in the
    (shell, point) order; returns (pts, |pts|, shells, run starts)."""
    a = np.hypot(pts[:, 0], pts[:, 1])
    shells = _shell_index(a)
    order = np.argsort(shells, kind="stable")
    shells = shells[order]
    starts = np.flatnonzero(np.r_[True, shells[1:] != shells[:-1]])
    return pts[order], a[order], shells, starts


class _TopN:
    """Exact running selection of the n smallest rows by (gap, key).

    Batches are offered as flat arrays (gap, int key, payload...).  Only rows
    on the shortlist are ever copied, so once n rows are held an offer costs
    one comparison over the batch.  Infinite and NaN gaps are never kept."""

    def __init__(self, n):
        self.n = int(n)
        self.tau = np.finfo(float).max if self.n > 0 else -np.inf
        self.rows = []

    def shortlist(self, gap):
        """Indices of the gaps that can still enter: at most tau (the n-th
        smallest gap kept) and among the batch's n smallest, ties kept.  Given
        each point's smallest gap over its rows, it lists the only points that
        can place a row."""
        sel = np.flatnonzero(gap <= self.tau)
        if sel.size > self.n:
            kth = np.partition(gap[sel], self.n - 1)[self.n - 1]
            sel = sel[gap[sel] <= kth]
        return sel

    def offer(self, gap, key, *payload):
        sel = self.shortlist(gap)
        if not sel.size:
            return
        cols = [c[sel] for c in (gap, key) + payload]
        if self.rows:
            cols = [np.concatenate(pair) for pair in zip(self.rows, cols)]
        keep = np.lexsort((cols[1], cols[0]))[:self.n]
        self.rows = [c[keep] for c in cols]
        if keep.size == self.n:
            self.tau = self.rows[0][-1]


# sign pairs (i1, i2) of _SIGN_PAIRS ranked by ascending tuple order
_SIGN_RANK = np.array([3, 2, 1, 0])
_RANK_SIGNS = _SIGN_PAIRS[::-1]


def _check_n_records(n_records):
    if n_records < 0:
        raise ConfigError(f"n_records must be >= 0, got {n_records}")


def _shell_index(r):
    """Dyadic shell index: |v| in (2^{k-1}, 2^k] -> k, |v| <= 1 -> 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape, dtype=int)
    pos = r > 1.0
    out[pos] = np.ceil(np.log2(r[pos]) - 1e-12).astype(int)
    return out


@dataclass
class ShellStat:
    shell: int
    count: int
    min_gap: float
    min_phase_x32: float  # min over the shell of |phase| * <xi>^{3/2}


@dataclass
class ScanResult:
    records: list
    min_gap: float
    shell_stats: list = field(default_factory=list)
    n_evaluated: int = 0
    meta: dict = field(default_factory=dict)


_DEFAULT_BUDGET = int(2e9)


def _check_budget(n, budget):
    if n > budget:
        raise ResourceBudgetError(
            f"scan would evaluate ~{n:.3g} tuples, over the budget {budget:.3g}; "
            "shrink the window or raise the budget explicitly")


# ---------------------------------------------------------------------------
# three-wave census
# ---------------------------------------------------------------------------

def scan_three_wave(params: DispersionParams, wp: WeightParams, window: ScanWindow,
                    n_records=100, weight_fn=None, budget=_DEFAULT_BUDGET) -> ScanResult:
    """Exhaustive census of 3-wave phases over a lattice window.

    Enumerates xi with 0 < |xi| <= max_high_freq, offsets rho = xi - eta with
    0 < |rho| <= max_low_freq (eta nonzero), and all sign pairs of
    Lambda(xi) - i1 Lambda(rho) - i2 Lambda(eta).  Each tuple is recorded in
    the symmetric 3-wave form (v1, v2, v3) = (xi, -rho, rho - xi) with signs
    (+, -i1, -i2), so v1+v2+v3 = 0.

    ``weight_fn(abs_xi, abs_rho, abs_eta) -> weight`` defaults to K_kappa.
    Returns the ``n_records`` smallest normalized gaps plus per-shell minima
    of both |phase|/weight and |phase| * <xi>^{3/2}.  Phases below 1e-9 are
    re-evaluated in 50-digit arithmetic before being recorded.
    """
    _check_n_records(n_records)
    _check_budget(_disk_size(window.max_high_freq) * _disk_size(window.max_low_freq) * 4,
                  budget)
    rhos = lattice_disk(window.max_low_freq)
    xs = lattice_disk(window.max_high_freq)

    xs, axi, shells, starts = _by_shell(xs)
    lam_xi = lam_abs(params, axi)
    n_rho = len(rhos)

    # every eta = xi - rho lies in the square [-side, side]^2, where |eta|,
    # Lambda(eta) and the weight factors are tabulated once per point
    side = int(math.floor(window.max_high_freq)) + int(math.floor(window.max_low_freq))
    abs_sq = _square_abs(side)
    lam_sq = lam_abs(params, abs_sq)
    x_at = _flat(xs, side)
    rho_off = _flat(rhos, side) - _flat((0, 0), side)
    pos = np.empty(abs_sq.size, np.int64)
    pos[x_at] = np.arange(len(xs))
    xi_is_rho = pos[_flat(rhos, side)]  # position of the xi equal to each rho
    arho = np.array([math.hypot(r1, r2) for r1, r2 in rhos.tolist()])
    lam_rho = lam_abs(params, arho)
    if weight_fn is None:  # K_kappa = F(largest bracket) * G(smallest bracket)
        b_sq = np.sqrt(1.0 + abs_sq ** 2)
        f_sq, g_sq = _k_max_factor(wp, b_sq), b_sq ** -4.0
        b1, f1, g1 = b_sq[x_at], f_sq[x_at], g_sq[x_at]
        b2 = np.sqrt(1.0 + arho ** 2)
        f2, g2 = _k_max_factor(wp, b2), b2 ** -4.0

    best_gap = np.full(len(xs), np.inf)    # per xi, over every offset and sign
    best_phase = np.full(len(xs), np.inf)
    top = _TopN(n_records)
    for k in range(n_rho):
        e = x_at - rho_off[k]               # eta = xi - rho
        lam_eta = lam_sq[e]
        if weight_fn is None:
            b3 = b_sq[e]
            f13 = np.where(b1 >= b3, f1, f_sq[e])
            g13 = np.where(b1 <= b3, g1, g_sq[e])
            w = (np.where(np.maximum(b1, b3) >= b2[k], f13, f2[k])
                 * np.where(np.minimum(b1, b3) <= b2[k], g13, g2[k]))
        else:
            w = weight_fn(axi, np.full_like(axi, arho[k]), abs_sq[e])
        # phase = c_i1 - i2 Lambda(eta) with c_+ = L(xi) - L(rho), c_- = L(xi) + L(rho);
        # the smaller |phase| over i2 is | |c| - Lambda(eta) |, exactly
        c_p, c_m = lam_xi - lam_rho[k], lam_xi + lam_rho[k]
        aphase = np.minimum(np.abs(np.abs(c_p) - lam_eta), np.abs(c_m - lam_eta))
        gap = aphase / w
        gap[xi_is_rho[k]] = aphase[xi_is_rho[k]] = np.inf  # eta = 0 is not a tuple
        np.minimum(best_gap, gap, out=best_gap)
        np.minimum(best_phase, aphase, out=best_phase)
        c = top.shortlist(gap)
        if c.size:
            le = lam_eta[c]
            phase = np.stack((c_p[c] - le, c_p[c] + le, c_m[c] - le, c_m[c] + le))
            top.offer(np.ravel(np.abs(phase) / w[c]),
                      np.ravel((c * n_rho + k) * 4 + _SIGN_RANK[:, None]),
                      phase.ravel(), np.tile(w[c], 4))

    count = np.full(len(xs), 4 * n_rho)
    count[xi_is_rho] -= 4
    stats = _shell_stats(shells, starts, count, best_gap,
                         best_phase * (1.0 + axi ** 2) ** 0.75)

    records = []
    for gap, key, ph, w in zip(*(c.tolist() for c in top.rows)):
        (i, k), (i1, i2) = divmod(key // 4, n_rho), _RANK_SIGNS[key % 4]
        xi, rho = tuple(xs[i].tolist()), tuple(rhos[k].tolist())
        flags = ()
        if abs(ph) < _REEVAL_THRESHOLD:
            ph = _reeval_phase3(params, xi, rho, (i1, i2))
            gap = abs(ph) / w
            flags = ("extended-precision",)
        v1, v2, v3 = xi, (-rho[0], -rho[1]), (rho[0] - xi[0], rho[1] - xi[1])
        records.append(ResonanceRecord(
            frequencies=(v1, v2, v3), signs=SignPattern((1, -i1, -i2)),
            phase_value=ph, weight=w, normalized_gap=gap, flags=flags))
    records.sort(key=lambda r: (r.normalized_gap, r.frequencies))
    min_gap = min((r.normalized_gap for r in records), default=math.inf)
    return ScanResult(records, min_gap, stats, int(count.sum()),
                      {"g": params.g, "sigma": params.sigma, "kappa": wp.kappa})


def _reeval_phase3(params, xi, rho, signs):
    i1, i2 = signs
    eta = (xi[0] - rho[0], xi[1] - rho[1])
    with mpmath.workdps(_MP_DPS):
        v = _lam_mp(params, xi) - i1 * _lam_mp(params, rho) - i2 * _lam_mp(params, eta)
        return float(v)


# ---------------------------------------------------------------------------
# four-wave census (iterated resonances)
# ---------------------------------------------------------------------------

def scan_four_wave(params: DispersionParams, window: ScanWindow, n_records=100,
                   bprime=1.0, weight="paired", budget=_DEFAULT_BUDGET) -> ScanResult:
    """Census of the paired 4-wave modulations against <v>^{-1/2}(<xi>+<eta>)^{-2}.

    Enumerates v with 0 < |v| <= max_high_freq and nonzero xi, eta with
    |xi|, |eta| <= max_low_freq, all sign pairs, excluding the trivial pairs
    (xi, i1) == (eta, i2).  For each tuple both modulations

        G1 = Lambda(v+xi) - Lambda(v) - i1 Lambda(xi)
        G2 = Lambda(v+eta) - Lambda(v) - i2 Lambda(eta)

    are evaluated; the record keeps max(|G1|, |G2|) normalized by the weight
    (the stated lower bound controls the larger of the two).  The regime flag
    (|xi|+|eta|)^16 <= bprime * |v| is reported per record, never used as a
    filter.

    weight="paired" uses <v>^{-1/2}(<xi>+<eta>)^{-2}; weight="moduli" is the
    variant |v|^{-1/2}(|xi|+|eta|)^{-2} built from plain moduli.
    """
    if weight not in ("paired", "moduli"):
        raise ConfigError(f"unknown four-wave weight {weight!r}")
    if math.isnan(bprime):
        raise ConfigError("bprime must not be NaN")
    _check_n_records(n_records)
    n_low = _disk_size(window.max_low_freq)
    _check_budget(_disk_size(window.max_high_freq) * (n_low * (n_low + 1) // 2) * 4, budget)
    lows = lattice_disk(window.max_low_freq)
    vs = lattice_disk(window.max_high_freq)
    pairs = [(a, b) for a in range(len(lows)) for b in range(a, len(lows))]

    vs, av, shells, starts = _by_shell(vs)
    lam_v = lam_abs(params, av)
    w_v = np.sqrt(1.0 + av ** 2) ** -0.5 if weight == "paired" else av ** -0.5
    # |Lambda(v+mu) - Lambda(v) - i Lambda(mu)| for every low point mu, i = +, -
    mods = np.empty((len(lows), 2, len(vs)))
    for m, mu in enumerate(lows.tolist()):
        shifted = vs + np.asarray(mu)
        base = lam_abs(params, np.hypot(shifted[:, 0], shifted[:, 1])) - lam_v
        lam_mu = lam(params, mu)
        mods[m] = np.abs(base - lam_mu), np.abs(base + lam_mu)
    mod_lo, mod_hi = mods.min(axis=1), mods.max(axis=1)

    best_gap = np.full(len(vs), np.inf)  # per v, over every pair and sign
    best_val = np.full(len(vs), np.inf)
    top = _TopN(n_records)
    for p, (a, b) in enumerate(pairs):
        xi, eta = lows[a].tolist(), lows[b].tolist()
        if weight == "paired":
            w = w_v * (_jb(xi) + _jb(eta)) ** -2.0
        else:
            w = w_v * (math.hypot(*xi) + math.hypot(*eta)) ** -2.0
        # the smallest max(|G1|, |G2|) over the sign pairs; with xi == eta the
        # trivial pairs i1 == i2 are excluded by hypothesis
        val = mod_hi[a] if a == b else np.maximum(mod_lo[a], mod_lo[b])
        gap = val / w
        np.minimum(best_gap, gap, out=best_gap)
        np.minimum(best_val, val, out=best_val)
        c = top.shortlist(gap)
        if c.size:
            rows = [1, 2] if a == b else [0, 1, 2, 3]   # indices into _SIGN_PAIRS
            val = np.maximum(mods[a][:, None, c], mods[b][None, :, c]).reshape(4, -1)[rows]
            top.offer(np.ravel(val / w[c]),
                      np.ravel((c * len(pairs) + p) * 4 + _SIGN_RANK[rows, None]),
                      val.ravel(), np.tile(w[c], len(rows)))

    n_batches = 4 * len(pairs) - 2 * len(lows)
    count = np.full(len(vs), n_batches)
    stats = _shell_stats(shells, starts, count, best_gap,
                         best_val * (1.0 + av ** 2) ** 0.25)

    records = []
    for gap, key, val, w in zip(*(c.tolist() for c in top.rows)):
        (i, p), (i1, i2) = divmod(key // 4, len(pairs)), _RANK_SIGNS[key % 4]
        v = tuple(vs[i].tolist())
        xi, eta = (tuple(lows[m].tolist()) for m in pairs[p])
        admissible = (math.hypot(*xi) + math.hypot(*eta)) ** 16 <= bprime * av[i]
        flags = ("admissible-regime",) if admissible else ("outside-regime",)
        records.append(ResonanceRecord(
            frequencies=(v, xi, eta), signs=SignPattern((i1, i2)),
            phase_value=val, weight=w, normalized_gap=gap, flags=flags))
    records.sort(key=lambda r: (r.normalized_gap, r.frequencies))
    min_gap = min((r.normalized_gap for r in records), default=math.inf)
    return ScanResult(records, min_gap, stats, int(count.sum()),
                      {"g": params.g, "sigma": params.sigma, "bprime": bprime})


def _shell_stats(shells, starts, count, best_gap, best_p32):
    """ShellStats from per-point tuple counts and minima, points sorted by shell."""
    return [ShellStat(int(k), int(n), float(g), float(p32)) for k, n, g, p32 in zip(
        shells[starts], np.add.reduceat(count, starts),
        np.minimum.reduceat(best_gap, starts), np.minimum.reduceat(best_p32, starts))
        if n > 0]


# ---------------------------------------------------------------------------
# collinear gaps (the boundary of the 4-wave argument)
# ---------------------------------------------------------------------------

def collinear_gap(params: DispersionParams, xi):
    """For each lattice point eta = lambda xi, lambda in (0,1): the slope gap.

    Returns a list of (eta, gap, gap * |xi|^6); empty when xi is primitive.
    """
    if xi == (0, 0) or (xi[0] == 0 and xi[1] == 0):
        raise ConfigError("collinear_gap requires xi != 0")
    g0 = math.gcd(abs(xi[0]), abs(xi[1]))
    prim = (xi[0] // g0, xi[1] // g0)
    axi = math.hypot(*xi)
    base = lam(params, xi) / axi
    out = []
    for t in range(1, g0):
        eta = (prim[0] * t, prim[1] * t)
        aeta = math.hypot(*eta)
        gap = abs(base - lam(params, eta) / aeta)
        out.append((eta, gap, gap * axi ** 6))
    return out


# ---------------------------------------------------------------------------
# the one-variable profile F and sublevel intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Result:
    root: float | None
    interval: tuple | None
    length: float
    empty_forced: bool  # rigorous closed-form certificate that X is empty
    f_at_0: float
    f_at_B: float


def profile_F(a, b, c, x):
    """F(x) = sqrt(ax+a^3) + sqrt(bx+b^3) - sqrt(cx+c^3) (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(a * x + a ** 3) + np.sqrt(b * x + b ** 3) - np.sqrt(c * x + c ** 3)


def _check_abc(a, b, c, B=None, delta=None):
    if not all(math.isfinite(v) for v in (a, b, c, B, delta) if v is not None):
        raise ConfigError(f"non-finite input in {(a, b, c, B, delta)}")
    if not (1.0 <= a <= b <= c <= a + b):
        raise ConfigError(f"need 1 <= a <= b <= c <= a+b, got {(a, b, c)}")
    if B is not None and B < 1.0:
        raise ConfigError("B must be >= 1")
    if delta is not None and not (0.0 < delta <= 1.0 / 20.0):
        raise ConfigError("delta must lie in (0, 1/20]")


def _bisect_level(a, b, c, level, lo, hi, tol=1e-10):
    """Unique x in [lo, hi] with F(x) = level, given a sign change.

    Valid because F is strictly increasing wherever |F| <= 1/10, so every
    level in [-1/20, 1/20] is crossed at most once.
    """
    flo = float(profile_F(a, b, c, lo)) - level
    fhi = float(profile_F(a, b, c, hi)) - level
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = float(profile_F(a, b, c, mid)) - level
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def lemma1_profile(a, b, c, B, delta, tol=1e-10) -> Lemma1Result:
    """Root of F and the sublevel interval X = {x in (0,B) : |F(x)| < delta}.

    X is a single interval (possibly empty) of length <= 20 delta sqrt(a+B).
    ``empty_forced`` certifies emptiness from the closed-form gap bound
    sqrt(cx+c^3) - sqrt(bx+b^3) >= (c-b)(b^2+bc+c^2)/(sqrt(c^3+cB)+sqrt(b^3+bB))
    exceeding sqrt(aB+a^3) + delta on [0, B].
    """
    _check_abc(a, b, c, B, delta)
    f0 = float(profile_F(a, b, c, 0.0))
    fB = float(profile_F(a, b, c, B))

    gap_lb = (c - b) * (b * b + b * c + c * c) / (
        math.sqrt(c ** 3 + c * B) + math.sqrt(b ** 3 + b * B))
    empty_forced = gap_lb > math.sqrt(a * B + a ** 3) + delta

    # root: F(infty) = +infty and F increases through every small level, so a
    # root exists iff F(0) <= 0
    root = None
    if f0 <= 0.0:
        hi = max(B, 1.0)
        while float(profile_F(a, b, c, hi)) < 0.0:
            hi *= 2.0
        root = _bisect_level(a, b, c, 0.0, 0.0, hi, tol)

    # sublevel interval clipped to (0, B)
    if f0 >= delta:
        # the band cannot be entered from above (F' > 0 on |F| <= 1/10)
        return Lemma1Result(root, None, 0.0, empty_forced, f0, fB)
    if fB <= -delta:
        return Lemma1Result(root, None, 0.0, empty_forced, f0, fB)
    lo = 0.0
    if f0 <= -delta:
        lo = _bisect_level(a, b, c, -delta, 0.0, B, tol)
    hi = B
    if fB >= delta:
        hi = _bisect_level(a, b, c, delta, lo, B, tol)
    if hi is None or lo is None or hi <= lo:
        return Lemma1Result(root, None, 0.0, empty_forced, f0, fB)
    return Lemma1Result(root, (lo, hi), hi - lo, empty_forced, f0, fB)


# ---------------------------------------------------------------------------
# exceptional-set measure bound
# ---------------------------------------------------------------------------

@dataclass
class MeasureBound:
    total: float
    n_intervals: int
    n_pairs: int
    j: int
    cutoff: int
    B: float
    kappa: float


def exceptional_measure_bound(B, j, wp: WeightParams, cutoff,
                              budget=_DEFAULT_BUDGET) -> MeasureBound:
    """Upper estimate of the truncated exceptional-set measure at level 2^{-j}.

    Sums |{y in (0,B) : |L_y(eta) + L_y(xi) - L_y(xi+eta)| < 2^{-j} K_kappa}|
    over lattice pairs |eta| <= |xi| <= cutoff with |xi+eta| >= |xi|, using
    the sublevel intervals of the profile F with (a,b,c) = (|eta|,|xi|,|xi+eta|).
    Expected to scale like 2^{-j}.
    """
    return exceptional_measure_bounds(B, [j], wp, cutoff, budget)[0]


# pairs per block of eta rows in the exceptional-set sweep
_MEASURE_BLOCK = 1 << 16


def exceptional_measure_bounds(B, js, wp: WeightParams, cutoff,
                               budget=_DEFAULT_BUDGET) -> list:
    """``exceptional_measure_bound`` at every level j in ``js``, in order.

    The pair sweep does not depend on j: it runs once, keeps the pairs that
    pass the pre-filter at the loosest level, and each j filters those.
    """
    js = list(js)
    if not (js and min(js) >= 5 and 5 <= B < math.inf and cutoff >= 1):
        raise ConfigError("need j >= 5, finite B >= 5, cutoff >= 1")
    _check_budget(_disk_size(cutoff) ** 2, budget)
    pts = lattice_disk(cutoff)

    # |v| and the profile terms over the square holding every xi + eta; the
    # |eta| terms are scalar (libm) powers, which numpy's array power can miss
    # by an ulp, so the totals equal a loop over eta bit for bit
    side = 2 * int(math.floor(cutoff))
    abs_sq = _square_abs(side)
    p15_sq = abs_sq ** 1.5
    rB_sq = np.sqrt(abs_sq * B + abs_sq ** 3)
    at = _flat(pts, side)
    a_pt = abs_sq[at]
    p15_eta = np.array([a ** 1.5 for a in a_pt])
    rB_eta = np.array([np.sqrt(a * B + a ** 3) for a in a_pt])

    loose = 2.0 ** (-min(js))
    kept, n_pairs = [], 0
    rows = max(1, _MEASURE_BLOCK // len(pts))
    for r0 in range(0, len(pts), rows):
        e = np.arange(r0, min(r0 + rows, len(pts)))
        s_at = at[e, None] + at[None, :] - _flat((0, 0), side)   # xi + eta
        asum = abs_sq[s_at]
        ok = (a_pt[None, :] >= a_pt[e, None]) & (asum >= a_pt[None, :]) & (asum > 0.0)
        ie, ix = np.nonzero(ok)                                  # (eta, xi) order
        ie = e[ie]
        n_pairs += ie.size
        x_at, s_ok = at[ix], s_at[ok]
        a, b, c = a_pt[ie], abs_sq[x_at], abs_sq[s_ok]
        k = weight_K_arr(wp, b, a, c)
        f0 = p15_eta[ie] + p15_sq[x_at] - p15_sq[s_ok]
        fB = rB_eta[ie] + rB_sq[x_at] - rB_sq[s_ok]
        # closed-form pre-filter: X nonempty needs F(0) < delta, F(B) > -delta
        delta = loose * k
        keep = (f0 < delta) & (fB > -delta)
        kept.append((a[keep], b[keep], c[keep], k[keep], f0[keep], fB[keep]))
    a, b, c, k, f0, fB = (np.concatenate(col) for col in zip(*kept))

    out = []
    for j in js:
        delta = 2.0 ** (-j) * k
        sel = (f0 < delta) & (fB > -delta)
        lengths = _interval_lengths_vec(a[sel], b[sel], c[sel], delta[sel], B)
        out.append(MeasureBound(float(lengths.sum()), int(np.count_nonzero(lengths)),
                                n_pairs, j, cutoff, B, wp.kappa))
    return out


def _interval_lengths_vec(a, b, c, delta, B, iters=48):
    """Vectorized |X_{B,delta}| for arrays of admissible (a, b, c, delta)."""
    abc = (a, b, c, a ** 3, b ** 3, c ** 3)

    def f(x, a, b, c, a3, b3, c3):
        return np.sqrt(a * x + a3) + np.sqrt(b * x + b3) - np.sqrt(c * x + c3)

    f0, fB = f(0.0, *abc), f(B, *abc)

    def solve(level, m):  # bisection on the pairs m only
        abc_m = [v[m] for v in abc]
        lo, hi = np.zeros(m.size), np.full(m.size, B)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = f(mid, *abc_m) < level
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    left, right = np.zeros_like(a), np.full_like(a, B)
    m = np.flatnonzero(f0 <= -delta)
    left[m] = solve(-delta[m], m)
    m = np.flatnonzero(fB >= delta)
    right[m] = solve(delta[m], m)
    nonempty = (f0 < delta) & (fB > -delta)
    return np.where(nonempty, np.maximum(right - left, 0.0), 0.0)
