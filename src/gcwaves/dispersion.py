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
every tuple in the window.  The sweeps (scan3's xi, scan4's v and the
measure's eta) run on D4 orbit representatives and walk the lattice through
``gcwaves.lattice``; their tables and keys are sized by the representatives,
not by the window, and the rows they keep enter as their 8 images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ResourceBudgetError
from .lattice import (Box, d4_images, d4_points, d4_reps, disk_reps, disk_size, flat,
                      lattice_disk, norms, row_blocks)

# near-zero phases are re-evaluated at this precision to kill cancellation
_REEVAL_THRESHOLD = 1e-9
_MP_DPS = 50

_SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: preset "generic" gravity values by config name (pi_2 aliases pi/2); genericity
#: is empirical (reported gaps), never asserted membership in the full-measure set
G_PRESETS = {"sqrt2": math.sqrt(2.0), "e": math.e, "pi/2": math.pi / 2.0,
             "pi_2": math.pi / 2.0}


# ---------------------------------------------------------------------------
# parameter and window types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionParams:
    """Gravity g and surface tension sigma (both dimensionless, finite, > 0)."""

    g: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.g < math.inf and 0.0 < self.sigma < math.inf):
            raise ConfigError(f"g and sigma must be finite and positive, "
                              f"got {self.g!r}, {self.sigma!r}")

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
    import mpmath   # only the near-resonant re-evaluations need it

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
# census bookkeeping
# ---------------------------------------------------------------------------

def _window_reps(radius):
    """The D4 representatives of the window |v| <= radius, stably sorted by
    dyadic shell, so that their order is the (shell, point) order; returns
    (pts, orbit sizes, |pts|, shells)."""
    pts, size = disk_reps(radius)
    a = np.hypot(pts[:, 0], pts[:, 1])
    shells = _shell_index(a)
    order = np.argsort(shells, kind="stable")
    return pts[order], size[order], a[order], shells[order]


def _point_key(pts, shells, radius):
    """Integer keys of window points (..., 2) in the (shell, point) order;
    ``_key_point`` inverts them.  The images of a point under D4 share its
    shell, so their keys need no table of the window."""
    r = int(math.floor(radius))
    w = 2 * r + 1
    return (shells * w + pts[..., 0] + r) * w + pts[..., 1] + r


def _key_point(key, radius):
    r = int(math.floor(radius))
    w = 2 * r + 1
    return (key // w % w - r, key % w - r)


class _TopN:
    """Exact running selection of the n smallest rows by (gap, key).

    Batches are offered as flat arrays (gap, int key, payload...), rows of
    shortlisted points only.  Infinite and NaN gaps are never kept.  A key
    names one row: offered again, with the same gap, it is held once, and
    repeats are dropped before the n smallest are cut, so a repeat never takes
    the place of a distinct row.  Offered rows wait until at least n of them
    are pending and are then sorted with the held ones in one pass, so each
    row costs O(log) however large n is; tau only tightens at those passes."""

    def __init__(self, n):
        self.n = int(n)
        self.tau = np.finfo(float).max if self.n > 0 else -np.inf
        self._held = []
        self._pending = []
        self._n_pending = 0

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
        sel = np.flatnonzero(gap <= self.tau)
        if not sel.size:
            return
        self._pending.append([c[sel] for c in (gap, key) + payload])
        self._n_pending += sel.size
        if self._n_pending >= self.n:
            self._merge()

    @property
    def rows(self):
        """The held rows as columns (gap, key, payload...), sorted by (gap, key)."""
        if self._pending:
            self._merge()
        return self._held

    def _merge(self):
        batches = ([self._held] if self._held else []) + self._pending
        cols = [np.concatenate(c) for c in zip(*batches)]
        keep = np.lexsort((cols[1], cols[0]))
        key = cols[1][keep]
        keep = keep[np.r_[True, key[1:] != key[:-1]]][:self.n]
        self._held = [c[keep] for c in cols]
        self._pending, self._n_pending = [], 0
        if keep.size == self.n:
            self.tau = self._held[0][-1]


# sign pairs (i1, i2) of _SIGN_PAIRS ranked by ascending tuple order
_SIGN_RANK = np.array([3, 2, 1, 0])
_RANK_SIGNS = _SIGN_PAIRS[::-1]
# the records' sign patterns per rank, shared by every record: scan3's
# (1, -i1, -i2) and scan4's (i1, i2)
_RANK_PATTERNS3 = tuple(SignPattern((1, -i1, -i2)) for i1, i2 in _RANK_SIGNS)
_RANK_PATTERNS4 = tuple(SignPattern(s) for s in _RANK_SIGNS)
# index of (i2, i1) in _SIGN_PAIRS for each (i1, i2)
_SWAP_SIGNS = np.array([0, 2, 1, 3])


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
    _check_budget(disk_size(window.max_high_freq) * disk_size(window.max_low_freq) * 4,
                  budget)
    r_hi, r_lo = window.max_high_freq, window.max_low_freq
    rhos = lattice_disk(r_lo)
    n_rho = len(rhos)
    # D4 acting on (xi, rho) jointly keeps every |.|, so every gap bit for
    # bit: the sweep runs over the representative xi, and a shortlisted row
    # enters as its 8 images (g xi, g rho), repeats dropped by key
    xs, size, axi, shells = _window_reps(r_hi)
    lam_xi = lam_abs(params, axi)
    img_rho = d4_images(rhos, r_lo)
    # the position of each offset rho among the xi (whose keys increase along
    # xs), -1 unless rho is a representative
    x_key = _point_key(xs, shells, r_hi)
    rho_key = _point_key(rhos, _shell_index(np.hypot(rhos[:, 0], rhos[:, 1])), r_hi)
    xi_is_rho = np.minimum(np.searchsorted(x_key, rho_key), len(xs) - 1)
    xi_is_rho[x_key[xi_is_rho] != rho_key] = -1

    # every eta = xi - rho lies in the box around the representatives, where
    # |eta|, Lambda(eta) and the weight factors are tabulated once per point
    box = Box(xs.min(axis=0) - math.floor(r_lo), xs.max(axis=0) + math.floor(r_lo))
    abs_sq = box.norms()
    lam_sq = lam_abs(params, abs_sq)
    x_at = box.flat(xs)
    rho_off = box.flat(rhos) - box.flat((0, 0))
    arho = np.array([math.hypot(r1, r2) for r1, r2 in rhos.tolist()])
    lam_rho = lam_abs(params, arho)
    if weight_fn is None:  # K_kappa = F(largest bracket) * G(smallest bracket)
        b_sq = np.sqrt(1.0 + abs_sq ** 2)
        f_sq, g_sq = _k_max_factor(wp, b_sq), b_sq ** -4.0
        b2 = np.sqrt(1.0 + arho ** 2)
        f2, g2 = _k_max_factor(wp, b2), b2 ** -4.0
        b1, f1, g1 = b_sq[x_at], f_sq[x_at], g_sq[x_at]

    best_gap = np.full(len(xs), np.inf)      # per xi, over every offset and sign
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
        if xi_is_rho[k] >= 0:
            gap[xi_is_rho[k]] = aphase[xi_is_rho[k]] = np.inf  # eta = 0 is not a tuple
        np.minimum(best_gap, gap, out=best_gap)
        np.minimum(best_phase, aphase, out=best_phase)
        c = top.shortlist(gap)
        if c.size:
            le = lam_eta[c]
            phase = np.stack((c_p[c] - le, c_p[c] + le, c_m[c] - le, c_m[c] + le))
            # rows over (symmetry, sign, xi)
            img_x = _point_key(d4_points(xs[c]), shells[c], r_hi)
            key = (img_x[:, None] * n_rho + img_rho[:, k, None, None]) * 4
            key = key + _SIGN_RANK[:, None]
            top.offer(*(np.broadcast_to(col, key.shape).ravel() for col in (
                np.abs(phase) / w[c], key, phase, w[c])))

    count = np.full(len(xs), 4 * n_rho)
    count[xi_is_rho[xi_is_rho >= 0]] -= 4
    count *= size                            # tuples of the whole orbit
    stats = _shell_stats(shells, count, best_gap, best_phase * (1.0 + axi ** 2) ** 0.75)

    records = []
    for gap, key, ph, w in zip(*(c.tolist() for c in top.rows)):
        (i, k), rank = divmod(key // 4, n_rho), key % 4
        xi, rho = _key_point(i, r_hi), tuple(rhos[k].tolist())
        flags = ()
        if abs(ph) < _REEVAL_THRESHOLD:
            ph = _reeval_phase3(params, xi, rho, _RANK_SIGNS[rank])
            gap = abs(ph) / w
            flags = ("extended-precision",)
        v1, v2, v3 = xi, (-rho[0], -rho[1]), (rho[0] - xi[0], rho[1] - xi[1])
        records.append(ResonanceRecord(
            frequencies=(v1, v2, v3), signs=_RANK_PATTERNS3[rank],
            phase_value=ph, weight=w, normalized_gap=gap, flags=flags))
    records.sort(key=lambda r: (r.normalized_gap, r.frequencies))
    return ScanResult(records, _census_min(records, stats), stats, int(count.sum()),
                      {"g": params.g, "sigma": params.sigma, "kappa": wp.kappa})


def _reeval_phase3(params, xi, rho, signs):
    import mpmath

    i1, i2 = signs
    eta = (xi[0] - rho[0], xi[1] - rho[1])
    with mpmath.workdps(_MP_DPS):
        v = _lam_mp(params, xi) - i1 * _lam_mp(params, rho) - i2 * _lam_mp(params, eta)
        return float(v)


# ---------------------------------------------------------------------------
# four-wave census (iterated resonances)
# ---------------------------------------------------------------------------

def scan_four_wave(params: DispersionParams, window: ScanWindow, n_records=100,
                   bprime=1.0, budget=_DEFAULT_BUDGET) -> ScanResult:
    """Census of the paired 4-wave modulations against <v>^{-1/2}(<xi>+<eta>)^{-2}.

    Enumerates v with 0 < |v| <= max_high_freq and nonzero xi, eta with
    |xi|, |eta| <= max_low_freq, all sign pairs, excluding the trivial pairs
    (xi, i1) == (eta, i2).  For each tuple both modulations

        G1 = Lambda(v+xi) - Lambda(v) - i1 Lambda(xi)
        G2 = Lambda(v+eta) - Lambda(v) - i2 Lambda(eta)

    are evaluated; the record keeps max(|G1|, |G2|) normalized by the weight
    <v>^{-1/2}(<xi>+<eta>)^{-2} (the stated lower bound controls the larger
    of the two).  The regime flag (|xi|+|eta|)^16 <= bprime * |v| is
    reported per record, never used as a filter.
    """
    if math.isnan(bprime):
        raise ConfigError("bprime must not be NaN")
    _check_n_records(n_records)
    n_low = disk_size(window.max_low_freq)
    _check_budget(disk_size(window.max_high_freq) * (n_low * (n_low + 1) // 2) * 4, budget)
    r_hi, r_lo = window.max_high_freq, window.max_low_freq
    lows = lattice_disk(r_lo)
    pairs = [(a, b) for a in range(len(lows)) for b in range(a, len(lows))]

    # D4 acting on (v, xi, eta) jointly keeps every modulation and weight, so
    # the sweep runs over the representative v.  A shortlisted row enters as
    # its 8 images; an image whose low points have indices a' > b' is the row
    # of pair (b', a') with the signs swapped, which has the same
    # max(|G1|, |G2|) and weight
    vs, size, av, shells = _window_reps(r_hi)
    w_v = np.sqrt(1.0 + av ** 2) ** -0.5
    img_low = d4_images(lows, r_lo)
    a_img, b_img = img_low[:, :, None], img_low[:, None, :]
    pair_at = np.zeros((len(lows), len(lows)), np.int64)
    pair_at[tuple(np.array(pairs).T)] = np.arange(len(pairs))
    img_pair = pair_at[np.minimum(a_img, b_img), np.maximum(a_img, b_img)]  # (8, a, b)
    swapped = a_img > b_img
    lam_v = lam_abs(params, av)

    # |Lambda(v+mu) - Lambda(v) - i Lambda(mu)| for every low point mu, i = +, -
    mods = np.empty((len(lows), 2, len(vs)))
    for m, mu in enumerate(lows.tolist()):
        shifted = vs + np.asarray(mu)
        base = lam_abs(params, np.hypot(shifted[:, 0], shifted[:, 1])) - lam_v
        lam_mu = lam(params, mu)
        mods[m] = np.abs(base - lam_mu), np.abs(base + lam_mu)
    mod_lo, mod_hi = mods.min(axis=1), mods.max(axis=1)

    best_gap = np.full(len(vs), np.inf)    # per v, over every pair and sign
    best_val = np.full(len(vs), np.inf)
    top = _TopN(n_records)
    for p, (a, b) in enumerate(pairs):
        xi, eta = lows[a].tolist(), lows[b].tolist()
        w = w_v * (_jb(xi) + _jb(eta)) ** -2.0
        # the smallest max(|G1|, |G2|) over the sign pairs; with xi == eta the
        # trivial pairs i1 == i2 are excluded by hypothesis
        val = mod_hi[a] if a == b else np.maximum(mod_lo[a], mod_lo[b])
        gap = val / w
        np.minimum(best_gap, gap, out=best_gap)
        np.minimum(best_val, val, out=best_val)
        c = top.shortlist(gap)
        if c.size:
            rows = np.array([1, 2] if a == b else [0, 1, 2, 3])  # into _SIGN_PAIRS
            val = np.maximum(mods[a][:, None, c], mods[b][None, :, c]).reshape(4, -1)[rows]
            # rows over (symmetry, sign, v)
            signs = np.where(swapped[:, a, b, None], _SWAP_SIGNS[rows], rows)
            img_v = _point_key(d4_points(vs[c]), shells[c], r_hi)
            key = (img_v[:, None] * len(pairs) + img_pair[:, a, b, None, None]) * 4
            key = key + _SIGN_RANK[signs][:, :, None]
            top.offer(*(np.broadcast_to(col, key.shape).ravel() for col in (
                val / w[c], key, val, w[c], av[c])))

    n_batches = 4 * len(pairs) - 2 * len(lows)
    count = n_batches * size                 # tuples of the whole orbit
    stats = _shell_stats(shells, count, best_gap, best_val * (1.0 + av ** 2) ** 0.25)

    # each pair's frequencies and regime scale (|xi| + |eta|)^16, built once
    low_pts = [tuple(x) for x in lows.tolist()]
    pair_pts = [(low_pts[a], low_pts[b]) for a, b in pairs]
    scale = [(math.hypot(*xi) + math.hypot(*eta)) ** 16 for xi, eta in pair_pts]
    records = []
    for gap, key, val, w, abs_v in zip(*(c.tolist() for c in top.rows)):
        i, p = divmod(key // 4, len(pairs))
        v = _key_point(i, r_hi)
        xi, eta = pair_pts[p]
        admissible = scale[p] <= bprime * abs_v
        flags = ("admissible-regime",) if admissible else ("outside-regime",)
        records.append(ResonanceRecord(
            frequencies=(v, xi, eta), signs=_RANK_PATTERNS4[key % 4],
            phase_value=val, weight=w, normalized_gap=gap, flags=flags))
    records.sort(key=lambda r: (r.normalized_gap, r.frequencies))
    return ScanResult(records, _census_min(records, stats), stats, int(count.sum()),
                      {"g": params.g, "sigma": params.sigma, "bprime": bprime})


def _census_min(records, stats):
    """The least normalized gap of a census: its records' (re-evaluated in extended
    precision where flagged), or with no record kept the least shell minimum."""
    return min((r.normalized_gap for r in records),
               default=min((s.min_gap for s in stats), default=math.inf))


def _shell_stats(shells, count, best_gap, best_p32):
    """ShellStats from per-point tuple counts and minima, points sorted by shell."""
    starts = np.flatnonzero(np.r_[True, shells[1:] != shells[:-1]])
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


# bracket width at which the Lemma 1 bisections stop
BISECTION_TOL = 1e-10
# halvings of [0, B] per interval end in the vectorized measure sweep
_BISECTIONS = 48


def _bisect_level(a, b, c, level, lo, hi):
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
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        fm = float(profile_F(a, b, c, mid)) - level
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def lemma1_profile(a, b, c, B, delta) -> Lemma1Result:
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
        root = _bisect_level(a, b, c, 0.0, 0.0, hi)

    # sublevel interval clipped to (0, B)
    if f0 >= delta:
        # the band cannot be entered from above (F' > 0 on |F| <= 1/10)
        return Lemma1Result(root, None, 0.0, empty_forced, f0, fB)
    if fB <= -delta:
        return Lemma1Result(root, None, 0.0, empty_forced, f0, fB)
    lo = 0.0
    if f0 <= -delta:
        lo = _bisect_level(a, b, c, -delta, 0.0, B)
    hi = B
    if fB >= delta:
        hi = _bisect_level(a, b, c, delta, lo, B)
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
    n_bisected: int   # distinct (a, b, c) rows bisected, once for every level


def exceptional_measure_bound(B, j, wp: WeightParams, cutoff,
                              budget=_DEFAULT_BUDGET) -> MeasureBound:
    """Upper estimate of the truncated exceptional-set measure at level 2^{-j}.

    Sums |{y in (0,B) : |L_y(eta) + L_y(xi) - L_y(xi+eta)| < 2^{-j} K_kappa}|
    over lattice pairs |eta| <= |xi| <= cutoff with |xi+eta| >= |xi|, using
    the sublevel intervals of the profile F with (a,b,c) = (|eta|,|xi|,|xi+eta|).
    Expected to scale like 2^{-j}.
    """
    return exceptional_measure_bounds(B, [j], wp, cutoff, budget)[0]


def exceptional_measure_bounds(B, js, wp: WeightParams, cutoff,
                               budget=_DEFAULT_BUDGET) -> list:
    """``exceptional_measure_bound`` at every level j in ``js``, in order.

    The pair sweep does not depend on j: it runs once, over the D4
    representative eta against every xi, keeps the pairs that pass the
    pre-filter at the loosest level, and each j filters those.  ``n_pairs``
    counts every pair of the window, ``n_bisected`` the distinct (a, b, c)
    bisected for all levels together.
    """
    js = list(js)
    if not (js and min(js) >= 5 and 5 <= B < math.inf and cutoff >= 1):
        raise ConfigError("need j >= 5, finite B >= 5, cutoff >= 1")
    _check_budget(disk_size(cutoff) ** 2, budget)
    pts = lattice_disk(cutoff)

    # |v| and the profile terms over the square holding every xi + eta; the
    # |eta| terms are scalar (libm) powers, which numpy's array power can miss
    # by an ulp, so the totals equal a loop over eta bit for bit
    n = 4 * int(math.floor(cutoff)) + 1
    abs_sq = norms(n)
    p15_sq = abs_sq ** 1.5
    rB_sq = np.sqrt(abs_sq * B + abs_sq ** 3)
    at = flat(pts, n)
    a_pt = abs_sq[at]

    # D4 acting on (eta, xi) jointly keeps |eta|, |xi| and |xi + eta| bit for
    # bit, so the sweep runs over the representative eta against every xi;
    # each kept row enters as its 8 images (g eta, g xi), and sorting the
    # distinct ones by pair restores the (eta, xi) row order of the window
    rep, size = d4_reps(pts)
    img = d4_images(pts, cutoff)
    p15_eta = np.array([a ** 1.5 for a in a_pt[rep]])
    rB_eta = np.array([np.sqrt(a * B + a ** 3) for a in a_pt[rep]])
    loose = 2.0 ** (-min(js))
    kept, n_pairs = [], 0
    for lo, hi in row_blocks(len(rep), len(pts)):
        e = rep[lo:hi]
        s_at = at[e, None] + at[None, :] - flat((0, 0), n)   # xi + eta
        asum = abs_sq[s_at]
        ok = (a_pt[None, :] >= a_pt[e, None]) & (asum >= a_pt[None, :]) & (asum > 0.0)
        n_pairs += int(np.count_nonzero(ok, axis=1) @ size[lo:hi])
        ir, ix = np.nonzero(ok)
        ir += lo                                              # index into rep
        ie, x_at, s_ok = rep[ir], at[ix], s_at[ok]
        a, b, c = a_pt[ie], abs_sq[x_at], abs_sq[s_ok]
        k = weight_K_arr(wp, b, a, c)
        f0 = p15_eta[ir] + p15_sq[x_at] - p15_sq[s_ok]
        fB = rB_eta[ir] + rB_sq[x_at] - rB_sq[s_ok]
        # closed-form pre-filter: X nonempty needs F(0) < delta, F(B) > -delta
        delta = loose * k
        keep = (f0 < delta) & (fB > -delta)
        kept.append((ie[keep], ix[keep], a[keep], b[keep], c[keep], k[keep], f0[keep],
                     fB[keep]))
    ie, ix, *cols = (np.concatenate(col) for col in zip(*kept))
    _, src = np.unique((img[:, ie] * len(pts) + img[:, ix]).ravel(), return_index=True)
    a, b, c, k, f0, fB = (v[src % ie.size] for v in cols)

    # many rows share (a, b, c), so K and each level's interval: bisect every
    # distinct row at every level in one call, then gather and sum each
    # level's selected rows in row order.  Rows are told apart by their float
    # values, not by integer |v|^2: hypot(1, 7) and hypot(5, 5) need not round
    # alike
    order = np.lexsort((c, b, a))
    abc = np.stack((a, b, c))[:, order]
    new = np.ones(a.size, bool)                 # first of its (a, b, c) in order
    new[1:] = np.any(abc[:, 1:] != abc[:, :-1], axis=0)
    first, row = order[new], np.empty(a.size, np.int64)
    row[order] = np.cumsum(new) - 1
    levels = np.array([2.0 ** (-j) for j in js])[:, None]
    solved = _interval_lengths_vec(
        *(np.broadcast_to(v[first], (len(js), first.size)).ravel() for v in (a, b, c)),
        (levels * k[first]).ravel(), B).reshape(len(js), -1)

    out = []
    for j, level, length in zip(js, levels, solved):
        delta = level * k
        lengths = length[row][(f0 < delta) & (fB > -delta)]
        out.append(MeasureBound(float(lengths.sum()), int(np.count_nonzero(lengths)),
                                n_pairs, j, cutoff, B, wp.kappa, first.size))
    return out


def _interval_lengths_vec(a, b, c, delta, B):
    """Vectorized |X_{B,delta}| for arrays of admissible (a, b, c, delta)."""
    abc = (a, b, c, a ** 3, b ** 3, c ** 3)

    def f(x, a, b, c, a3, b3, c3):
        return np.sqrt(a * x + a3) + np.sqrt(b * x + b3) - np.sqrt(c * x + c3)

    f0, fB = f(0.0, *abc), f(B, *abc)

    def solve(level, m):  # bisection on the pairs m only
        abc_m = [v[m] for v in abc]
        lo, hi = np.zeros(m.size), np.full(m.size, B)
        for _ in range(_BISECTIONS):
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
