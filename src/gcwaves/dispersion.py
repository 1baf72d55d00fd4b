"""Dispersion relation on Z^2 and exhaustive small-divisor censuses.

The dispersion relation is Lambda(v) = sqrt(g |v| + sigma |v|^3).  Phase
(modulation) functions are signed combinations of Lambda over interacting
lattice frequencies; the scans below enumerate lattice windows exhaustively
and report empirical lower-bound constants for |phase| / weight, never
certified ones.

All scans are deterministic: enumeration is lexicographic over
(shell of |xi|, xi, offset, signs) and results are reduced in that order.
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
    return bmax ** -1.5 * np.log1p(bmax) ** -(1.0 + wp.kappa) * bmin ** -4.0


# ---------------------------------------------------------------------------
# lattice enumeration helpers
# ---------------------------------------------------------------------------

def lattice_disk(radius, include_origin=False):
    """All lattice points with |v| <= radius, lex-sorted; origin optional."""
    r = int(math.floor(radius))
    pts = []
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            if a * a + b * b <= radius * radius and (include_origin or (a, b) != (0, 0)):
                pts.append((a, b))
    pts.sort()
    return pts


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
    rhos = lattice_disk(window.max_low_freq)
    xs = lattice_disk(window.max_high_freq)
    if not xs:
        return ScanResult([], math.inf, [], 0, {"empty_window": True})
    _check_budget(len(xs) * len(rhos) * 4, budget)

    xi_arr = np.asarray(xs, dtype=np.int64)
    axi = np.hypot(xi_arr[:, 0], xi_arr[:, 1])
    lam_xi = lam_abs(params, axi)
    shells = _shell_index(axi)
    n_shell = int(shells.max()) + 1
    bxi32 = (1.0 + axi ** 2) ** 0.75

    if weight_fn is None:
        weight_fn = lambda a1, a2, a3: weight_K_arr(wp, a1, a2, a3)

    shell_min_gap = np.full(n_shell, np.inf)
    shell_min_p32 = np.full(n_shell, np.inf)
    shell_count = np.zeros(n_shell, dtype=np.int64)
    pool = []  # candidate (gap, sort_key, payload) tuples
    n_eval = 0

    for rho in rhos:
        eta = xi_arr - np.asarray(rho, dtype=np.int64)
        aeta = np.hypot(eta[:, 0], eta[:, 1])
        valid = aeta > 0.0  # eta must be a nonzero lattice point
        arho = math.hypot(*rho)
        lam_rho = float(lam_abs(params, arho))
        lam_eta = lam_abs(params, aeta)
        w = weight_fn(axi, np.full_like(axi, arho), aeta)
        for i1, i2 in _SIGN_PAIRS:
            phase = lam_xi - i1 * lam_rho - i2 * lam_eta
            aphase = np.abs(phase)
            gap = np.where(valid, aphase / w, np.inf)
            p32 = np.where(valid, aphase * bxi32, np.inf)
            np.minimum.at(shell_min_gap, shells, gap)
            np.minimum.at(shell_min_p32, shells, p32)
            np.add.at(shell_count, shells, valid.astype(np.int64))
            n_eval += int(valid.sum())
            take = min(n_records, gap.size)
            cand = np.argpartition(gap, take - 1)[:take]
            for ci in cand:
                if not np.isfinite(gap[ci]):
                    continue
                xi = (int(xi_arr[ci, 0]), int(xi_arr[ci, 1]))
                pool.append((float(gap[ci]), (int(shells[ci]), xi, rho, (i1, i2)),
                             (xi, rho, (i1, i2), float(phase[ci]), float(w[ci]))))

    pool.sort(key=lambda t: (t[0], t[1]))
    records = []
    for gap, _key, (xi, rho, (i1, i2), ph, w) in pool[:n_records]:
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

    stats = [ShellStat(k, int(shell_count[k]), float(shell_min_gap[k]), float(shell_min_p32[k]))
             for k in range(n_shell) if shell_count[k] > 0]
    min_gap = min((r.normalized_gap for r in records), default=math.inf)
    return ScanResult(records, min_gap, stats, n_eval,
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
    lows = lattice_disk(window.max_low_freq)
    vs = lattice_disk(window.max_high_freq)
    pairs = []
    for ai, a in enumerate(lows):
        for b in lows[ai:]:
            pairs.append((a, b))
    _check_budget(len(vs) * len(pairs) * 4, budget)

    v_arr = np.asarray(vs, dtype=np.int64)
    av = np.hypot(v_arr[:, 0], v_arr[:, 1])
    lam_v = lam_abs(params, av)
    bv = np.sqrt(1.0 + av ** 2)
    shells = _shell_index(av)
    n_shell = int(shells.max()) + 1

    shell_min_gap = np.full(n_shell, np.inf)
    shell_min_p32 = np.full(n_shell, np.inf)
    shell_count = np.zeros(n_shell, dtype=np.int64)
    pool = []
    n_eval = 0

    for xi, eta in pairs:
        bxi = _jb(xi)
        beta = _jb(eta)
        axi = math.hypot(*xi)
        aeta = math.hypot(*eta)
        if weight == "paired":
            w_all = bv ** -0.5 * (bxi + beta) ** -2.0
        else:
            w_all = av ** -0.5 * (axi + aeta) ** -2.0
        g1_mods, g2_mods = {}, {}
        for i1 in (1, -1):
            g1_mods[i1] = _pair_modulation(params, v_arr, lam_v, xi, i1)
            g2_mods[i1] = g1_mods[i1] if eta == xi else _pair_modulation(params, v_arr, lam_v, eta, i1)
        for i1, i2 in _SIGN_PAIRS:
            if xi == eta and i1 == i2:
                continue  # trivial pair excluded by hypothesis
            val = np.maximum(np.abs(g1_mods[i1]), np.abs(g2_mods[i2]))
            gap = val / w_all
            np.minimum.at(shell_min_gap, shells, gap)
            np.minimum.at(shell_min_p32, shells, val * (1.0 + av ** 2) ** 0.25)
            np.add.at(shell_count, shells, 1)
            n_eval += gap.size
            take = min(n_records, gap.size)
            cand = np.argpartition(gap, take - 1)[:take]
            for ci in cand:
                v = (int(v_arr[ci, 0]), int(v_arr[ci, 1]))
                admissible = (axi + aeta) ** 16 <= bprime * av[ci]
                pool.append((float(gap[ci]), (int(shells[ci]), v, xi, eta, (i1, i2)),
                             (v, xi, eta, (i1, i2), float(val[ci]), float(w_all[ci]),
                              bool(admissible))))

    pool.sort(key=lambda t: (t[0], t[1]))
    records = []
    for gap, _key, (v, xi, eta, (i1, i2), val, w, adm) in pool[:n_records]:
        flags = ("admissible-regime",) if adm else ("outside-regime",)
        records.append(ResonanceRecord(
            frequencies=(v, xi, eta), signs=SignPattern((i1, i2)),
            phase_value=val, weight=w, normalized_gap=gap, flags=flags))
    records.sort(key=lambda r: (r.normalized_gap, r.frequencies))
    stats = [ShellStat(k, int(shell_count[k]), float(shell_min_gap[k]), float(shell_min_p32[k]))
             for k in range(n_shell) if shell_count[k] > 0]
    min_gap = min((r.normalized_gap for r in records), default=math.inf)
    return ScanResult(records, min_gap, stats, n_eval,
                      {"g": params.g, "sigma": params.sigma, "bprime": bprime})


def _pair_modulation(params, v_arr, lam_v, mu, sign):
    shifted = v_arr + np.asarray(mu, dtype=np.int64)
    a = np.hypot(shifted[:, 0], shifted[:, 1])
    return lam_abs(params, a) - lam_v - sign * float(lam(params, mu))


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
    if j < 5 or B < 5 or cutoff < 1:
        raise ConfigError("need j >= 5, B >= 5, cutoff >= 1")
    pts = lattice_disk(cutoff)
    _check_budget(len(pts) ** 2, budget)
    pts_arr = np.asarray(pts, dtype=np.int64)
    axi = np.hypot(pts_arr[:, 0], pts_arr[:, 1])

    scale = 2.0 ** (-j)
    total = 0.0
    n_int = 0
    n_pairs = 0
    survivors = []

    for (e1, e2), aeta in zip(pts, np.hypot(pts_arr[:, 0], pts_arr[:, 1])):
        s1 = pts_arr[:, 0] + e1
        s2 = pts_arr[:, 1] + e2
        asum = np.hypot(s1, s2)
        ok = (axi >= aeta) & (asum >= axi) & (asum > 0.0)
        if not ok.any():
            continue
        a = np.full(axi.shape, aeta)
        delta = scale * weight_K_arr(wp, axi, a, asum)
        # cheap closed-form pre-filter: X nonempty needs F(0) < delta, F(B) > -delta
        f0 = aeta ** 1.5 + axi ** 1.5 - asum ** 1.5
        fB = (np.sqrt(aeta * B + aeta ** 3) + np.sqrt(axi * B + axi ** 3)
              - np.sqrt(asum * B + asum ** 3))
        keep = ok & (f0 < delta) & (fB > -delta)
        n_pairs += int(ok.sum())
        for i in np.nonzero(keep)[0]:
            survivors.append((aeta, float(axi[i]), float(asum[i]), float(delta[i])))

    if survivors:
        arr = np.asarray(survivors, dtype=float)
        lengths = _interval_lengths_vec(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], B)
        total = float(lengths.sum())
        n_int = int(np.count_nonzero(lengths))
    return MeasureBound(total, n_int, n_pairs, j, cutoff, B, wp.kappa)


def _interval_lengths_vec(a, b, c, delta, B, iters=48):
    """Vectorized |X_{B,delta}| for arrays of admissible (a, b, c, delta)."""
    f = lambda x: np.sqrt(a * x + a ** 3) + np.sqrt(b * x + b ** 3) - np.sqrt(c * x + c ** 3)
    f0 = f(np.zeros_like(a))
    fB = f(np.full_like(a, B))

    def solve(level, active):
        lo = np.zeros_like(a)
        hi = np.full_like(a, B)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = f(mid) < level
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
        return 0.5 * (lo + hi)

    left = np.where(f0 <= -delta, solve(-delta, f0 <= -delta), 0.0)
    right = np.where(fB >= delta, solve(delta, fB >= delta), B)
    nonempty = (f0 < delta) & (fB > -delta)
    return np.where(nonempty, np.maximum(right - left, 0.0), 0.0)
