"""Weyl paradifferential operators on T^2.

A symbol a(x, zeta) acts on a field f through

    (T_a f)^(xi) = (4 pi^2)^{-1} sum_eta chi(|xi-eta| / |xi+eta|)
                   atilde(xi-eta, (xi+eta)/2) fhat(eta),

where atilde is the Fourier transform of a in x, the midpoint (xi+eta)/2
ranges over half-integer points, and chi = phi_{<= chi_exponent} localizes
the symbol frequency below the pair frequency.  Conventions: if xi = 0 the
whole row is 0 (so T_a output is always mean-free and T_a kills constants),
and symbols only ever get evaluated at |zeta| > 1/2.

Both kinds of symbol read a chi-support plan of the input's eta box: the
pairs (xi, eta) of the sum with chi > 0 and |eta|_inf <= K, 20 bytes each
(int32 xi, rho and midpoint ids, float64 chi), ordered by row rho in
increasing |rho|.  An application takes the smallest K holding the support
of fhat, so its walk holds only entries that can contribute.  For a symbol
with finite values every entry it leaves out would add an exact zero
(fhat(eta) = 0 times a finite weight, onto an output that never holds
-0.0), so the sums are those of the full plan, K = M//2 - 1.  The plans of one (grid size, chi exponent) are built on
demand and kept together as one entry of the lattice plan cache
(``gcwaves.lattice``).  At chi_exponent = -2 the full plan holds 0.16M
entries (3.1 MB) at 32^2 and 2.7M (54 MB) at 64^2.  At 32^2 a dealiased
input (K = 10) reads 63,736 entries (41%), a band-2 probe (K = 6) 13,400
and a constant (K = 0) none; at 12^2 the 2,464 entries and 416 midpoints
of the full plan are 816 and 264 at K = 3.

Symbols come in two flavours:
  * separable - a finite sum of terms  spatial(x) * g(zeta); rows are exact.
    The plan is extended only out to the largest |rho| with a nonzero
    spatial coefficient, each g is evaluated once per midpoint, and an
    application costs one gather and one scatter per entry of every row up
    to the last occupied one, in passes of lattice.BLOCK entries through
    buffers every plan shares.  Fourier multipliers and function symbols are
    the 1-term cases.  A zeta-free term (g = 1, as Symbol.from_function
    builds it, marked through conj_flip) adds its row coefficient with no
    midpoint gather and no multiply.
  * general   - an arbitrary vectorized evaluator fn(X1, X2, Z1, Z2); it
    reads the whole plan grouped by midpoint (one more int32 per entry) and
    costs one evaluation of a(., zeta) per midpoint, in batches of at most
    2^15 samples; intended for grids up to 64^2.  A symbol declared even in
    zeta (Symbol.general(..., even=True), as goodvar's pointwise symbols
    are) costs one evaluation and one x2 product per pair +-s of midpoints;
    the midpoints of every plan checked (6^2 to 32^2, chi -1 to -3, every
    eta box) come in such pairs.  Either way the entries are summed in the
    plan's midpoint order, so the sums do not change with the declaration.
    Each entry needs atilde(rho, zeta) only for rho in the plan's box
    |rho_i| <= R, so the samples are transformed in x by a DFT over that
    box alone: one real matrix product over x2 per part of the batch (real
    samples stay real; a part that vanishes on the batch is skipped)
    against the table E[x, r] = e^{-ixr}, r in [-R, R], that the plan
    keeps, then per entry one dot product over x1 at its (midpoint, rho1,
    rho2).  At 12^2 the K = 3 plan has R = 3 (R = 4 at K = 5): its 264
    midpoints (132 pairs) take 12 x 7 values each from the x2 product, and
    its 816 entries one 12-term dot product each.

Symbol frequencies xi - eta outside the grid rectangle are treated as zero
rows (a discretization truncation; chi suppresses that region anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericAbortError
from .fields import (R_OUT, FourierField, Grid, TWO_PI, analyze, bump, dealias, fit_line,
                     l2_norm, lp_project, product_exact, random_field, synthesize)
from .lattice import BLOCK, coords, flat, plan_cache, row_blocks, shift_perms

_FOUR_PI2 = (2.0 * np.pi) ** 2


@dataclass(frozen=True)
class ParadiffConfig:
    """chi_exponent: the cutoff chi = phi_{<= chi_exponent}.

    The faithful value is -20; at that exponent every paraproduct vanishes
    on desk-scale grids (|xi - eta| >= 1 forces |xi + eta| >~ 2^20), so
    experiments default to passing chi_exponent=-2 explicitly and every
    report records the exponent in effect.  ``row_tol`` optionally drops
    symbol rows with relative weight below it (0 keeps exactness; 1 or more
    would drop every row).  A separable apply walks every plan row up to the
    last one it keeps, so dropping rows shortens the walk only when they are
    the trailing ones; dropped rows inside the walk add exact zeros.
    """

    chi_exponent: int = -20
    row_tol: float = 0.0

    def __post_init__(self):
        # a NaN fails every comparison, so each range check rejects it
        if not -math.inf < self.chi_exponent <= -1:
            raise ConfigError(f"chi_exponent must be finite and <= -1, got {self.chi_exponent!r}")
        if not 0.0 <= self.row_tol < 1.0:
            raise ConfigError(f"row_tol must be in [0, 1), got {self.row_tol!r}")

    def chi(self, ratio):
        return bump(np.asarray(ratio, float) / 2.0 ** self.chi_exponent)


EXPERIMENT_CHI = -2  # desk-scale default used by drivers and experiments
ZETA_STEP = 0.25     # the central-difference step in zeta, on the half-lattice


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableTerm:
    """One product term spatial(x) * gz(zeta); spatial None means 1."""

    spatial: FourierField | None
    gz: object                      # callable (Z1, Z2) -> values
    dgz: tuple | None = None        # exact (d/dz1, d/dz2) callables


class Symbol:
    """A symbol a(x, zeta), |zeta| > 1/2, with declared order."""

    def __init__(self, order, terms=None, fn=None, name="", even=False):
        if (terms is None) == (fn is None):
            raise ConfigError("exactly one of terms / fn must be given")
        self.order = float(order)
        self.terms = terms
        self.fn = fn
        self.name = name
        self.even = even
        self._samples = None   # separable: the synthesized spatial factors

    # -- constructors --------------------------------------------------------
    @classmethod
    def multiplier(cls, gz, order, dgz=None, name=""):
        """x-independent symbol a(zeta) = gz(Z1, Z2)."""
        return cls(order, terms=[SeparableTerm(None, gz, dgz)], name=name)

    @classmethod
    def constant(cls, value, name="const"):
        v = complex(value)
        return cls.multiplier(lambda z1, z2: np.full(np.broadcast(z1, z2).shape, v),
                              0.0, dgz=(_zero_fn, _zero_fn), name=name)

    @classmethod
    def from_function(cls, field: FourierField, order=0.0, name=""):
        """zeta-independent symbol a(x) given by a field."""
        return cls(order, terms=[SeparableTerm(field, _one_fn, (_zero_fn, _zero_fn))],
                   name=name)

    @classmethod
    def separable(cls, terms, order, name=""):
        return cls(order, terms=list(terms), name=name)

    @classmethod
    def general(cls, fn, order, name="", even=False):
        """The symbol a = fn(X1, X2, Z1, Z2), evaluated by fn alone.

        ``even=True`` promises a(x, -zeta) == a(x, zeta) bit for bit, as
        for a function of zeta through quadratic forms in it: weyl_apply
        then samples and transforms one midpoint of each +-s pair of its
        plan.  The symbol algebra builds its general symbols with the
        default False, which is always correct."""
        return cls(order, fn=fn, name=name, even=even)

    @property
    def is_separable(self):
        return self.terms is not None

    # -- evaluation ----------------------------------------------------------
    def _spatial_at(self, X1, X2):
        """Each term's spatial factor at the grid points x (1.0 for none),
        read through grid_index; the factors are synthesized once per symbol."""
        if self._samples is None:
            self._samples = [None if t.spatial is None else synthesize(t.spatial)
                             for t in self.terms]
        for s in self._samples:
            yield 1.0 if s is None else s[grid_index(X1, X2, s.shape[0])]

    def eval(self, X1, X2, Z1, Z2):
        """a(x, zeta) at grid points x, broadcasting x-arrays against
        zeta-arrays; the x-arrays may hold any subset of the grid."""
        if self.is_separable:
            out = 0.0
            for t, s in zip(self.terms, self._spatial_at(X1, X2)):
                g = np.asarray(t.gz(Z1, Z2), dtype=np.complex128)
                out = out + s * g
            return np.asarray(out, dtype=np.complex128) + np.zeros(
                np.broadcast(X1 * 0.0, Z1 * 0.0).shape, np.complex128)
        return np.asarray(self.fn(X1, X2, Z1, Z2), dtype=np.complex128)

    def dzeta(self, X1, X2, Z1, Z2):
        """(d a/d zeta1, d a/d zeta2): exact for a separable symbol whose
        terms all carry gradient callbacks, zeta_difference otherwise."""
        if self.is_separable and all(t.dgz is not None for t in self.terms):
            d1 = 0.0
            d2 = 0.0
            for t, s in zip(self.terms, self._spatial_at(X1, X2)):
                d1 = d1 + s * np.asarray(t.dgz[0](Z1, Z2), np.complex128)
                d2 = d2 + s * np.asarray(t.dgz[1](Z1, Z2), np.complex128)
            return d1, d2
        at = lambda w1, w2: self.eval(X1, X2, w1, w2)
        return zeta_difference(at, 0, Z1, Z2), zeta_difference(at, 1, Z1, Z2)

    # -- algebra --------------------------------------------------------------
    def __mul__(self, scalar):
        s = complex(scalar)
        if self.is_separable:
            terms = [SeparableTerm(t.spatial, _scale_fn(t.gz, s),
                                   _scale_pair(t.dgz, s)) for t in self.terms]
            return Symbol(self.order, terms=terms, name=self.name)
        fn = lambda X1, X2, Z1, Z2: s * self.fn(X1, X2, Z1, Z2)
        return Symbol.general(fn, self.order, name=self.name)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.is_separable and other.is_separable:
            return Symbol(max(self.order, other.order),
                          terms=list(self.terms) + list(other.terms))
        fn = lambda X1, X2, Z1, Z2: (self.eval(X1, X2, Z1, Z2)
                                     + other.eval(X1, X2, Z1, Z2))
        return Symbol.general(fn, max(self.order, other.order))

    def __sub__(self, other):
        return self + (other * (-1.0))

    def product(self, other):
        """Pointwise product symbol (ab)(x, zeta)."""
        if self.is_separable and other.is_separable:
            terms = []
            for t in self.terms:
                for u in other.terms:
                    terms.append(SeparableTerm(
                        _spatial_product(t.spatial, u.spatial),
                        _prod_fn(t.gz, u.gz),
                        _prod_dgz(t, u)))
            return Symbol(self.order + other.order, terms=terms,
                          name=f"({self.name})*({other.name})")
        fn = lambda X1, X2, Z1, Z2: (self.eval(X1, X2, Z1, Z2)
                                     * other.eval(X1, X2, Z1, Z2))
        return Symbol.general(fn, self.order + other.order,
                              name=f"({self.name})*({other.name})")

    def conj_flip(self):
        """a'(y, zeta) = conj(a(y, -zeta)) (the conjugation-identity symbol)."""
        if self.is_separable:
            terms = []
            for t in self.terms:
                sp = None if t.spatial is None else _conj_field(t.spatial)
                gz = _conj_flip_fn(t.gz)
                dgz = None
                if t.dgz is not None:
                    dgz = (_conj_flip_fn(t.dgz[0], negate=True),
                           _conj_flip_fn(t.dgz[1], negate=True))
                terms.append(SeparableTerm(sp, gz, dgz))
            return Symbol(self.order, terms=terms, name=f"conj({self.name})")
        fn = lambda X1, X2, Z1, Z2: np.conj(self.fn(X1, X2, -np.asarray(Z1),
                                                    -np.asarray(Z2)))
        return Symbol.general(fn, self.order, name=f"conj({self.name})")


def grid_index(X1, X2, m):
    """The index pair of the M x M grid points x = (X1, X2): the one rule by
    which both kinds of symbol read their x-dependent data."""
    return (np.rint(X1 * (m / TWO_PI)).astype(np.intp) % m,
            np.rint(X2 * (m / TWO_PI)).astype(np.intp) % m)


def _zero_fn(z1, z2):
    return np.zeros(np.broadcast(z1, z2).shape)


def _one_fn(z1, z2):
    """The zeta-factor 1: a term carrying it is read without a gather."""
    return np.ones(np.broadcast(z1, z2).shape)


def _scale_fn(g, s):
    return lambda z1, z2: s * np.asarray(g(z1, z2), np.complex128)


def _scale_pair(dgz, s):
    if dgz is None:
        return None
    return (_scale_fn(dgz[0], s), _scale_fn(dgz[1], s))


def _prod_fn(g, h):
    return lambda z1, z2: (np.asarray(g(z1, z2), np.complex128)
                           * np.asarray(h(z1, z2), np.complex128))


def _prod_dgz(t, u):
    if t.dgz is None or u.dgz is None:
        return None
    return (lambda z1, z2: t.dgz[0](z1, z2) * u.gz(z1, z2) + t.gz(z1, z2) * u.dgz[0](z1, z2),
            lambda z1, z2: t.dgz[1](z1, z2) * u.gz(z1, z2) + t.gz(z1, z2) * u.dgz[1](z1, z2))


def _spatial_product(f, g):
    if f is None:
        return g
    if g is None:
        return f
    prod = synthesize(f) * synthesize(g)
    return analyze(prod, f.grid)


def _conj_field(f):
    samples = np.conj(synthesize(f))
    return analyze(samples, f.grid)


def _conj_flip_fn(g, negate=False):
    if g is _zero_fn or (g is _one_fn and not negate):
        return g   # real and even: the marks survive the flip
    s = -1.0 if negate else 1.0
    return lambda z1, z2: s * np.conj(np.asarray(
        g(-np.asarray(z1), -np.asarray(z2)), np.complex128))


# ---------------------------------------------------------------------------
# the chi-support plan
# ---------------------------------------------------------------------------

_SAMPLES = 1 << 15  # symbol samples (midpoints x M^2) per general-path batch


def _guard_zeta(z_abs_sq):
    if np.any(z_abs_sq <= 0.25):
        raise ConfigError("symbol evaluation requested at |zeta| <= 1/2 "
                          "inside the chi support")


class _ChiPlans:
    """The chi-support plans of one grid size and chi exponent, one per eta
    box, with the index tables and the support bound they share.

    chi(|rho| / |xi + eta|) > 0 needs the integer |xi + eta|^2 above c
    |rho|^2, c = (2^-chi_exponent / R_OUT)^2 (the bump's support): per plan
    row, chi is 0 for certain at or below ``lower``, the floor of c |rho|^2
    scaled by 1 - 1e-9 for the rounding of the float ratio."""

    def __init__(self, m, chi_exponent):
        self.m = m
        self.chi_fn = ParadiffConfig(chi_exponent).chi
        self.k1, self.k2 = coords(m)
        self.sums = coords(2 * m - 1)                    # midpoint id -> s = xi + eta
        self.origin = int(flat((0, 0), m))
        rsq = self.k1 ** 2 + self.k2 ** 2
        self.rows = np.argsort(rsq, kind="stable")      # centered flat rho, plan order
        self.row_sq = rsq[self.rows]
        c = (2.0 ** -chi_exponent / R_OUT) ** 2 * (1.0 - 1e-9)
        # |xi + eta|^2 <= 2 (m - 2)^2 < 2 m^2: a bound at or above it keeps no pair
        self.lower = np.minimum(np.floor(c * self.row_sq), 2 * m * m).astype(np.int32)
        self._boxes = {}

    def box(self, radius):
        """The plan of the pairs with |eta|_inf <= radius, built on first use."""
        if radius not in self._boxes:
            self._boxes[radius] = _ChiPlan(self, radius)
        return self._boxes[radius]

    def covering(self, fc):
        """The plan of the smallest eta box holding the support of the
        centered flat coefficients fc; the full plan at most."""
        nz = np.flatnonzero(fc)
        radius = max(np.abs(self.k1[nz]).max(initial=0), np.abs(self.k2[nz]).max(initial=0))
        return self.box(min(int(radius), self.m // 2 - 1))


_PASS = []   # the walk buffers, [work, eta], once allocated


def _pass_buffers():
    """(work, eta): four complex and one int32 buffer of at least BLOCK
    entries, which every walk over the plans of every grid reuses, so no two
    walks may run at once.  Allocated on first use, and again if BLOCK has
    grown since."""
    if not _PASS or len(_PASS[1]) < BLOCK:
        _PASS[:] = [np.empty((4, BLOCK), np.complex128), np.empty(BLOCK, np.int32)]
    return _PASS


class _ChiPlan:
    """The chi support on an M x M grid for inputs supported in the eta box
    |eta|_inf <= K, shared by both application paths.

    One entry per pair (xi, eta) with |eta|_inf <= K <= M // 2 - 1, xi off
    the Nyquist rows, rho = xi - eta on the grid, xi + eta != 0 and
    chi(|rho| / |xi + eta|) > 0: int32 flat indices of xi and rho in the
    centered M-box, the int32 flat index (the midpoint id) of the sum s = xi
    + eta in the centered (2M-1)-box, and float64 chi.  Entries run row by
    row, rows in increasing |rho|, with row k at entries [row_start[k],
    row_start[k+1]) in the lex order of eta (and so of xi).  A K-plan is
    thus the order-preserving subsequence |eta|_inf <= K of the full plan,
    K = M // 2 - 1, and an input whose coefficients vanish off the box gets
    the full plan's sums from it: each skipped entry adds an exact zero.
    ``extend`` builds rows only as far as a call needs, and chi is evaluated
    nowhere else.  It walks the new rows twice, a block of rows at a time:
    a count pass counts the pairs above the integer lower bound of
    _ChiPlans, then a fill pass evaluates chi on them and writes the kept
    entries one after another into arrays allocated once at that count (a
    thin band of pairs with chi = 0 is the only slack), so a build peaks
    near the finished plan plus one block.  The separable path walks the
    rows as one contiguous prefix of the entry arrays, in passes of BLOCK
    entries; ``by_midpoint`` groups the whole plan by midpoint with one
    int32 permutation for the general path.
    """

    def __init__(self, plans, radius):
        self.radius = radius
        self.etas = np.arange(-radius, radius + 1, dtype=np.int32)   # eta_i in the box
        self.m, self.chi_fn, self.origin = plans.m, plans.chi_fn, plans.origin
        self.lower = plans.lower
        self.k1, self.k2, self.sums = plans.k1, plans.k2, plans.sums
        self.rows, self.row_sq = plans.rows, plans.row_sq
        self.row_start = np.zeros(1, np.int64)           # entries of row k: [start[k], start[k+1])
        self.xi = np.zeros(0, np.int32)
        self.rho = np.zeros(0, np.int32)
        self.mid = np.zeros(0, np.int32)
        self.chi = np.zeros(0)
        # first plan row that reaches each midpoint (m * m: none yet)
        self.mid_row = np.full(len(self.sums[0]), self.m * self.m, np.int32)
        self._by_mid = None

    def extend(self, rho_sq):
        """Build every row with |rho|^2 <= rho_sq; return that row count."""
        n = int(np.searchsorted(self.row_sq, rho_sq, side="right"))
        built = len(self.row_start) - 1
        if n <= built:
            return n
        blocks = list(row_blocks(n - built, len(self.etas) ** 2))
        old = int(self.row_start[-1])
        size = old + sum(int(np.count_nonzero(self._pairs(np.arange(built + lo, built + hi))))
                         for lo, hi in blocks)
        for name in ("xi", "rho", "mid", "chi"):
            whole = np.empty(size, getattr(self, name).dtype)
            whole[:old] = getattr(self, name)
            setattr(self, name, whole)
        self.row_start = np.concatenate((self.row_start, np.empty(n - built, np.int64)))
        at = old
        for lo, hi in blocks:
            ks = np.arange(built + lo, built + hi, dtype=np.int32)
            b, i1, i2 = np.nonzero(self._pairs(ks))
            rho = self.rows[ks[b]]
            r1, r2 = self.k1[rho], self.k2[rho]
            chi = self.chi_fn(np.hypot(r1, r2)
                              / np.hypot(2 * self.etas[i1] + r1, 2 * self.etas[i2] + r2))
            keep = chi > 0.0
            b, rho, e1, e2 = b[keep], rho[keep], self.etas[i1[keep]], self.etas[i2[keep]]
            x1, x2 = e1 + self.k1[rho], e2 + self.k2[rho]
            s1, s2 = x1 + e1, x2 + e2
            _guard_zeta(0.25 * (s1 * s1 + s2 * s2))
            mid = flat(np.stack((s1, s2), axis=-1), 2 * self.m - 1)
            np.minimum.at(self.mid_row, mid, ks[b])
            e = slice(at, at + len(b))
            self.xi[e] = flat(np.stack((x1, x2), axis=-1), self.m)
            self.rho[e] = rho
            self.mid[e] = mid
            self.chi[e] = chi[keep]
            self.row_start[built + lo + 1:built + hi + 1] = at + np.cumsum(
                np.bincount(b, minlength=len(ks)))
            at = e.stop
        for name in ("xi", "rho", "mid", "chi"):
            setattr(self, name, getattr(self, name)[:at])
        return n

    def _pairs(self, ks):
        """The pairs (row, eta1, eta2) of the plan rows ks and the eta box
        with xi off the Nyquist rows and |xi + eta|^2 above the lower bound,
        as a mask."""
        k = self.etas
        r1 = self.k1[self.rows[ks]].astype(np.int32)[:, None, None]
        r2 = self.k2[self.rows[ks]].astype(np.int32)[:, None, None]
        s1, s2 = 2 * k[:, None] + r1, 2 * k[None, :] + r2
        # xi = rho + eta off the Nyquist rows, which stay 0
        half = self.m // 2
        return ((np.abs(k[:, None] + r1) < half) & (np.abs(k[None, :] + r2) < half)
                & (s1 * s1 + s2 * s2 > self.lower[ks][:, None, None]))

    def zeta(self, ids):
        """The midpoints zeta = s / 2 of midpoint ids."""
        return 0.5 * self.sums[0][ids], 0.5 * self.sums[1][ids]

    def by_midpoint(self):
        """The whole plan grouped by midpoint: (perm, start, ids, table, rep),
        the entries perm[start[j]:start[j+1]] sharing midpoint ids[j], the
        DFT table of the plan's rho box (_dft_table), and the representative
        rep[j] of each midpoint: the position in ids of the larger id of the
        pair {s, -s}, or j when -s is not a midpoint of the plan.  Built
        once per plan."""
        if self._by_mid is None:
            self.extend(np.inf)
            counts = np.bincount(self.mid, minlength=len(self.mid_row))
            ids = np.flatnonzero(counts)
            used = self.rows[np.flatnonzero(np.diff(self.row_start))]
            radius = max(np.abs(self.k1[used]).max(initial=0), np.abs(self.k2[used]).max(initial=0))
            # the id of -s in the centered (2M-1)-box, and its position in ids
            mirror = len(self.mid_row) - 1 - ids
            at = np.minimum(np.searchsorted(ids, mirror), len(ids) - 1)
            j = np.arange(len(ids))
            rep = np.where(ids[at] == mirror, np.maximum(j, at), j)
            self._by_mid = (np.argsort(self.mid, kind="stable").astype(np.int32),
                            np.concatenate(([0], np.cumsum(counts[ids]))), ids,
                            _dft_table(self.m, int(radius)), rep)
        return self._by_mid

    def accumulate(self, out, e, w, fc, extra_weight, divisor=1.0):
        """out[xi] += w chi [extra] fhat(eta) / divisor over the entries e, at
        most BLOCK of them; w (which may be work[0] of _pass_buffers) is
        overwritten, and work[1] and work[2] are written.

        A complex product takes its gathered operand first: numpy elides a
        temporary operand of 256 KiB or more by multiplying into it in
        place, operands swapped, and numpy's complex product rounds
        differently with its operands swapped.  Nor does a complex product
        write over one of its operands: numpy's one-element complex product
        in place skips its SIMD loop and rounds without FMA, so a one-entry
        pass would round unlike the same entry in a longer pass.  (The
        product by the real chi rounds alike in every loop.)"""
        work, buf = _pass_buffers()
        xi, rho = self.xi[e], self.rho[e]
        np.multiply(w, self.chi[e], out=w)
        if extra_weight is not None:
            x1, x2 = self.k1[xi].astype(float), self.k2[xi].astype(float)
            r1, r2 = self.k1[rho].astype(float), self.k2[rho].astype(float)
            w = np.multiply(extra_weight(x1, x2, r1, r2, x1 - 0.5 * r1, x2 - 0.5 * r2), w)
        eta = np.subtract(xi, rho, out=buf[:len(w)])
        eta += self.origin
        # np.take: the int32 plan indices are not converted as [] would
        v = np.multiply(np.take(fc, eta, out=work[2, :len(w)], mode="clip"), w,
                        out=work[1, :len(w)])
        if divisor != 1.0:
            v /= divisor
        np.add.at(out, xi, v)   # in entry order: no reassociation across passes


# the Weyl calculus alternates between two grid sizes in a run (a symbol
# build and an operator audit); each grid's plans are one cache entry
@plan_cache
def _plans(m, chi_exponent):
    """The cached chi-support plans for grid size m and chi exponent."""
    return _ChiPlans(m, chi_exponent)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def weyl_apply(a: Symbol, f: FourierField, cfg: ParadiffConfig,
               extra_weight=None) -> FourierField:
    """Apply T_a to f.  ``extra_weight`` is an internal hook used by the
    explicit error kernels; it receives flat arrays
    (XI1, XI2, R1, R2, Z1, Z2) over the chi support."""
    m = f.grid.size
    centered, fft = shift_perms(m)
    fc = np.take(f.coeffs, centered)
    plan = _plans(m, cfg.chi_exponent).covering(fc)
    out = np.zeros(m * m, np.complex128)
    if a.is_separable:
        _apply_rows(a, f.grid, cfg, plan, out, fc, extra_weight)
    else:
        _apply_midpoints(a, f.grid, plan, out, fc, extra_weight)
    out[plan.origin] = 0.0  # xi = 0 convention
    return FourierField(f.grid, np.take(out, fft).reshape(m, m))


def _apply_rows(a, grid, cfg, plan, out, fc, extra_weight):
    """Separable symbols: the entries of every row up to the last one some
    term occupies, with weight sum_t (shat_t(rho) / 4 pi^2) g_t(zeta)."""
    m = grid.size
    coefs = np.zeros((len(a.terms), m * m), np.complex128)
    for c, term in zip(coefs, a.terms):
        if term.spatial is None:
            c[(m // 2) * m + m // 2] = 1.0
            continue
        if term.spatial.grid != grid:
            raise ConfigError("symbol spatial factor lives on a different grid")
        sc = np.take(term.spatial.coeffs, shift_perms(m)[0])
        tol = cfg.row_tol * np.max(np.abs(sc)) if cfg.row_tol else 0.0
        kept = np.abs(sc) > tol
        c[kept] = sc[kept] / _FOUR_PI2
    active = np.flatnonzero(np.any(coefs != 0.0, axis=0)[plan.rows])
    if not len(active):
        return
    n = plan.extend(plan.row_sq[active[-1]])
    # a zeta-free term (factor _one_fn) reads no midpoint values
    gz = [None if term.gz is _one_fn else np.zeros(len(plan.mid_row), np.complex128)
          for term in a.terms]
    if any(g is not None for g in gz):
        live = np.flatnonzero(plan.mid_row < n)
        z1, z2 = plan.zeta(live)
        for g, term in zip(gz, a.terms):
            if g is not None:
                g[live] = term.gz(z1, z2)
    # slices, not gathers: the inactive rows inside the prefix add exact zeros
    end = int(plan.row_start[active[-1] + 1])
    work = _pass_buffers()[0]
    for lo in range(0, end, BLOCK):
        e = slice(lo, min(lo + BLOCK, end))
        rho, mid = plan.rho[e], plan.mid[e]
        # no complex product writes over an operand (see accumulate)
        w, t, u, p = work[:, :len(rho)]
        if gz[0] is None:
            np.take(coefs[0], rho, out=w, mode="clip")
        else:
            np.multiply(np.take(gz[0], mid, out=t, mode="clip"),
                        np.take(coefs[0], rho, out=u, mode="clip"), out=w)
        for c, g in zip(coefs[1:], gz[1:]):
            term = np.take(c, rho, out=t, mode="clip")
            if g is not None:
                term = np.multiply(term, np.take(g, mid, out=u, mode="clip"), out=p)
            w += term
        plan.accumulate(out, e, w, fc, extra_weight)


def _apply_midpoints(a, grid, plan, out, fc, extra_weight):
    """General symbols: a(x, zeta) sampled by the symbol's own evaluator on
    batches of midpoints, and each entry's atilde(rho, zeta) taken by the
    DFT over the plan's rho box (_box_dft).

    The walk samples and transforms in x2 the distinct representatives of
    by_midpoint (one per +-s pair for a symbol declared even in zeta, every
    midpoint otherwise), each serving the entries of the midpoints it
    represents, each entry contracted over x1 with its own rho.  A
    midpoint's weights depend neither on its batch (batches are padded, see
    _box_dft) nor on the walk's order, so they go into a store of one weight
    per plan entry, in chunks of BLOCK entries, and each chunk is
    accumulated as one pass once it and every chunk before it are full: the
    sums are bit for bit the same for a symbol declared even or not.
    Samples are walked in the order of the first midpoint each serves, so
    an even symbol holds only its upper half's weights (16 bytes an entry)
    until the walk ends, and an undeclared one a chunk or two, and a chunk
    is freed once accumulated: on the full 64^2 plan (numpy 2.4.6, fresh
    processes) the walk peaked 34 MB (even) and 10 MB (undeclared) above the
    plan, and one weight array, every entry's 16 bytes resident by the
    walk's end, 54 and 48 MB.  (A stable argsort and bincount group the
    samples: np.unique without return_index, return_inverse or
    return_counts imports numpy.ma, a megabyte more peak RSS.)"""
    m = grid.size
    perm, start, ids, table, rep = plan.by_midpoint()
    radius = table.shape[1] // 2
    X1, X2 = grid.x()
    n = len(ids)
    if not a.even:
        rep = np.arange(n)
    # the midpoints served[at[i]:at[i+1]] share the sample at rep[walk[i]],
    # walk[i] the first of them; samples are walked in that first one's order
    first = np.full(n, n)
    np.minimum.at(first, rep, np.arange(n))
    key = first[rep]
    served = np.argsort(key, kind="stable")
    size = np.bincount(key, minlength=n)
    walk = np.flatnonzero(size)
    at = np.concatenate(([0], np.cumsum(size[walk])))
    store = {}   # chunk k: the weights of the entries perm[k * BLOCK:(k + 1) * BLOCK]
    left = np.diff(np.append(np.arange(0, len(perm), BLOCK), len(perm)))   # entries to weigh, per chunk
    done = 0     # chunks accumulated
    step = max(1, _SAMPLES // (m * m))
    for j in range(0, len(walk), step):
        j2 = min(j + step, len(walk))
        z1, z2 = plan.zeta(ids[rep[walk[j:j2]]])
        vals = np.broadcast_to(a.fn(X1[None], X2[None], z1[:, None, None], z2[:, None, None]),
                               (j2 - j, m, m))
        if j2 - j < step:   # zero samples pad the batch: see _box_dft
            vals = np.concatenate((vals, np.zeros((step - (j2 - j), m, m))))
        q = served[at[j]:at[j2]]
        counts = start[q + 1] - start[q]
        pos = np.repeat(start[q] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        mid = np.repeat(np.repeat(np.arange(j2 - j), size[walk[j:j2]]), counts)
        rho = plan.rho[perm[pos]]
        w = _box_dft(vals, table, mid, plan.k1[rho] + radius, plan.k2[rho] + radius)
        # w = 0.0 when a(., zeta) = 0 on the whole batch
        w = np.broadcast_to(w * (TWO_PI / m) ** 2, pos.shape)
        chunk = pos // BLOCK
        for k in np.flatnonzero(np.bincount(chunk)):
            sel = chunk == k
            if k not in store:
                store[k] = np.empty(min(BLOCK, len(perm) - k * BLOCK), np.complex128)
            store[k][pos[sel] - k * BLOCK] = w[sel]
        left -= np.bincount(chunk, minlength=len(left))
        while done < len(left) and not left[done]:   # the complete chunks, in plan order
            e = perm[done * BLOCK:(done + 1) * BLOCK]
            plan.accumulate(out, e, store.pop(done), fc, extra_weight, _FOUR_PI2)
            done += 1


def _dft_table(m, radius):
    """E[x, r] = e^{-ixr} at the M grid points x = 2 pi n / M, for r in
    [-radius, radius] (column r + radius); the phase n r is reduced mod M in
    integers first."""
    nr = np.arange(m)[:, None] * np.arange(-radius, radius + 1) % m
    return np.exp(-1j * (TWO_PI / m) * nr)


def _box_dft(vals, table, mid, c1, c2):
    """sum_x vals[mid, x] e^{-i rho . x} per entry, rho = (c1, c2) - R read as
    columns of table (_dft_table of radius R), for samples vals[b, x1, x2].

    Each part of vals (the real and imaginary parts of complex samples, real
    samples whole; a part that is zero on the whole batch is skipped) takes
    one real matrix product over x2 against the table's interleaved real and
    imaginary columns, viewed back as complex; then each entry contracts its
    (mid, :, c2) row over x1 with E[:, c1].  Returns 0.0 when every part is
    zero.

    The product's rows round alike in every call of one shape, but BLAS
    (OpenBLAS) takes another kernel for small products, which rounds the
    last columns otherwise; so _apply_midpoints passes every batch of a walk
    with the same number of samples, a short one padded with zeros, and a
    midpoint's values do not depend on the batch it falls in."""
    nb, m = vals.shape[0], vals.shape[-1]
    e1 = table.T[c1]
    parts = ((vals.real, 1.0), (vals.imag, 1j)) if np.iscomplexobj(vals) else ((vals, 1.0),)
    w = 0.0
    for part, unit in parts:
        if part.any():
            t = (part.reshape(-1, m) @ table.view(np.float64)).view(np.complex128)
            w = w + unit * np.einsum("ij,ij->i", t.reshape(nb, m, -1)[mid, :, c2], e1)
    return w


# ---------------------------------------------------------------------------
# Poisson bracket, symbol norms
# ---------------------------------------------------------------------------

def zeta_difference(fn, axis, Z1, Z2):
    """The central difference of fn(Z1, Z2) in zeta_{axis+1} at step ZETA_STEP
    (exact on polynomials of degree <= 2 in zeta)."""
    h = ZETA_STEP
    if axis == 0:
        return (fn(Z1 + h, Z2) - fn(Z1 - h, Z2)) / (2 * h)
    return (fn(Z1, Z2 + h) - fn(Z1, Z2 - h)) / (2 * h)


def poisson_bracket(a: Symbol, b: Symbol) -> Symbol:
    """{a, b} = grad_x a . grad_zeta b - grad_zeta a . grad_x b.

    x-derivatives are exact in Fourier.  Only separable terms carry exact
    zeta-gradients: when every term of both symbols has them the result
    stays separable; otherwise zeta-derivatives come from Symbol.dzeta
    (zeta_difference, exact where a separable factor has callbacks).
    """
    if a.is_separable and b.is_separable and \
            all(t.dgz is not None for t in a.terms) and \
            all(t.dgz is not None for t in b.terms):
        terms = []
        for t in a.terms:
            for u in b.terms:
                for axis in (0, 1):
                    # grad_x a . grad_zeta b term (skipped when either factor
                    # is identically zero: constants in x, functions in zeta)
                    if t.spatial is not None and u.dgz[axis] is not _zero_fn:
                        sp = _spatial_product(_spatial_derivative(t.spatial, axis),
                                              u.spatial)
                        terms.append(SeparableTerm(sp, _prod_fn(t.gz, u.dgz[axis]), None))
                    if u.spatial is not None and t.dgz[axis] is not _zero_fn:
                        sp = _spatial_product(t.spatial,
                                              _spatial_derivative(u.spatial, axis))
                        terms.append(SeparableTerm(sp, _scale_fn(_prod_fn(t.dgz[axis], u.gz), -1.0), None))
        if not terms:
            return Symbol.constant(0.0, name=f"{{{a.name},{b.name}}}")
        return Symbol(a.order + b.order - 1.0, terms=terms,
                      name=f"{{{a.name},{b.name}}}")

    def fn(X1, X2, Z1, Z2):
        m = X1.shape[-1]
        grid_fft = lambda V: np.fft.fft2(V, axes=(-2, -1))
        grid_ifft = lambda V: np.fft.ifft2(V, axes=(-2, -1))
        k = np.fft.fftfreq(m, 1.0 / m)
        K1f, K2f = np.meshgrid(k, k, indexing="ij")
        A = a.eval(X1, X2, Z1, Z2)
        B = b.eval(X1, X2, Z1, Z2)
        Ah = grid_fft(A + np.zeros_like(X1, np.complex128))
        Bh = grid_fft(B + np.zeros_like(X1, np.complex128))
        dxA = (grid_ifft(1j * K1f * Ah), grid_ifft(1j * K2f * Ah))
        dxB = (grid_ifft(1j * K1f * Bh), grid_ifft(1j * K2f * Bh))
        dzA = a.dzeta(X1, X2, Z1, Z2)
        dzB = b.dzeta(X1, X2, Z1, Z2)
        return (dxA[0] * dzB[0] + dxA[1] * dzB[1]
                - dzA[0] * dxB[0] - dzA[1] * dxB[1])

    return Symbol.general(fn, a.order + b.order - 1.0, name=f"{{{a.name},{b.name}}}")


def _spatial_derivative(f, axis):
    if f is None:
        return None
    k1, k2 = f.grid.freqs()
    mult = 1j * (k1 if axis == 0 else k2)
    return FourierField(f.grid, mult * f.coeffs)


@dataclass
class SymbolNormReport:
    order: float
    differentiability: int
    value: float
    n_samples: int
    description: str


def zeta_arrays(zeta_samples):
    """The zeta samples, all with |zeta| > 1/2, as two (n, 1, 1) arrays: one
    call against the (M, M) grid arrays samples a symbol at all of them."""
    if any(z1 * z1 + z2 * z2 <= 0.25 for z1, z2 in zeta_samples):
        raise ConfigError("zeta samples must satisfy |zeta| > 1/2")
    return tuple(np.array([z[i] for z in zeta_samples], float).reshape(-1, 1, 1)
                 for i in (0, 1))


def sampled_norm(values, l, zeta_samples) -> float:
    """max over the zeta samples of <zeta>^{-l} ||values(., zeta)||_{L^2_x}.

    ``values``, shape (len(zeta_samples), M, M), holds one function on the
    full grid at every zeta sample.  A sample norm that is not finite (NaN
    or inf) raises NumericAbortError naming its zeta sample."""
    dx_quad = (TWO_PI / values.shape[-1]) ** 2
    best = 0.0
    for (w1, w2), v in zip(zeta_samples, values):
        weight = math.sqrt(1.0 + w1 * w1 + w2 * w2) ** -l
        norm = weight * math.sqrt(float(np.sum(np.abs(v) ** 2)) * dx_quad)
        if not math.isfinite(norm):
            raise NumericAbortError(f"sample norm {norm} at zeta = ({w1!r}, {w2!r})")
        best = max(best, norm)
    return best


def symbol_norm(a: Symbol, l, r, zeta_samples, grid: Grid) -> SymbolNormReport:
    """Sampled symbol-class norm: a lower bound for

        sup_{|alpha|+|beta| <= r} sup_{|zeta| > 1/2}
        <zeta>^{-l} || <zeta>^{|beta|} d^beta_zeta d^alpha_x a ||_{L^2_x}.

    x-derivatives are exact in Fourier, zeta-derivatives repeated
    zeta_differences; each derivative part is measured by sampled_norm at
    order l - |beta|, so a part that is not finite at some zeta sample
    raises NumericAbortError and the running max only ever sees finite
    values.  Every zeta sample is evaluated in one broadcast call per
    derivative.
    """
    if r < 0:
        raise ConfigError("differentiability r must be >= 0")
    z1, z2 = zeta_arrays(zeta_samples)
    m = grid.size
    X1, X2 = grid.x()
    K1f, K2f = grid.freqs()
    # (|alpha|, (i K1)^alpha1 (i K2)^alpha2) for 1 <= |alpha| <= r, formed once
    mults = [(atot, (1j * K1f) ** a1 * (1j * K2f) ** (atot - a1))
             for atot in range(1, r + 1) for a1 in range(atot + 1)]

    def zderiv(beta, w1, w2):
        if beta == (0, 0):
            return a.eval(X1, X2, w1, w2)
        axis = 0 if beta[0] > 0 else 1
        lower = (beta[0] - 1, beta[1]) if axis == 0 else (0, beta[1] - 1)
        return zeta_difference(lambda v1, v2: zderiv(lower, v1, v2), axis, w1, w2)

    best = 0.0
    for btot in range(r + 1):
        for b1 in range(btot + 1):
            base = zderiv((b1, btot - b1), z1, z2)
            parts = [np.asarray(base, np.complex128) + np.zeros((z1.size, m, m), np.complex128)]
            if btot < r:     # x-derivatives left: one transform
                bh = np.fft.fft2(parts[0])
                parts += [np.fft.ifft2(mult * bh) for atot, mult in mults if atot <= r - btot]
            for part in parts:
                best = max(best, sampled_norm(part, l - btot, zeta_samples))
    return SymbolNormReport(l, r, best, len(zeta_samples),
                            f"sampled lower bound, grid {m}^2, {len(zeta_samples)} zeta pts")


# ---------------------------------------------------------------------------
# explicit error kernels and composition diagnostics
# ---------------------------------------------------------------------------

def error_kernel_apply(a: Symbol, b: Symbol, f: FourierField, side,
                       cfg: ParadiffConfig) -> FourierField:
    """The explicit second-order Taylor error kernels.

    side="left":  E(a,b) f with factor a(xi)  - a(zeta) - (xi-eta)/2 . grad a(zeta)
    side="right": E(b,a) f with factor a(eta) - a(zeta) + (xi-eta)/2 . grad a(zeta)

    ``a`` must be an x-independent symbol with exact gradient callbacks.
    """
    if not (a.is_separable and len(a.terms) == 1 and a.terms[0].spatial is None):
        raise ConfigError("error_kernel_apply needs an x-independent first symbol")
    t = a.terms[0]
    if t.dgz is None:
        raise ConfigError("error kernels need an exact gradient callback on the multiplier")
    if side not in ("left", "right"):   # checked here: an empty walk never weighs
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
    ga, dga1, dga2 = t.gz, t.dgz[0], t.dgz[1]

    def weight(XI1, XI2, R1, R2, Z1, Z2):
        az = ga(Z1, Z2)
        d1 = dga1(Z1, Z2)
        d2 = dga2(Z1, Z2)
        if side == "left":
            return ga(XI1, XI2) - az - 0.5 * (R1 * d1 + R2 * d2)
        return ga(XI1 - R1, XI2 - R2) - az + 0.5 * (R1 * d1 + R2 * d2)

    return weyl_apply(b, f, cfg, extra_weight=weight)


def compose_residual_field(a, b, f, cfg) -> FourierField:
    """(T_a T_b - T_{ab} - (i/2) T_{a,b}) f."""
    tatb = weyl_apply(a, weyl_apply(b, f, cfg), cfg)
    tab = weyl_apply(a.product(b), f, cfg)
    tbr = weyl_apply(poisson_bracket(a, b), f, cfg)
    return tatb - tab - (0.5j) * tbr


@dataclass
class CompositionReport:
    ks: list
    residuals: list
    slope: float
    expected: float
    chi_exponent: int
    exact_zero: bool

    def to_json(self):
        return {"ks": self.ks, "residuals": self.residuals, "slope": self.slope,
                "expected_slope": self.expected, "chi_exponent": self.chi_exponent,
                "exact_zero": self.exact_zero}


def composition_residual(a, b, l1, l2, ks, grid, cfg, seed=11) -> CompositionReport:
    """Per-band relative residual of the composition expansion and its
    log2 slope across the probe bands; expected slope <= l1 + l2 - 2."""
    if abs(l1) > 10 or abs(l2) > 10:
        raise ConfigError("composition bounds assume |l1|, |l2| <= 10")
    probe = random_field(grid, seed=seed, decay=0.0, mean_zero=True)
    rs = []
    for k in ks:
        pk = lp_project(probe, k)
        n0 = l2_norm(pk)
        if n0 == 0.0:
            raise ConfigError(f"probe band {k} empty on grid {grid.size}")
        res = compose_residual_field(a, b, pk, cfg)
        rs.append(l2_norm(res) / n0)
    exact = max(rs) <= 1e-13
    if exact:
        slope = -math.inf
    else:
        logs = np.log2(np.maximum(rs, 1e-300))
        slope = fit_line(ks, logs)[0]
    return CompositionReport(list(ks), rs, slope, l1 + l2 - 2.0,
                             cfg.chi_exponent, exact)


# ---------------------------------------------------------------------------
# paralinearization of products
# ---------------------------------------------------------------------------

def paralin_remainder(f: FourierField, g: FourierField, cfg: ParadiffConfig) -> FourierField:
    """H(f, g) = fg - T_f g - T_g f, symmetric in (f, g).

    The product is evaluated alias-free (zero-padded), so on every retained
    mode H carries exactly the kernel 1 - chi(|v|/|v+2w|) - chi(|w|/|2v+w|)
    against fhat(v) ghat(w)."""
    prod = product_exact(f, g)
    tfg = weyl_apply(Symbol.from_function(f), g, cfg)
    tgf = weyl_apply(Symbol.from_function(g), f, cfg)
    return prod - tfg - tgf


def paracomp_remainder(u: FourierField, h_coeffs, cfg: ParadiffConfig) -> FourierField:
    """E(u) = F(u) - T_{F'(u)} u for F(z) = z + sum_k h_coeffs[k] z^k (k >= 3)."""
    us = synthesize(u)
    F = us.copy()
    Fp = np.ones_like(us)
    for k, c in h_coeffs.items():
        if k < 3:
            raise ConfigError("the composition wrapper needs h(z) = O(z^3)")
        F = F + c * us ** k
        Fp = Fp + c * k * us ** (k - 1)
    Fu = dealias(analyze(F, u.grid))
    fp_field = dealias(analyze(Fp, u.grid))
    return Fu - weyl_apply(Symbol.from_function(fp_field), u, cfg)
