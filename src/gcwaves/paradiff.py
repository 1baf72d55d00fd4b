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
pairs (xi, eta) of the sum with chi > 0 and |eta|_inf <= K.  The support is
unchanged by (xi, eta) -> (-xi, -eta), which keeps chi, so the plan stores
one row rho of each +-rho pair, 20 bytes an entry (int32 xi, rho and
midpoint ids, float64 chi), rows in increasing |rho|, and every walk visits
a stored entry twice: as itself and as its mirror, weighed at -rho and
midpoint id ^ 1 with flat index 2 origin - f for eta, all computed on the
walk's views.  The rho = 0 row (its own mirror) and the rows on a Nyquist
line (mirror off the grid; only chi_exponent = -1 plans hold entries
there) are walked once.  The stored entries sum into one output and their
mirrors into another (kept as its mirror image), each in a fixed order,
and the two are added at the end.  An application
takes the smallest K holding the support of fhat, so its walk holds only
entries that can contribute.  For a symbol with finite values every entry
it leaves out would add an exact zero (fhat(eta) = 0 times a finite weight,
onto an output that never holds -0.0), so the sums are those of the full
plan, K = M//2 - 1.  The plans of one (grid size, chi exponent) are built
on demand and kept together as one entry of the lattice plan cache
(``gcwaves.lattice``).  At chi_exponent = -2 the full plan stores 78,940 of
its 0.16M pairs (1.6 MB) at 32^2 and 1.34M of 2.7M (27 MB) at 64^2.  At
32^2 a dealiased input (K = 10) reads 32,088 stored entries for its 63,736
pairs (41%), a band-2 probe (K = 6) 6,784 for 13,400 and a constant (K =
0) none; at 12^2 the 1,292 entries (2,464 pairs) and 416 midpoints of the
full plan are 432 (816) and 264 at K = 3.

Symbols come in two flavours:
  * separable - a finite sum of terms  spatial(x) * g(zeta); rows are exact.
    The plan is extended only out to the last stored row whose rho or -rho
    has a nonzero spatial coefficient, each g is evaluated once per
    midpoint, and an application costs one gather and one scatter per
    entry, stored or mirrored, of every row up to that one, in passes of
    lattice.BLOCK entries through buffers every plan shares.  Fourier
    multipliers and function symbols are the 1-term cases.  A zeta-free term (g = 1, as Symbol.from_function
    builds it, marked through conj_flip) adds its row coefficient with no
    midpoint gather and no multiply.
  * general   - an arbitrary vectorized evaluator fn(X1, X2, Z1, Z2); it
    reads the whole plan grouped by midpoint (one more int32 per stored
    entry) and costs one evaluation of a(., zeta) per midpoint, in batches
    of at most 2^15 samples; intended for grids up to 64^2.  Midpoint ids
    number each pair +-s as 2i (-s) and 2i + 1 (s), so a pair's stored
    entries are adjacent in the plan's midpoint order, and their mirrors
    belong to the same pair.  A symbol declared even in zeta
    (Symbol.general(..., even=True), as goodvar's pointwise symbols are)
    costs one evaluation and one transform per pair, at s; the midpoints of
    every plan checked (6^2 to 32^2, chi -1 to -3, every eta box) come in
    such pairs.  Either way a batch of samples serves one contiguous run of
    the plan's midpoint order and that run's mirrors, summed in that order
    as soon as it is weighed, so the sums do not change with the
    declaration or the batch and the walk holds one batch.
    Each part of a batch (real samples whole, else the real and imaginary
    parts; a part that vanishes on the batch is skipped) is transformed in
    x by one rfft2, and each entry reads atilde(rho, zeta) from it with one
    Hermitian gather (_rfft_read), its mirror atilde(-rho, -zeta).  pocketfft
    transforms each sample on its own, so a midpoint's values do not depend
    on the batch that holds it.

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
    def from_function(cls, field: FourierField):
        """zeta-independent symbol a(x) given by a field, of order 0."""
        return cls(0.0, terms=[SeparableTerm(field, _one_fn, (_zero_fn, _zero_fn))])

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

# symbol samples (midpoints x M^2) per general-path batch: a bound on the
# memory of the samples and their rfft2, not on the values a walk sums
_SAMPLES = 1 << 15


def _guard_zeta(z_abs_sq):
    if np.any(z_abs_sq <= 0.25):
        raise ConfigError("symbol evaluation requested at |zeta| <= 1/2 "
                          "inside the chi support")


class _ChiPlans:
    """The chi-support plans of one grid size and chi exponent, one per eta
    box, with the index tables and the support bound they share.

    The midpoint id of a sum s = xi + eta is mid_id[f] = 2 min(f, L-1-f) +
    (f > L // 2), f = flat(s) in the centered (2M-1)-box of L points.  Since
    flat(-s) = L-1-f, the pair +-s holds the consecutive ids 2i (-s first)
    and 2i + 1, and the mirror of an id is id ^ 1; ``sums`` gives s by id.

    The plan rows (``rows``, centered flat rho) are one row of each +-rho
    pair: rho = 0, then the member with the smaller flat index of each pair
    with both on the grid, in increasing |rho|, and last the rows on a
    Nyquist line, whose -rho is off the grid.  Rows 1 .. twins - 1 have a
    mirror row, walked through the mirrors of their entries.  ``flip``
    maps the flat index of v to that of -v (Nyquist-line v to themselves).

    chi(|rho| / |xi + eta|) > 0 needs the integer |xi + eta|^2 above c
    |rho|^2, c = (2^-chi_exponent / R_OUT)^2 (the bump's support): per plan
    row, chi is 0 for certain at or below ``lower``, the floor of c |rho|^2
    scaled by 1 - 1e-9 for the rounding of the float ratio."""

    def __init__(self, m, chi_exponent):
        self.m = m
        self.chi_fn = ParadiffConfig(chi_exponent).chi
        self.k1, self.k2 = coords(m)
        n = (2 * m - 1) ** 2
        f = np.arange(n, dtype=np.int32)   # flat(s) in the (2M-1)-box; flat(-s) = n - 1 - f
        self.mid_id = 2 * np.minimum(f, n - 1 - f) + (f > n // 2)
        f[self.mid_id] = np.arange(n, dtype=np.int32)   # now flat(s) by midpoint id
        self.sums = (f // (2 * m - 1) - (m - 1), f % (2 * m - 1) - (m - 1))   # coords(2M-1)[f]
        self.origin = int(flat((0, 0), m))
        rsq = self.k1 ** 2 + self.k2 ** 2
        # one row of each +-rho pair, in increasing |rho|: rho = 0, the member
        # with the smaller flat index (flat(-rho) = 2 origin - flat(rho)), and
        # last the rows on a Nyquist line, whose mirror is off the grid
        order = np.argsort(rsq, kind="stable")
        nyquist = (self.k1 == -(m // 2)) | (self.k2 == -(m // 2))
        paired = order[(order < self.origin) & ~nyquist[order]]
        self.rows = np.concatenate(([self.origin], paired, order[nyquist[order]]))
        self.twins = 1 + len(paired)     # rows 1 .. twins - 1 are walked mirrored too
        # flat(-v) by flat(v) off the Nyquist lines; those map to themselves
        f = np.arange(m * m)
        self.flip = np.where(nyquist, f, 2 * self.origin - f)
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

    The support is the set of pairs (xi, eta) with |eta|_inf <= K <= M // 2
    - 1, xi off the Nyquist rows, rho = xi - eta on the grid, xi + eta != 0
    and chi(|rho| / |xi + eta|) > 0.  It is unchanged by (xi, eta) -> (-xi,
    -eta), which keeps chi and maps rho to -rho and the midpoint id to id ^
    1, so the plan stores the rows of _ChiPlans (one row of each +-rho
    pair) and represents the other row of a pair by the mirrors of its
    entries.  An entry is 20 bytes: int32 flat indices of xi and rho in the
    centered M-box, the int32 midpoint id of the sum s = xi + eta (the pair
    numbering of _ChiPlans), and float64 chi.  Entries run row by row, in
    the row order of _ChiPlans, with row k at entries [row_start[k],
    row_start[k+1]) in the lex order of eta (and so of xi).  Rows 1 ..
    twins - 1 are mirrored: every walk visits their entries twice, as
    themselves and as (-xi, -eta), with no table of the mirrors.  A mirror
    is weighed at -rho and midpoint id ^ 1 (through flipped weight tables
    on the separable path, from the batch's transform on the general path),
    its flat eta is 2 origin - flat(eta) on the pass's views, and it is
    summed at xi into a mirror image of the output, flipped once at the
    end.  The rho = 0 row (its own mirror) and the Nyquist-line rows
    (mirrors off the grid) are walked once.  A K-plan is the
    order-preserving subsequence |eta|_inf <= K of the full plan, K = M // 2
    - 1, and so are its mirrors; an input whose coefficients vanish off the
    box gets the full plan's sums from it: each skipped entry adds an exact
    zero.

    ``extend`` builds stored rows only as far as a call needs, and chi is
    evaluated nowhere else.  It walks the new rows twice, a block of rows at
    a time: a count pass counts the pairs above the integer lower bound of
    _ChiPlans, then a fill pass evaluates chi on them and writes the kept
    entries one after another into arrays allocated once at that count (a
    thin band of pairs with chi = 0 is the only slack), so a build peaks
    near the finished plan plus one block.  The separable path walks the
    stored rows as one contiguous prefix of the entry arrays, then the
    mirrored rows of that prefix, in passes of BLOCK entries;
    ``by_midpoint`` groups the stored entries by midpoint with one int32
    permutation for the general path.
    """

    def __init__(self, plans, radius):
        self.radius = radius
        self.etas = np.arange(-radius, radius + 1, dtype=np.int32)   # eta_i in the box
        self.m, self.chi_fn, self.origin, self.flip = plans.m, plans.chi_fn, plans.origin, plans.flip
        self.lower = plans.lower
        self.k1, self.k2, self.sums, self.mid_id = plans.k1, plans.k2, plans.sums, plans.mid_id
        self.rows, self.twins = plans.rows, plans.twins
        self.row_start = np.zeros(1, np.int64)           # entries of row k: [start[k], start[k+1])
        self.xi = np.zeros(0, np.int32)
        self.rho = np.zeros(0, np.int32)
        self.mid = np.zeros(0, np.int32)
        self.chi = np.zeros(0)
        # first plan row that reaches each midpoint pair i, the ids 2i (-s)
        # and 2i + 1 (s), as stored or mirrored entries (m * m: none yet)
        self.pair_row = np.full((len(self.sums[0]) + 1) // 2, self.m * self.m, np.int32)
        self._by_mid = None

    def extend(self, n=None):
        """Build the first n stored rows, every row by default; return n."""
        n = len(self.rows) if n is None else n
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
            mid = self.mid_id[flat(np.stack((s1, s2), axis=-1), 2 * self.m - 1)]
            np.minimum.at(self.pair_row, mid >> 1, ks[b])
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

    def mirrored(self, n):
        """The entries [lo, hi) of the mirrored rows among the first n rows."""
        return int(self.row_start[min(1, n)]), int(self.row_start[min(self.twins, n)])

    def zeta(self, ids):
        """The midpoints zeta = s / 2 of midpoint ids."""
        return 0.5 * self.sums[0][ids], 0.5 * self.sums[1][ids]

    def by_midpoint(self):
        """The stored entries grouped by midpoint pair: (perm, start, pairs),
        the entries perm[start[j]:start[j+1]] having the ids 2 pairs[j] (-s)
        and 2 pairs[j] + 1 (s), in increasing id and then plan order.  An
        entry's mirror has the other id of its pair, so a run of perm holds
        every entry, stored or mirrored, at the midpoints of its pairs.
        Pairs are in increasing order.  Built once per plan, by one stable
        argsort and a bincount."""
        if self._by_mid is None:
            self.extend()
            # the argsort first, the peak of a build, with no other temporary alive
            perm = np.argsort(self.mid, kind="stable").astype(np.int32)
            counts = np.bincount(self.mid >> 1, minlength=len(self.pair_row))
            pairs = np.flatnonzero(counts)
            self._by_mid = (perm, np.concatenate(([0], np.cumsum(counts[pairs]))), pairs)
        return self._by_mid

    def accumulate(self, out, e, w, fc, extra_weight, divisor=1.0, mirror=False):
        """out[xi] += w chi [extra] fhat(eta) / divisor over the entries e, at
        most BLOCK of them; with ``mirror`` the same over their mirrors (-xi,
        -eta), out being the mirror image of its output (the sum for -xi at
        xi).  work[0] (which may be w), work[1] and work[2] of _pass_buffers
        are written.

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
        w = np.multiply(w, self.chi[e], out=work[0, :len(xi)])
        if extra_weight is not None:
            sign = -1 if mirror else 1   # negated as integers: no -0.0
            x1, x2 = (sign * self.k1[xi]).astype(float), (sign * self.k2[xi]).astype(float)
            r1, r2 = (sign * self.k1[rho]).astype(float), (sign * self.k2[rho]).astype(float)
            w = np.multiply(extra_weight(x1, x2, r1, r2, x1 - 0.5 * r1, x2 - 0.5 * r2), w)
        # flat(eta), or flat(-eta) = 2 origin - flat(eta)
        eta = np.subtract(*((rho, xi) if mirror else (xi, rho)), out=buf[:len(w)])
        eta += self.origin
        # take: the int32 plan indices are not converted as [] would
        v = np.multiply(fc.take(eta, out=work[2, :len(w)], mode="clip"), w,
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
    # out[0] sums the stored entries, out[1] their mirrors (as the mirror
    # image of its output), each in walk order
    out = np.zeros((2, m * m), np.complex128)
    if a.is_separable:
        _apply_rows(a, f.grid, cfg, plan, out, fc, extra_weight)
    else:
        _apply_midpoints(a, f.grid, plan, out, fc, extra_weight)
    out = out[0] + np.take(out[1], plan.flip)
    out[plan.origin] = 0.0  # xi = 0 convention
    return FourierField(f.grid, np.take(out, fft).reshape(m, m))


def _apply_rows(a, grid, cfg, plan, out, fc, extra_weight):
    """Separable symbols: the entries of every stored row up to the last one
    some term occupies at rho or -rho, with weight sum_t (shat_t(rho) / 4
    pi^2) g_t(zeta), into out[0]; then the mirrors of the mirrored rows
    among them, weighed at -rho and -zeta through mirrored tables of the
    coefficients and g_t, into out[1]."""
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
    occupied = np.any(coefs != 0.0, axis=0)
    # a stored row is walked when rho or -rho is occupied
    active = np.flatnonzero((occupied | occupied[plan.flip])[plan.rows])
    if not len(active):
        return
    n = plan.extend(active[-1] + 1)
    # a zeta-free term (factor _one_fn) reads no midpoint values; the g
    # tables hold one slot past the last id, so that their ids pair up
    gz = [None if term.gz is _one_fn else np.zeros(len(plan.sums[0]) + 1, np.complex128)
          for term in a.terms]
    if any(g is not None for g in gz):
        pairs = np.flatnonzero(plan.pair_row < n)
        live = np.stack((2 * pairs, 2 * pairs + 1), axis=-1).ravel()
        z1, z2 = plan.zeta(live)
        for g, term in zip(gz, a.terms):
            if g is not None:
                g[live] = term.gz(z1, z2)
    # the mirror (-xi, -eta) of an entry is weighed at -rho and at the
    # other id of its midpoint pair
    tables = ((coefs, gz), (coefs[:, plan.flip],
                            [None if g is None else g.reshape(-1, 2)[:, ::-1].ravel() for g in gz]))
    # slices, not gathers: the inactive rows inside the prefix add exact zeros
    end = int(plan.row_start[active[-1] + 1])
    work = _pass_buffers()[0]
    for twin, (lo, hi) in enumerate(((0, end), plan.mirrored(active[-1] + 1))):
        cs, gs = tables[twin]
        for p in range(lo, hi, BLOCK):
            e = slice(p, min(p + BLOCK, hi))
            rho, mid = plan.rho[e], plan.mid[e]
            # no complex product writes over an operand (see accumulate)
            w, t, u, q = work[:, :len(rho)]
            if gs[0] is None:
                cs[0].take(rho, out=w, mode="clip")
            else:
                np.multiply(gs[0].take(mid, out=t, mode="clip"),
                            cs[0].take(rho, out=u, mode="clip"), out=w)
            for c, g in zip(cs[1:], gs[1:]):
                term = c.take(rho, out=t, mode="clip")
                if g is not None:
                    term = np.multiply(term, g.take(mid, out=u, mode="clip"), out=q)
                w += term
            plan.accumulate(out[twin], e, w, fc, extra_weight, mirror=twin)


def _apply_midpoints(a, grid, plan, out, fc, extra_weight):
    """General symbols: a(x, zeta) sampled by the symbol's own evaluator on
    batches of midpoint pairs, and each entry's atilde(rho, zeta) read from
    the batch's rfft2 (_rfft_read).

    The walk takes by_midpoint's pairs in order, a batch of them at a time,
    and samples each pair at -s and s, or at s alone for a symbol declared
    even in zeta.  A batch serves one contiguous run of perm: each stored
    entry is read at its rho and its own midpoint, and its mirror, if it is
    on a mirrored row, at -rho and the other midpoint of the pair (an even
    symbol's one sample serves both).  The run is accumulated into out[0]
    and its mirrors into out[1] at once, in passes of at most BLOCK
    entries, so the walk holds one batch.  A midpoint's weights depend on
    neither its batch (each sample is transformed on its own) nor its
    sample, and each of out[0] and out[1] sums its entries in perm order, so
    the sums are bit for bit the same for any batch and for a symbol
    declared even or not."""
    m = grid.size
    perm, start, pairs = plan.by_midpoint()
    X1, X2 = grid.x()
    side = (1,) if a.even else (0, 1)    # a pair's samples: its ids 2i + side
    swap = 0 if a.even else 1           # a mirror's sample: its entry's ^ swap
    lo, hi = plan.mirrored(len(plan.rows))
    step = max(1, _SAMPLES // (len(side) * m * m))
    for j in range(0, len(pairs), step):
        j2 = min(j + step, len(pairs))
        ids = (2 * pairs[j:j2, None] + np.array(side)).ravel()
        z1, z2 = plan.zeta(ids)
        vals = np.broadcast_to(a.fn(X1[None], X2[None], z1[:, None, None], z2[:, None, None]),
                               (len(ids), m, m))
        run = perm[start[j]:start[j2]]
        # each entry's sample: its pair's first, then its own side when both are taken
        at = np.repeat(np.arange(0, len(ids), len(side)), np.diff(start[j:j2 + 1]))
        if not a.even:
            at += plan.mid[run] & 1
        twin = (run >= lo) & (run < hi)
        rho = plan.rho[run]
        r1, r2 = plan.k1[rho], plan.k2[rho]
        w = _rfft_read(vals, np.concatenate((at, at[twin] ^ swap)),
                       np.concatenate((r1, -r1[twin])), np.concatenate((r2, -r2[twin])))
        # w = 0.0 when a(., zeta) = 0 on the whole batch
        w = np.broadcast_to(w * (TWO_PI / m) ** 2, (len(run) + np.count_nonzero(twin),))
        for t, (ents, ws) in enumerate(((run, w[:len(run)]), (run[twin], w[len(run):]))):
            for e in range(0, len(ents), BLOCK):
                plan.accumulate(out[t], ents[e:e + BLOCK], ws[e:e + BLOCK], fc, extra_weight,
                                _FOUR_PI2, mirror=t)


def _rfft_read(vals, mid, r1, r2):
    """sum_x vals[mid, x] e^{-i rho . x} per entry, rho = (r1, r2) with
    |rho_i| <= M/2, for samples vals[b, x1, x2] on the M x M grid.

    Each part of vals (the real and imaginary parts of complex samples, real
    samples whole; a part that is zero on the whole batch is skipped) takes
    one rfft2, F[b, k1, k2] for 0 <= k2 <= M/2, and each entry reads the
    Hermitian point of its rho: F[mid, rho1 mod M, rho2] for rho2 >= 0,
    conj F[mid, -rho1 mod M, -rho2] otherwise.  Returns 0.0 when every part
    is zero."""
    m = vals.shape[-1]
    flip = r2 < 0
    at = (mid, np.where(flip, -r1, r1) % m, np.abs(r2))
    parts = ((vals.real, 1.0), (vals.imag, 1j)) if np.iscomplexobj(vals) else ((vals, 1.0),)
    w = 0.0
    for part, unit in parts:
        if part.any():
            v = np.fft.rfft2(part)[at]
            np.conjugate(v, out=v, where=flip)
            w = w + unit * v
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
