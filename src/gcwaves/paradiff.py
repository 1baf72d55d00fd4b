"""Weyl paradifferential operators on T^2.

A symbol a(x, zeta) acts on a field f through

    (T_a f)^(xi) = (4 pi^2)^{-1} sum_eta chi(|xi-eta| / |xi+eta|)
                   atilde(xi-eta, (xi+eta)/2) fhat(eta),

where atilde is the Fourier transform of a in x, the midpoint (xi+eta)/2
ranges over half-integer points, and chi = phi_{<= chi_exponent} localizes
the symbol frequency below the pair frequency.  Conventions: if xi = 0 the
whole row is 0 (so T_a output is always mean-free and T_a kills constants),
and symbols only ever get evaluated at |zeta| > 1/2.

Both kinds of symbol read one chi-support plan per (grid size, chi
exponent), built on demand and kept for the process: the pairs (xi, eta)
of the sum with chi > 0, 20 bytes each (int32 xi, rho and midpoint ids,
float64 chi), ordered by row rho in increasing |rho|.  At chi_exponent = -2
the full plan holds 0.16M entries (3.1 MB) at 32^2 and 2.7M (54 MB) at 64^2.

Symbols come in two flavours:
  * separable - a finite sum of terms  spatial(x) * g(zeta); rows are exact.
    The plan is extended only out to the largest |rho| with a nonzero
    spatial coefficient, each g is evaluated once per midpoint, and an
    application costs one gather and one scatter per entry of the occupied
    rows.  Fourier multipliers and function symbols are the 1-term cases.
  * general   - an arbitrary vectorized evaluator fn(X1, X2, Z1, Z2); it
    reads the full plan grouped by midpoint (one more int32 per entry) and
    costs one evaluation and one FFT of a(., zeta) per midpoint, in batches
    of at most 2^15 samples; intended for grids up to 64^2.

Symbol frequencies xi - eta outside the grid rectangle are treated as zero
rows (a discretization truncation; chi suppresses that region anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import FourierField, Grid, TWO_PI, bump, dealias, analyze, synthesize

_FOUR_PI2 = (2.0 * np.pi) ** 2


@dataclass(frozen=True)
class ParadiffConfig:
    """chi_exponent: the cutoff chi = phi_{<= chi_exponent}.

    The faithful value is -20; at that exponent every paraproduct vanishes
    on desk-scale grids (|xi - eta| >= 1 forces |xi + eta| >~ 2^20), so
    experiments default to passing chi_exponent=-2 explicitly and every
    report records the exponent in effect.  ``row_tol`` optionally drops
    symbol rows with relative weight below it (performance only; 0 keeps
    exactness).
    """

    chi_exponent: int = -20
    row_tol: float = 0.0
    zeta_step: float = 0.25  # central-difference step on the half-lattice

    def __post_init__(self):
        if self.chi_exponent > -1:
            raise ConfigError("chi_exponent must be <= -1")

    def chi(self, ratio):
        return bump(np.asarray(ratio, float) / 2.0 ** self.chi_exponent)


EXPERIMENT_CHI = -2  # desk-scale default used by drivers and experiments


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

    def __init__(self, order, terms=None, fn=None, dz=None, name=""):
        if (terms is None) == (fn is None):
            raise ConfigError("exactly one of terms / fn must be given")
        self.order = float(order)
        self.terms = terms
        self.fn = fn
        self.dz = dz
        self.name = name

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
        one = lambda z1, z2: np.ones(np.broadcast(z1, z2).shape)
        return cls(order, terms=[SeparableTerm(field, one, (_zero_fn, _zero_fn))],
                   name=name)

    @classmethod
    def separable(cls, terms, order, name=""):
        return cls(order, terms=list(terms), name=name)

    @classmethod
    def general(cls, fn, order, dz=None, name=""):
        return cls(order, fn=fn, dz=dz, name=name)

    @property
    def is_separable(self):
        return self.terms is not None

    # -- evaluation ----------------------------------------------------------
    def eval(self, X1, X2, Z1, Z2):
        """a(x, zeta), broadcasting x-arrays against zeta-arrays."""
        if self.is_separable:
            out = 0.0
            for t in self.terms:
                g = np.asarray(t.gz(Z1, Z2), dtype=np.complex128)
                if t.spatial is None:
                    s = 1.0
                else:
                    s = synthesize(t.spatial)
                out = out + s * g
            return np.asarray(out, dtype=np.complex128) + np.zeros(
                np.broadcast(X1 * 0.0, Z1 * 0.0).shape, np.complex128)
        return np.asarray(self.fn(X1, X2, Z1, Z2), dtype=np.complex128)

    def dzeta(self, X1, X2, Z1, Z2, step=0.25):
        """(d a/d zeta1, d a/d zeta2); exact callbacks when available."""
        if self.is_separable:
            have = all(t.dgz is not None for t in self.terms)
            if have:
                d1 = 0.0
                d2 = 0.0
                for t in self.terms:
                    s = 1.0 if t.spatial is None else synthesize(t.spatial)
                    d1 = d1 + s * np.asarray(t.dgz[0](Z1, Z2), np.complex128)
                    d2 = d2 + s * np.asarray(t.dgz[1](Z1, Z2), np.complex128)
                return d1, d2
        elif self.dz is not None:
            return (np.asarray(self.dz[0](X1, X2, Z1, Z2), np.complex128),
                    np.asarray(self.dz[1](X1, X2, Z1, Z2), np.complex128))
        # central differences on the half-lattice
        h = step
        d1 = (self.eval(X1, X2, Z1 + h, Z2) - self.eval(X1, X2, Z1 - h, Z2)) / (2 * h)
        d2 = (self.eval(X1, X2, Z1, Z2 + h) - self.eval(X1, X2, Z1, Z2 - h)) / (2 * h)
        return d1, d2

    # -- algebra --------------------------------------------------------------
    def __mul__(self, scalar):
        s = complex(scalar)
        if self.is_separable:
            terms = [SeparableTerm(t.spatial, _scale_fn(t.gz, s),
                                   _scale_pair(t.dgz, s)) for t in self.terms]
            return Symbol(self.order, terms=terms, name=self.name)
        fn = lambda X1, X2, Z1, Z2: s * self.fn(X1, X2, Z1, Z2)
        dz = None
        if self.dz is not None:
            dz = (lambda X1, X2, Z1, Z2: s * self.dz[0](X1, X2, Z1, Z2),
                  lambda X1, X2, Z1, Z2: s * self.dz[1](X1, X2, Z1, Z2))
        return Symbol.general(fn, self.order, dz=dz, name=self.name)

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


def _zero_fn(z1, z2):
    return np.zeros(np.broadcast(z1, z2).shape)


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
    s = -1.0 if negate else 1.0
    return lambda z1, z2: s * np.conj(np.asarray(
        g(-np.asarray(z1), -np.asarray(z2)), np.complex128))


# ---------------------------------------------------------------------------
# centered-layout helpers (no-wrap frequency shifts)
# ---------------------------------------------------------------------------

def _centered(coeffs):
    return np.fft.fftshift(coeffs)


def _uncentered(coeffs):
    return np.fft.ifftshift(coeffs)


def _centered_freqs(m):
    k = np.arange(m) - m // 2
    return np.meshgrid(k, k, indexing="ij")


def _guard_zeta(z_abs_sq):
    if np.any(z_abs_sq <= 0.25):
        raise ConfigError("symbol evaluation requested at |zeta| <= 1/2 "
                          "inside the chi support")


# ---------------------------------------------------------------------------
# the chi-support plan
# ---------------------------------------------------------------------------

_SAMPLES = 1 << 15  # symbol samples (midpoints x M^2) per general-path batch
_CHUNK = 1 << 15    # candidate pairs per plan-build pass, plan entries per apply pass


class _ChiPlan:
    """The chi support on an M x M grid, shared by both application paths.

    One entry per pair (xi, eta) with xi, eta off the Nyquist rows, rho =
    xi - eta on the grid, xi + eta != 0 and chi(|rho| / |xi + eta|) > 0:
    int32 centered flat indices of xi and rho, the int32 id of the midpoint
    sum s = xi + eta on the (2M-1)^2 box of sums, and float64 chi.  Entries
    run row by row, rows in increasing |rho|; ``extend`` builds rows only as
    far as a call needs, and chi is evaluated nowhere else.  ``by_midpoint``
    groups the full plan by midpoint with one int32 permutation.
    """

    def __init__(self, m, chi):
        self.m = m
        self.chi_fn = chi
        half = m // 2
        r = np.arange(m * m)
        rsq = (r // m - half) ** 2 + (r % m - half) ** 2
        self.rows = np.argsort(rsq, kind="stable")      # centered flat rho, plan order
        self.row_sq = rsq[self.rows]
        self.row_start = np.zeros(1, np.int64)           # entries of row k: [start[k], start[k+1])
        self.xi = np.zeros(0, np.int32)
        self.rho = np.zeros(0, np.int32)
        self.mid = np.zeros(0, np.int32)
        self.chi = np.zeros(0)
        # first plan row that reaches each midpoint (m * m: none yet)
        self.mid_row = np.full((2 * m - 1) ** 2, m * m, np.int32)
        self._by_mid = None

    def extend(self, rho_sq):
        """Build every row with |rho|^2 <= rho_sq; return that row count."""
        n = int(np.searchsorted(self.row_sq, rho_sq, side="right"))
        built = len(self.row_start) - 1
        if n <= built:
            return n
        m, half = self.m, self.m // 2
        k = np.arange(1 - half, half)  # xi and eta off the Nyquist rows, which stay 0
        step = max(1, _CHUNK // (m * m))
        new = {"xi": [], "rho": [], "mid": [], "chi": []}
        counts = []
        for lo in range(built, n, step):
            ks = np.arange(lo, min(lo + step, n))
            r1 = (self.rows[ks] // m - half)[:, None, None]
            r2 = (self.rows[ks] % m - half)[:, None, None]
            den = np.hypot(2 * k[:, None] - r1, 2 * k[None, :] - r2)
            cand = ((np.abs(k[:, None] - r1) < half) & (np.abs(k[None, :] - r2) < half)
                    & (den > 0))
            b, i1, i2 = np.nonzero(cand)
            chi = self.chi_fn(np.hypot(r1, r2).astype(float).ravel()[b] / den[b, i1, i2])
            keep = chi > 0.0
            b, x1, x2 = b[keep], k[i1[keep]], k[i2[keep]]
            s1 = 2 * x1 - r1.ravel()[b]
            s2 = 2 * x2 - r2.ravel()[b]
            _guard_zeta(0.25 * (s1 * s1 + s2 * s2))
            mid = (s1 + m) * (2 * m - 1) + (s2 + m)
            ids, first = np.unique(mid, return_index=True)
            self.mid_row[ids] = np.minimum(self.mid_row[ids], ks[b[first]])
            counts.append(np.bincount(b, minlength=len(ks)))
            new["xi"].append(((x1 + half) * m + x2 + half).astype(np.int32))
            new["rho"].append(self.rows[ks[b]].astype(np.int32))
            new["mid"].append(mid.astype(np.int32))
            new["chi"].append(chi[keep])
        self.row_start = np.concatenate(
            (self.row_start, len(self.xi) + np.cumsum(np.concatenate(counts))))
        for name, parts in new.items():
            setattr(self, name, np.concatenate([getattr(self, name)] + parts))
            parts.clear()
        return n

    def row_entries(self, rows):
        """The entries of plan rows ``rows`` in order, in chunks of _CHUNK."""
        lo = self.row_start[rows]
        cnt = self.row_start[rows + 1] - lo
        end = np.cumsum(cnt)
        for c0 in range(0, int(end[-1]), _CHUNK):
            pos = np.arange(c0, min(c0 + _CHUNK, int(end[-1])))
            r = np.searchsorted(end, pos, side="right")
            yield lo[r] + (pos - (end[r] - cnt[r]))

    def zeta(self, ids):
        """The midpoints zeta = s / 2 of midpoint ids."""
        w = 2 * self.m - 1
        return 0.5 * (ids // w - self.m), 0.5 * (ids % w - self.m)

    def by_midpoint(self):
        """The full plan grouped by midpoint: (perm, start, ids), the entries
        perm[start[j]:start[j+1]] sharing midpoint ids[j]; built once."""
        if self._by_mid is None:
            self.extend(np.inf)
            counts = np.bincount(self.mid, minlength=len(self.mid_row))
            ids = np.flatnonzero(counts)
            self._by_mid = (np.argsort(self.mid, kind="stable").astype(np.int32),
                            np.concatenate(([0], np.cumsum(counts[ids]))), ids)
        return self._by_mid

    def accumulate(self, out, e, w, fc, extra_weight, divisor=1.0):
        """out[xi] += w chi [extra] fhat(eta) / divisor over the entries e."""
        m, half = self.m, self.m // 2
        xi, rho = self.xi[e], self.rho[e]
        w = w * self.chi[e]
        if extra_weight is not None:
            x1, x2 = (xi // m - half).astype(float), (xi % m - half).astype(float)
            r1, r2 = (rho // m - half).astype(float), (rho % m - half).astype(float)
            w = w * extra_weight(x1, x2, r1, r2, x1 - 0.5 * r1, x2 - 0.5 * r2)
        v = w * fc[xi - rho + (half * m + half)]
        if divisor != 1.0:
            v /= divisor
        np.add.at(out, xi, v)   # in entry order: no reassociation across batches


_PLANS = {}   # (grid size, chi exponent) -> _ChiPlan, least recently used first
# plans kept: the two grid sizes the Weyl calculus alternates between in a
# run (a symbol build and an operator audit) plus one
_MAX_PLANS = 3


def _plan(m, cfg):
    """The cached chi-support plan for (m, cfg.chi_exponent); only the
    _MAX_PLANS most recently used plans are kept."""
    key = (m, cfg.chi_exponent)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _ChiPlan(m, cfg.chi)
        while len(_PLANS) > _MAX_PLANS:
            del _PLANS[next(iter(_PLANS))]
    elif key != next(reversed(_PLANS)):
        _PLANS[key] = _PLANS.pop(key)   # to the most recently used end
    return plan


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def weyl_apply(a: Symbol, f: FourierField, cfg: ParadiffConfig,
               extra_weight=None) -> FourierField:
    """Apply T_a to f.  ``extra_weight`` is an internal hook used by the
    explicit error kernels; it receives flat arrays
    (XI1, XI2, R1, R2, Z1, Z2) over the chi support."""
    m = f.grid.size
    plan = _plan(m, cfg)
    fc = _centered(f.coeffs).ravel()
    out = np.zeros(m * m, np.complex128)
    if a.is_separable:
        _apply_rows(a, f.grid, cfg, plan, out, fc, extra_weight)
    else:
        _apply_midpoints(a, f.grid, plan, out, fc, extra_weight)
    out = out.reshape(m, m)
    out[m // 2, m // 2] = 0.0  # xi = 0 convention
    return FourierField(f.grid, _uncentered(out))


def _apply_rows(a, grid, cfg, plan, out, fc, extra_weight):
    """Separable symbols: the entries of the rows some term occupies, with
    weight sum_t (shat_t(rho) / 4 pi^2) g_t(zeta)."""
    m = grid.size
    coefs = np.zeros((len(a.terms), m * m), np.complex128)
    for c, term in zip(coefs, a.terms):
        if term.spatial is None:
            c[(m // 2) * m + m // 2] = 1.0
            continue
        if term.spatial.grid != grid:
            raise ConfigError("symbol spatial factor lives on a different grid")
        sc = _centered(term.spatial.coeffs).ravel()
        tol = cfg.row_tol * np.max(np.abs(sc)) if cfg.row_tol else 0.0
        kept = np.abs(sc) > tol
        c[kept] = sc[kept] / _FOUR_PI2
    active = np.flatnonzero(np.any(coefs != 0.0, axis=0)[plan.rows])
    if not len(active):
        return
    n = plan.extend(plan.row_sq[active[-1]])
    live = np.flatnonzero(plan.mid_row < n)
    z1, z2 = plan.zeta(live)
    gz = np.zeros((len(a.terms), len(plan.mid_row)), np.complex128)
    for g, term in zip(gz, a.terms):
        g[live] = term.gz(z1, z2)
    for e in plan.row_entries(active):
        rho, mid = plan.rho[e], plan.mid[e]
        w = coefs[0, rho] * gz[0, mid]
        for c, g in zip(coefs[1:], gz[1:]):
            w += c[rho] * g[mid]
        plan.accumulate(out, e, w, fc, extra_weight)


def _apply_midpoints(a, grid, plan, out, fc, extra_weight):
    """General symbols: a(x, zeta) sampled on batches of midpoints, its
    x-transform gathered at each entry's row."""
    m = grid.size
    perm, start, ids = plan.by_midpoint()
    X1, X2 = grid.x()
    step = max(1, _SAMPLES // (m * m))
    for j in range(0, len(ids), step):
        j2 = min(j + step, len(ids))
        z1, z2 = plan.zeta(ids[j:j2])
        vals = a.eval(X1[None], X2[None], z1[:, None, None], z2[:, None, None])
        rows = np.fft.fft2(vals, axes=(-2, -1)) * (TWO_PI / m) ** 2
        rows = np.fft.fftshift(rows, axes=(-2, -1)).reshape(j2 - j, m * m)
        e = perm[start[j]:start[j2]]
        local = np.repeat(np.arange(j2 - j), np.diff(start[j:j2 + 1]))
        plan.accumulate(out, e, rows[local, plan.rho[e]], fc, extra_weight, _FOUR_PI2)


def assemble_matrix(a: Symbol, grid: Grid, cfg: ParadiffConfig):
    """Dense matrix of T_a in centered frequency ordering (grids <= 64^2)."""
    m = grid.size
    if m > 64:
        raise ConfigError("matrix materialization is limited to grids <= 64^2")
    mat = np.zeros((m * m, m * m), np.complex128)
    for idx in range(m * m):
        i, j = divmod(idx, m)
        basis = np.zeros((m, m), np.complex128)
        basis[i, j] = 1.0
        fld = FourierField(grid, _uncentered(basis))
        mat[:, idx] = _centered(weyl_apply(a, fld, cfg).coeffs).ravel()
    return mat


# ---------------------------------------------------------------------------
# Poisson bracket, symbol norms
# ---------------------------------------------------------------------------

def poisson_bracket(a: Symbol, b: Symbol, zeta_step=0.25) -> Symbol:
    """{a, b} = grad_x a . grad_zeta b - grad_zeta a . grad_x b.

    x-derivatives are exact in Fourier; zeta-derivatives use the exact
    callbacks when both symbols carry them (the separable-exact path keeps
    the result separable), otherwise central differences of step
    ``zeta_step`` on the general evaluator.
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
        dzA = a.dzeta(X1, X2, Z1, Z2, zeta_step)
        dzB = b.dzeta(X1, X2, Z1, Z2, zeta_step)
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


def default_zeta_samples(radius, n_rays=8, n_random=16, seed=7):
    """Half-lattice sample points with 1/2 < |zeta| <= radius."""
    pts = set()
    radii = [1.0]
    r = 1.0
    while r < radius:
        r *= 2.0
        radii.append(min(r, float(radius)))
    for rr in radii:
        for q in range(n_rays):
            th = 2 * math.pi * q / n_rays
            z = (round(2 * rr * math.cos(th)) / 2.0, round(2 * rr * math.sin(th)) / 2.0)
            if z[0] ** 2 + z[1] ** 2 > 0.25:
                pts.add(z)
    rng = np.random.default_rng(seed)
    while len(pts) < n_rays + n_random:
        z = tuple(np.round(rng.uniform(-2 * radius, 2 * radius, 2)) / 2.0)
        if 0.25 < z[0] ** 2 + z[1] ** 2 <= radius ** 2:
            pts.add(z)
    return sorted(pts)


def symbol_norm(a: Symbol, l, r, zeta_samples, grid: Grid, zeta_step=0.25) -> SymbolNormReport:
    """Sampled symbol-class norm: a lower bound for

        sup_{|alpha|+|beta| <= r} sup_{|zeta| > 1/2}
        <zeta>^{-l} || <zeta>^{|beta|} d^beta_zeta d^alpha_x a ||_{L^2_x}.

    x-derivatives are exact in Fourier, zeta-derivatives by central
    differences (or exact callbacks).
    """
    if r < 0:
        raise ConfigError("differentiability r must be >= 0")
    m = grid.size
    X1, X2 = grid.x()
    k = np.fft.fftfreq(m, 1.0 / m)
    K1f, K2f = np.meshgrid(k, k, indexing="ij")
    dx_quad = (TWO_PI / m) ** 2

    def zderiv(fn_eval, beta, z1, z2):
        if beta == (0, 0):
            return fn_eval(z1, z2)
        h = zeta_step
        if beta[0] > 0:
            b2 = (beta[0] - 1, beta[1])
            return (zderiv(fn_eval, b2, z1 + h, z2) - zderiv(fn_eval, b2, z1 - h, z2)) / (2 * h)
        b2 = (beta[0], beta[1] - 1)
        return (zderiv(fn_eval, b2, z1, z2 + h) - zderiv(fn_eval, b2, z1, z2 - h)) / (2 * h)

    best = 0.0
    for (z1, z2) in zeta_samples:
        if z1 * z1 + z2 * z2 <= 0.25:
            raise ConfigError("zeta samples must satisfy |zeta| > 1/2")
        bz = math.sqrt(1.0 + z1 * z1 + z2 * z2)
        fn_eval = lambda w1, w2: a.eval(X1, X2, np.asarray(w1), np.asarray(w2))
        for btot in range(r + 1):
            for b1 in range(btot + 1):
                beta = (b1, btot - b1)
                base = zderiv(fn_eval, beta, z1, z2)
                base = np.asarray(base, np.complex128) + np.zeros((m, m), np.complex128)
                bh = np.fft.fft2(base)
                for atot in range(r + 1 - btot):
                    for a1 in range(atot + 1):
                        alpha = (a1, atot - a1)
                        der = np.fft.ifft2((1j * K1f) ** alpha[0] * (1j * K2f) ** alpha[1] * bh)
                        nrm = math.sqrt(float(np.sum(np.abs(der) ** 2)) * dx_quad)
                        best = max(best, bz ** (-l + btot) * nrm)
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
    ga, dga1, dga2 = t.gz, t.dgz[0], t.dgz[1]

    def weight(XI1, XI2, R1, R2, Z1, Z2):
        az = ga(Z1, Z2)
        d1 = dga1(Z1, Z2)
        d2 = dga2(Z1, Z2)
        if side == "left":
            return ga(XI1, XI2) - az - 0.5 * (R1 * d1 + R2 * d2)
        if side == "right":
            return ga(XI1 - R1, XI2 - R2) - az + 0.5 * (R1 * d1 + R2 * d2)
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")

    return weyl_apply(b, f, cfg, extra_weight=weight)


def compose_residual_field(a, b, f, cfg) -> FourierField:
    """(T_a T_b - T_{ab} - (i/2) T_{a,b}) f."""
    tatb = weyl_apply(a, weyl_apply(b, f, cfg), cfg)
    tab = weyl_apply(a.product(b), f, cfg)
    tbr = weyl_apply(poisson_bracket(a, b, cfg.zeta_step), f, cfg)
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
    from .fields import lp_project, random_field, l2_norm

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
        slope = float(np.polyfit(np.asarray(ks, float), logs, 1)[0])
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
    from .fields import product_exact

    prod = product_exact(f, g)
    tfg = weyl_apply(Symbol.from_function(f), g, cfg)
    tgf = weyl_apply(Symbol.from_function(g), f, cfg)
    return prod - tfg - tgf


def paracomp_remainder(u: FourierField, h_coeffs, cfg: ParadiffConfig) -> FourierField:
    """E(u) = F(u) - T_{F'(u)} u for F(z) = z + sum_k h_coeffs[k] z^k (k >= 3)."""
    from .fields import analyze, synthesize, dealias

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
