"""Fourier representation of functions on the 2-torus.

Conventions (fixed once, used verbatim everywhere):

    fhat(xi) = int_{T^2} f(x) e^{-i xi.x} dx,
    f(x)     = (2 pi)^{-2} sum_xi fhat(xi) e^{i xi.x},
    ||f||_{L^2}^2 = (2 pi)^{-2} sum_xi |fhat(xi)|^2.

Coefficients are stored as dense complex arrays of shape (M, M) in numpy
fft layout, axis 0 <-> x1, axis 1 <-> x2.  Frequencies are the integers
returned by ``np.fft.fftfreq(M, 1/M)``.  The retained frequency set is the
symmetric square |xi_i| <= M/2 - 1: the Nyquist row xi_i = -M/2 has no
positive partner on the grid and is kept identically zero, so conjugation
and evenness identities are exact.

The dyadic cutoffs use one fixed even C^inf bump ``bump``: identically 1
on [-5/4, 5/4], supported in [-8/5, 8/5].
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularMultiplierError

TWO_PI = 2.0 * np.pi

# support / plateau radii of the fixed bump
R_OUT = 8.0 / 5.0
R_IN = 5.0 / 4.0


# ---------------------------------------------------------------------------
# the smooth cutoff profile and the dyadic family built from it
# ---------------------------------------------------------------------------

def _psi(t):
    """exp(-1/t) for t > 0, 0 otherwise (C^inf glue)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def bump(r):
    """Even C^inf profile: 1 on |r| <= 5/4, 0 on |r| >= 8/5.

    Realized as psi(t)/(psi(t)+psi(1-t)) with t the normalized distance to
    the outer support radius; exact 0/1 values off the transition zone.
    """
    r = np.abs(np.asarray(r, dtype=float))
    t = (R_OUT - r) / (R_OUT - R_IN)
    num = _psi(t)
    den = num + _psi(1.0 - t)
    out = np.empty_like(r)
    inner = t >= 1.0
    outer = t <= 0.0
    mid = ~(inner | outer)
    out[inner] = 1.0
    out[outer] = 0.0
    out[mid] = num[mid] / den[mid]
    return out if out.ndim else float(out)


def phi_le(r, b):
    """phi_{<=b}(r) = bump(r / 2^b)."""
    return bump(np.asarray(r, dtype=float) / 2.0 ** b)


def phi_gt(r, b):
    """phi_{>b} = 1 - phi_{<=b}."""
    return 1.0 - phi_le(r, b)


def phi_shell(r, k):
    """phi_k(r) = bump(r/2^k) - bump(r/2^(k-1)), the dyadic shell cutoff."""
    r = np.asarray(r, dtype=float)
    return bump(r / 2.0 ** k) - bump(r / 2.0 ** (k - 1))


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Square frequency grid Z^2 cap [-M/2, M/2)^2 with M^2 spatial samples.

    Pointwise products keep the square |k_i| <= kmax of the 2/3 rule: kmax
    is the largest k with 3k < M, which makes retained quadratic products
    alias-free (and the discrete conservation identities exact).
    """

    size: int

    def __post_init__(self):
        if self.size < 4 or self.size % 2:
            raise ConfigError(f"grid size must be even and >= 4, got {self.size}")

    @property
    def kmax_dealias(self) -> int:
        return (self.size - 1) // 3

    def freqs(self):
        """Integer frequency arrays (k1, k2) in fft layout; cached per grid
        size and read-only, so every caller shares one pair."""
        return _int_freqs(self.size)

    def dealias_mask(self):
        k1, k2 = self.freqs()
        km = self.kmax_dealias
        return (np.abs(k1) <= km) & (np.abs(k2) <= km)

    def x(self):
        """Spatial sample points (X1, X2), X_i in [0, 2pi); cached per grid
        size and read-only, like freqs()."""
        return _points(self.size)


@functools.cache
def _points(m):
    x = TWO_PI * np.arange(m) / m
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    X1.flags.writeable = False
    X2.flags.writeable = False
    return X1, X2


@functools.cache
def _int_freqs(m):
    k = np.fft.fftfreq(m, 1.0 / m).astype(np.int64)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    k1.flags.writeable = False
    k2.flags.writeable = False
    return k1, k2


def _hermitian(coeffs):
    """True when conj(coeffs(-xi)) matches coeffs(xi) to 1e-12 of max|coeffs|."""
    flipped = np.conj(coeffs[_neg_index(coeffs.shape[0])][:, _neg_index(coeffs.shape[0])])
    scale = np.max(np.abs(coeffs))
    return bool(np.max(np.abs(coeffs - flipped)) <= 1e-12 * scale)


def _neg_index(m):
    return (-np.arange(m)) % m


@dataclass(frozen=True)
class FourierField:
    """Complex Fourier coefficients of a function on T^2 (immutable)."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)
    is_real_valued: bool = False

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.size, self.grid.size):
            raise ConfigError(f"coefficient shape {c.shape} does not match grid {self.grid.size}")
        c = c.copy()
        ny = self.grid.size // 2  # unpaired Nyquist row is not retained
        c[ny, :] = 0.0
        c[:, ny] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_coeffs(cls, grid, coeffs, check_real=True):
        real = bool(check_real) and _hermitian(np.asarray(coeffs, dtype=np.complex128))
        return cls(grid, np.asarray(coeffs, dtype=np.complex128), real)

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((grid.size, grid.size), np.complex128), True)

    @classmethod
    def single_mode(cls, grid, xi, amplitude=1.0):
        """Field whose only coefficient is at frequency xi: a * e^{i xi.x}."""
        c = np.zeros((grid.size, grid.size), np.complex128)
        c[xi[0] % grid.size, xi[1] % grid.size] = amplitude * TWO_PI ** 2
        return cls.from_coeffs(grid, c)

    # -- basic algebra (fields on the same grid) ----------------------------
    def _same_grid(self, other):
        if self.grid != other.grid:
            raise ConfigError("fields live on different grids")

    def __add__(self, other):
        self._same_grid(other)
        return FourierField(self.grid, self.coeffs + other.coeffs,
                            self.is_real_valued and other.is_real_valued)

    def __sub__(self, other):
        self._same_grid(other)
        return FourierField(self.grid, self.coeffs - other.coeffs,
                            self.is_real_valued and other.is_real_valued)

    def __mul__(self, scalar):
        s = complex(scalar)
        real = self.is_real_valued and s.imag == 0.0
        return FourierField(self.grid, self.coeffs * s, real)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def conj(self):
        m = self.grid.size
        idx = _neg_index(m)
        return FourierField(self.grid, np.conj(self.coeffs[idx][:, idx]), self.is_real_valued)

    def real_part(self):
        return 0.5 * (self + self.conj())

    def imag_part(self):
        return (self - self.conj()) * (-0.5j)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def analyze(samples, grid: Grid) -> FourierField:
    """Spatial samples (M x M) -> Fourier coefficients in the fixed convention."""
    s = np.asarray(samples)
    if s.shape != (grid.size, grid.size):
        raise ConfigError(f"sample shape {s.shape} does not match grid size {grid.size}")
    coeffs = np.fft.fft2(s) * (TWO_PI / grid.size) ** 2
    return FourierField(grid, coeffs, bool(np.isrealobj(s)))


def synthesize(f: FourierField) -> np.ndarray:
    """Fourier coefficients -> spatial samples on the M x M grid."""
    out = np.fft.ifft2(f.coeffs) * f.grid.size ** 2 / TWO_PI ** 2
    return out.real if f.is_real_valued else out


# ---------------------------------------------------------------------------
# multipliers, projections, norms
# ---------------------------------------------------------------------------

def apply_multiplier(f: FourierField, m, name="multiplier") -> FourierField:
    """Apply a Fourier multiplier m(k1, k2) (vectorized callable or array).

    A multiplier singular at xi = 0 demands a zero-mean input; violating
    that raises ``SingularMultiplierError`` (this is how the zero-average
    constraint on the interface elevation is enforced).
    """
    k1, k2 = f.grid.freqs()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = m(k1, k2) if callable(m) else np.asarray(m)
    vals = np.asarray(vals, dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if bad.any():
        if bad[0, 0] and np.count_nonzero(bad) == 1:
            if abs(f.coeffs[0, 0]) > 1e-13 * (1.0 + np.max(np.abs(f.coeffs))):
                raise SingularMultiplierError(
                    f"{name} is singular at xi=0 but the field has nonzero mean")
            vals = vals.copy()
            vals[0, 0] = 0.0
        else:
            raise SingularMultiplierError(f"{name} is not finite on the retained frequencies")
    out = vals * f.coeffs
    idx = _neg_index(f.grid.size)
    even_real = np.isreal(vals).all() and np.array_equal(vals, vals[idx][:, idx])
    return FourierField(f.grid, out, f.is_real_valued and bool(even_real))


def lp_project(f: FourierField, k: int) -> FourierField:
    """Littlewood-Paley projection P_k (identically 0 for k <= -1 on the torus)."""
    return apply_multiplier(f, lambda k1, k2: phi_shell(np.hypot(k1, k2), k))


def lp_leq(f: FourierField, b) -> FourierField:
    """P_{<=b}: multiplier phi_{<=b}(|xi|)."""
    return apply_multiplier(f, lambda k1, k2: phi_le(np.hypot(k1, k2), b))


def lp_gt(f: FourierField, b) -> FourierField:
    """P_{>b} = Id - P_{<=b}."""
    return apply_multiplier(f, lambda k1, k2: phi_gt(np.hypot(k1, k2), b))


def mean(f: FourierField) -> complex:
    """Average of f over T^2, i.e. (2 pi)^{-2} fhat(0)."""
    v = complex(f.coeffs[0, 0]) / TWO_PI ** 2
    return v.real if f.is_real_valued else v


def dx(f: FourierField, axis: int) -> FourierField:
    """Spectral partial derivative along axis 0 (x1) or 1 (x2)."""
    return apply_multiplier(f, lambda k1, k2: 1j * (k1 if axis == 0 else k2))


def dealias(f: FourierField) -> FourierField:
    mask = f.grid.dealias_mask()
    return FourierField(f.grid, np.where(mask, f.coeffs, 0.0), f.is_real_valued)


def pointwise_product(f: FourierField, g: FourierField) -> FourierField:
    """Dealiased pointwise product (2/3-rule truncation after the product)."""
    f._same_grid(g)
    prod = synthesize(f) * synthesize(g)
    return dealias(analyze(prod, f.grid))


def product_exact(f: FourierField, g: FourierField) -> FourierField:
    """Alias-free product: zero-pad to a 2M grid, multiply, truncate back.

    Every retained mode of the result is the exact convolution sum, for
    arbitrary in-grid spectra (the 2/3 rule only guarantees that on the
    dealias square)."""
    f._same_grid(g)
    m = f.grid.size
    big = 2 * m

    def pad(c):
        out = np.zeros((big, big), np.complex128)
        cc = np.fft.fftshift(c)
        out[big // 2 - m // 2:big // 2 + m // 2,
            big // 2 - m // 2:big // 2 + m // 2] = cc
        return np.fft.ifftshift(out)

    fa = np.fft.ifft2(pad(f.coeffs)) * big ** 2 / TWO_PI ** 2
    ga = np.fft.ifft2(pad(g.coeffs)) * big ** 2 / TWO_PI ** 2
    ph = np.fft.fft2(fa * ga) * (TWO_PI / big) ** 2
    pc = np.fft.fftshift(ph)[big // 2 - m // 2:big // 2 + m // 2,
                             big // 2 - m // 2:big // 2 + m // 2]
    return FourierField(f.grid, np.fft.ifftshift(pc),
                        f.is_real_valued and g.is_real_valued)


def l2_norm(f: FourierField) -> float:
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)) / TWO_PI)


def sobolev_norm(f: FourierField, s: float) -> float:
    """H^s norm: ((2 pi)^-2 sum <xi>^{2s} |fhat|^2)^{1/2}."""
    k1, k2 = f.grid.freqs()
    w = (1.0 + (k1 * k1 + k2 * k2).astype(float)) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)) / TWO_PI)


def check_power(N, q_max, where):
    """ConfigError unless (1+q)^N is a finite normal float for every q = |v|^2
    <= q_max: a large N overflows it, a large negative N underflows it to 0
    (or to subnormals that have lost their digits)."""
    with np.errstate(over="ignore", under="ignore"):
        w = np.float64(1.0 + q_max) ** N
    if sys.float_info.min <= w < math.inf:
        return
    if w == math.inf:
        n_max = math.log(sys.float_info.max) / math.log(1.0 + q_max)
        raise ConfigError(f"N = {N!r} overflows (1+|v|^2)^N {where}; the largest "
                          f"admissible N there is {math.floor(n_max * 100) / 100}")
    n_min = math.log(sys.float_info.min) / math.log(1.0 + q_max)
    raise ConfigError(f"N = {N!r} underflows (1+|v|^2)^N {where}; the smallest "
                      f"admissible N there is {math.ceil(n_min * 100) / 100}")


def inner(f: FourierField, g: FourierField) -> complex:
    """L^2 inner product <f, g> = int f conj(g) dx."""
    f._same_grid(g)
    return complex(np.sum(f.coeffs * np.conj(g.coeffs)) / TWO_PI ** 2)


def random_field(grid: Grid, seed=0, decay=0.25, real=False, mean_zero=True) -> FourierField:
    """Seeded random field with Gaussian spectral decay (test/CLI probe data)."""
    rng = np.random.default_rng(seed)
    k1, k2 = grid.freqs()
    env = np.exp(-decay * (k1 * k1 + k2 * k2).astype(float))
    c = (rng.standard_normal((grid.size, grid.size))
         + 1j * rng.standard_normal((grid.size, grid.size))) * env
    if mean_zero:
        c[0, 0] = 0.0
    fld = FourierField.from_coeffs(grid, c, check_real=False)
    fld = dealias(fld)
    if real:
        fld = fld.real_part()
        fld = FourierField(grid, fld.coeffs, True)
    return fld


def fit_line(xs, ys):
    """(slope, stderr) of the least-squares line through the points (xs, ys).

    The closed form on centered data, every sum a math.fsum in the points'
    order, so the slope does not depend on a LAPACK build, and is exact on
    collinear points whose centering is exact.  stderr is np.polyfit's
    cov=True value, sqrt(resid / (n - 2) / Sxx), and NaN for two points;
    both are NaN when the xs do not spread."""
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = math.fsum(d * d for d in dx)
    if not sxx > 0.0:
        return math.nan, math.nan
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    if len(x) < 3:
        return slope, math.nan
    resid = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, math.sqrt(resid / (len(x) - 2) / sxx)


# ---------------------------------------------------------------------------
# artifact I/O: the JSON and the CSV format; snapshots (JSON header + CSV)
# ---------------------------------------------------------------------------

#: the columns of a snapshot's coefficient table
SNAPSHOT_COLUMNS = ("xi1", "xi2", "re", "im")
#: the format tag of a snapshot's header
SNAPSHOT_FORMAT = "gcwaves-field-v1"
#: the one dealiasing rule (Grid.kmax_dealias), as a snapshot's header records it
DEALIAS_FRACTION = 2.0 / 3.0


def finite_json(obj):
    """obj as strict-JSON (RFC 8259) values in one walk, with the bytes
    json.dumps would write for it: non-finite floats become null, tuples
    lists, and dict keys the strings JSON makes of them; numpy scalars
    (numbers and bools) become Python ones, and any other object is written
    through its to_json() or, failing that, its public __dict__ entries."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {_json_key(k): finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_json(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return finite_json(obj.item())
    if hasattr(obj, "to_json"):
        return finite_json(obj.to_json())
    if hasattr(obj, "__dict__"):
        return {k: finite_json(v) for k, v in obj.__dict__.items() if not k.startswith("_")}
    raise TypeError(f"not serializable: {type(obj)}")


def _json_key(k):
    """A dict key as JSON writes it (1 -> "1", True -> "true", None -> "null")."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k)}")


def write_json(path, obj):
    """Write finite_json(obj) to path as sorted, 2-space indented strict JSON
    with a final newline: the one format of every JSON artifact."""
    with open(path, "w") as fh:
        json.dump(finite_json(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, columns, rows):
    """Write a header line of ``columns``, then one line per row: a str as it
    is, any other value by repr, so floats read back exactly and non-finite
    ones read nan or inf.  The one format of every CSV artifact; a numpy
    scalar raises TypeError (numpy 2's repr of np.float64(1) is np.float64(1.0))."""
    def line(row):
        for v in row:
            if isinstance(v, np.generic):
                raise TypeError(f"CSV value {v!r} is a numpy scalar")
        return ",".join([v if isinstance(v, str) else repr(v) for v in row]) + "\n"

    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(line, rows))


def save_snapshot(f: FourierField, path_prefix: str, time=0.0, name="field"):
    """Write <prefix>.json (header) and <prefix>.csv (coefficient table).

    The CSV is plain text (no byte-order concerns), rows sorted
    lexicographically by (xi1, xi2); only nonzero coefficients are stored."""
    header = {
        "format": SNAPSHOT_FORMAT,
        "grid": {"size": f.grid.size, "dealias_fraction": DEALIAS_FRACTION},
        "time": time,
        "name": name,
        "is_real_valued": f.is_real_valued,
        "columns": SNAPSHOT_COLUMNS,
        "table": "csv",
    }
    write_json(path_prefix + ".json", header)
    k1, k2 = f.grid.freqs()
    nz = np.nonzero(f.coeffs)
    x1, x2 = k1[nz], k2[nz]
    order = np.lexsort((x2, x1))
    c = f.coeffs[nz][order]
    write_csv(path_prefix + ".csv", SNAPSHOT_COLUMNS,
              zip(x1[order].tolist(), x2[order].tolist(), c.real.tolist(), c.imag.tolist()))


def load_snapshot(path_prefix: str):
    """Inverse of save_snapshot; returns (field, header dict).

    Raises ConfigError for a header of another format or dealiasing rule,
    for a line that does not parse as a row xi1,xi2,re,im (naming the
    line), and for a row outside the retained frequencies |xi_i| <= M/2 - 1,
    with a value that is not finite, or repeating an earlier row's
    frequency."""
    with open(path_prefix + ".json") as fh:
        header = json.load(fh)
    if header.get("format") != SNAPSHOT_FORMAT:
        raise ConfigError(f"{path_prefix}.json: format {header.get('format')!r} "
                          f"is not {SNAPSHOT_FORMAT!r}")
    if header["grid"].get("dealias_fraction") != DEALIAS_FRACTION:
        raise ConfigError(f"{path_prefix}.json: dealias_fraction "
                          f"{header['grid'].get('dealias_fraction')!r} is not the 2/3 rule")
    grid = Grid(header["grid"]["size"])
    h = grid.size // 2
    c = np.zeros((grid.size, grid.size), np.complex128)
    seen = set()
    with open(path_prefix + ".csv") as fh:
        next(fh)
        for n, line in enumerate(fh, start=2):
            try:
                a, b, re, im = line.strip().split(",")
                xi, re, im = (int(a), int(b)), float(re), float(im)
            except ValueError:
                raise ConfigError(f"{path_prefix}.csv: line {n} is not a row xi1,xi2,re,im: "
                                  f"{line.strip()!r}") from None
            if not (abs(xi[0]) < h and abs(xi[1]) < h):
                raise ConfigError(f"{path_prefix}.csv: row {xi} lies outside the retained "
                                  f"frequencies |xi_i| <= {h - 1}")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ConfigError(f"{path_prefix}.csv: row {xi} holds a value that is not finite")
            if xi in seen:
                raise ConfigError(f"{path_prefix}.csv: frequency {xi} appears twice")
            seen.add(xi)
            c[xi] = complex(re, im)     # a negative index is the fft layout's
    return FourierField(grid, c, bool(header.get("is_real_valued", False))), header
