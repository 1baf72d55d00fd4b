"""The integer lattice Z^2 as every pair walk sees it: the censuses over
(xi, offset) tuples, the energy sums over the pairs of a box and the Weyl
calculus over the chi support share its index rule, D4 helpers, block walk
and plan cache; each keeps its own predicates, weights and entry order.

Index rule.  The centered n-box holds the v with -(n // 2) <= v_i < n - n // 2
at flat index (v1 + n // 2) n + (v2 + n // 2), so v - u sits at flat(v) -
flat(u) + flat(0).  It is the square [-s, s]^2 for n = 2 s + 1, and the
np.fft.fftshift layout of an n x n array for every n.

D4.  Lambda depends on |v| only, so every phase, weight, measure profile
and depletion quantity is unchanged, bit for bit, when the lattice symmetry
group D4 acts on all frequencies of a tuple at once.  The census sweeps
therefore evaluate only the tuples whose first frequency is an orbit
representative 0 <= v2 <= v1 (scan3's xi, scan4's v, measure's eta), and
map the rows they keep to their 8 images; the records, shell statistics,
tuple counts and measure totals are those of the whole window.  The
representatives are listed without the window (``disk_reps``), and scan3
tabulates its norms on the ``Box`` its sweep reaches, so a sweep's memory
is sized by the representatives it evaluates.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# pairs per block of a vectorized walk (plan entries per pass of a Weyl
# walk), so no block's temporaries raise a run's peak memory.  The energy
# pair sums add one partial sum per block, so the grouping fixes the last
# bits of audit.json; a Weyl walk's sums do not depend on it
BLOCK = 1 << 13

#: the three most recently used plans of a kind are kept: a run alternates
#: between at most two grid sizes (or sign pairs), plus one
plan_cache = functools.lru_cache(maxsize=3)

# the lattice symmetry group D4 of Z^2 as 8 integer matrices: the sign
# changes of (v1, v2) and of (v2, v1)
D4 = np.array([[[s1, 0], [0, s2]] for s1 in (1, -1) for s2 in (1, -1)]
              + [[[0, s1], [s2, 0]] for s1 in (1, -1) for s2 in (1, -1)])


def flat(pts, n):
    """Flat index of the points pts (..., 2) in the centered n-box."""
    pts = np.asarray(pts)
    return (pts[..., 0] + n // 2) * n + (pts[..., 1] + n // 2)


def coords(n):
    """Signed coordinates (k1, k2) of every flat index of the centered n-box."""
    k = np.arange(n * n)
    return k // n - n // 2, k % n - n // 2


def norms(n):
    """|v| at every flat index of the centered n-box."""
    return np.hypot(*coords(n))


@functools.cache
def shift_perms(n):
    """(centered, fft): read-only flat index permutations between the fft
    layout of an n x n array and the centered n-box, cached per n.
    np.take(a, centered) is np.fft.fftshift(a).ravel() and np.take(b, fft)
    is np.fft.ifftshift(b.reshape(n, n)).ravel(), with no np.roll."""
    k1, k2 = coords(n)
    centered = (k1 % n) * n + k2 % n
    fft = np.empty_like(centered)
    fft[centered] = np.arange(n * n)
    centered.flags.writeable = False
    fft.flags.writeable = False
    return centered, fft


class Box:
    """The lattice points lo <= v <= hi (coordinatewise) at flat index
    (v1 - lo1) w + (v2 - lo2), w = hi2 - lo2 + 1, so v - u sits at flat(v) -
    flat(u) + flat(0) like in the centered n-box."""

    def __init__(self, lo, hi):
        self.lo = (int(lo[0]), int(lo[1]))
        self.width = int(hi[1]) - self.lo[1] + 1
        self.size = (int(hi[0]) - self.lo[0] + 1) * self.width

    def flat(self, pts):
        """Flat index of the points pts (..., 2)."""
        pts = np.asarray(pts)
        return (pts[..., 0] - self.lo[0]) * self.width + (pts[..., 1] - self.lo[1])

    def norms(self):
        """|v| at every flat index, by the same elementwise call as ``norms``."""
        k = np.arange(self.size)
        return np.hypot(k // self.width + self.lo[0], k % self.width + self.lo[1])


def _disk(lo, radius, include_origin):
    # the points lo <= v_i <= radius with |v| <= radius, lex-sorted
    r = int(math.floor(radius))
    a, b = np.meshgrid(np.arange(lo, r + 1), np.arange(lo, r + 1), indexing="ij")
    keep = a * a + b * b <= radius * radius
    if not include_origin:
        keep &= (a != 0) | (b != 0)
    return np.stack((a[keep], b[keep]), axis=1)


def lattice_disk(radius, include_origin=False):
    """All lattice points with |v| <= radius as an (n, 2) int array,
    lex-sorted; origin optional."""
    return _disk(-int(math.floor(radius)), radius, include_origin)


def disk_size(radius):
    """len(lattice_disk(radius)), counted row by row without listing the
    points, so budgets are checked before any enumeration."""
    r2 = radius * radius
    r = int(math.floor(radius))
    return sum(2 * math.isqrt(math.floor(r2 - a * a)) + 1 for a in range(-r, r + 1)) - 1


def d4_reps(pts):
    """Representatives 0 <= v2 <= v1 of a D4-invariant point set: their
    indices into pts and their orbit sizes (1 at the origin, 4 on the axes
    and diagonals, 8 elsewhere).  Each orbit holds exactly one of them."""
    v1, v2 = np.asarray(pts).T
    rep = np.flatnonzero((0 <= v2) & (v2 <= v1))
    v1, v2 = v1[rep], v2[rep]
    return rep, np.where(v1 == 0, 1, np.where((v2 == 0) | (v2 == v1), 4, 8))


def disk_reps(radius, include_origin=False):
    """The D4 representatives of lattice_disk(radius), in its order, and
    their orbit sizes, listed from the quadrant v >= 0 only."""
    pts = _disk(0, radius, include_origin)
    rep, size = d4_reps(pts)
    return pts[rep], size


def d4_points(pts):
    """(8, len(pts), 2) array of the images g v over the symmetries g and the
    points v."""
    return np.asarray(pts) @ D4.transpose(0, 2, 1)


def d4_images(pts, radius):
    """(8, len(pts)) table of the position in pts of g v over the symmetries
    g and the points v of pts, a D4-invariant set inside |v| <= radius."""
    n = 2 * int(math.floor(radius)) + 1
    at = np.full(n * n, -1, np.int64)
    at[flat(pts, n)] = np.arange(len(pts))
    return at[flat(d4_points(pts), n)]


def row_blocks(n_rows, row_len):
    """(lo, hi) ranges covering rows 0 .. n_rows - 1 in order, each of about
    BLOCK // row_len rows (at least one)."""
    step = max(1, BLOCK // row_len)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)
