"""The chi-support plan build (count pass, then fill into arrays sized once)
against the build it replaced, which concatenated per-block lists: every
plan array and the by_midpoint grouping bit for bit, and the build's
transient memory."""

import tracemalloc

import numpy as np
import pytest

from gcwaves import lattice, paradiff
from gcwaves.lattice import flat, row_blocks


def _concatenating_extend(plan, rho_sq):
    """Oracle: the plan build that evaluates chi on every pair of the box
    with xi off the Nyquist rows and concatenates the kept entries of each
    block of rows at the end."""
    n = int(np.searchsorted(plan.row_sq, rho_sq, side="right"))
    built = len(plan.row_start) - 1
    if n <= built:
        return n
    m, half = plan.m, plan.m // 2
    k = np.arange(-plan.radius, plan.radius + 1)
    new = {"xi": [], "rho": [], "mid": [], "chi": []}
    counts = []
    for lo, hi in row_blocks(n - built, len(k) ** 2):
        ks = np.arange(built + lo, built + hi)
        r1 = plan.k1[plan.rows[ks]][:, None, None]
        r2 = plan.k2[plan.rows[ks]][:, None, None]
        den = np.hypot(2 * k[:, None] + r1, 2 * k[None, :] + r2)
        cand = ((np.abs(k[:, None] + r1) < half) & (np.abs(k[None, :] + r2) < half)
                & (den > 0))
        b, i1, i2 = np.nonzero(cand)
        chi = plan.chi_fn(np.hypot(r1, r2).astype(float).ravel()[b] / den[b, i1, i2])
        keep = chi > 0.0
        b, e1, e2 = b[keep], k[i1[keep]], k[i2[keep]]
        x1, x2 = e1 + r1.ravel()[b], e2 + r2.ravel()[b]
        s1, s2 = x1 + e1, x2 + e2
        mid = plan.mid_id[flat(np.stack((s1, s2), axis=-1), 2 * m - 1)]
        ids, first = np.unique(mid, return_index=True)
        plan.mid_row[ids] = np.minimum(plan.mid_row[ids], ks[b[first]])
        counts.append(np.bincount(b, minlength=len(ks)))
        new["xi"].append(flat(np.stack((x1, x2), axis=-1), m).astype(np.int32))
        new["rho"].append(plan.rows[ks[b]].astype(np.int32))
        new["mid"].append(mid.astype(np.int32))
        new["chi"].append(chi[keep])
    plan.row_start = np.concatenate(
        (plan.row_start, len(plan.xi) + np.cumsum(np.concatenate(counts))))
    for name, parts in new.items():
        setattr(plan, name, np.concatenate([getattr(plan, name)] + parts))
    return n


PLAN_ARRAYS = ("xi", "rho", "mid", "chi", "row_start", "mid_row")


def _assert_same_plan(got, want):
    for name in PLAN_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("chi", [-1, -2, -3, -4])
@pytest.mark.parametrize("m", [8, 12, 16, 20, 32])
def test_plan_build_matches_concatenating_oracle(m, chi):
    # every box radius of a few, built in one go and as a partial extend
    # followed by a full one; then the midpoint grouping of the full build
    plans = paradiff._ChiPlans(m, chi)
    for radius in sorted({0, 1, m // 4, m // 2 - 1}):
        for steps in ((np.inf,), (2.0, 10.0, np.inf)):
            got, want = paradiff._ChiPlan(plans, radius), paradiff._ChiPlan(plans, radius)
            for rho_sq in steps:
                assert got.extend(rho_sq) == _concatenating_extend(want, rho_sq)
                _assert_same_plan(got, want)
        perm, start, ids = got.by_midpoint()[:3]
        order = np.argsort(want.mid, kind="stable").astype(np.int32)
        counts = np.bincount(want.mid, minlength=len(want.mid_row))
        assert perm.dtype == np.int32 and np.array_equal(perm, order)
        assert np.array_equal(ids, np.flatnonzero(counts))
        assert np.array_equal(start, np.concatenate(([0], np.cumsum(counts[ids]))))


@pytest.mark.parametrize("chi", [-1, -2, -3, -4, -20])
def test_lower_bound_holds_no_support(chi):
    # chi over every pair (rho, eta) of the 24^2 full box with xi = rho +
    # eta on the grid: 0 at or below a row's lower bound; and, at chi -1
    # and -2, the bound is tight: some pair at most 1 % above it has chi > 0
    m = 24
    plans = paradiff._ChiPlans(m, chi)
    k = np.arange(-(m // 2 - 1), m // 2)
    r1, r2 = plans.k1[plans.rows][:, None, None], plans.k2[plans.rows][:, None, None]
    s1, s2 = 2 * k[:, None] + r1, 2 * k[None, :] + r2
    ssq = s1 * s1 + s2 * s2
    on_grid = (np.abs(k[:, None] + r1) < m // 2) & (np.abs(k[None, :] + r2) < m // 2)
    ssq = np.where(on_grid, ssq, 0)     # pairs off the grid: never candidates
    off = ssq > 0
    c = plans.chi_fn(np.hypot(r1, r2) / np.where(off, np.hypot(s1, s2), 1.0))
    lower = plans.lower[:, None, None]
    assert np.all(c[off & (ssq <= lower)] == 0.0)
    if chi == -20:       # only rho = 0 is in the support on a desk-scale grid
        assert np.array_equal(np.any(c > 0.0, axis=(1, 2)), plans.row_sq == 0)
        return
    if chi >= -2:
        assert np.any(c[(ssq > lower) & (ssq <= lower * 1.01)] > 0.0)


def test_plan_build_transient_is_one_block(monkeypatch):
    # the full 32^2 plan allocates its arrays once: its traced peak is the
    # plan's bytes plus a block's temporaries (at most 32 float64 arrays of
    # BLOCK entries), at the default BLOCK and at a quarter of it; the
    # concatenating build holds its per-block lists and their concatenation
    # at once, 3.4 MB over the plan at either BLOCK
    for block in (lattice.BLOCK, lattice.BLOCK // 4):
        monkeypatch.setattr(lattice, "BLOCK", block)
        plans = paradiff._ChiPlans(32, -2)
        tracemalloc.start()
        try:
            plan = paradiff._ChiPlan(plans, 15)
            plan.extend(np.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(getattr(plan, name).nbytes for name in PLAN_ARRAYS)
        assert len(plan.xi) > 0.15e6
        assert peak <= nbytes + 32 * 8 * block, (block, peak - nbytes)
