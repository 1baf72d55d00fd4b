"""The chi-support plan build (count pass, then fill into arrays sized once)
against the build it replaced, which concatenated per-block lists: every
plan array and the by_midpoint grouping bit for bit, the stored rows and
their mirrors against every pair of the grid, and the build's transient
memory."""

import tracemalloc

import numpy as np
import pytest

from gcwaves import lattice, paradiff
from gcwaves.lattice import flat, row_blocks


def _concatenating_pairs(plans, radius, rows):
    """Oracle: the pairs of the eta box on the rows ``rows`` (centered flat
    rho, in order), chi evaluated on every pair with xi off the Nyquist rows
    and the kept entries of each block of rows concatenated at the end: the
    plan arrays xi, rho, mid and chi, the entry count of each row, and the
    first row (position in ``rows``) reaching each midpoint pair."""
    m, half = plans.m, plans.m // 2
    k = np.arange(-radius, radius + 1)
    new = {"xi": [], "rho": [], "mid": [], "chi": []}
    counts = []
    pair_row = np.full((len(plans.sums[0]) + 1) // 2, m * m, np.int32)
    for lo, hi in row_blocks(len(rows), len(k) ** 2):
        ks = np.arange(lo, hi)
        r1 = plans.k1[rows[ks]][:, None, None]
        r2 = plans.k2[rows[ks]][:, None, None]
        den = np.hypot(2 * k[:, None] + r1, 2 * k[None, :] + r2)
        cand = ((np.abs(k[:, None] + r1) < half) & (np.abs(k[None, :] + r2) < half)
                & (den > 0))
        b, i1, i2 = np.nonzero(cand)
        chi = plans.chi_fn(np.hypot(r1, r2).astype(float).ravel()[b] / den[b, i1, i2])
        keep = chi > 0.0
        b, e1, e2 = b[keep], k[i1[keep]], k[i2[keep]]
        x1, x2 = e1 + r1.ravel()[b], e2 + r2.ravel()[b]
        s1, s2 = x1 + e1, x2 + e2
        mid = plans.mid_id[flat(np.stack((s1, s2), axis=-1), 2 * m - 1)]
        ids, first = np.unique(mid >> 1, return_index=True)
        pair_row[ids] = np.minimum(pair_row[ids], ks[b[first]])
        counts.append(np.bincount(b, minlength=len(ks)))
        new["xi"].append(flat(np.stack((x1, x2), axis=-1), m).astype(np.int32))
        new["rho"].append(rows[ks[b]].astype(np.int32))
        new["mid"].append(mid.astype(np.int32))
        new["chi"].append(chi[keep])
    out = {name: np.concatenate(parts) for name, parts in new.items()}
    out["row_start"] = np.concatenate(([0], np.cumsum(np.concatenate(counts)))).astype(np.int64)
    out["pair_row"] = pair_row
    return out


PLAN_ARRAYS = ("xi", "rho", "mid", "chi", "row_start", "pair_row")


def _represented(plan):
    """The pairs a built plan represents: its stored entries, then the
    mirrors (-xi, -eta) of the entries on its mirrored rows."""
    twin = slice(*plan.mirrored(len(plan.rows)))
    o2 = 2 * plan.origin
    return {"xi": np.concatenate((plan.xi, o2 - plan.xi[twin])),
            "rho": np.concatenate((plan.rho, o2 - plan.rho[twin])),
            "mid": np.concatenate((plan.mid, plan.mid[twin] ^ 1)),
            "chi": np.concatenate((plan.chi, plan.chi[twin]))}


def assert_full_pair_set(plan, full):
    """The stored entries and their mirrors are the full pair set, each
    pair once, chi bit for bit."""
    got = _represented(plan)
    a = np.lexsort((got["xi"], got["rho"]))
    b = np.lexsort((full["xi"], full["rho"]))
    for name in ("xi", "rho", "mid", "chi"):
        assert got[name].dtype == full[name].dtype, name
        assert np.array_equal(got[name][a], full[name][b]), name
    key = got["rho"].astype(np.int64) * plan.m ** 2 + got["xi"]
    assert len(np.unique(key)) == len(key)


@pytest.mark.parametrize("chi", [-1, -2, -3, -4])
@pytest.mark.parametrize("m", [8, 12, 16, 20, 32])
def test_plan_build_matches_concatenating_oracle(m, chi):
    # every box radius of a few, built in one go and as partial extends
    # followed by a full one, against the oracle on the stored rows; the
    # stored rows and their mirrors against the oracle on every row of the
    # grid; then the midpoint grouping of the full build
    plans = paradiff._ChiPlans(m, chi)
    every_row = np.argsort(plans.k1 ** 2 + plans.k2 ** 2, kind="stable")
    for radius in sorted({0, 1, m // 4, m // 2 - 1}):
        for steps in ((None,), (3, 20, None)):
            got = paradiff._ChiPlan(plans, radius)
            for n in steps:
                n = len(plans.rows) if n is None else n
                assert got.extend(n) == n
                want = _concatenating_pairs(plans, radius, plans.rows[:n])
                for name in PLAN_ARRAYS:
                    a, b = getattr(got, name), want[name]
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert_full_pair_set(got, _concatenating_pairs(plans, radius, every_row))
        perm, start, pairs = got.by_midpoint()
        order = np.argsort(want["mid"], kind="stable").astype(np.int32)
        counts = np.bincount(want["mid"] >> 1)
        assert perm.dtype == np.int32 and np.array_equal(perm, order)
        assert np.array_equal(pairs, np.flatnonzero(counts))
        assert np.array_equal(start, np.concatenate(([0], np.cumsum(counts[pairs]))))


@pytest.mark.parametrize("chi", [-1, -2, -3, -4, -20])
def test_lower_bound_holds_no_support(chi):
    # chi over every pair (rho, eta) of the 24^2 full box on the plan rows
    # (one of each +-rho, the same chi) with xi = rho + eta on the grid: 0
    # at or below a row's lower bound; and, at chi -1
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
            plan.extend()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(getattr(plan, name).nbytes for name in PLAN_ARRAYS)
        lo, hi = plan.mirrored(len(plan.rows))
        assert len(plan.xi) + hi - lo > 0.15e6      # the pairs the plan represents
        assert peak <= nbytes + 32 * 8 * block, (block, peak - nbytes)
