import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

import gcwaves
from gcwaves import dispersion, lattice
from gcwaves.dispersion import (DispersionParams, ScanWindow,
                                SignPattern, WeightParams, collinear_gap,
                                exceptional_measure_bound,
                                exceptional_measure_bounds, lam, lemma1_profile,
                                phase3, phase3_sym, phase4, phase5, profile_F,
                                scan_four_wave, scan_three_wave, weight_K)
from gcwaves.errors import ConfigError, ResourceBudgetError

from census_oracles import (check_census, disk, oracle_scan3, oracle_scan4,
                            scan3_id, scan4_id)

P11 = DispersionParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# the dispersion relation
# ---------------------------------------------------------------------------

def test_lam_closed_forms():
    assert lam(P11, (1, 0)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert lam(P11, (0, 0)) == 0.0
    assert lam(DispersionParams(123.0, 0.7), (0, 0)) == 0.0
    assert lam(DispersionParams(2.0, 1.0), (3, 4)) == pytest.approx(math.sqrt(135), abs=1e-9)


def test_lam_even_and_monotone():
    rng = np.random.default_rng(0)
    prev = 0.0
    for r in range(0, 30):
        v = lam(P11, (r, 0))
        assert v >= prev
        prev = v
    for _ in range(100):
        v = tuple(rng.integers(-40, 41, 2))
        assert lam(P11, v) == lam(P11, (-v[0], -v[1]))


def test_params_validation():
    with pytest.raises(ConfigError):
        DispersionParams(0.0, 1.0)
    with pytest.raises(ConfigError):
        DispersionParams(1.0, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            DispersionParams(bad, 1.0)
        with pytest.raises(ConfigError):
            DispersionParams(1.0, bad)
    assert DispersionParams(3.0, 2.0).y == pytest.approx(1.5)


def test_sign_pattern_validation():
    with pytest.raises(ConfigError):
        SignPattern((1, 2))
    with pytest.raises(ConfigError):
        SignPattern((1,))
    assert tuple(SignPattern((1, -1, 1))) == (1, -1, 1)


# ---------------------------------------------------------------------------
# phase functions
# ---------------------------------------------------------------------------

def test_phase3_closed_forms():
    assert phase3(P11, (1, 1), (2, 0), (1, 0)) == pytest.approx(
        math.sqrt(10) - 2 * math.sqrt(2), abs=1e-12)
    xi = (5, -3)
    assert phase3(P11, (1, 1), xi, xi) == 0.0  # eta = xi: -Lambda(0)
    assert phase3(P11, (1, 1), (1, 0), (0, 1)) == pytest.approx(
        math.sqrt(2) - math.sqrt(2) - math.sqrt(3 * math.sqrt(2)), abs=1e-4)


def test_phase3_symmetric_form_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(200):
        xi = tuple(int(v) for v in rng.integers(-20, 21, 2))
        eta = tuple(int(v) for v in rng.integers(-20, 21, 2))
        i1, i2 = rng.choice([-1, 1], 2)
        v1, v2, v3 = xi, (eta[0] - xi[0], eta[1] - xi[1]), (-eta[0], -eta[1])
        lhs = phase3(P11, (i1, i2), xi, eta)
        rhs = phase3_sym(P11, (1, -i1, -i2), v1, v2, v3)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phase3_sym_rejects_nonzero_sum():
    with pytest.raises(ConfigError):
        phase3_sym(P11, (1, 1, 1), (1, 0), (0, 1), (1, 1))


def test_phase4_trivial_resonance_exact():
    rng = np.random.default_rng(2)
    for _ in range(500):
        xi = tuple(int(v) for v in rng.integers(-30, 31, 2))
        eta = tuple(int(v) for v in rng.integers(-30, 31, 2))
        s = int(rng.choice([-1, 1]))
        assert phase4(P11, (1, s, -s), xi, eta, xi) == 0.0


def test_phase4_reduces_to_phase3():
    # rho = 0 with all-plus signs: Lambda(2,0) - 0 - Lambda(1,0) - Lambda(1,0)
    val = phase4(P11, (1, 1, 1), (2, 0), (1, 0), (0, 0))
    assert val == pytest.approx(math.sqrt(10) - 2 * math.sqrt(2), abs=1e-12)


def test_phase4_additivity_random():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        xi, eta, rho = (tuple(int(v) for v in rng.integers(-40, 41, 2)) for _ in range(3))
        i1, i3 = (int(s) for s in rng.choice([-1, 1], 2))
        lhs = phase4(P11, (1, i1, i3), xi, eta, rho)
        rhs = phase3(P11, (i1, 1), xi, eta) + phase3(P11, (i3, 1), eta, rho)
        assert abs(lhs - rhs) <= 1e-12


def test_phase5_decomposition_random():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        xi, eta, rho, th = (tuple(int(v) for v in rng.integers(-40, 41, 2)) for _ in range(4))
        i1, i3, i4 = (int(s) for s in rng.choice([-1, 1], 3))
        lhs = phase5(P11, (1, i1, i3, i4), xi, eta, rho, th)
        rhs = phase4(P11, (1, i1, i3), xi, eta, rho) + phase3(P11, (i4, 1), rho, th)
        assert abs(lhs - rhs) <= 1e-12


def test_phase5_theta_equals_rho():
    xi, eta, rho = (7, 1), (2, -4), (3, 3)
    for i4 in (1, -1):
        v = phase5(P11, (1, 1, -1, i4), xi, eta, rho, rho)
        assert v == pytest.approx(phase4(P11, (1, 1, -1), xi, eta, rho), abs=1e-14)


def test_phase5_all_equal_vanishes():
    v = (1, 0)
    assert phase5(P11, (1, 1, 1, 1), v, v, v, v) == 0.0


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_K_oracle_value():
    # high-precision oracle (mpmath, 50 digits) for kappa = 1/2,
    # v1 = v2 = (1,0), v3 = (-2,0)
    with mpmath.workdps(50):
        b1 = mpmath.sqrt(2)
        b3 = mpmath.sqrt(5)
        expect = float(b3 ** mpmath.mpf(-1.5)
                       * mpmath.log(1 + b3) ** mpmath.mpf(-1.5) * b1 ** -4)
    got = weight_K(WeightParams(0.5), (1, 0), (1, 0), (-2, 0))
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(0.0587504478587, rel=1e-10)


def test_weight_K_monotone_in_max():
    wp = WeightParams(0.5)
    vals = [weight_K(wp, (1, 0), (1, 0), (r, 0)) for r in range(2, 12)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_weight_K_permutation_invariant():
    wp = WeightParams(0.7)
    vs = ((3, 1), (-2, 4), (-1, -5))
    base = weight_K(wp, *vs)
    import itertools
    for perm in itertools.permutations(vs):
        assert weight_K(wp, *perm) == pytest.approx(base, rel=1e-14)


def test_weight_K_rejects_zero_vector():
    with pytest.raises(ConfigError):
        weight_K(WeightParams(0.5), (0, 0), (1, 0), (-1, 0))
    with pytest.raises(ConfigError):
        WeightParams(0.0)


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------

def test_scan3_contains_known_record():
    res = scan_three_wave(P11, WeightParams(0.5), ScanWindow(8, 1), n_records=5000)
    target = None
    for r in res.records:
        if r.frequencies[0] == (2, 0) and tuple(r.signs) == (1, -1, -1) \
                and r.frequencies[1] == (-1, 0):
            target = r
    assert target is not None
    assert abs(target.phase_value) == pytest.approx(0.3338505, abs=1e-6)


def test_scan3_window_invariants():
    with pytest.raises(ConfigError):
        ScanWindow(0, 1)
    with pytest.raises(ConfigError):
        ScanWindow(4, 8)


def test_scan3_matches_bruteforce_subwindow():
    # independent triple loop over the same window (the stated oracle)
    wp = WeightParams(0.5)
    params = DispersionParams(math.sqrt(2.0), 1.0)
    win = ScanWindow(16, 2)
    res = scan_three_wave(params, wp, win, n_records=10)
    best = math.inf
    for x1 in range(-16, 17):
        for x2 in range(-16, 17):
            if x1 * x1 + x2 * x2 > 256 or (x1, x2) == (0, 0):
                continue
            for r1 in range(-2, 3):
                for r2 in range(-2, 3):
                    if r1 * r1 + r2 * r2 > 4 or (r1, r2) == (0, 0):
                        continue
                    eta = (x1 - r1, x2 - r2)
                    if eta == (0, 0):
                        continue
                    w = weight_K(wp, (x1, x2), (r1, r2), eta)
                    for i1 in (1, -1):
                        for i2 in (1, -1):
                            ph = phase3(params, (i1, i2), (x1, x2), eta)
                            best = min(best, abs(ph) / w)
    assert res.min_gap == pytest.approx(best, rel=1e-9)


def test_scan3_deterministic():
    a = scan_three_wave(P11, WeightParams(0.5), ScanWindow(12, 2), n_records=40)
    b = scan_three_wave(P11, WeightParams(0.5), ScanWindow(12, 2), n_records=40)
    assert a.records == b.records
    assert a.min_gap == b.min_gap


def test_scan3_positive_min_on_generic_g():
    res = scan_three_wave(DispersionParams(math.sqrt(2.0), 1.0),
                          WeightParams(0.5), ScanWindow(64, 4))
    assert res.min_gap > 0.0
    assert all(s.min_gap > 0.0 for s in res.shell_stats)


@pytest.mark.parametrize("census", ["scan3", "scan4"])
def test_census_without_records_reports_the_shell_minimum(census):
    # the minimum is over every evaluated tuple, whether or not a record is kept
    params = DispersionParams(math.sqrt(2.0), 1.0)
    run = {"scan3": lambda n: scan_three_wave(params, WeightParams(0.5), ScanWindow(8, 1),
                                              n_records=n),
           "scan4": lambda n: scan_four_wave(params, ScanWindow(8, 1), n_records=n)}[census]
    bare, kept = run(0), run(1)
    assert bare.records == [] and bare.n_evaluated == kept.n_evaluated
    assert bare.min_gap == min(s.min_gap for s in bare.shell_stats)
    assert 0.0 < bare.min_gap < math.inf
    assert kept.min_gap == kept.records[0].normalized_gap
    assert bare.min_gap == pytest.approx(kept.min_gap, rel=1e-12)


def test_scan3_budget_guard():
    with pytest.raises(ResourceBudgetError):
        scan_three_wave(P11, WeightParams(0.5), ScanWindow(64, 4), budget=100)


def test_scan4_trivial_pair_never_enumerated():
    res = scan_four_wave(P11, ScanWindow(12, 2), n_records=100000)
    for r in res.records:
        _, xi, eta = r.frequencies
        s1, s2 = tuple(r.signs)
        assert not (xi == eta and s1 == s2)


def test_scan4_closed_form_modulations():
    # the paired modulations are Gamma_i = phase3((s_i, +), v + mu_i, v);
    # check the far-lattice (100,0) example by closed form ...
    v, xi, eta = (100, 0), (1, 0), (-1, 0)
    g1 = lam(P11, (101, 0)) - lam(P11, v) - lam(P11, xi)
    g2 = lam(P11, (99, 0)) - lam(P11, v) - lam(P11, eta)
    assert g1 == pytest.approx(phase3(P11, (1, 1), (101, 0), v), abs=1e-12)
    assert g2 == pytest.approx(phase3(P11, (1, 1), (99, 0), v), abs=1e-12)
    # ... and validate every record of an exhaustively-retained small window
    res = scan_four_wave(P11, ScanWindow(4, 1), n_records=10_000)
    assert len(res.records) > 100
    for r in res.records:
        vv, x, e = r.frequencies
        s1, s2 = tuple(r.signs)
        m1 = phase3(P11, (s1, 1), (vv[0] + x[0], vv[1] + x[1]), vv)
        m2 = phase3(P11, (s2, 1), (vv[0] + e[0], vv[1] + e[1]), vv)
        assert r.phase_value == pytest.approx(max(abs(m1), abs(m2)), abs=1e-12)
        assert r.normalized_gap == pytest.approx(r.phase_value / r.weight, rel=1e-12)


def test_scan4_empirical_bprime_positive():
    res = scan_four_wave(DispersionParams(math.sqrt(2.0), 1.0), ScanWindow(64, 2))
    assert 0.0 < res.min_gap < math.inf


# ---------------------------------------------------------------------------
# collinear gaps
# ---------------------------------------------------------------------------

def test_collinear_single_interior_point():
    out = collinear_gap(P11, (2, 0))
    assert len(out) == 1
    eta, gap, norm = out[0]
    assert eta == (1, 0)
    assert gap == pytest.approx(math.sqrt(10) / 2 - math.sqrt(2), abs=1e-12)
    assert norm == pytest.approx(gap * 2 ** 6, rel=1e-12)


def test_collinear_primitive_is_empty():
    assert collinear_gap(P11, (3, 2)) == []
    assert collinear_gap(P11, (1, 0)) == []


def test_collinear_six_points():
    out = collinear_gap(DispersionParams(math.sqrt(2.0), 1.0), (6, 0))
    assert len(out) == 5
    assert all(gap > 0.0 for _, gap, _ in out)


def test_collinear_rejects_zero():
    with pytest.raises(ConfigError):
        collinear_gap(P11, (0, 0))


# ---------------------------------------------------------------------------
# the profile F and its sublevel intervals
# ---------------------------------------------------------------------------

def test_lemma1_exact_root():
    # (a,b,c) = (1,1,2): 2 sqrt(x+1) = sqrt(2x+8) at x = 2
    res = lemma1_profile(1.0, 1.0, 2.0, 10.0, 0.05)
    assert res.root == pytest.approx(2.0, abs=1e-9)
    assert res.interval is not None
    lo, hi = res.interval
    assert lo < 2.0 < hi
    assert res.length <= 20 * 0.05 * math.sqrt(1.0 + 10.0)


def test_lemma1_no_root_when_degenerate():
    # (a,b,c) = (1,1,1): F = sqrt(x+1) >= 1 everywhere
    res = lemma1_profile(1.0, 1.0, 1.0, 10.0, 0.05)
    assert res.root is None
    assert res.interval is None
    assert res.length == 0.0


def test_lemma1_parameter_validation():
    with pytest.raises(ConfigError):
        lemma1_profile(0.5, 1.0, 1.0, 10.0, 0.05)   # a < 1
    with pytest.raises(ConfigError):
        lemma1_profile(1.0, 2.0, 4.0, 10.0, 0.05)   # c > a + b
    with pytest.raises(ConfigError):
        lemma1_profile(1.0, 1.0, 2.0, 10.0, 0.2)    # delta > 1/20


def test_lemma1_brute_force_grid_oracle():
    # random admissible parameters; X checked against a fine x-grid
    rng = np.random.default_rng(5)
    for _ in range(60):
        a = 1.0 + 5.0 * rng.random()
        b = a + 4.0 * rng.random()
        c = b + (a + b - b) * rng.random()
        c = min(c, a + b)
        B = 1.0 + 19.0 * rng.random()
        delta = 1e-4 + (0.05 - 1e-4) * rng.random()
        res = lemma1_profile(a, b, c, B, delta)
        xs = np.arange(0.0, B, 1e-4)[1:]
        inside = np.abs(profile_F(a, b, c, xs)) < delta
        if res.interval is None:
            assert inside.sum() <= 2  # at most boundary-grazing grid points
            continue
        lo, hi = res.interval
        assert res.length <= 20 * delta * math.sqrt(a + B) + 1e-9
        sel = np.nonzero(inside)[0]
        # single interval: the sublevel grid points are contiguous
        assert np.all(np.diff(sel) == 1)
        assert xs[sel[0]] == pytest.approx(lo, abs=2e-4)
        assert xs[sel[-1]] == pytest.approx(hi, abs=2e-4)


def test_lemma1_derivative_lower_bound_in_band():
    # wherever |F| <= 1/10, F' >= a / (10 sqrt(a x + a^3)) on a probe grid
    rng = np.random.default_rng(6)
    for _ in range(40):
        a = 1.0 + 4.0 * rng.random()
        b = a + 3.0 * rng.random()
        c = min(b + a * rng.random(), a + b)
        xs = np.linspace(0.0, 30.0, 4000)
        f = profile_F(a, b, c, xs)
        h = 1e-6
        fp = (profile_F(a, b, c, xs + h) - profile_F(a, b, c, xs - h)) / (2 * h)
        band = np.abs(f) <= 0.1
        if band.any():
            bound = a / (10.0 * np.sqrt(a * xs[band] + a ** 3))
            assert np.all(fp[band] >= bound - 1e-7)


def test_lemma1_empty_forced_certificate():
    # far-from-balanced triple: certificate fires and X is indeed empty
    res = lemma1_profile(1.0, 1.0, 1.9, 5.0, 0.01)
    if res.empty_forced:
        assert res.interval is None
    # balanced triple: certificate must not fire when X is nonempty
    res2 = lemma1_profile(1.0, 1.0, 2.0, 10.0, 0.05)
    assert res2.interval is not None
    assert not res2.empty_forced


# ---------------------------------------------------------------------------
# exceptional-set measure
# ---------------------------------------------------------------------------

def test_measure_bound_cutoff_one_hand_enumeration():
    # at cutoff 1 only unit vectors contribute; the only non-degenerate
    # triple is (a,b,c) = (1,1,2) (antipodal pairs are excluded by c >= b);
    # with 8 ordered (xi,eta) unit pairs at c=2 ... compare against a direct
    # lemma1_profile sum over the enumerated pairs
    wp = WeightParams(1.0)
    B, j = 5.0, 5
    mb = exceptional_measure_bound(B, j, wp, 1)
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    total = 0.0
    for e in units:
        for x in units:
            s = (x[0] + e[0], x[1] + e[1])
            cs = math.hypot(*s)
            if cs < 1.0 or cs < 1.0:
                continue
            if not (1.0 <= 1.0 <= cs):
                continue
            if cs == 0.0:
                continue
            delta = 2.0 ** -j * weight_K(wp, x, e, (-s[0], -s[1]))
            res = lemma1_profile(1.0, 1.0, cs, B, delta)
            total += res.length
    assert mb.total == pytest.approx(total, rel=1e-6)
    assert 0.0 < mb.total < 1.0


def test_measure_bound_monotone_in_j():
    wp = WeightParams(1.0)
    prev = None
    for j in (5, 6, 7):
        mb = exceptional_measure_bound(5.0, j, wp, 8)
        if prev is not None:
            assert mb.total <= prev + 1e-15
        prev = mb.total


def test_measure_bound_validation():
    with pytest.raises(ConfigError):
        exceptional_measure_bound(5.0, 4, WeightParams(1.0), 8)
    with pytest.raises(ConfigError):
        exceptional_measure_bound(4.0, 5, WeightParams(1.0), 8)
    with pytest.raises(ResourceBudgetError):
        exceptional_measure_bound(5.0, 5, WeightParams(1.0), 32, budget=10)


def test_scan3_extended_precision_near_resonances():
    # g = 2 carries the exact resonance Lambda((2,0)) = 2 Lambda((1,0))
    # (sqrt(12) both ways); such records are re-evaluated at 50 digits and
    # flagged before being reported
    res = scan_three_wave(DispersionParams(2.0, 1.0), WeightParams(0.5),
                          ScanWindow(2, 1), n_records=10)
    top = res.records[0]
    assert "extended-precision" in top.flags
    assert abs(top.phase_value) <= 1e-13
    assert res.min_gap <= 1e-10


def test_mpmath_is_imported_only_for_reevaluation():
    # importing the CLI and the calculus leaves mpmath unloaded; the
    # extended-precision re-evaluation imports it when a record needs it
    code = ("import sys\n"
            "import gcwaves.cli, gcwaves.goodvar, gcwaves.paradiff\n"
            "assert 'mpmath' not in sys.modules, 'mpmath imported'\n"
            "from gcwaves.dispersion import (DispersionParams, ScanWindow,\n"
            "                                WeightParams, scan_three_wave)\n"
            "res = scan_three_wave(DispersionParams(2.0, 1.0), WeightParams(0.5),\n"
            "                      ScanWindow(2, 1), n_records=10)\n"
            "assert 'extended-precision' in res.records[0].flags\n"
            "assert 'mpmath' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(gcwaves.__file__).resolve().parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scan4_admissibility_flag_literal():
    # the regime flag is (|xi|+|eta|)^16 <= bprime |v|, reported, never a filter
    res = scan_four_wave(DispersionParams(1.0, 1.0), ScanWindow(8, 1),
                         n_records=2000, bprime=1e40)
    assert all("admissible-regime" in r.flags for r in res.records)
    res2 = scan_four_wave(DispersionParams(1.0, 1.0), ScanWindow(8, 1),
                          n_records=2000, bprime=1.0)
    # (|xi|+|eta|)^16 >= 2^16 >> 8 >= |v|: nothing admissible, all retained
    assert all("outside-regime" in r.flags for r in res2.records)
    assert len(res2.records) == len(res.records)


# ---------------------------------------------------------------------------
# brute-force census oracles (census_oracles.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [math.sqrt(2.0), math.e, math.pi / 2.0],
                         ids=["sqrt2", "e", "pi/2"])
def test_scan3_matches_brute_force_census(g):
    params, wp = DispersionParams(g, 1.0), WeightParams(0.5)
    check_census(lambda n: scan_three_wave(params, wp, ScanWindow(6, 2), n_records=n),
                  oracle_scan3(params, wp, 6, 2), scan3_id)


@pytest.mark.parametrize("g", [math.sqrt(2.0), math.e, math.pi / 2.0],
                         ids=["sqrt2", "e", "pi/2"])
def test_scan4_matches_brute_force_census(g):
    params = DispersionParams(g, 1.0)
    check_census(lambda n: scan_four_wave(params, ScanWindow(6, 2), n_records=n),
                  oracle_scan4(params, 6, 2), scan4_id)


def _every_cut(ties):
    return range(1, 61)


def test_scan3_record_counts_at_every_cut():
    """Every n_records from 1 to 60 keeps the oracle's n smallest rows.  Rows
    enter as D4 images, and in this window the smallest gaps belong to tuples
    on an axis, whose images repeat: a repeat must never take the place of a
    distinct row at a cut."""
    params, wp = DispersionParams(10.0, 1.5), WeightParams(0.05)
    check_census(lambda n: scan_three_wave(params, wp, ScanWindow(3, 1), n_records=n),
                 oracle_scan3(params, wp, 3, 1), scan3_id, _every_cut)
    params, wp = DispersionParams(math.sqrt(2.0), 1.0), WeightParams(0.5)
    check_census(lambda n: scan_three_wave(params, wp, ScanWindow(5, 2), n_records=n),
                 oracle_scan3(params, wp, 5, 2), scan3_id, _every_cut)


@pytest.mark.parametrize("g,hi,lo", [(9.81, 4, 1), (9.81, 6, 1), (math.sqrt(2.0), 4, 2)])
def test_scan4_record_counts_at_every_cut(g, hi, lo):
    """As above for the four-wave census, whose first records at g = 9.81
    are tuples fixed by a reflection."""
    params = DispersionParams(g, 1.0)
    check_census(lambda n: scan_four_wave(params, ScanWindow(hi, lo), n_records=n),
                 oracle_scan4(params, hi, lo), scan4_id, _every_cut)


def test_measure_sweep_over_j_equals_one_j_calls():
    wp = WeightParams(0.5)
    for cutoff in (1, 3, 8):
        many = exceptional_measure_bounds(6.5, range(5, 10), wp, cutoff)
        assert many == [exceptional_measure_bound(6.5, j, wp, cutoff) for j in range(5, 10)]
    with pytest.raises(ConfigError):
        exceptional_measure_bounds(5.0, [], wp, 4)
    with pytest.raises(ConfigError):
        exceptional_measure_bounds(math.nan, [5], wp, 4)


def test_measure_bound_matches_pairwise_lemma1_sum():
    # every admissible pair of the cutoff-3 disk through lemma1_profile
    wp, B = WeightParams(1.0), 5.0
    pts = disk(3)
    for j in (5, 7):
        total, n_int, n_pairs = 0.0, 0, 0
        for e in pts:
            for x in pts:
                s = (x[0] + e[0], x[1] + e[1])
                a, b, c = math.hypot(*e), math.hypot(*x), math.hypot(*s)
                if not (b >= a and c >= b and c > 0.0):
                    continue
                n_pairs += 1
                delta = 2.0 ** -j * weight_K(wp, x, e, s)
                length = lemma1_profile(a, b, c, B, delta).length
                total += length
                n_int += length > 0.0
        mb = exceptional_measure_bound(B, j, wp, 3)
        assert mb.n_pairs == n_pairs
        assert mb.n_intervals == n_int
        assert mb.total == pytest.approx(total, rel=1e-6)


def test_disk_size_counts_lattice_disk():
    for radius in (1, 1.5, 2, math.sqrt(2.0), 2.9, 4, 5.0, 6.3, 16, 33, 64.5, 128):
        assert lattice.disk_size(radius) == len(lattice.lattice_disk(radius))
    assert len(lattice.lattice_disk(3, include_origin=True)) == 29


def test_budget_checked_before_enumerating(monkeypatch):
    # an over-budget window is refused without listing its lattice points
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(dispersion, "lattice_disk", never)
    monkeypatch.setattr(dispersion, "disk_reps", never)
    wide = ScanWindow(10 ** 5, 4)
    with pytest.raises(ResourceBudgetError):
        scan_three_wave(P11, WeightParams(0.5), wide, budget=10 ** 9)
    with pytest.raises(ResourceBudgetError):
        scan_four_wave(P11, wide, budget=10 ** 9)
    with pytest.raises(ResourceBudgetError):
        exceptional_measure_bound(5.0, 5, WeightParams(1.0), 10 ** 5, budget=10 ** 9)


def test_scan3_traced_peak_is_bounded():
    # the sweep tabulates on the box its representatives reach and keys
    # records without window-sized tables: 7.7 MB traced when every table
    # covered the window, about 2.2 MB now
    tracemalloc.start()
    try:
        scan_three_wave(DispersionParams(math.sqrt(2.0)), WeightParams(0.5),
                        ScanWindow(128, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
