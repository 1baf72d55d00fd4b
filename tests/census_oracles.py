"""Brute-force census oracles shared by the census tests.

Every tuple of a small window is enumerated in pure Python with phase3 /
weight_K.  A full scan must list exactly these tuples, and a scan keeping n
records must keep the n smallest of its own full list by the stated rule
(gap, shell, first frequency, offset, signs).
"""

import math

import pytest

from gcwaves.dispersion import phase3, weight_K

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def disk(radius):
    return [(a, b) for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1)
            if 0 < a * a + b * b <= radius * radius]


def shell(v):
    r = math.hypot(*v)
    return 0 if r <= 1.0 else math.ceil(math.log2(r) - 1e-12)


def oracle_scan3(params, wp, hi, lo):
    """{(xi, rho, (i1, i2)): (gap, phase, weight, |phase| <xi>^{3/2})}."""
    rows = {}
    for xi in disk(hi):
        for rho in disk(lo):
            eta = (xi[0] - rho[0], xi[1] - rho[1])
            if eta == (0, 0):
                continue
            w = weight_K(wp, xi, rho, eta)
            for signs in SIGNS:
                ph = phase3(params, signs, xi, eta)
                rows[xi, rho, signs] = (abs(ph) / w, ph, w,
                                        abs(ph) * (1.0 + xi[0] ** 2 + xi[1] ** 2) ** 0.75)
    return rows


def oracle_scan4(params, hi, lo):
    """{(v, xi, eta, (i1, i2)): (gap, max modulation, weight, max mod <v>^{1/2})}."""
    lows = disk(lo)
    rows = {}
    for v in disk(hi):
        for a, xi in enumerate(lows):
            for eta in lows[a:]:
                w = math.sqrt(1.0 + v[0] ** 2 + v[1] ** 2) ** -0.5 * (
                    math.sqrt(1.0 + xi[0] ** 2 + xi[1] ** 2)
                    + math.sqrt(1.0 + eta[0] ** 2 + eta[1] ** 2)) ** -2.0
                for s1, s2 in SIGNS:
                    if xi == eta and s1 == s2:
                        continue
                    g1 = phase3(params, (s1, 1), (v[0] + xi[0], v[1] + xi[1]), v)
                    g2 = phase3(params, (s2, 1), (v[0] + eta[0], v[1] + eta[1]), v)
                    val = max(abs(g1), abs(g2))
                    rows[v, xi, eta, (s1, s2)] = (
                        val / w, val, w, val * (1.0 + v[0] ** 2 + v[1] ** 2) ** 0.25)
    return rows


def scan3_id(r):
    (xi, v2, _), (_, s2, s3) = r.frequencies, tuple(r.signs)
    return xi, (-v2[0], -v2[1]), (-s2, -s3)


def scan4_id(r):
    return (*r.frequencies, tuple(r.signs))


def tie_cuts(ties):
    """The default record counts: 1, then two that cut through a group of
    equal gaps, past 10 and past 60 records."""
    return [1, next(n for n in ties if n > 10), next(n for n in ties if n > 60)]


def check_census(scan, rows, ident, cuts=tie_cuts):
    """scan(n) -> ScanResult; rows the oracle; ident maps a record to its key;
    cuts(ties) -> the record counts to check, given the counts n at which the
    n-th and (n+1)-th smallest gaps tie.  Returns the full scan."""
    full = scan(len(rows) + 5)
    got = {ident(r): r for r in full.records}
    assert len(got) == len(full.records) and got.keys() == rows.keys()
    for k, r in got.items():
        gap, ph, w, _ = rows[k]
        assert r.phase_value == pytest.approx(ph, rel=1e-12, abs=1e-14)
        assert r.weight == pytest.approx(w, rel=1e-12)
        assert r.normalized_gap == pytest.approx(gap, rel=1e-12, abs=1e-14)
    assert full.n_evaluated == len(rows)
    by_shell = {}
    for k, v in rows.items():
        by_shell.setdefault(shell(k[0]), []).append(v)
    assert [s.shell for s in full.shell_stats] == sorted(by_shell)
    for s in full.shell_stats:
        mine = by_shell[s.shell]
        assert s.count == len(mine)
        assert s.min_gap == pytest.approx(min(v[0] for v in mine), rel=1e-12)
        assert s.min_phase_x32 == pytest.approx(min(v[3] for v in mine), rel=1e-12)

    # the selection rule, applied in pure Python to the scan's own values
    ranked = sorted(full.records, key=lambda r: (r.normalized_gap, shell(ident(r)[0]),
                                                 ident(r)))
    ties = [n for n in range(1, len(ranked))
            if ranked[n - 1].normalized_gap == ranked[n].normalized_gap]
    for n in cuts(ties):
        res = scan(n)
        assert res.records == sorted(ranked[:n], key=lambda r: (r.normalized_gap,
                                                                r.frequencies))
        assert res.shell_stats == full.shell_stats
        assert res.n_evaluated == full.n_evaluated
    return full
