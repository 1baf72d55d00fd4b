import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from gcwaves.dispersion import DispersionParams, lam_abs
from gcwaves.energy import (BulkSymbol, C_ENERGY, EnergyAudit,
                            ModulationFilter, depletion_checks,
                            depletion_factor, energy_EN, energy_ladder,
                            energy_derivative_trilinear, energy_symbol,
                            energy_symbol_arr, increment_audit, mu_one,
                            trilinear, trivial_resonance_sum)
from gcwaves.errors import ConfigError, SmallDivisorError
from gcwaves.fields import (FourierField, Grid, bump, l2_norm, phi_le,
                            random_field, sobolev_norm)
from gcwaves.model import ModelConfig, initial_data

P = DispersionParams(1.0, 1.0)
G = Grid(32)
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------

def test_energy_single_mode():
    for a, N in ((0.7, 3), (1.3, 5)):
        f = FourierField.single_mode(G, (1, 0), a)
        assert energy_EN(f, N) == pytest.approx(2 ** N * a ** 2 * 4 * np.pi ** 2, rel=1e-12)


def test_energy_N0_is_l2_squared():
    f = random_field(G, seed=1)
    assert energy_EN(f, 0.0) == pytest.approx(l2_norm(f) ** 2, rel=1e-13)


def test_energy_ladder_variant_comparable():
    # the (T_Sigma)^n ladder energy (1/2) sum ||W_n||^2 on a random small-h
    # state is comparable to the multiplier energy E_{3 n_max / 2}
    from gcwaves.goodvar import build_good_variable, ladder, random_state
    from gcwaves.paradiff import ParadiffConfig

    cfg = ParadiffConfig(chi_exponent=-2)
    st = random_state(G, P, amplitude=0.05, seed=2)
    gv = build_good_variable(st, cfg)
    n_max = 2
    rep = ladder(gv.U, n_max, gv.symbols, P, cfg)
    ratio = energy_ladder(rep.fields) / energy_EN(gv.U, 1.5 * n_max)
    assert 0.01 <= ratio <= 100.0


# ---------------------------------------------------------------------------
# the energy symbol
# ---------------------------------------------------------------------------

def test_energy_symbol_vanishes_on_equal_moduli():
    assert energy_symbol(2, (3, 4), (5, 0)) == 0.0
    assert energy_symbol(5, (2, 1), (1, 2)) == 0.0


def test_energy_symbol_against_independent_implementation():
    # dual implementation: 50-digit mpmath evaluation of the literal formula
    def oracle(N, xi, eta):
        with mpmath.workdps(50):
            r = (mpmath.mpf(xi[0] - eta[0]), mpmath.mpf(xi[1] - eta[1]))
            dot = r[0] * (xi[0] + eta[0]) + r[1] * (xi[1] + eta[1])
            wxi = 1 + mpmath.mpf(xi[0]) ** 2 + mpmath.mpf(xi[1]) ** 2
            wet = 1 + mpmath.mpf(eta[0]) ** 2 + mpmath.mpf(eta[1]) ** 2
            c = mpmath.mpf(-1) / (2 * (2 * mpmath.pi) ** 4)
            val = c * dot * (wet ** N - wxi ** N) / (wet ** (N / 2) * wxi ** (N / 2))
            # phi_{<=10}(xi - eta) = 1 for these small offsets
            return float(val)

    for N, xi, eta in ((2, (3, 0), (1, 0)), (5, (7, 2), (6, 1)), (3, (0, 4), (1, -1))):
        assert energy_symbol(N, xi, eta) == pytest.approx(oracle(N, xi, eta), rel=1e-12)


def test_energy_symbol_symmetry_and_factor_antisymmetry():
    # each bracketed factor is antisymmetric under (xi, eta) swap, so the
    # symbol itself is symmetric: m(xi, eta) = m(eta, xi)
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi = tuple(int(v) for v in rng.integers(-20, 21, 2))
        eta = tuple(int(v) for v in rng.integers(-20, 21, 2))
        dot = (xi[0] - eta[0]) * (xi[0] + eta[0]) + (xi[1] - eta[1]) * (xi[1] + eta[1])
        dot_swapped = (eta[0] - xi[0]) * (xi[0] + eta[0]) + (eta[1] - xi[1]) * (xi[1] + eta[1])
        assert dot_swapped == -dot
        m1 = energy_symbol(4, xi, eta)
        m2 = energy_symbol(4, eta, xi)
        assert m1 == pytest.approx(m2, abs=1e-15 + 1e-12 * abs(m1))


def test_energy_symbol_band_cutoff():
    # phi_{<=10} kills offsets beyond (8/5) 2^10
    far = (2000, 0)
    assert energy_symbol(2, far, (0, 0)) == 0.0


def test_depletion_factorization():
    # m = d * m' with m' bounded above and below on the cutoff support
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(500):
        xi = tuple(int(v) for v in rng.integers(-60, 61, 2))
        eta = (xi[0] - int(rng.integers(-6, 7)), xi[1] - int(rng.integers(-6, 7)))
        d = depletion_factor(*map(float, xi), *map(float, eta))
        if d == 0.0:
            continue
        m = energy_symbol(5, xi, eta)
        ratios.append(abs(m) / d)
    ratios = np.asarray(ratios)
    assert ratios.min() > 0.0
    assert ratios.max() / ratios.min() < 1e6


# ---------------------------------------------------------------------------
# trilinear operators
# ---------------------------------------------------------------------------

def test_trilinear_single_mode_closed_form():
    F = FourierField.single_mode(G, (1, 0), 1.0)
    Gf = random_field(G, seed=5, decay=0.3)
    H = random_field(G, seed=6, decay=0.3)
    got = trilinear(mu_one, ModulationFilter("none"), F, Gf, H, P)
    m = G.size
    ref = 0.0j
    for a in range(-12, 13):
        for b in range(-12, 13):
            ref += TWO_PI ** 2 * Gf.coeffs[a % m, b % m] * np.conj(H.coeffs[(a + 1) % m, b % m])
    assert got == pytest.approx(ref, rel=1e-12)


def test_trilinear_filter_partition():
    F = random_field(G, seed=7, decay=0.3)
    Gf = random_field(G, seed=8, decay=0.3)
    H = random_field(G, seed=9, decay=0.3)
    for signs in ((1, 1), (1, -1), (-1, 1)):
        full = trilinear(mu_one, ModulationFilter("none", signs), F, Gf, H, P)
        lo = trilinear(mu_one, ModulationFilter("le0", signs), F, Gf, H, P)
        hi = trilinear(mu_one, ModulationFilter("gt0", signs), F, Gf, H, P)
        assert lo + hi == pytest.approx(full, rel=1e-12)


def test_trilinear_band_partition():
    # le0 = leB + (B,0] band
    F = random_field(G, seed=10, decay=0.3)
    Gf = random_field(G, seed=11, decay=0.3)
    H = random_field(G, seed=12, decay=0.3)
    lo = trilinear(mu_one, ModulationFilter("le0", (1, 1)), F, Gf, H, P)
    leB = trilinear(mu_one, ModulationFilter("leB", (1, 1), B=-3.0), F, Gf, H, P)
    band = trilinear(mu_one, ModulationFilter("B_to_0", (1, 1), B=-3.0), F, Gf, H, P)
    assert leB + band == pytest.approx(lo, rel=1e-12)


def test_trilinear_cauchy_schwarz_bound():
    # |sum| <= ||Fhat||_l1 ||Ghat||_l2 ||Hhat||_l2 for |mu| <= 1 (constant 1)
    g8 = Grid(16)
    rng = np.random.default_rng(13)
    for trial in range(100):
        F = random_field(g8, seed=100 + trial, decay=0.2)
        Gf = random_field(g8, seed=300 + trial, decay=0.2)
        H = random_field(g8, seed=500 + trial, decay=0.2)
        val = trilinear(mu_one, ModulationFilter("none"), F, Gf, H, P)
        bound = (np.sum(np.abs(F.coeffs)) * np.linalg.norm(Gf.coeffs)
                 * np.linalg.norm(H.coeffs))
        assert abs(val) <= bound * (1 + 1e-12)


def test_trilinear_weighted_guard():
    # the rho = 0 row makes Phi_{++} identically zero: a mean-carrying F
    # under a division-weighted low filter must trip the guard
    F = random_field(G, seed=14, decay=0.3, mean_zero=False)
    Gf = random_field(G, seed=15, decay=0.3)
    H = random_field(G, seed=16, decay=0.3)
    with pytest.raises(SmallDivisorError):
        trilinear(mu_one, ModulationFilter("le0", (1, 1)), F, Gf, H, P, weighted=True)
    # the gt0 filter excludes Phi = 0: no guard trip
    trilinear(mu_one, ModulationFilter("gt0", (1, 1)), F, Gf, H, P, weighted=True)


def test_trilinear_grid_mismatch():
    with pytest.raises(ConfigError):
        trilinear(mu_one, ModulationFilter("none"), random_field(Grid(16), seed=1),
                  random_field(G, seed=2), random_field(G, seed=3), P)
    with pytest.raises(ConfigError):
        trivial_resonance_sum(mu_one, ModulationFilter("none"),
                              random_field(Grid(16), seed=1), random_field(G, seed=2), P)


# ---------------------------------------------------------------------------
# energy identity and the audit
# ---------------------------------------------------------------------------

def test_energy_derivative_matches_direct_route():
    # Re sum m What conj(What) i Uhat == 2 Re <grad^N N(U), grad^N U>-type
    # direct computation through the solver's nonlinearity
    from gcwaves.model import nonlinearity

    cfg = ModelConfig(P, G, 0.05, 1e-3, 0.1, seed=3)
    U = initial_data(cfg)
    tri = energy_derivative_trilinear(U, 4.0, P)
    k1, k2 = G.freqs()
    w2 = (1.0 + (k1 ** 2 + k2 ** 2).astype(float)) ** 4.0
    nl = nonlinearity(U, cfg)
    direct = 2.0 * float(np.real(np.sum(w2 * nl.coeffs * np.conj(U.coeffs)) / TWO_PI ** 2))
    assert tri == pytest.approx(direct, rel=1e-10)


def test_increment_audit_linear_only():
    cfg = ModelConfig(P, G, 0.05, 2e-3, 0.05, seed=4, linear_only=True)
    audit = increment_audit(cfg, None, audit_times=[0.02], N=4.0, D=3.0)
    for row in audit.rows:
        assert abs(row["dE_dt_trilinear"]) <= 1e-12
        assert abs(row["dE_dt_fd"]) <= 1e-9  # FD of an exactly conserved E_N
    for pr in audit.parts_rows:
        assert abs(pr["hiMod"]) <= 1e-12
        assert abs(pr["loMod_hiFreq"]) <= 1e-12
        assert abs(pr["loMod_loFreq"]) <= 1e-12


def test_increment_audit_consistency():
    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.06, seed=0)
    audit = increment_audit(cfg, None, audit_times=[0.02, 0.04], N=5.0, D=3.0)
    assert audit.max_rel_err <= 1e-3
    assert audit.c == C_ENERGY


@pytest.mark.parametrize("band", [2, 1])
def test_increment_audit_reads_velocity_band(band):
    # the symbol's cutoff must be the band the model integrates with; a
    # fixed phi_{<=10} misses the identity by 2.5e-3 at band 2
    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.02, velocity_band=band, seed=0)
    audit = increment_audit(cfg, None, audit_times=[0.01], N=5.0, D=3.0)
    assert audit.max_rel_err <= 1e-6


def test_increment_audit_rejects_non_finite_D():
    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.02, seed=0)
    for D in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            increment_audit(cfg, None, audit_times=[0.01], N=5.0, D=D)


def test_energy_audit_save_writes_strict_json(tmp_path):
    # RFC 8259 has no NaN or Infinity token: non-finite numbers become null
    audit = EnergyAudit(N=5.0, D=math.nan, c=C_ENERGY,
                        rows=[{"t": 0.01, "rel_err": math.inf}],
                        parts_rows=[{"hiMod": np.float64(-math.inf)}],
                        totals={"hiMod": math.nan, "loMod_hiFreq": 1.5},
                        max_rel_err=math.nan)
    audit.save(tmp_path / "audit.json")

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    data = json.loads((tmp_path / "audit.json").read_text(), parse_constant=reject)
    assert data == {"N": 5.0, "D": None, "c": C_ENERGY,
                    "rows": [{"t": 0.01, "rel_err": None}], "parts": [{"hiMod": None}],
                    "totals": {"hiMod": None, "loMod_hiFreq": 1.5}, "max_rel_err": None}


def test_energy_derivative_needs_dealiased_field():
    # the FFT route is exact only where circular convolution does not alias
    U = FourierField(G, np.ones((G.size, G.size), complex))
    with pytest.raises(ConfigError):
        energy_derivative_trilinear(U, 4.0, P)


def test_increment_audit_cadence_guard():
    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.06, seed=0)
    with pytest.raises(ConfigError):
        increment_audit(cfg, None, audit_times=[0.0])  # not >= 2 steps inside


def test_increment_audit_needs_an_audit_time():
    # no audit time would check nothing and report max_rel_err 0
    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.06, seed=0)
    for times in ([], ()):
        with pytest.raises(ConfigError, match="no audit time"):
            increment_audit(cfg, None, audit_times=times)


def test_increment_audit_earliest_audit_time():
    # an audit time exactly 2 steps in: its stencil reaches back to t = 0
    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.01, seed=0)
    audit = increment_audit(cfg, None, audit_times=[0.004], N=4.0, D=2.0)
    assert audit.rows[0]["t"] == pytest.approx(0.004)
    assert audit.max_rel_err <= 1e-3


def test_audit_json_schema(tmp_path):
    import json

    cfg = ModelConfig(P, G, 0.01, 2e-3, 0.05, seed=0)
    audit = increment_audit(cfg, None, audit_times=[0.02], N=4.0, D=2.0)
    path = tmp_path / "audit.json"
    audit.save(path)
    data = json.loads(path.read_text())
    assert set(data) >= {"N", "D", "c", "rows", "parts", "totals"}
    assert set(data["rows"][0]) == {"t", "E_N", "dE_dt_fd", "dE_dt_trilinear", "rel_err"}
    assert set(data["parts"][0]) == {"t", "hiMod", "loMod_hiFreq", "loMod_loFreq"}


def test_highfreq_part_shrinks_with_D():
    # the small-modulation high-frequency part decays as the split frequency
    # 2^D grows (qualitative halving); read at t = 0 from the audit's parts
    cfg = ModelConfig(P, G, 0.3, 1e-3, 0.02, seed=2)
    parts = []
    for D in (1.0, 2.0):
        audit = increment_audit(cfg, None, audit_times=[0.01], N=4.0, D=D)
        parts.append(abs(audit.parts_rows[0]["loMod_hiFreq"]))
    assert parts[1] < parts[0]


def test_one_pass_parts_match_separate_sums():
    # the audit's one-pass parts equal three single-filter trilinear sums,
    # and add up to the unfiltered sum (le0 + gt0 = 1, phi_<=D + phi_>D = 1)
    N, D = 4.0, 2.0
    U = random_field(G, seed=19, decay=0.2)
    cfg = ModelConfig(P, G, 0.05, 1e-3, 0.005, seed=0)
    parts = increment_audit(cfg, U, audit_times=[0.002], N=N, D=D).parts_rows[0]
    k1, k2 = G.freqs()
    W = FourierField(G, (1.0 + (k1 ** 2 + k2 ** 2).astype(float)) ** (N / 2) * U.coeffs)
    low = phi_le(np.hypot(k1, k2), D)
    mu = lambda x1, x2, e1, e2: energy_symbol_arr(N, x1, x2, e1, e2)

    def single(kind, wts):
        H = FourierField(G, wts * W.coeffs)
        return trilinear(mu, ModulationFilter(kind), 1j * U, W, H, P, row_tol=1e-14).real

    separate = {"hiMod": single("gt0", 1.0), "loMod_hiFreq": single("le0", 1.0 - low),
                "loMod_loFreq": single("le0", low)}
    for key, val in separate.items():
        assert parts[key] == pytest.approx(val, rel=1e-12)
    total = parts["hiMod"] + parts["loMod_hiFreq"] + parts["loMod_loFreq"]
    assert total == pytest.approx(energy_derivative_trilinear(U, N, P), rel=1e-12)


def test_trivial_resonance_reality():
    # rho = xi with paired opposite signs: real symbol => purely imaginary sum
    U = random_field(G, seed=17, decay=0.2)
    W = random_field(G, seed=18, decay=0.2)
    for mu in (BulkSymbol(-2), mu_one):
        s = trivial_resonance_sum(mu, ModulationFilter("le0", (1, 1)), U, W, P,
                                  weighted=False)
        assert abs(s.real) <= 1e-12 * max(abs(s), 1e-30)


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1)], ids=["pp", "pm", "mp"])
def test_trivial_resonance_default_keeps_phi_zero(signs):
    # the default (unweighted) sum returns for every filter that keeps
    # Phi = 0 in support, and its real part vanishes; the division-weighted
    # sum still trips the small-divisor guard there
    g16 = Grid(16)
    U = random_field(g16, seed=19, decay=0.2)
    W = random_field(g16, seed=20, decay=0.2)
    mu = BulkSymbol(-2)
    for filt in (ModulationFilter("none", signs), ModulationFilter("le0", signs),
                 ModulationFilter("leB", signs, B=-1.0)):
        s = trivial_resonance_sum(mu, filt, U, W, P)
        assert abs(s.real) <= 1e-12 * abs(s)
        assert s != 0.0 or filt.kind != "none"
    with pytest.raises(SmallDivisorError):
        trivial_resonance_sum(mu, ModulationFilter("le0", signs), U, W, P, weighted=True)


@pytest.mark.parametrize("mu", [mu_one, BulkSymbol(-2)], ids=["mu_one", "bulk"])
@pytest.mark.parametrize("kind,weighted", [("le0", False), ("gt0", True)])
def test_trivial_resonance_brute_force(mu, kind, weighted):
    # independent double loop over (xi, eta) in the centered box, rho = xi - eta
    g8 = Grid(8)
    U = random_field(g8, seed=20, decay=0.2)
    W = random_field(g8, seed=21, decay=0.2)
    m = g8.size
    box = range(-m // 2, m // 2)
    lam = lambda a, b: float(lam_abs(P, math.hypot(a, b)))
    ref = 0.0j
    for x1, x2, e1, e2 in itertools.product(box, repeat=4):
        r1, r2 = x1 - e1, x2 - e2
        if r1 not in box or r2 not in box:
            continue
        u2 = abs(U.coeffs[r1 % m, r2 % m]) ** 2
        phi = lam(x1, x2) - lam(r1, r2) - lam(e1, e2)
        filt = bump(phi) if kind == "le0" else 1.0 - bump(phi)
        if u2 == 0.0 or filt == 0.0:
            continue
        term = 1j * float(mu(*(np.asarray(float(v)) for v in (x1, x2, e1, e2)))) * filt
        if weighted:
            term /= 1j * phi
        ref += term * u2 * abs(W.coeffs[x1 % m, x2 % m]) ** 2
    got = trivial_resonance_sum(mu, ModulationFilter(kind, (1, 1)), U, W, P,
                                weighted=weighted)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_bulk_symbol_range():
    xi1, xi2 = np.meshgrid(np.arange(-20, 21), np.arange(-20, 21), indexing="ij")
    mu = BulkSymbol(-2)
    vals = mu(xi1.astype(float), xi2.astype(float),
              (xi1 - 1).astype(float), (xi2 - 2).astype(float))
    assert np.all(vals >= 0.0)
    rn = math.hypot(1, 2)
    assert np.max(vals) <= rn ** 1.5 + 1e-12  # |xi-eta|^{3/2} * d, 0 <= d <= 1


# ---------------------------------------------------------------------------
# depletion checks
# ---------------------------------------------------------------------------

def test_depletion_report_stability():
    a = depletion_checks(P, 5.0, 32)
    b = depletion_checks(P, 5.0, 64)
    assert 0.0 < a.factor_C < math.inf
    assert 0.5 <= a.factor_C / b.factor_C <= 2.0
    assert 0.0 < a.mprime_min <= a.mprime_max < math.inf
    assert 0.5 <= a.mprime_max / b.mprime_max <= 2.0


@pytest.mark.parametrize("N, radius, n_max", [(120.0, 16, 87.93), (400.0, 8, 100.67),
                                              (-400.0, 8, -100.48)])
def test_depletion_rejects_N_that_overflows_its_table(N, radius, n_max):
    # (1+|v|^2)^N overflowed on the tabulated square and whole offset
    # blocks silently dropped out (mprime_max = inf at radius 16, and
    # mprime_min = None, mprime_max = 0 at radius 8); a large negative N
    # underflowed it to 0 and made m = 0/0.  n_max is the admissible end
    with pytest.raises(ConfigError) as err:
        depletion_checks(P, N, radius)
    msg = str(err.value)
    assert f"N = {N!r}" in msg and f"radius {radius}" in msg and f"is {n_max}" in msg
    rep = depletion_checks(P, n_max, radius)     # the bound itself is admissible
    assert 0.0 < rep.mprime_min <= rep.mprime_max < math.inf


def test_depletion_excludes_equal_moduli():
    # the |xi| = |eta| diagonal contributes d = 0 and is excluded from the
    # m' statistics; its m value is 0 as well
    rep = depletion_checks(P, 3.0, 16)
    assert rep.n_pairs_mprime > 0
    assert rep.mprime_min > 0.0
