import json
import math

import numpy as np
import pytest

from gcwaves.errors import ConfigError, SingularMultiplierError
from gcwaves.fields import (FourierField, Grid, analyze, apply_multiplier,
                            bump, check_power, dealias, dx, fit_line, inner, l2_norm,
                            load_snapshot, lp_gt, lp_leq, lp_project, mean, phi_le,
                            phi_gt, phi_shell, pointwise_product, random_field,
                            save_snapshot, sobolev_norm, synthesize, write_csv)
from gcwaves.lattice import shift_perms

TWO_PI = 2.0 * np.pi


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(3)
    with pytest.raises(ConfigError):
        Grid(10, dealias_fraction=0.0)
    assert Grid(64).kmax_dealias == 21  # 3 * 21 < 64: alias-free products


def test_bump_support_and_plateau():
    r = np.linspace(-3, 3, 2001)
    v = bump(r)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.all(v[np.abs(r) <= 5 / 4] == 1.0)
    assert np.all(v[np.abs(r) >= 8 / 5] == 0.0)
    assert np.allclose(v, bump(-r))


def test_bump_smoothness_sampled_differences():
    # all sampled finite differences stay bounded through 4th order
    h = 1e-3
    r = np.arange(1.2, 1.7, h)
    v = bump(r)
    d = v
    for order in range(1, 5):
        d = np.diff(d) / h
        assert np.all(np.isfinite(d))
        assert np.max(np.abs(d)) < 1e4 ** order


def test_roundtrip_identity():
    g = Grid(16)
    f = random_field(g, seed=1)
    back = analyze(synthesize(f), g)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))


def test_parseval_single_mode():
    g = Grid(16)
    f = FourierField.single_mode(g, (1, 0))
    assert l2_norm(f) == pytest.approx(TWO_PI, rel=1e-14)


def test_real_flag_detected_from_samples():
    g = Grid(16)
    rng = np.random.default_rng(0)
    f = analyze(rng.standard_normal((16, 16)), g)
    assert f.is_real_valued
    assert np.isrealobj(synthesize(f))


def test_lp_vanishes_for_negative_k():
    g = Grid(16)
    f = random_field(g, seed=2, mean_zero=False)
    for k in (-1, -2, -5):
        assert np.all(lp_project(f, k).coeffs == 0.0)


def test_lp_partition_of_unity():
    r = np.linspace(0.0, 50.0, 701)
    assert np.allclose(phi_le(r, 3) + phi_gt(r, 3), 1.0, atol=1e-15)


def test_lp_telescoping():
    r = np.linspace(0.0, 40.0, 1001)
    tot = sum(phi_shell(r, k) for k in range(0, 7))
    assert np.max(np.abs(tot - (phi_le(r, 6) - phi_le(r, -1)))) <= 1e-15


def test_mean_is_average_operator():
    g = Grid(16)
    f = random_field(g, seed=3, mean_zero=False, real=True)
    assert mean(f) == pytest.approx(float(np.mean(synthesize(f))), rel=1e-12)


def test_multiplier_half_derivative_on_single_mode():
    g = Grid(16)
    f = FourierField.single_mode(g, (1, 0))
    out = apply_multiplier(f, lambda k1, k2: np.hypot(k1, k2) ** 0.5)
    assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-14 * TWO_PI ** 2


def test_multiplier_dispersion_on_mode():
    from gcwaves.dispersion import DispersionParams, lam_grid

    g = Grid(16)
    p = DispersionParams(1.0, 1.0)
    f = FourierField.single_mode(g, (2, 0))
    out = apply_multiplier(f, lambda k1, k2: lam_grid(p, k1, k2))
    assert out.coeffs[2, 0] == pytest.approx(np.sqrt(10) * TWO_PI ** 2, rel=1e-14)


def test_singular_multiplier_rejects_nonzero_mean():
    g = Grid(16)
    const = FourierField.single_mode(g, (0, 0), 1.0)
    with pytest.raises(SingularMultiplierError):
        apply_multiplier(const, lambda k1, k2: np.hypot(k1, k2) ** -0.5)
    # zero-mean input passes
    f = random_field(g, seed=4)
    apply_multiplier(f, lambda k1, k2: np.hypot(k1, k2) ** -0.5)


def test_sobolev_single_mode():
    g = Grid(16)
    f = FourierField.single_mode(g, (1, 0))
    for s in (0.5, 1.0, 2.5):
        assert sobolev_norm(f, s) == pytest.approx(TWO_PI * 2 ** (s / 2), rel=1e-14)


def test_sobolev_zero_is_l2():
    g = Grid(16)
    f = random_field(g, seed=5)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)


def test_norm_triangle_inequality():
    g = Grid(16)
    for seed in range(5):
        f = random_field(g, seed=seed)
        h = random_field(g, seed=seed + 50)
        for s in (0.0, 1.5):
            assert sobolev_norm(f + h, s) <= sobolev_norm(f, s) + sobolev_norm(h, s) + 1e-13


def test_conjugate_symmetry_under_real_even_multipliers():
    g = Grid(16)
    f = random_field(g, seed=6, real=True)
    out = apply_multiplier(f, lambda k1, k2: 1.0 + np.hypot(k1, k2) ** 2)
    assert out.is_real_valued
    assert np.max(np.abs(np.imag(synthesize(out)))) == 0.0  # real synthesis path


def test_projection_commutes_with_multiplier():
    g = Grid(16)
    f = random_field(g, seed=7)
    m = lambda k1, k2: np.exp(1j * k1) * (1.0 + k2 ** 2)
    a = lp_project(apply_multiplier(f, m), 2)
    b = apply_multiplier(lp_project(f, 2), m)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_parseval_after_projections():
    g = Grid(32)
    f = random_field(g, seed=8)
    pieces = [lp_project(f, k) for k in range(0, 6)]
    low = lp_leq(f, -1)
    total = sum(l2_norm(p) ** 2 for p in pieces) + l2_norm(low) ** 2
    # shells + the (vanishing, mean-zero) low part reconstruct P_{<=5} f
    assert total <= (l2_norm(f) * (1 + 1e-12)) ** 2
    recon = pieces[0]
    for p in pieces[1:]:
        recon = recon + p
    assert np.max(np.abs(recon.coeffs - lp_leq(f, 5).coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_dealias_product_is_exact_convolution():
    # with K = kmax_dealias and 3K < M, retained modes of the pointwise grid
    # product equal the exact convolution sum (no aliasing)
    g = Grid(16)
    f = random_field(g, seed=9, real=True)
    h = random_field(g, seed=10, real=True)
    prod = pointwise_product(f, h)
    km = g.kmax_dealias
    m = g.size
    for x1 in range(-km, km + 1):
        for x2 in range(-km, km + 1):
            conv = 0.0j
            for e1 in range(-km, km + 1):
                for e2 in range(-km, km + 1):
                    r1, r2 = x1 - e1, x2 - e2
                    if abs(r1) <= km and abs(r2) <= km:
                        conv += f.coeffs[r1 % m, r2 % m] * h.coeffs[e1 % m, e2 % m]
            conv /= TWO_PI ** 2
            assert abs(prod.coeffs[x1 % m, x2 % m] - conv) <= 1e-12 * (1 + abs(conv))


def test_snapshot_roundtrip(tmp_path):
    g = Grid(16)
    f = random_field(g, seed=11)
    save_snapshot(f, str(tmp_path / "snap"), time=1.25, name="probe")
    back, header = load_snapshot(str(tmp_path / "snap"))
    assert header["time"] == 1.25
    assert json.loads((tmp_path / "snap.json").read_text(),
                      parse_constant=_no_constant) == header
    save_snapshot(f, str(tmp_path / "nan"), time=float("nan"))
    text = (tmp_path / "nan.json").read_text()
    assert json.loads(text, parse_constant=_no_constant)["time"] is None
    assert back.grid == g
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))


def _no_constant(token):
    raise ValueError(f"{token} is not valid JSON (RFC 8259)")


def _snapshot_csv_loop(f):
    """The snapshot table by a per-coefficient loop: the oracle for
    save_snapshot's vectorized writer."""
    k1, k2 = f.grid.freqs()
    rows = []
    for i in range(f.grid.size):
        for j in range(f.grid.size):
            c = f.coeffs[i, j]
            if c != 0.0:
                rows.append((int(k1[i, j]), int(k2[i, j]), float(c.real), float(c.imag)))
    rows.sort()
    return "xi1,xi2,re,im\n" + "".join(f"{r[0]},{r[1]},{r[2]!r},{r[3]!r}\n" for r in rows)


@pytest.mark.parametrize("m, seed", [(16, 11), (16, 12), (64, 13), (64, 14)])
def test_snapshot_csv_matches_loop_oracle(tmp_path, m, seed):
    # dense, dealiased-real, and sparse fields with signed zeros and
    # purely real or imaginary coefficients: the CSV is byte-equal
    g = Grid(m)
    rng = np.random.default_rng(seed)
    dense = random_field(g, seed=seed)
    c = dense.coeffs.copy()
    c[rng.random((m, m)) < 0.5] = 0.0
    c[rng.random((m, m)) < 0.1] = -0.0
    c.real[rng.random((m, m)) < 0.1] = 0.0
    c.imag[rng.random((m, m)) < 0.1] = -0.0
    for k, f in enumerate((dense, dealias(random_field(g, seed=seed + 1, real=True)),
                           FourierField.from_coeffs(g, c, check_real=False))):
        save_snapshot(f, str(tmp_path / f"s{k}"))
        assert (tmp_path / f"s{k}.csv").read_text() == _snapshot_csv_loop(f)


class _Tagged:
    def __str__(self):
        return "by-str"

    def __repr__(self):
        return "by-repr"


def test_write_csv_writes_str_as_is_and_the_rest_by_repr(tmp_path):
    rows = [("a|b", 0.1, -3, _Tagged()), ("", math.nan, -math.inf, True), (0.25, "x", 7, "")]
    write_csv(tmp_path / "t.csv", ("s", "x", "n", "o"), iter(rows))
    assert (tmp_path / "t.csv").read_text() == (
        "s,x,n,o\na|b,0.1,-3,by-repr\n,nan,-inf,True\n0.25,x,7,\n")


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(3), np.bool_(True)],
                         ids=["float64", "int64", "bool"])
def test_write_csv_rejects_numpy_scalars(tmp_path, value):
    # numpy 2's repr(np.float64(0.5)) is "np.float64(0.5)"
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ("a", "b"), [(1, 2.0), (1, value)])


def test_check_power_accepts_exactly_the_normal_range():
    # (1+1)^N is a finite normal float for -1022 <= N <= 1023
    for N in (-1022, 0.0, 1023):
        check_power(N, 1.0, "here")
    for N in (-1023, 1024):
        with pytest.raises(ConfigError):
            check_power(N, 1.0, "here")


def test_inner_product_matches_quadrature():
    g = Grid(16)
    f = random_field(g, seed=12)
    h = random_field(g, seed=13)
    quad = np.sum(synthesize(f) * np.conj(synthesize(h))) * (TWO_PI / 16) ** 2
    assert inner(f, h) == pytest.approx(complex(quad), rel=1e-12)


def test_freqs_cached_and_read_only():
    g = Grid(16)
    k1, k2 = g.freqs()
    again = Grid(16, dealias_fraction=0.5).freqs()
    assert again[0] is k1 and again[1] is k2
    k = np.fft.fftfreq(16, 1.0 / 16).astype(np.int64)
    e1, e2 = np.meshgrid(k, k, indexing="ij")
    assert np.array_equal(k1, e1) and np.array_equal(k2, e2)
    for arr in (k1, k2):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_grid_points_cached_and_read_only():
    X1, X2 = Grid(16).x()
    again = Grid(16, dealias_fraction=0.5).x()
    assert again[0] is X1 and again[1] is X2
    x = TWO_PI * np.arange(16) / 16
    e1, e2 = np.meshgrid(x, x, indexing="ij")
    assert X1.tobytes() == e1.tobytes() and X2.tobytes() == e2.tobytes()
    for arr in (X1, X2):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 33, 64])
def test_shift_perms_are_fftshift_and_ifftshift(n):
    # the cached gathers give numpy's shifts bit for bit, odd n included
    centered, fft = shift_perms(n)
    assert shift_perms(n)[0] is centered
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.take(a, centered).tobytes() == np.fft.fftshift(a).ravel().tobytes()
    assert np.take(a.ravel(), fft).tobytes() == np.fft.ifftshift(a).ravel().tobytes()
    assert np.array_equal(centered[fft], np.arange(n * n))
    for arr in (centered, fft):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2), (5, 3), (8, 4), (12, 5)])
def test_fit_line_matches_polyfit(n, seed):
    # off-center xs like log(eps): the slope to 1e-13 relative, and stderr
    # on polyfit's cov=True convention sqrt(resid / (n - 2) / Sxx)
    rng = np.random.default_rng(seed)
    x = np.log(rng.uniform(1e-4, 1.0, n))
    y = -1.5 * x + 3.0 + 0.3 * rng.standard_normal(n)
    slope, stderr = fit_line(x, y)
    assert abs(slope - np.polyfit(x, y, 1)[0]) <= 1e-13 * abs(slope)
    if n == 2:
        assert math.isnan(stderr)
    else:
        want = math.sqrt(np.polyfit(x, y, 1, cov=True)[1][0, 0])
        assert abs(stderr - want) <= 1e-13 * want


@pytest.mark.parametrize("x, y, slope", [
    ([0, 1, 2, 3], [1, 4, 7, 10], 3.0),
    ([10.0, 11.0, 12.0], [1.0, 3.0, 5.0], 2.0),
    ([-6.5, -4.5, -2.5, -0.5], [0.25, -0.75, -1.75, -2.75], -0.5),
    ([2.0, 3.0], [-7.0, -9.5], -2.5),
])
def test_fit_line_is_exact_on_collinear_points(x, y, slope):
    got, stderr = fit_line(x, y)
    assert got == slope
    assert stderr == 0.0 if len(x) > 2 else math.isnan(stderr)


def test_fit_line_without_spread_is_nan():
    assert all(math.isnan(v) for v in fit_line([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
