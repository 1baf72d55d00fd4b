import math

import numpy as np
import pytest

from gcwaves.dispersion import DispersionParams, lam, lam_grid
from gcwaves.errors import ConfigError, NumericAbortError
from gcwaves.fields import (FourierField, Grid, analyze, dealias, dx, inner,
                            l2_norm, phi_le, random_field, synthesize)
from gcwaves.model import (ModelConfig, SolverState, _NlKernel, Stepper,
                           initial_data, lifespan_sweep, nonlinearity, run, step,
                           suggest_dt)

P = DispersionParams(1.0, 1.0)
G = Grid(32)


def _cfg(**kw):
    base = dict(params=P, grid=G, epsilon=0.1, dt=1e-2, t_end=1.0,
                snapshot_dt=0.1, seed=1)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(params=DispersionParams(1.0, 2.0))   # sigma != 1
    with pytest.raises(ConfigError):
        _cfg(dt=0.0)
    with pytest.raises(ConfigError):
        _cfg(integrator="euler")
    # the H^N weight (1+|xi|^2)^N of sobolev_norm overflows on 32^2 past N = 113.74
    with pytest.raises(ConfigError, match="largest admissible N there is 113.74"):
        _cfg(sobolev_index=120.0)


def test_linear_flow_exact_rotation():
    cfg = _cfg(linear_only=True, dt=0.01)
    u0 = FourierField.single_mode(G, (1, 0), 1.0)
    st = step(SolverState(0.0, u0, l2_norm(u0)), cfg)
    expect = np.exp(-1j * lam(P, (1, 0)) * 0.01) * u0.coeffs[1, 0]
    assert abs(st.U.coeffs[1, 0] - expect) <= 1e-14 * abs(expect)


def test_zero_data_stays_zero():
    cfg = _cfg()
    traj = run(cfg, FourierField.zero(G), keep_snapshots=True)
    assert all(v == 0.0 for v in traj.l2[1:])


def test_nonlinearity_vanishes_for_real_constant():
    cfg = _cfg()
    const = FourierField.single_mode(G, (0, 0), 3.0)
    out = nonlinearity(FourierField(G, const.coeffs, True), cfg)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_nonlinearity_single_mode_closed_form():
    # U = i eps cos x1 -> V = eps cos x1, N = -eps sin x1 dU/dx1 - (eps/2) cos x1 U
    cfg = _cfg()
    eps = 0.37
    uc = (FourierField.single_mode(G, (1, 0), 0.5j * eps)
          + FourierField.single_mode(G, (-1, 0), 0.5j * eps))
    U = FourierField(G, uc.coeffs)
    out = nonlinearity(U, cfg)
    X1, _ = G.x()
    ref = dealias(analyze(-eps * np.sin(X1) * synthesize(dx(U, 0))
                          - 0.5 * eps * np.cos(X1) * synthesize(U), G))
    assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-13 * np.max(np.abs(ref.coeffs))


def test_skew_symmetry_on_dealiased_grid():
    # Re<N(U), U> = 0 identically (alias-free retained products)
    cfg = _cfg()
    for seed in range(4):
        U = random_field(G, seed=seed, decay=0.05)
        nl = nonlinearity(U, cfg)
        scale = l2_norm(nl) * l2_norm(U)
        assert abs(np.real(inner(nl, U))) <= 1e-13 * max(scale, 1e-30)


def _oracle_kernel(cfg, uhat, dtype=complex):
    """N(U)^ = grad V . grad U + (1/2) Lap V U by six ifft2/fft2 transforms,
    with every multiplier built here from the grid and phi_le, in ``dtype``
    arithmetic (np.clongdouble for the extended-precision reference)."""
    g = cfg.grid
    m = g.size
    real = np.finfo(dtype).dtype.type
    two_pi = 2 * np.arccos(real(-1))
    k1, k2 = (k.astype(real) for k in g.freqs())
    band = phi_le(np.hypot(*g.freqs()), cfg.velocity_band).astype(real)
    inv_scale = real(m) ** 2 / two_pi ** 2
    fwd_scale = (two_pi / m) ** 2
    u = uhat.astype(dtype)
    neg = (-np.arange(m)) % m
    ifft = np.fft.ifft2
    with np.errstate(over="ignore", invalid="ignore"):
        vhat = band * (u - np.conj(u[neg][:, neg])) / dtype(2j)
        dv = ifft((1j * k1 - k2) * vhat) * inv_scale             # d1 V + i d2 V
        dv1, dv2 = dv.real, dv.imag
        lap = ifft(-(k1 * k1 + k2 * k2) * vhat).real * inv_scale
        du1 = ifft(1j * k1 * u) * inv_scale
        du2 = ifft(1j * k2 * u) * inv_scale
        us = ifft(u) * inv_scale
        n_phys = dv1 * du1 + dv2 * du2 + 0.5 * lap * us
        return np.where(g.dealias_mask(), np.fft.fft2(n_phys) * fwd_scale, 0.0)


def _direct_symbol_sum(cfg, uhat):
    """N^(xi) = -(1/2)(2 pi)^-2 sum_eta (xi - eta).(xi + eta) V^(xi - eta) U^(eta)
    summed pair by pair over the dealiased square, with
    V^ = phi_{<=B}(|k|) (U^(k) - conj U^(-k)) / 2i: no transform at all."""
    g = cfg.grid
    m, km = g.size, g.kmax_dealias
    ks = np.arange(-km, km + 1)
    c1, c2 = (c.ravel() for c in np.meshgrid(ks, ks, indexing="ij"))
    u = uhat[c1 % m, c2 % m]
    vhat = (phi_le(np.hypot(c1, c2), cfg.velocity_band)
            * (u - np.conj(uhat[-c1 % m, -c2 % m])) / 2j)
    d1, d2 = c1[:, None] - c1[None, :], c2[:, None] - c2[None, :]       # xi - eta
    inside = (np.abs(d1) <= km) & (np.abs(d2) <= km)
    side = 2 * km + 1
    # differences off the square read some valid entry, then masked to zero
    v_d = np.where(inside, vhat[((d1 + km) % side) * side + (d2 + km) % side], 0.0)
    sym = -0.5 / (2 * np.pi) ** 2 * (c1[:, None] ** 2 + c2[:, None] ** 2
                                     - c1[None, :] ** 2 - c2[None, :] ** 2)
    out = np.zeros_like(uhat)
    out[c1 % m, c2 % m] = (sym * v_d) @ u
    return out


def _same_bits(a, b):
    # bitwise: stricter than ==, it also tells -0.0 from 0.0 and matches NaNs
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _random_u(m, seed, scale=1.0):
    return scale * np.asarray(random_field(Grid(m), seed=seed, decay=0.02).coeffs)


# the reference is the six-transform formula in extended precision where the
# platform has it, else in float64; the kernel must sit at rounding level
_REF_DTYPE = (np.clongdouble if np.finfo(np.longdouble).eps < np.finfo(float).eps
              else complex)


@pytest.mark.parametrize("m", [8, 10, 16, 22, 32, 48, 64, 96, 128])
@pytest.mark.parametrize("band", [0, 1, 10])
def test_fused_kernel_matches_six_transform_oracle(m, band):
    cfg = _cfg(grid=Grid(m), velocity_band=band)
    kern = _NlKernel(cfg)
    # two calls in a row with different inputs: the work stack keeps nothing
    for seed in (m, m + 1):
        u = _random_u(m, seed)
        ref = _oracle_kernel(cfg, u, _REF_DTYPE)
        assert np.max(np.abs(kern(u) - ref)) <= 2e-15 * np.max(np.abs(ref))
        vhat, dv1, dv2 = kern.velocity(u)
        ref = np.fft.ifft2(kern.grad * vhat) * kern.inv_scale
        assert _same_bits(dv1 + 1j * dv2, ref)


@pytest.mark.parametrize("m", [8, 12, 16])
@pytest.mark.parametrize("band", [0, 1, 10])
def test_kernel_matches_direct_symbol_sum(m, band):
    # ties the kernel to the README's symmetrized symbol with no FFT in the
    # reference, the symbol the energy module's constant rests on
    cfg = _cfg(grid=Grid(m), velocity_band=band)
    U = random_field(Grid(m), seed=m + band, decay=0.02)
    ref = _direct_symbol_sum(cfg, np.asarray(U.coeffs))
    got = nonlinearity(U, cfg).coeffs
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fused_kernel_linear_only_and_blow_up_path():
    kern = _NlKernel(_cfg(linear_only=True))
    u = _random_u(32, 3)
    assert _same_bits(kern(u), np.zeros_like(u))
    # overflowing data: the kernel returns non-finite values, and the
    # stepper turns them into a named abort instead of a state
    cfg = _cfg()
    u = _random_u(32, 4, scale=1e200)
    assert not np.all(np.isfinite(_NlKernel(cfg)(u)))
    l2 = 1e200 * l2_norm(FourierField(G, _random_u(32, 4), False))
    with pytest.raises(NumericAbortError):
        Stepper(cfg).step(SolverState(0.0, FourierField(G, u, False), l2))


def test_fused_kernels_on_two_grids_called_in_turn():
    kerns = [_NlKernel(_cfg(grid=Grid(m))) for m in (16, 24)]
    for seed in range(3):
        for kern in kerns:
            u = _random_u(kern.cfg.grid.size, seed)
            before = u.copy()
            out = kern(u)
            assert _same_bits(out, _NlKernel(kern.cfg)(u))
            assert _same_bits(u, before)
            assert not np.shares_memory(out, kern.work)


def test_velocity_band_projection_matters():
    # a mode above the velocity band contributes no advection
    cfg = _cfg(velocity_band=0)
    uc = FourierField.single_mode(G, (5, 0), 1.0j)  # |xi| = 5 > 8/5 * 2^0
    out = nonlinearity(FourierField(G, uc.coeffs), cfg)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_rk4_self_convergence_order():
    u0 = initial_data(_cfg(epsilon=0.2))
    def final(dtv, integ):
        c = _cfg(epsilon=0.2, dt=dtv, t_end=0.25, snapshot_dt=0.25, integrator=integ)
        return run(c, u0, keep_snapshots=False).final[1]
    # dt must resolve the rotated-stage oscillation (dt * Lam(kmax) <~ 1)
    # yet stay above the rounding floor
    for integ, order in (("rk4", 4.0), ("midpoint", 2.0)):
        ref = final(2.5e-4, integ)
        dts = [0.01, 0.005, 0.0025]
        errs = [l2_norm(final(d, integ) - ref) for d in dts]
        slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        assert abs(slope - order) <= 0.3


def test_lawson_step_matches_rotated_rk4_oracle():
    # one step of the integrating-factor scheme equals classical RK4 applied
    # to the rotated profile equation du/dt = e^{tL} N(e^{-tL} u)
    cfg = _cfg(epsilon=0.5, dt=0.02)
    u0 = initial_data(cfg)
    got = step(SolverState(0.0, u0, l2_norm(u0)), cfg).U.coeffs

    k1g, k2g = G.freqs()
    lamg = lam_grid(P, k1g, k2g)
    dt = cfg.dt
    rot = lambda tau, c: np.exp(1j * tau * lamg) * c        # to profile frame
    unrot = lambda tau, c: np.exp(-1j * tau * lamg) * c
    nl = lambda c: nonlinearity(FourierField(G, c), cfg).coeffs
    rhs = lambda tau, u: rot(tau, nl(unrot(tau, u)))
    u = np.asarray(dealias(u0).coeffs)
    k1 = rhs(0.0, u)
    k2 = rhs(dt / 2, u + dt / 2 * k1)
    k3 = rhs(dt / 2, u + dt / 2 * k2)
    k4 = rhs(dt, u + dt * k3)
    u_next = unrot(dt, u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    assert np.max(np.abs(got - u_next)) <= 1e-12 * np.max(np.abs(u_next))


def test_linear_flow_time_reversible():
    cfg = _cfg(linear_only=True, dt=0.05)
    s = Stepper(cfg)
    u = np.asarray(random_field(G, seed=5).coeffs)
    back = np.conj(s.e_full) * (s.e_full * u)
    assert np.max(np.abs(back - u)) <= 1e-13 * np.max(np.abs(u))


def test_linear_only_run_conserves_everything():
    cfg = _cfg(linear_only=True, epsilon=0.01, dt=1e-2, t_end=10.0, snapshot_dt=1.0)
    traj = run(cfg, keep_snapshots=False)
    assert traj.report.max_rel_l2_drift <= 1e-13
    assert abs(traj.report.max_hn_growth - 1.0) <= 1e-12
    assert traj.report.censored


def test_nonlinear_l2_conservation():
    cfg = _cfg(epsilon=0.05, dt=2e-3, t_end=2.0, snapshot_dt=0.2)
    traj = run(cfg, keep_snapshots=False)
    assert traj.report.max_rel_l2_drift <= 1e-10


def test_numeric_abort_carries_last_state():
    cfg = _cfg(epsilon=50.0, dt=0.5, t_end=50.0)  # violently unstable
    with pytest.raises(NumericAbortError) as err:
        run(cfg, keep_snapshots=False)
    assert err.value.last_state is not None
    assert np.all(np.isfinite(err.value.last_state.U.coeffs))


def test_final_state_is_the_last_snapshot_kept_or_not():
    # the last recorded state is carried whether or not the snapshots are
    # kept, so a caller that writes only it holds one state in memory
    cfg = _cfg(epsilon=0.05, dt=1e-2, t_end=0.25, snapshot_dt=0.1)
    kept, lean = run(cfg, keep_snapshots=True), run(cfg, keep_snapshots=False)
    assert len(kept.snapshots) == len(kept.times) == 4 and lean.snapshots == []
    assert kept.final is kept.snapshots[-1]
    assert lean.final[0] == kept.final[0] == lean.times[-1]
    assert np.array_equal(lean.final[1].coeffs, kept.final[1].coeffs)
    with pytest.raises(NumericAbortError) as err:
        run(_cfg(epsilon=50.0, dt=0.5, t_end=50.0), keep_snapshots=False)
    traj = err.value.trajectory
    assert traj.final[0] == traj.times[-1] and np.all(np.isfinite(traj.final[1].coeffs))


def test_suggest_dt_courant():
    cfg = _cfg(epsilon=0.2)
    u0 = initial_data(cfg)
    dtv = suggest_dt(u0, cfg, courant=0.1)
    assert 0.0 < dtv < cfg.t_end


def test_doubling_detected_for_large_amplitude():
    cfg = _cfg(epsilon=0.5, dt=2e-3, t_end=50.0, seed=2)
    traj = run(cfg, keep_snapshots=False, stop_on_doubling=True)
    assert traj.report.doubling_time is not None
    assert traj.report.max_hn_growth > 2.0


def test_sweep_monotone_and_fit(tmp_path):
    cfg = _cfg(epsilon=0.4, dt=1e-2, t_end=2000.0, seed=2)
    res = lifespan_sweep(cfg, [0.4, 0.2, 0.1, 0.05], courant=0.08)
    ts = {r.epsilon: r.doubling_time for r in res.rows}
    assert all(not r.censored for r in res.rows)
    assert ts[0.4] <= ts[0.2] <= ts[0.1] <= ts[0.05]
    assert res.p_fit >= 1.0
    res.to_csv(tmp_path / "sweep.csv")
    text = (tmp_path / "sweep.csv").read_text()
    assert "p_fit" in text and text.startswith("epsilon,")


def test_sweep_linear_only_all_censored():
    cfg = _cfg(linear_only=True, dt=1e-2, t_end=1.0, seed=2)
    res = lifespan_sweep(cfg, [0.4, 0.2, 0.05])
    assert all(r.censored for r in res.rows)
    assert math.isnan(res.p_fit)


def test_sweep_needs_spread():
    with pytest.raises(ConfigError):
        lifespan_sweep(_cfg(), [0.4, 0.3, 0.2])


def test_trajectory_jsonl(tmp_path):
    import json

    cfg = _cfg(epsilon=0.05, dt=1e-2, t_end=0.3, snapshot_dt=0.1)
    traj = run(cfg, keep_snapshots=False)
    path = tmp_path / "traj.jsonl"
    traj.to_jsonl(path)
    rows = [json.loads(line, parse_constant=_no_constant)
            for line in path.read_text().splitlines()]
    assert rows[0]["t"] == 0.0
    assert set(rows[0]) == {"t", "l2", "hN", "doubled"}
    assert len(rows) == len(traj.times)
    assert [r["l2"] for r in rows] == traj.l2      # finite values keep every digit
    # a non-finite value is written as null, never as a bare NaN token
    traj.hn[-1] = math.nan
    traj.to_jsonl(path)
    last = json.loads(path.read_text().splitlines()[-1], parse_constant=_no_constant)
    assert last["hN"] is None and last["l2"] == traj.l2[-1]


def _no_constant(token):
    raise ValueError(f"{token} is not valid JSON (RFC 8259)")
