"""Pseudospectral integration of the quasilinear model equation

    dU/dt + i Lam U = grad V . grad U + (1/2) (Lap V) U =: N(U),
    Lam = sqrt(g|grad| + |grad|^3),   V = P_{<= B_V} Im U,

whose solutions conserve the L^2 norm exactly (the transport term plus the
half-divergence term pair to a skew operator).  sigma is fixed to 1 in this
module; other sigma values are reachable by the time rescaling
t -> t/sqrt(sigma), g -> g/sigma.

Time stepping uses integrating-factor (Lawson) schemes: the linear flow
e^{-i dt Lam} is applied exactly as a multiplier and the rotated
nonlinearity is advanced with classical RK stages, so the only step-size
restriction is the nonlinear transport CFL.

Discrete conservation: U is kept on the dealiased square |k_i| <= kmax with
3 kmax < M, products are evaluated pointwise and re-truncated, so retained
modes of N(U) are alias-free exact convolutions and Re<N(U), U> vanishes
identically (to rounding).  The L^2 drift of a run therefore measures pure
time-integration error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dispersion import DispersionParams, lam_grid
from .errors import ConfigError, NumericAbortError
from .fields import (FourierField, Grid, TWO_PI, dealias, l2_norm, phi_le,
                     sobolev_norm)


@dataclass(frozen=True)
class ModelConfig:
    params: DispersionParams
    grid: Grid
    epsilon: float
    dt: float
    t_end: float
    velocity_band: int = 10          # V = P_{<= velocity_band} Im U
    integrator: str = "rk4"          # "rk4" | "midpoint"
    snapshot_dt: float = 0.1
    sobolev_index: float = 5.0       # the monitored H^N
    linear_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.params.sigma != 1.0:
            raise ConfigError("the model equation fixes sigma = 1 "
                              "(rescale time for other values)")
        if not (0.0 < self.dt < math.inf and 0.0 < self.epsilon < math.inf
                and math.isfinite(self.t_end) and math.isfinite(self.snapshot_dt)
                and self.velocity_band >= 0):
            raise ConfigError("need finite dt > 0, epsilon > 0, t_end and "
                              "snapshot_dt, and velocity_band >= 0")
        if self.integrator not in ("rk4", "midpoint"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")


@dataclass
class SolverState:
    t: float
    U: FourierField
    l2_initial: float
    steps: int = 0


def initial_data(cfg: ModelConfig) -> FourierField:
    """Random smooth complex field with RMS amplitude epsilon.

    Normalization: ||U_0||_{L^2} = 2 pi epsilon, i.e. the root-mean-square
    of |U_0(x)| equals epsilon, so epsilon is the physical data size that
    controls the nonlinear time scale.
    """
    rng = np.random.default_rng(cfg.seed)
    g = cfg.grid
    k1, k2 = g.freqs()
    env = np.exp(-0.25 * (k1 * k1 + k2 * k2).astype(float))
    c = (rng.standard_normal((g.size, g.size))
         + 1j * rng.standard_normal((g.size, g.size))) * env
    f = dealias(FourierField(g, c))
    return f * (TWO_PI * cfg.epsilon / l2_norm(f))


class _NlKernel:
    """Raw-array nonlinearity kernel with precomputed multipliers."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        g = cfg.grid
        k1, k2 = g.freqs()
        self.ik1 = 1j * k1
        self.ik2 = 1j * k2
        self.band = phi_le(np.hypot(k1, k2), cfg.velocity_band)
        self.mask = g.dealias_mask()
        m = g.size
        self.neg = (-np.arange(m)) % m
        self.fwd_scale = (TWO_PI / m) ** 2
        self.inv_scale = m ** 2 / TWO_PI ** 2

    def __call__(self, uhat):
        """N(U)^ from U^ (both dealiased raw arrays)."""
        if self.cfg.linear_only:
            return np.zeros_like(uhat)
        # overflow here is the blow-up detection path, not an error state
        with np.errstate(over="ignore", invalid="ignore"):
            imhat = (uhat - np.conj(uhat[self.neg][:, self.neg])) / 2j
            vhat = self.band * imhat
            ifft = np.fft.ifft2
            dv1 = ifft(self.ik1 * vhat).real * self.inv_scale
            dv2 = ifft(self.ik2 * vhat).real * self.inv_scale
            lap = ifft((self.ik1 ** 2 + self.ik2 ** 2) * vhat).real * self.inv_scale
            du1 = ifft(self.ik1 * uhat) * self.inv_scale
            du2 = ifft(self.ik2 * uhat) * self.inv_scale
            us = ifft(uhat) * self.inv_scale
            n_phys = dv1 * du1 + dv2 * du2 + 0.5 * lap * us
            return np.where(self.mask, np.fft.fft2(n_phys) * self.fwd_scale, 0.0)


def nonlinearity(U: FourierField, cfg: ModelConfig) -> FourierField:
    """N(U) = grad V . grad U + (1/2)(Lap V) U with V = P_{<=B_V} Im U,
    products pointwise, result dealiased."""
    kern = _NlKernel(cfg)
    u = dealias(U)
    return FourierField(cfg.grid, kern(np.asarray(u.coeffs)), False)


def suggest_dt(U0: FourierField, cfg: ModelConfig, courant=0.1) -> float:
    """dt with nonlinear Courant number ||grad V||_inf * dt * kmax <= courant."""
    kern = _NlKernel(cfg)
    uhat = np.asarray(dealias(U0).coeffs)
    imhat = (uhat - np.conj(uhat[kern.neg][:, kern.neg])) / 2j
    vhat = kern.band * imhat
    dv1 = np.fft.ifft2(kern.ik1 * vhat).real * kern.inv_scale
    dv2 = np.fft.ifft2(kern.ik2 * vhat).real * kern.inv_scale
    vmax = float(np.max(np.hypot(dv1, dv2)))
    kmax = cfg.grid.kmax_dealias * math.sqrt(2.0)
    if vmax == 0.0:
        return cfg.t_end
    return courant / (vmax * kmax)


class _Stepper:
    """Integrating-factor stepper with precomputed linear phases."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        k1, k2 = cfg.grid.freqs()
        lam = lam_grid(cfg.params, k1, k2)
        self.e_full = np.exp(-1j * cfg.dt * lam)
        self.e_half = np.exp(-1j * 0.5 * cfg.dt * lam)
        self.nl = _NlKernel(cfg)

    def _wrap(self, coeffs):
        return FourierField(self.cfg.grid, coeffs, False)

    def step(self, state: SolverState) -> SolverState:
        cfg = self.cfg
        dt = cfg.dt
        u = np.asarray(state.U.coeffs)
        nl = self.nl
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.integrator == "midpoint":
                k1 = nl(u)
                k2 = nl(self.e_half * (u + 0.5 * dt * k1))
                out = self.e_full * u + dt * self.e_half * k2
            else:
                k1 = nl(u)
                k2 = nl(self.e_half * (u + 0.5 * dt * k1))
                k3 = nl(self.e_half * u + 0.5 * dt * k2)
                k4 = nl(self.e_full * u + dt * self.e_half * k3)
                out = (self.e_full * u
                       + dt / 6.0 * (self.e_full * k1 + 2.0 * self.e_half * (k2 + k3)
                                     + k4))
        if not np.all(np.isfinite(out)):
            raise NumericAbortError(
                f"non-finite coefficients after step at t={state.t:.6g}",
                last_state=state)
        return SolverState(state.t + dt, self._wrap(out), state.l2_initial,
                           state.steps + 1)


def step(state: SolverState, cfg: ModelConfig) -> SolverState:
    """Advance by one dt (convenience wrapper; runs build a stepper once)."""
    return _Stepper(cfg).step(state)


@dataclass
class ConservationReport:
    l2_initial: float
    max_rel_l2_drift: float
    hn_initial: float
    max_hn_growth: float
    doubling_time: float | None  # first time ||U||_{H^N} exceeded 2x initial
    censored: bool               # True if the run ended before doubling
    n_steps: int


@dataclass
class Trajectory:
    cfg: ModelConfig
    times: list
    l2: list
    hn: list
    snapshots: list              # list of (t, FourierField)
    report: ConservationReport

    def to_jsonl(self, path):
        """One JSON record per snapshot time: {t, l2, hN, doubled}."""
        hn0 = self.hn[0]
        with open(path, "w") as fh:
            for t, l2v, hnv in zip(self.times, self.l2, self.hn):
                fh.write(json.dumps({"t": t, "l2": l2v, "hN": hnv,
                                     "doubled": bool(hnv > 2.0 * hn0)},
                                    sort_keys=True) + "\n")


def run(cfg: ModelConfig, initial: FourierField | None = None,
        keep_snapshots=True, stop_on_doubling=False) -> Trajectory:
    """Integrate to t_end (or until the H^N norm doubles, if requested)."""
    if initial is None:
        initial = initial_data(cfg)
    u0 = dealias(initial)
    state = SolverState(0.0, u0, l2_norm(u0))
    stepper = _Stepper(cfg)
    every = max(1, int(round(cfg.snapshot_dt / cfg.dt)))
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-12))

    times, l2s, hns, snaps = [], [], [], []
    hn0 = sobolev_norm(u0, cfg.sobolev_index)
    max_drift = 0.0
    max_growth = 1.0
    doubling_time = None

    def record(st):
        nonlocal max_drift, max_growth, doubling_time
        l2v = l2_norm(st.U)
        hnv = sobolev_norm(st.U, cfg.sobolev_index)
        times.append(st.t)
        l2s.append(l2v)
        hns.append(hnv)
        if keep_snapshots:
            snaps.append((st.t, st.U))
        if st.l2_initial > 0.0:
            max_drift = max(max_drift, abs(l2v - st.l2_initial) / st.l2_initial)
        g = hnv / hn0 if hn0 > 0.0 else 1.0
        max_growth = max(max_growth, g)
        if doubling_time is None and g > 2.0:
            doubling_time = st.t
        return g

    record(state)
    try:
        prev_t, prev_hn = 0.0, hn0
        for n in range(n_steps):
            state = stepper.step(state)
            if stop_on_doubling:
                # monitor every step so the doubling time is not quantized
                # by the snapshot cadence; interpolate the crossing
                hnv = sobolev_norm(state.U, cfg.sobolev_index)
                if hnv > 2.0 * hn0 and doubling_time is None:
                    frac = (2.0 * hn0 - prev_hn) / (hnv - prev_hn)
                    doubling_time = prev_t + frac * (state.t - prev_t)
                    record(state)
                    break
                prev_t, prev_hn = state.t, hnv
            if (n + 1) % every == 0 or n + 1 == n_steps:
                growth = record(state)
                if stop_on_doubling and growth > 2.0:
                    break
    except NumericAbortError as err:
        # surface the abort but keep the healthy prefix of the trajectory
        err.trajectory = Trajectory(cfg, times, l2s, hns, snaps, _report(
            err.last_state, hn0, max_drift, max_growth, doubling_time))
        raise
    rep = _report(state, hn0, max_drift, max_growth, doubling_time)
    return Trajectory(cfg, times, l2s, hns, snaps, rep)


def _report(state, hn0, max_drift, max_growth, doubling_time):
    return ConservationReport(state.l2_initial, max_drift, hn0, max_growth,
                              doubling_time, doubling_time is None, state.steps)


# ---------------------------------------------------------------------------
# lifespan sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    epsilon: float
    doubling_time: float
    censored: bool
    n_steps: int


@dataclass
class SweepResult:
    rows: list
    p_fit: float          # T ~ eps^{-p}
    p_stderr: float
    meta: dict

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("epsilon,doubling_time,censored,n_steps\n")
            for r in self.rows:
                fh.write(f"{r.epsilon!r},{r.doubling_time!r},"
                         f"{int(r.censored)},{r.n_steps}\n")
            fh.write(f"# p_fit,{self.p_fit!r},p_stderr,{self.p_stderr!r}\n")


def lifespan_sweep(cfg: ModelConfig, eps_list, courant=0.08) -> SweepResult:
    """Doubling time T(eps) over an epsilon ladder plus a log-log fit.

    Each run uses the same seed, data rescaled to the target epsilon, dt from
    the transport CFL, and stops at doubling or t_end (censored rows are
    flagged and excluded from the fit).  The fitted exponent in T ~ eps^{-p}
    is reported with its standard error; it is an empirical observation for
    this model, not an asserted law.
    """
    if len(eps_list) < 3 or max(eps_list) / min(eps_list) < 5.0:
        raise ConfigError("the sweep needs >= 3 epsilon values spanning "
                          "at least a factor of 5")
    rows = []
    for eps in sorted(eps_list, reverse=True):
        c = replace(cfg, epsilon=eps)
        u0 = initial_data(c)
        dtv = min(cfg.dt, suggest_dt(u0, c, courant))
        c = replace(c, dt=dtv)
        traj = run(c, u0, keep_snapshots=False, stop_on_doubling=True)
        rep = traj.report
        t_doubling = rep.doubling_time if rep.doubling_time is not None else c.t_end
        rows.append(SweepRow(eps, t_doubling, rep.doubling_time is None, rep.n_steps))
    used = [(r.epsilon, r.doubling_time) for r in rows if not r.censored]
    if len(used) > 2:
        xs = np.log([u[0] for u in used])
        ys = np.log([u[1] for u in used])
        coef, cov = np.polyfit(xs, ys, 1, cov=True)
        p = -float(coef[0])
        stderr = float(np.sqrt(cov[0, 0]))
    elif len(used) == 2:
        xs = np.log([u[0] for u in used])
        ys = np.log([u[1] for u in used])
        p = -float(np.polyfit(xs, ys, 1)[0])
        stderr = math.nan
    else:
        p, stderr = math.nan, math.nan
    return SweepResult(rows, p, stderr,
                       {"grid": cfg.grid.size, "g": cfg.params.g,
                        "seed": cfg.seed, "courant": courant,
                        "sobolev_index": cfg.sobolev_index})
