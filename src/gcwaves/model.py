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

The nonlinearity is evaluated in the complex-derivative form

    N = (1/2) dbar(W U) + (1/2) conj(W) d U,   W = d V,
    d = d1 + i d2,   dbar = d1 - i d2,

which equals the form above for real V (dbar W = Lap V, and
grad V . grad U = (W dbar U + conj(W) d U) / 2) and costs five transforms
per call: W, U and d U to the grid, the two products back.

Discrete conservation: U is kept on the dealiased square |k_i| <= kmax with
3 kmax < M, products are evaluated pointwise and re-truncated, so retained
modes of N(U) are alias-free exact convolutions.  Grid Parseval then holds
for them, the adjoint of dbar is -d, and Re<N(U), U> vanishes identically
(to rounding).  The L^2 drift of a run therefore measures pure
time-integration error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dispersion import DispersionParams, lam_grid
from .errors import ConfigError, NumericAbortError
from .fields import (FourierField, Grid, TWO_PI, check_power, dealias, finite_json, fit_line,
                     l2_norm, phi_le, random_field, sobolev_norm, write_csv)

#: the default velocity band B_V (V = P_{<=10} Im U), also the cutoff
#: phi_{<=B} the energy symbol carries by default
VELOCITY_BAND = 10


@dataclass(frozen=True)
class ModelConfig:
    params: DispersionParams
    grid: Grid
    epsilon: float
    dt: float
    t_end: float
    velocity_band: int = VELOCITY_BAND   # V = P_{<= velocity_band} Im U
    integrator: str = "rk4"          # "rk4" | "midpoint"
    snapshot_dt: float = 0.1         # > 0; every round(snapshot_dt / dt)-th step,
                                     # so any 0 < snapshot_dt < dt records every step
    sobolev_index: float = 5.0       # the monitored H^N
    linear_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.params.sigma != 1.0:
            raise ConfigError("the model equation fixes sigma = 1 "
                              "(rescale time for other values)")
        if not (0.0 < self.dt < math.inf and 0.0 < self.epsilon < math.inf
                and 0.0 < self.t_end < math.inf and 0.0 < self.snapshot_dt < math.inf
                and math.isfinite(self.sobolev_index) and self.velocity_band >= 0):
            raise ConfigError("need finite dt > 0, epsilon > 0, t_end > 0 and "
                              "snapshot_dt > 0, finite sobolev_index, and "
                              "velocity_band >= 0")
        m = self.grid.size
        check_power(self.sobolev_index, 2 * (m // 2) ** 2,
                    f"in the sobolev_index weight on the {m}^2 grid")
        if self.integrator not in ("rk4", "midpoint"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")


# A step aborts when ||U||_{L^2} leaves this relative distance from its
# initial value.  The equation conserves the norm exactly and resolved runs
# drift by time-integration error only, many orders of magnitude below it.
L2_DRIFT_ABORT = 0.1


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
    f = random_field(cfg.grid, cfg.seed, decay=0.25, mean_zero=False)
    return f * (TWO_PI * cfg.epsilon / l2_norm(f))


class _NlKernel:
    """Raw-array nonlinearity kernel with precomputed multipliers, for
    N = (1/2) dbar(W U) + (1/2) conj(W) d U with W = d V (module docstring).

    One call makes five transforms through a work stack ``w`` of shape
    (3, M, M), allocated once per kernel.  Its slices are filled with W^,
    U^ and (d U)^, each with the inverse scale folded into its multiplier;
    all three go to the grid in two in-place 1-D inverse passes (last axis
    first, the order ifft2 uses).  W U and conj(W) d U are formed in place
    and come back in two in-place forward passes, and dbar, the forward
    scale and the dealias mask are one multiplier per product.  The stack
    holds no state from one call to the next; the returned array is always
    fresh.

    Skew symmetry holds to rounding: the retained products are exact
    convolutions, so grid Parseval applies to them, and the adjoint of dbar
    is -d.  So <(1/2) dbar(W U), U> = -(1/2) <W U, d U>, which is minus the
    complex conjugate of <(1/2) conj(W) d U, U>, and Re<N, U> = 0.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        g = cfg.grid
        k1, k2 = g.freqs()
        self.grad = 1j * k1 - k2                      # d1 + i d2
        self.band = phi_le(np.hypot(k1, k2), cfg.velocity_band)
        m = g.size
        neg = (-np.arange(m)) % m
        self.flip = neg[:, None] * m + neg[None, :]   # flat index of -k
        self.inv_scale = m ** 2 / TWO_PI ** 2
        # W^ = d V^ = grad band (U^ - conj U^(-k)) / 2i, on the grid scale
        self.wv = self.grad * self.band / 2j * self.inv_scale
        self.gs = self.grad * self.inv_scale
        # dbar (i k1 + k2), the forward scale and the mask, per product
        c2 = 0.5 * (TWO_PI / m) ** 2 * g.dealias_mask()
        self.c1 = (1j * k1 + k2) * c2
        self.c2 = c2
        self.work = np.empty((3, m, m), complex)

    def _im2i(self, uhat, out):
        """2i (Im U)^ = U^ - conj U^(-k), written to out."""
        np.take(uhat, self.flip, out=out, mode="clip")
        np.conj(out, out=out)
        return np.subtract(uhat, out, out=out)

    def _vhat(self, uhat, out):
        """V^ = P_{<= B_V} (Im U)^, written to out."""
        np.divide(self._im2i(uhat, out), 2j, out=out)
        return np.multiply(self.band, out, out=out)

    def velocity(self, uhat):
        """V^ and grad V on the grid, from U^; V is real, so
        d1 V + i d2 V comes from one inverse transform."""
        vhat = self._vhat(uhat, np.empty_like(uhat))
        dv = np.fft.ifft2(self.grad * vhat) * self.inv_scale
        return vhat, dv.real, dv.imag

    def __call__(self, uhat):
        """N(U)^ from U^ (both dealiased raw arrays)."""
        if self.cfg.linear_only:
            return np.zeros_like(uhat)
        w = self.work
        wg, ug, dug = w                               # W, U and d U
        # overflow here is the blow-up detection path, not an error state
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(self.wv, self._im2i(uhat, wg), out=wg)
            np.multiply(uhat, self.inv_scale, out=ug)
            np.multiply(self.gs, uhat, out=dug)
            np.fft.ifft(w, axis=2, out=w)
            np.fft.ifft(w, axis=1, out=w)
            np.multiply(wg, ug, out=ug)               # W U
            np.conj(wg, out=wg)
            np.multiply(wg, dug, out=dug)             # conj(W) d U
            prods = w[1:]
            np.fft.fft(prods, axis=2, out=prods)
            np.fft.fft(prods, axis=1, out=prods)
            out = self.c1 * ug
            np.multiply(self.c2, dug, out=dug)
            out += dug
            return out


def nonlinearity(U: FourierField, cfg: ModelConfig) -> FourierField:
    """N(U) = grad V . grad U + (1/2)(Lap V) U with V = P_{<=B_V} Im U,
    products pointwise, result dealiased."""
    kern = _NlKernel(cfg)
    u = dealias(U)
    return FourierField(cfg.grid, kern(np.asarray(u.coeffs)), False)


def suggest_dt(U0: FourierField, cfg: ModelConfig, courant=0.1) -> float:
    """dt with nonlinear Courant number ||grad V||_inf * dt * kmax <= courant."""
    _, dv1, dv2 = _NlKernel(cfg).velocity(np.asarray(dealias(U0).coeffs))
    vmax = float(np.max(np.hypot(dv1, dv2)))
    kmax = cfg.grid.kmax_dealias * math.sqrt(2.0)
    if vmax == 0.0:
        return cfg.t_end
    return courant / (vmax * kmax)


class Stepper:
    """Integrating-factor stepper with precomputed linear phases."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        k1, k2 = cfg.grid.freqs()
        lam = lam_grid(cfg.params, k1, k2)
        self.e_full = np.exp(-1j * cfg.dt * lam)
        self.e_half = np.exp(-1j * 0.5 * cfg.dt * lam)
        # the products the stages form every step, formed once
        self.dt_e_half = cfg.dt * self.e_half
        self.two_e_half = 2.0 * self.e_half
        self.nl = _NlKernel(cfg)

    def _wrap(self, coeffs):
        return FourierField(self.cfg.grid, coeffs, False)

    def step(self, state: SolverState) -> SolverState:
        cfg = self.cfg
        dt = cfg.dt
        u = np.asarray(state.U.coeffs)
        nl = self.nl
        with np.errstate(over="ignore", invalid="ignore"):
            full_u = self.e_full * u
            k1 = nl(u)
            k2 = nl(self.e_half * (u + 0.5 * dt * k1))
            if cfg.integrator == "midpoint":
                out = full_u + self.dt_e_half * k2
            else:
                k3 = nl(self.e_half * u + 0.5 * dt * k2)
                k4 = nl(full_u + self.dt_e_half * k3)
                out = full_u + dt / 6.0 * (self.e_full * k1 + self.two_e_half * (k2 + k3)
                                           + k4)
        l2 = math.sqrt(np.vdot(out, out).real) / TWO_PI
        # false for a non-finite norm too: NaN and inf fail every comparison
        if not abs(l2 - state.l2_initial) <= L2_DRIFT_ABORT * state.l2_initial:
            raise NumericAbortError(
                f"L2 norm {l2:.6g} after step at t={state.t:.6g} is not within "
                f"{L2_DRIFT_ABORT:g} relative of its initial {state.l2_initial:.6g}",
                last_state=state)
        return SolverState(state.t + dt, self._wrap(out), state.l2_initial,
                           state.steps + 1)


def step(state: SolverState, cfg: ModelConfig) -> SolverState:
    """Advance by one dt (convenience wrapper; runs build a stepper once)."""
    return Stepper(cfg).step(state)


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
    snapshots: list              # list of (t, FourierField); [] unless kept
    report: ConservationReport
    final: tuple                 # (t, FourierField) at the last recorded time

    def to_jsonl(self, path):
        """One strict JSON record per snapshot time: {t, l2, hN, doubled};
        a non-finite value is written as null."""
        hn0 = self.hn[0]
        with open(path, "w") as fh:
            for t, l2v, hnv in zip(self.times, self.l2, self.hn):
                fh.write(json.dumps(finite_json({"t": t, "l2": l2v, "hN": hnv,
                                                 "doubled": bool(hnv > 2.0 * hn0)}),
                                    sort_keys=True) + "\n")


def run(cfg: ModelConfig, initial: FourierField | None = None,
        keep_snapshots=True, stop_on_doubling=False) -> Trajectory:
    """Integrate to t_end (or until the H^N norm doubles, if requested).
    Every recorded state is kept in ``snapshots`` if keep_snapshots, and the
    last one in ``final`` either way."""
    if initial is None:
        initial = initial_data(cfg)
    u0 = dealias(initial)
    state = SolverState(0.0, u0, l2_norm(u0))
    stepper = Stepper(cfg)
    every = max(1, int(round(cfg.snapshot_dt / cfg.dt)))
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-12))

    times, l2s, hns, snaps = [], [], [], []
    hn0 = sobolev_norm(u0, cfg.sobolev_index)
    max_drift = 0.0
    max_growth = 1.0
    doubling_time = None
    final = None

    def record(st):
        nonlocal max_drift, max_growth, doubling_time, final
        l2v = l2_norm(st.U)
        hnv = sobolev_norm(st.U, cfg.sobolev_index)
        times.append(st.t)
        l2s.append(l2v)
        hns.append(hnv)
        final = (st.t, st.U)
        if keep_snapshots:
            snaps.append(final)
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
            err.last_state, hn0, max_drift, max_growth, doubling_time), final)
        raise
    rep = _report(state, hn0, max_drift, max_growth, doubling_time)
    return Trajectory(cfg, times, l2s, hns, snaps, rep, final)


def _report(state, hn0, max_drift, max_growth, doubling_time):
    return ConservationReport(state.l2_initial, max_drift, hn0, max_growth,
                              doubling_time, doubling_time is None, state.steps)


# ---------------------------------------------------------------------------
# lifespan sweep
# ---------------------------------------------------------------------------

#: the columns of sweep.csv, whose last row is "# p_fit,<p>,p_stderr,<stderr>"
SWEEP_COLUMNS = ("epsilon", "doubling_time", "censored", "n_steps")


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
        write_csv(path, SWEEP_COLUMNS, [
            *((r.epsilon, r.doubling_time, int(r.censored), r.n_steps) for r in self.rows),
            ("# p_fit", self.p_fit, "p_stderr", self.p_stderr)])


def lifespan_sweep(cfg: ModelConfig, eps_list, courant=0.08) -> SweepResult:
    """Doubling time T(eps) over an epsilon ladder plus a log-log fit.

    Each run uses the same seed, data rescaled to the target epsilon, dt from
    the transport CFL, and stops at doubling or t_end (censored rows are
    flagged and excluded from the fit).  The fitted exponent in T ~ eps^{-p}
    is reported with its standard error; it is an empirical observation for
    this model, not an asserted law.
    """
    if not 0.0 < courant < math.inf:
        raise ConfigError(f"courant must be finite and > 0, got {courant!r}")
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
    p, stderr = math.nan, math.nan
    if len(used) > 1:
        slope, stderr = fit_line(np.log([u[0] for u in used]), np.log([u[1] for u in used]))
        p = -slope
    return SweepResult(rows, p, stderr,
                       {"grid": cfg.grid.size, "g": cfg.params.g,
                        "seed": cfg.seed, "courant": courant,
                        "sobolev_index": cfg.sobolev_index})
