"""The benchmark workloads and the experiments they are made of.

An experiment is one `gcwaves` experiment family: its subcommand steps, with
flags generated from the benchmark seed; an output check taken from the
acceptance tolerances; and a *direct* replay of the public library calls
that the matching ``_cmd_*`` body in ``gcwaves/cli.py`` makes, each inside a
span.  The replay gives the per-layer metrics of the layers the experiment
exercises; ``probe`` adds spans for calls the CLI only makes from inside the
library.  Keep a replay in step with its ``_cmd_*`` body, or ``cli.self_s``
stops meaning CLI overhead.

A workload runs one or more experiments per op.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gcwaves.dispersion import (DispersionParams, ScanWindow, WeightParams,
                                exceptional_measure_bound, scan_four_wave,
                                scan_three_wave)
from gcwaves.energy import (depletion_checks, energy_derivative_trilinear,
                            increment_audit)
from gcwaves.fields import (FourierField, Grid, dealias, inner, l2_norm,
                            random_field, save_snapshot, sobolev_norm)
from gcwaves.goodvar import (build_good_variable, build_symbols,
                             expansion_check, export_symbol_trace, fit_loglog,
                             linear_good_variable, random_state)
from gcwaves.model import ModelConfig, initial_data, run
from gcwaves.paradiff import (ParadiffConfig, Symbol, composition_residual,
                              paralin_remainder, weyl_apply)

from tracing import dur

# the generic gravity presets `gcwaves scan3 --g` accepts
G_PRESETS = {"sqrt2": math.sqrt(2.0), "e": math.e, "pi/2": math.pi / 2.0}
BUDGET = 2e9


@dataclass(frozen=True)
class Experiment:
    name: str
    steps: Callable        # (rng, tiny) -> [(subcommand, {flag: value})]
    check: Callable        # (step output dirs) -> [failure text]
    direct: Callable       # (tracer, steps, out dir) -> {per-layer metric: value}
    probe: Callable | None = None   # (tracer, steps) -> {per-layer metric: value}


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple

    def plan(self, seed, tiny):
        """[(experiment, steps)], every experiment's flags drawn from one seeded rng."""
        rng = random.Random(seed)
        return [(e, e.steps(rng, tiny)) for e in self.experiments]


def _json(path):
    return json.loads(path.read_text())


def _floats(text):
    return [float(t) for t in text.split(",")]


def _rows(sym):
    """Symbol rows weyl_apply sums on the separable path (row_tol = 0)."""
    return sum(1 if t.spatial is None else int(np.count_nonzero(t.spatial.coeffs))
               for t in sym.terms)


# ---------------------------------------------------------------------------
# census: dispersion lattice censuses, vectorised numpy, no FFT
# ---------------------------------------------------------------------------

def census_steps(rng, tiny):
    g = rng.choice(sorted(G_PRESETS))
    hi3, hi4, cutoff = (16, 16, 8) if tiny else (128, 64, 16)
    return [
        ("scan3", {"g": g, "sigma": 1.0, "kappa": 0.5, "max-high": hi3,
                   "max-low": 4, "n-records": 100, "budget": BUDGET}),
        ("scan4", {"g": g, "sigma": 1.0, "max-high": hi4, "max-low": 2,
                   "bprime": 1.0, "n-records": 100, "budget": BUDGET}),
        ("measure", {"bigB": 5.0, "kappa": 1.0, "cutoff": cutoff, "j-min": 5,
                     "j-max": 7, "budget": BUDGET}),
    ]


def census_check(dirs):
    bad = []
    for d in dirs[:2]:
        gap = _json(d / "summary.json")["min_normalized_gap"]
        if not (isinstance(gap, float) and math.isfinite(gap) and gap > 0.0):
            bad.append(f"{d.name}: minimum gap {gap!r} is not finite and positive")
    lines = (dirs[2] / "bounds.csv").read_text().splitlines()[2:]
    ratios = [float(line.split(",")[3]) for line in lines]
    if not ratios or not max(ratios) <= 0.75:
        bad.append(f"measure: ratios {ratios} exceed 0.75")
    return bad


def census_direct(tr, steps, out):
    (_, s3), (_, s4), (_, ms) = steps
    with tr.span("dispersion.scan_three_wave") as sp3:
        r3 = scan_three_wave(DispersionParams(G_PRESETS[s3["g"]], s3["sigma"]),
                             WeightParams(s3["kappa"]),
                             ScanWindow(s3["max-high"], s3["max-low"]),
                             n_records=s3["n-records"], budget=int(s3["budget"]))
    with tr.span("dispersion.scan_four_wave") as sp4:
        r4 = scan_four_wave(DispersionParams(G_PRESETS[s4["g"]], s4["sigma"]),
                            ScanWindow(s4["max-high"], s4["max-low"]),
                            n_records=s4["n-records"], bprime=s4["bprime"],
                            budget=int(s4["budget"]))
    t_mb, pairs, intervals = 0.0, 0, 0
    for j in range(ms["j-min"], ms["j-max"] + 1):
        with tr.span("dispersion.exceptional_measure_bound", j=j) as sp:
            mb = exceptional_measure_bound(ms["bigB"], j, WeightParams(ms["kappa"]),
                                           ms["cutoff"], budget=int(ms["budget"]))
        t_mb += dur(sp)
        pairs += mb.n_pairs
        intervals += mb.n_intervals
    return {
        "dispersion.scan_three_wave.s": dur(sp3),
        "dispersion.scan_three_wave.tuples": r3.n_evaluated,
        "dispersion.scan_three_wave.tuples_per_s": r3.n_evaluated / dur(sp3),
        "dispersion.scan_three_wave.reevals":
            sum("extended-precision" in r.flags for r in r3.records),
        "dispersion.scan_four_wave.s": dur(sp4),
        "dispersion.scan_four_wave.tuples": r4.n_evaluated,
        "dispersion.exceptional_measure_bound.s": t_mb,
        "dispersion.exceptional_measure_bound.pairs": pairs,
        "dispersion.exceptional_measure_bound.intervals": intervals,
        "dispersion.exceptional_measure_bound.yield": intervals / pairs,
    }


# ---------------------------------------------------------------------------
# symbols: goodvar on paradiff's general path
# ---------------------------------------------------------------------------

# the zeta samples `gcwaves symbols` exports the Sigma1 trace at
TRACE_SAMPLES = [(1.0, 0.0), (2.0, 1.5), (4.0, -3.0)]


def symbols_steps(rng, tiny):
    return [("symbols", {"grid": 8 if tiny else 12, "g": 1.0, "sigma": 1.0,
                         "amplitude": 1.0, "seed": rng.randrange(1000), "chi": -2,
                         "eps-list": "1e-1,1e-3"})]


def symbols_check(dirs):
    slopes = {r["name"]: r["slope"] for r in _json(dirs[0] / "slopes.json")}
    return [f"slope {name} = {s!r} outside [1.8, 2.2]"
            for name, s in slopes.items() if not (s is not None and 1.8 <= s <= 2.2)]


def _symbols_setup(f):
    pcfg = ParadiffConfig(chi_exponent=f["chi"])
    grid = Grid(f["grid"])
    base = random_state(grid, DispersionParams(f["g"], f["sigma"]),
                        amplitude=f["amplitude"], seed=f["seed"])
    return pcfg, grid, base


def symbols_direct(tr, steps, out):
    f = steps[0][1]
    pcfg, grid, base = _symbols_setup(f)
    eps_list = _floats(f["eps-list"])
    with tr.span("goodvar.expansion_check") as sp_exp:
        expansion_check(base, eps_list, pcfg, powers=(-1.0, 0.5, 1.0, 2.0))
    t_gv, t_sob, vals = 0.0, 0.0, []
    for eps in eps_list:
        st = base.scaled(eps)
        with tr.span("goodvar.build_good_variable") as sp:
            gv = build_good_variable(st, pcfg)
        t_gv += dur(sp)
        diff = gv.U - linear_good_variable(st)
        with tr.span("fields.sobolev_norm") as sp:
            vals.append(sobolev_norm(diff, 3.0))
        t_sob += dur(sp)
    fit_loglog(eps_list, vals)
    with tr.span("goodvar.export_symbol_trace") as sp_tr:
        export_symbol_trace(gv.symbols.Sigma1, grid, TRACE_SAMPLES,
                            str(out / "sigma1_trace.csv"))
    return {
        "goodvar.expansion_check.s": dur(sp_exp),
        "goodvar.build_good_variable.s": t_gv,
        "goodvar.export_symbol_trace.s": dur(sp_tr),
        "fields.sobolev_norm.s": t_sob,
    }


def symbols_probe(tr, steps):
    """weyl_apply on the workload's own symbols, at the largest epsilon:
    the general path on Sigma and sqrt(g+ell), the separable path on Sigma1
    and ell (those two spans go to the trace file only; the separable
    metrics come from paradiff-audit)."""
    f = steps[0][1]
    pcfg, _, base = _symbols_setup(f)
    st = base.scaled(_floats(f["eps-list"])[0])
    with tr.span("goodvar.build_symbols") as sp_bs:
        syms = build_symbols(st, pcfg)
    general = [(syms.Sigma, st.omega), (syms.sqrt_g_ell, st.h)]
    t_gen = 0.0
    for sym, fld in general:
        with tr.span("paradiff.weyl_apply.general", symbol=sym.name) as sp:
            weyl_apply(sym, fld, pcfg)
        t_gen += dur(sp)
    for sym, fld in ((syms.Sigma1, st.omega), (syms.ell, st.h)):
        with tr.span("paradiff.weyl_apply.separable", symbol=sym.name):
            weyl_apply(sym, fld, pcfg)
    return {
        "goodvar.build_symbols.s": dur(sp_bs),
        "paradiff.weyl_apply.general.s": t_gen,
        "paradiff.weyl_apply.general.calls": len(general),
    }


# ---------------------------------------------------------------------------
# paradiff-audit: paradiff's separable path, no goodvar, no model
# ---------------------------------------------------------------------------

def paradiff_audit_steps(rng, tiny):
    return [("paradiff-audit", {"grid": 16 if tiny else 32, "chi": -2,
                                "seed": rng.randrange(1000)})]


def paradiff_audit_check(dirs):
    rep = _json(dirs[0] / "report.json")
    return [f"{k} = {rep[k]!r} > 1e-12"
            for k in ("self_adjoint_err", "conjugation_err", "t_one_err")
            if not (rep[k] is not None and rep[k] <= 1e-12)]


def paradiff_audit_direct(tr, steps, out):
    f = steps[0][1]
    pcfg = ParadiffConfig(chi_exponent=f["chi"])
    grid = Grid(f["grid"])
    seed = f["seed"]
    a = Symbol.from_function(random_field(grid, seed=seed, real=True))
    u = random_field(grid, seed=seed + 1)
    v = random_field(grid, seed=seed + 2)
    sep = {"s": 0.0, "calls": 0, "rows": 0}

    def T(sym, fld):
        with tr.span("paradiff.weyl_apply.separable", symbol=sym.name) as sp:
            res = weyl_apply(sym, fld, pcfg)
        sep["s"] += dur(sp)
        sep["calls"] += 1
        sep["rows"] += _rows(sym)
        return res

    inner(T(a, u), v) - inner(u, T(a, v))
    T(a, u).conj() - T(a.conj_flip(), u.conj())
    T(a, FourierField.single_mode(grid, (0, 0), 1.7))
    T(Symbol.constant(1.0), u)
    mult = Symbol.multiplier(lambda z1, z2: np.hypot(z1, z2), 1.0,
                             dgz=(lambda z1, z2: z1 / np.hypot(z1, z2),
                                  lambda z1, z2: z2 / np.hypot(z1, z2)))
    with tr.span("paradiff.composition_residual") as sp_cr:
        composition_residual(mult, a, 1.0, 0.0, [2, 3], grid, pcfg, seed=seed)
    f3 = random_field(grid, seed=seed + 3, real=True)
    f4 = random_field(grid, seed=seed + 4, real=True)
    with tr.span("paradiff.paralin_remainder") as sp_pl:
        h = paralin_remainder(f3, f4, pcfg)
    l2_norm(h)
    return {
        "paradiff.weyl_apply.separable.s": sep["s"],
        "paradiff.weyl_apply.separable.calls": sep["calls"],
        "paradiff.weyl_apply.separable.rows": sep["rows"],
        "paradiff.composition_residual.s": dur(sp_cr),
        "paradiff.paralin_remainder.s": dur(sp_pl),
    }


# ---------------------------------------------------------------------------
# simulate: the model solver, RK4, writing trajectory and snapshot
# ---------------------------------------------------------------------------

def simulate_steps(rng, tiny):
    return [("simulate", {"grid": 16 if tiny else 64, "g": 1.0, "epsilon": 0.01,
                          "dt": 4e-3, "seed": rng.randrange(1000),
                          "integrator": "rk4", "t-end": 0.2 if tiny else 1.0,
                          "velocity-band": 10, "snapshot-dt": 0.1,
                          "sobolev-index": 5.0, "linear-only": 0})]


def simulate_check(dirs):
    drift = _json(dirs[0] / "conservation.json")["max_rel_l2_drift"]
    return [] if drift is not None and drift <= 1e-8 else [f"L2 drift {drift!r} > 1e-8"]


def simulate_direct(tr, steps, out):
    f = steps[0][1]
    mc = ModelConfig(DispersionParams(f["g"], 1.0), Grid(f["grid"]), f["epsilon"],
                     f["dt"], f["t-end"], velocity_band=f["velocity-band"],
                     integrator=f["integrator"], snapshot_dt=f["snapshot-dt"],
                     sobolev_index=f["sobolev-index"],
                     linear_only=bool(f["linear-only"]), seed=f["seed"])
    with tr.span("model.run") as sp_run:
        traj = run(mc, keep_snapshots=True)
    with tr.span("model.Trajectory.to_jsonl"):
        traj.to_jsonl(str(out / "trajectory.jsonl"))
    t_final, u_final = traj.snapshots[-1]
    with tr.span("fields.save_snapshot") as sp_snap:
        save_snapshot(u_final, str(out / "final_field"), time=t_final, name="final state")
    steps_run = traj.report.n_steps
    return {
        "model.run.s": dur(sp_run),
        "model.run.steps": steps_run,
        "model.step_s": dur(sp_run) / steps_run,
        "model.trajectory_bytes": (out / "trajectory.jsonl").stat().st_size,
        "fields.save_snapshot.s": dur(sp_snap),
        "fields.save_snapshot.bytes": sum((out / f"final_field.{ext}").stat().st_size
                                          for ext in ("json", "csv")),
    }


# ---------------------------------------------------------------------------
# energy-audit: the modulation-split energy audit and the depletion checks
# ---------------------------------------------------------------------------

def energy_audit_steps(rng, tiny):
    return [("energy-audit", {"grid": 16 if tiny else 32, "g": 1.0, "epsilon": 0.01,
                              "dt": 2e-3, "seed": rng.randrange(1000), "N": 5.0,
                              "D": 3.0, "t-end": 0.02, "audit-times": "0.01",
                              "depletion-radius": 16 if tiny else 32})]


def energy_audit_check(dirs):
    err = _json(dirs[0] / "audit.json")["max_rel_err"]
    return [] if err is not None and err <= 1e-3 else [f"energy identity error {err!r} > 1e-3"]


def _energy_audit_config(f):
    params = DispersionParams(f["g"], 1.0)
    return params, ModelConfig(params, Grid(f["grid"]), f["epsilon"], f["dt"],
                               f["t-end"], seed=f["seed"])


def energy_audit_direct(tr, steps, out):
    f = steps[0][1]
    params, mc = _energy_audit_config(f)
    with tr.span("energy.increment_audit") as sp_ia:
        audit = increment_audit(mc, None, _floats(f["audit-times"]), N=f["N"], D=f["D"])
    with tr.span("energy.EnergyAudit.save"):
        audit.save(str(out / "audit.json"))
    with tr.span("energy.depletion_checks") as sp_dc:
        rep = depletion_checks(params, f["N"], f["depletion-radius"])
    return {
        "energy.increment_audit.s": dur(sp_ia),
        # one sum per audit time, three (the modulation/frequency split) per parts time
        "energy.increment_audit.trilinear_calls": len(audit.rows) + 3 * len(audit.parts_rows),
        "energy.depletion_checks.s": dur(sp_dc),
        "energy.depletion_checks.pairs": rep.n_pairs_mprime + rep.n_pairs_factor,
    }


def energy_audit_probe(tr, steps):
    """One unfiltered trilinear sum on the audit's initial data."""
    f = steps[0][1]
    params, mc = _energy_audit_config(f)
    u0 = dealias(initial_data(mc))
    with tr.span("energy.energy_derivative_trilinear") as sp:
        energy_derivative_trilinear(u0, f["N"], params)
    c = np.abs(u0.coeffs)
    return {
        "energy.energy_derivative_trilinear.s": dur(sp),
        # rows above the default row_tol = 1e-14 of the largest coefficient
        "energy.energy_derivative_trilinear.rows": int(np.count_nonzero(c > 1e-14 * c.max())),
    }


WORKLOADS = {w.name: w for w in (
    Workload("calculus", (
        Experiment("symbols", symbols_steps, symbols_check, symbols_direct, symbols_probe),
        Experiment("paradiff-audit", paradiff_audit_steps, paradiff_audit_check,
                   paradiff_audit_direct))),
    Workload("dynamics", (
        Experiment("census", census_steps, census_check, census_direct),
        Experiment("simulate", simulate_steps, simulate_check, simulate_direct),
        Experiment("energy-audit", energy_audit_steps, energy_audit_check,
                   energy_audit_direct, energy_audit_probe))),
)}
