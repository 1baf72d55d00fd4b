"""Experiment driver: every module surfaces as a subcommand.

Usage:  gcwaves <subcommand> [--config FILE] [flags...] --out DIR

Flags override values from the declarative JSON config file; every run
writes its resolved configuration (run_config.json), a manifest recording
all design knobs in effect (manifest.json), and the artifacts listed by
``gcwaves schema``.  Identical (config, seed) pairs reproduce byte-identical
artifacts.

Exit codes: 0 ok, 2 invalid config/usage (a singular multiplier on a field
with nonzero mean included), 3 resource budget exceeded,
4 numeric abort, 5 internal error (an unexpected exception: a bug; the
manifest's abort_reason holds a one-line traceback summary).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import traceback

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from . import __version__
from .dispersion import (BISECTION_TOL, G_PRESETS, DispersionParams, ScanWindow,
                         WeightParams, collinear_gap, exceptional_measure_bounds,
                         lemma1_profile, scan_four_wave, scan_three_wave)
from .errors import (ConfigError, NumericAbortError, PositivityError,
                     ResourceBudgetError, SingularMultiplierError, SmallDivisorError)
from .fields import (SNAPSHOT_COLUMNS, FourierField, Grid, finite_json, inner, l2_norm,
                     random_field, save_snapshot, sobolev_norm, write_csv, write_json)
from .goodvar import TRACE_COLUMNS
from .model import SWEEP_COLUMNS, VELOCITY_BAND, ModelConfig, lifespan_sweep, run
from .energy import (C_ENERGY, SMALL_DIVISOR_GUARD, depletion_checks,
                     increment_audit)
from .paradiff import (ParadiffConfig, Symbol, composition_residual, paralin_remainder,
                       weyl_apply)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# artifact schemas (the --schema dump)
# ---------------------------------------------------------------------------

SCHEMAS = {
    "scan3": {
        "records.csv": ["s1", "s2", "s3", "v1x", "v1y", "v2x", "v2y",
                        "v3x", "v3y", "phase_value", "weight",
                        "normalized_gap", "flags"],
        "summary.json": ["min_normalized_gap", "shell_stats(shell,count,"
                         "min_gap,min_phase_x32)", "n_evaluated", "meta"],
    },
    "scan4": {
        "records.csv": ["s1", "s2", "vx", "vy", "xix", "xiy", "etax", "etay",
                        "max_modulation", "weight", "normalized_gap", "flags"],
        "summary.json": ["min_normalized_gap", "shell_stats", "n_evaluated", "meta"],
    },
    "collinear": {
        "gaps.csv": ["etax", "etay", "gap", "gap_times_xi6"],
    },
    "lemma1": {
        "result.json": ["root", "interval", "length", "empty_forced",
                        "f_at_0", "f_at_B"],
    },
    "measure": {
        "bounds.csv": ["j", "bound", "n_intervals", "ratio_to_previous"],
    },
    "paradiff-audit": {
        "report.json": ["self_adjoint_err", "conjugation_err", "t_const_err",
                        "t_one_err", "composition(slopes)", "paralin", "chi_exponent"],
    },
    "symbols": {
        "slopes.json": ["name", "eps", "values", "slope"],
        "sigma1_trace.csv": [*TRACE_COLUMNS],
    },
    "simulate": {
        "trajectory.jsonl": ["t", "l2", "hN", "doubled"],
        "conservation.json": ["l2_initial", "max_rel_l2_drift", "hn_initial",
                              "max_hn_growth", "doubling_time", "censored", "n_steps"],
        "final_field.json/.csv": [*SNAPSHOT_COLUMNS],
    },
    "sweep": {
        "sweep.csv": [*SWEEP_COLUMNS, "# footer: p_fit, p_stderr"],
    },
    "energy-audit": {
        "audit.json": ["rows(t,E_N,dE_dt_fd,dE_dt_trilinear,rel_err)",
                       "parts(t,hiMod,loMod_hiFreq,loMod_loFreq)", "totals",
                       "N", "D", "c"],
        "depletion.json": ["radius", "mprime_min", "mprime_max", "factor_C"],
    },
}


@functools.cache
def _parser():
    """The argparse tree, built once per process; _resolve copies the
    defaults it carries, so no state passes from one dispatch to the next."""
    top = argparse.ArgumentParser(prog="gcwaves", description=__doc__)
    sub = top.add_subparsers(dest="subcommand")

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        for flag, (typ, default) in flags.items():
            p.add_argument(f"--{flag}", type=typ, default=None,
                           help=f"default {default!r}")
        p.set_defaults(_defaults={k: v[1] for k, v in flags.items()},
                       _types={k: v[0] for k, v in flags.items()})
        return p

    # --g accepts a float or one of the generic presets "sqrt2", "e", "pi/2"
    add("scan3", g=(str, "sqrt2"), sigma=(float, 1.0), kappa=(float, 0.5),
        **{"max-high": (int, 64), "max-low": (int, 4),
           "n-records": (int, 100), "budget": (float, 2e9)})
    add("scan4", g=(str, "sqrt2"), sigma=(float, 1.0),
        **{"max-high": (int, 128), "max-low": (int, 2), "bprime": (float, 1.0),
           "n-records": (int, 100), "budget": (float, 2e9)})
    add("collinear", g=(str, "sqrt2"), sigma=(float, 1.0),
        xi=(str, "6,0"))
    add("lemma1", a=(float, 1.0), b=(float, 1.0), c=(float, 2.0),
        bigB=(float, 10.0), delta=(float, 0.05))
    add("measure", bigB=(float, 5.0), kappa=(float, 1.0), cutoff=(int, 32),
        **{"j-min": (int, 5), "j-max": (int, 9), "budget": (float, 2e9)})
    add("paradiff-audit", grid=(int, 16), chi=(int, -2), seed=(int, 0))
    add("symbols", grid=(int, 32), g=(float, 1.0), sigma=(float, 1.0),
        amplitude=(float, 1.0), seed=(int, 0), chi=(int, -2),
        **{"eps-list": (str, "1e-1,1e-2,1e-3,1e-4")})
    add("simulate", grid=(int, 64), g=(float, 1.0), epsilon=(float, 0.01),
        dt=(float, 4e-3), seed=(int, 0), integrator=(str, "rk4"),
        **{"t-end": (float, 10.0), "velocity-band": (int, VELOCITY_BAND),
           "snapshot-dt": (float, 0.1), "sobolev-index": (float, 5.0),
           "linear-only": (int, 0)})
    add("sweep", grid=(int, 32), g=(float, 1.0), seed=(int, 2), dt=(float, 1e-2),
        **{"eps-list": (str, "0.4,0.2,0.1,0.05"), "t-end": (float, 2000.0),
           "courant": (float, 0.08), "sobolev-index": (float, 5.0)})
    add("energy-audit", grid=(int, 32), g=(float, 1.0), epsilon=(float, 0.01),
        dt=(float, 2e-3), seed=(int, 0), N=(float, 5.0), D=(float, 3.0),
        **{"t-end": (float, 0.1), "audit-times": (str, "0.02,0.05,0.08"),
           "depletion-radius": (int, 64)})
    sub.add_parser("schema")
    return top


def _resolve(args):
    """Merge file config <- defaults, then apply explicit CLI flags.  File
    values get the type their flag declares."""
    cfg = dict(args._defaults)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read config {args.config!r}: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {args.config!r} is not a JSON object")
        for k, v in file_cfg.items():
            key = k.replace("_", "-")
            if key not in cfg and key not in ("out",):
                raise ConfigError(f"unknown config key {k!r}")
            if key == "out":
                continue
            try:
                cfg[key] = args._types[key](v)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"config key {k!r}: {err}") from err
            if args._types[key] is int and cfg[key] != v:
                raise ConfigError(f"config key {k!r}: {v!r} is not an integer")
    for k, v in vars(args).items():
        key = k.replace("_", "-")
        if key in cfg and v is not None:
            cfg[key] = v
    return cfg


def _parse_g(value):
    """Gravity parameter: a float, or one of the generic presets."""
    if isinstance(value, str) and value in G_PRESETS:
        return G_PRESETS[value]
    return _number(float, value, "g")


def _number(typ, text, what):
    try:
        return typ(text)
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from err


def _floats(text):
    return [_number(float, t, "list") for t in str(text).split(",") if t.strip()]


def _ints(text):
    return [_number(int, t, "list") for t in str(text).split(",") if t.strip()]


def _budget(cfg):
    """The scan budget as an int; NaN and infinity are rejected."""
    if not math.isfinite(cfg["budget"]):
        raise ConfigError(f"budget must be finite, got {cfg['budget']!r}")
    return int(cfg["budget"])


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _write_census(res, out, subcommand):
    """A census's records.csv (one line per record) and summary.json."""
    write_csv(f"{out}/records.csv", SCHEMAS[subcommand]["records.csv"], (
        (*r.signs.signs, *(c for v in r.frequencies for c in v),
         r.phase_value, r.weight, r.normalized_gap, "|".join(r.flags))
        for r in res.records))
    write_json(f"{out}/summary.json", {
        "min_normalized_gap": res.min_gap,
        "shell_stats": [s.__dict__ for s in res.shell_stats],
        "n_evaluated": res.n_evaluated, "meta": res.meta})
    return {"min_normalized_gap": res.min_gap}


def _cmd_scan3(cfg, out):
    params = DispersionParams(_parse_g(cfg["g"]), cfg["sigma"])
    res = scan_three_wave(params, WeightParams(cfg["kappa"]),
                          ScanWindow(cfg["max-high"], cfg["max-low"]),
                          n_records=cfg["n-records"], budget=_budget(cfg))
    return _write_census(res, out, "scan3")


def _cmd_scan4(cfg, out):
    params = DispersionParams(_parse_g(cfg["g"]), cfg["sigma"])
    res = scan_four_wave(params, ScanWindow(cfg["max-high"], cfg["max-low"]),
                         n_records=cfg["n-records"], bprime=cfg["bprime"],
                         budget=_budget(cfg))
    return _write_census(res, out, "scan4")


def _cmd_collinear(cfg, out):
    params = DispersionParams(_parse_g(cfg["g"]), cfg["sigma"])
    xi = tuple(_ints(cfg["xi"]))
    if len(xi) != 2:
        raise ConfigError(f"xi needs exactly two integers, got {cfg['xi']!r}")
    rows = collinear_gap(params, xi)
    write_csv(f"{out}/gaps.csv", SCHEMAS["collinear"]["gaps.csv"],
              ((*eta, gap, norm) for eta, gap, norm in rows))
    return {"n_gaps": len(rows)}


def _cmd_lemma1(cfg, out):
    res = lemma1_profile(cfg["a"], cfg["b"], cfg["c"], cfg["bigB"], cfg["delta"])
    write_json(f"{out}/result.json", res.__dict__)
    return {"length": res.length}


def _cmd_measure(cfg, out):
    if cfg["j-min"] > cfg["j-max"]:
        raise ConfigError(f"need j-min <= j-max, got {cfg['j-min']} > {cfg['j-max']}")
    rows = []
    prev = None
    for mb in exceptional_measure_bounds(cfg["bigB"], range(cfg["j-min"], cfg["j-max"] + 1),
                                         WeightParams(cfg["kappa"]), cfg["cutoff"],
                                         budget=_budget(cfg)):
        ratio = mb.total / prev if prev not in (None, 0.0) else float("nan")
        rows.append((mb.j, mb.total, mb.n_intervals, ratio))
        prev = mb.total
    write_csv(f"{out}/bounds.csv", SCHEMAS["measure"]["bounds.csv"], rows)
    return {"bounds": [r[1] for r in rows]}


def _cmd_paradiff_audit(cfg, out):
    pcfg = ParadiffConfig(chi_exponent=cfg["chi"])
    grid = Grid(cfg["grid"])
    seed = cfg["seed"]
    a = Symbol.from_function(random_field(grid, seed=seed, real=True))
    u = random_field(grid, seed=seed + 1)
    v = random_field(grid, seed=seed + 2)
    au = weyl_apply(a, u, pcfg)
    sa = abs(inner(au, v) - inner(u, weyl_apply(a, v, pcfg)))
    lhs = au.conj()
    rhs = weyl_apply(a.conj_flip(), u.conj(), pcfg)
    conj_err = float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
    const = FourierField.single_mode(grid, (0, 0), 1.7)
    tconst = float(np.max(np.abs(weyl_apply(a, const, pcfg).coeffs)))
    one = Symbol.constant(1.0)
    t1 = weyl_apply(one, u, pcfg)
    t1_err = float(np.max(np.abs(t1.coeffs - u.coeffs)))  # u is mean-zero
    mult = Symbol.multiplier(lambda z1, z2: np.hypot(z1, z2), 1.0,
                             dgz=(lambda z1, z2: z1 / np.hypot(z1, z2),
                                  lambda z1, z2: z2 / np.hypot(z1, z2)))
    comp = composition_residual(mult, a, 1.0, 0.0, [2, 3], grid, pcfg, seed=seed)
    h = paralin_remainder(random_field(grid, seed=seed + 3, real=True),
                          random_field(grid, seed=seed + 4, real=True), pcfg)
    report = {"self_adjoint_err": sa, "conjugation_err": conj_err,
              "t_const_err": tconst, "t_one_err": t1_err,
              "composition": comp.to_json(), "paralin_h_norm": l2_norm(h),
              "chi_exponent": pcfg.chi_exponent}
    write_json(f"{out}/report.json", report)
    return report


def _cmd_symbols(cfg, out):
    from .goodvar import (SlopeReport, build_good_variable, expansion_check,
                          export_symbol_trace, fit_loglog,
                          linear_good_variable, principal_family, random_state)

    pcfg = ParadiffConfig(chi_exponent=cfg["chi"])
    grid = Grid(cfg["grid"])
    params = DispersionParams(cfg["g"], cfg["sigma"])
    base = random_state(grid, params, amplitude=cfg["amplitude"], seed=cfg["seed"])
    eps_list = _floats(cfg["eps-list"])
    states = [base.scaled(eps) for eps in eps_list]
    # one principal family per eps, read by the expansion check and by U
    families = [principal_family(st) for st in states]
    reports = expansion_check(base, eps_list, pcfg, powers=(-1.0, 0.5, 1.0, 2.0),
                              families=families)
    vals = []
    for st, fam in zip(states, families):
        gv = build_good_variable(st, pcfg, fam)
        vals.append(sobolev_norm(gv.U - linear_good_variable(st), 3.0))
    reports.append(SlopeReport("U_minus_linear", eps_list, vals, fit_loglog(eps_list, vals)))
    write_json(f"{out}/slopes.json", reports)
    export_symbol_trace(gv.symbols.Sigma1, grid,
                        [(1.0, 0.0), (2.0, 1.5), (4.0, -3.0)],
                        f"{out}/sigma1_trace.csv")
    return {"slopes": {r.name: r.slope for r in reports}}


def _cmd_simulate(cfg, out):
    if cfg["linear-only"] not in (0, 1):
        raise ConfigError(f"linear-only must be 0 or 1, got {cfg['linear-only']!r}")
    params = DispersionParams(cfg["g"], 1.0)
    mc = ModelConfig(params, Grid(cfg["grid"]), cfg["epsilon"], cfg["dt"],
                     cfg["t-end"], velocity_band=cfg["velocity-band"],
                     integrator=cfg["integrator"], snapshot_dt=cfg["snapshot-dt"],
                     sobolev_index=cfg["sobolev-index"],
                     linear_only=bool(cfg["linear-only"]), seed=cfg["seed"])
    try:
        traj = run(mc, keep_snapshots=False)   # only the final state is written
    except NumericAbortError as err:
        # the healthy prefix up to the last recorded snapshot stays on disk
        err.trajectory.to_jsonl(f"{out}/trajectory.jsonl")
        raise
    traj.to_jsonl(f"{out}/trajectory.jsonl")
    write_json(f"{out}/conservation.json", traj.report.__dict__)
    t_final, u_final = traj.final
    save_snapshot(u_final, f"{out}/final_field", time=t_final, name="final state")
    return {"max_rel_l2_drift": traj.report.max_rel_l2_drift}


def _cmd_sweep(cfg, out):
    params = DispersionParams(cfg["g"], 1.0)
    mc = ModelConfig(params, Grid(cfg["grid"]), 0.1, cfg["dt"], cfg["t-end"],
                     sobolev_index=cfg["sobolev-index"], seed=cfg["seed"])
    res = lifespan_sweep(mc, _floats(cfg["eps-list"]), courant=cfg["courant"])
    res.to_csv(f"{out}/sweep.csv")
    return {"p_fit": res.p_fit, "p_stderr": res.p_stderr}


def _cmd_energy_audit(cfg, out):
    params = DispersionParams(cfg["g"], 1.0)
    mc = ModelConfig(params, Grid(cfg["grid"]), cfg["epsilon"], cfg["dt"],
                     cfg["t-end"], seed=cfg["seed"])
    audit = increment_audit(mc, None, _floats(cfg["audit-times"]),
                            N=cfg["N"], D=cfg["D"])
    audit.save(f"{out}/audit.json")
    rep = depletion_checks(params, cfg["N"], cfg["depletion-radius"])
    write_json(f"{out}/depletion.json", rep)
    return {"max_rel_err": audit.max_rel_err, "factor_C": rep.factor_C}


_COMMANDS = {
    "scan3": _cmd_scan3, "scan4": _cmd_scan4, "collinear": _cmd_collinear,
    "lemma1": _cmd_lemma1, "measure": _cmd_measure,
    "paradiff-audit": _cmd_paradiff_audit, "symbols": _cmd_symbols,
    "simulate": _cmd_simulate, "sweep": _cmd_sweep,
    "energy-audit": _cmd_energy_audit,
}


def dispatch(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    if not args.subcommand:
        parser.print_usage()
        return EXIT_CONFIG
    if args.subcommand == "schema":
        json.dump(SCHEMAS, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_OK

    t0 = time.time()
    status = "ok"
    abort_reason = None
    summary = {}
    last_good = None
    cfg = None
    code = EXIT_OK
    out = args.out or f"gcwaves_out/{args.subcommand}"
    try:
        cfg = _resolve(args)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {out!r}: {err}") from err
        write_json(f"{out}/run_config.json", dict(cfg))
        summary = _COMMANDS[args.subcommand](cfg, out)
    except (ConfigError, SingularMultiplierError) as err:
        status, abort_reason, code = "config-error", str(err), EXIT_CONFIG
    except ResourceBudgetError as err:
        status, abort_reason, code = "resource-error", str(err), EXIT_RESOURCE
    except (NumericAbortError, SmallDivisorError, PositivityError) as err:
        status, abort_reason, code = "numeric-abort", str(err), EXIT_NUMERIC
        last = getattr(err, "last_state", None)
        if last is not None:
            last_good = {"t": last.t, "step": last.steps}
    except Exception as err:  # not a named error: a bug, reported as one
        traceback.print_exc()
        status, abort_reason, code = "internal-error", _trace_summary(err), EXIT_INTERNAL
    manifest = {
        "subcommand": args.subcommand,
        "config": cfg if status != "config-error" else None,
        "status": status,
        "abort_reason": abort_reason,
        "last_good": last_good,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "knobs": {
            "c_energy": C_ENERGY,
            "chi_exponent": (cfg or {}).get("chi"),
            "sobolev_index": (cfg or {}).get("sobolev-index", (cfg or {}).get("N")),
            "dealias_rule": "2/3 (alias-free: 3 kmax < M)",
            "small_divisor_guard": SMALL_DIVISOR_GUARD,
            "bisection_tol": BISECTION_TOL,
            "velocity_proxy": "V1 = |grad|^{-1/2} grad Im U",
            **_host_kind(),
        },
        "wall_time_s": time.time() - t0,
    }
    try:
        os.makedirs(out, exist_ok=True)
        write_json(f"{out}/manifest.json", manifest)
    except OSError as err:
        print(f"gcwaves: manifest not written: {err}", file=sys.stderr)
        return code if code != EXIT_OK else EXIT_INTERNAL
    if summary:
        print(json.dumps(finite_json(summary), sort_keys=True))
    return code


@functools.cache
def _host_kind():
    """What an artifact's last bits depend on besides code, config and seed
    (README, "Determinism"): numpy's SIMD targets, the BLAS build and core."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kind = {"simd_targets": {t: bool(__cpu_features__.get(t)) for t in (
                "X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")},
            "blas": {"name": blas.get("name"), "configuration": blas.get("openblas configuration")}}
    if "OPENBLAS_CORETYPE" in os.environ:
        kind["openblas_coretype"] = os.environ["OPENBLAS_CORETYPE"]
    return kind


def _trace_summary(err):
    """One line: the exception and the innermost frame it was raised in."""
    frame = traceback.extract_tb(err.__traceback__)[-1]
    message = " ".join(str(err).split())
    return (f"{type(err).__name__}: {message} "
            f"(at {os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})")


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
