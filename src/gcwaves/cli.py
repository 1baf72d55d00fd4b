"""Experiment driver: every module surfaces as a subcommand.

Usage:  gcwaves <subcommand> [--config FILE] [--flag value | --flag=value ...] --out DIR

One flag table, FLAGS, declares each subcommand's flags as (type, default).
The defaults, the declarative JSON config file, then argv are read through
it, each value converted once by its flag's type; -h prints the table.  Every
run, a usage error included, writes a manifest of the knobs in effect
(manifest.json); a run that starts also writes its resolved configuration
(run_config.json) and the artifacts listed by ``gcwaves schema``.  Identical
(config, seed) pairs reproduce byte-identical artifacts.

Exit codes: 0 ok, 2 invalid config/usage (a singular multiplier on a field with
nonzero mean included), 3 resource budget exceeded, 4 numeric abort, 5 internal
error (an unexpected exception: a bug; the manifest's abort_reason holds a
one-line traceback summary).
"""

from __future__ import annotations

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
    "collinear": {"gaps.csv": ["etax", "etay", "gap", "gap_times_xi6"]},
    "lemma1": {
        "result.json": ["root", "interval", "length", "empty_forced",
                        "f_at_0", "f_at_B"],
    },
    "measure": {"bounds.csv": ["j", "bound", "n_intervals", "ratio_to_previous"]},
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
    "sweep": {"sweep.csv": [*SWEEP_COLUMNS, "# footer: p_fit, p_stderr"]},
    "energy-audit": {
        "audit.json": ["rows(t,E_N,dE_dt_fd,dE_dt_trilinear,rel_err)",
                       "parts(t,hiMod,loMod_hiFreq,loMod_loFreq)", "totals",
                       "N", "D", "c"],
        "depletion.json": ["radius", "mprime_min", "mprime_max", "factor_C"],
    },
}


def integer(value):
    """An int from argv text, or from a JSON number with no fractional part."""
    if not isinstance(value, str) and int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def finite(value):
    """A float that is neither NaN nor infinite."""
    if not math.isfinite(float(value)):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def bit(value):
    """0 or 1."""
    if integer(value) not in (0, 1):
        raise ValueError(f"{value!r} is not 0 or 1")
    return integer(value)


# {subcommand: {flag: (type, default)}}; each subcommand also takes --config FILE and
# --out DIR.  A census's or collinear's --g is a float or a preset "sqrt2", "e", "pi/2".
FLAGS = {
    "scan3": {"g": (str, "sqrt2"), "sigma": (float, 1.0), "kappa": (float, 0.5),
              "max-high": (integer, 64), "max-low": (integer, 4), "n-records": (integer, 100),
              "budget": (finite, 2e9)},
    "scan4": {"g": (str, "sqrt2"), "sigma": (float, 1.0), "max-high": (integer, 128),
              "max-low": (integer, 2), "bprime": (float, 1.0), "n-records": (integer, 100),
              "budget": (finite, 2e9)},
    "collinear": {"g": (str, "sqrt2"), "sigma": (float, 1.0), "xi": (str, "6,0")},
    "lemma1": {"a": (float, 1.0), "b": (float, 1.0), "c": (float, 2.0), "bigB": (float, 10.0),
               "delta": (float, 0.05)},
    "measure": {"bigB": (float, 5.0), "kappa": (float, 1.0), "cutoff": (integer, 32),
                "j-min": (integer, 5), "j-max": (integer, 9), "budget": (finite, 2e9)},
    "paradiff-audit": {"grid": (integer, 16), "chi": (integer, -2), "seed": (integer, 0)},
    "symbols": {"grid": (integer, 32), "g": (float, 1.0), "sigma": (float, 1.0),
                "amplitude": (float, 1.0), "seed": (integer, 0), "chi": (integer, -2),
                "eps-list": (str, "1e-1,1e-2,1e-3,1e-4")},
    "simulate": {"grid": (integer, 64), "g": (float, 1.0), "epsilon": (float, 0.01),
                 "dt": (float, 4e-3), "seed": (integer, 0), "integrator": (str, "rk4"),
                 "t-end": (float, 10.0), "velocity-band": (integer, VELOCITY_BAND),
                 "snapshot-dt": (float, 0.1), "sobolev-index": (float, 5.0),
                 "linear-only": (bit, 0)},
    "sweep": {"grid": (integer, 32), "g": (float, 1.0), "seed": (integer, 2), "dt": (float, 1e-2),
              "eps-list": (str, "0.4,0.2,0.1,0.05"), "t-end": (float, 2000.0),
              "courant": (float, 0.08), "sobolev-index": (float, 5.0)},
    "energy-audit": {"grid": (integer, 32), "g": (float, 1.0), "epsilon": (float, 0.01),
                     "dt": (float, 2e-3), "seed": (integer, 0), "N": (float, 5.0),
                     "D": (float, 3.0), "t-end": (float, 0.1),
                     "audit-times": (str, "0.02,0.05,0.08"), "depletion-radius": (integer, 64)},
}
FLAG_USAGE = "[--config FILE] [--out DIR] [--FLAG VALUE | --FLAG=VALUE ...]"
USAGE = f"usage: gcwaves {{{','.join([*FLAGS, 'schema'])}}} [-h] {FLAG_USAGE}"


def _pairs(tokens):
    """(name, value) per flag of argv, given as `--name value` or `--name=value`.  A
    token that starts with `--` is never a value: a flag followed by one has value
    None.  -h and --help are ("help", None); a stray token is (None, token)."""
    pairs, i = [], 0
    while i < len(tokens):
        tok, i = tokens[i], i + 1
        name, eq, value = tok[2:].partition("=")
        if tok in ("-h", "--help"):
            name, value = "help", None
        elif not tok.startswith("--"):
            name, value = None, tok
        elif not eq and i < len(tokens) and not tokens[i].startswith("--"):
            value, i = tokens[i], i + 1
        elif not eq:
            value = None
        pairs.append((name, value))
    return pairs


def _resolve(sub, pairs):
    """The run's config: the table's defaults, then the --config file, then argv,
    each value converted once by its flag's type."""
    table = FLAGS[sub]
    for name, value in pairs:
        if name is None:
            raise ConfigError(f"unexpected argument {value!r}")
        if name not in table and name not in ("config", "out"):
            raise ConfigError(f"unknown flag --{name}")
        if value is None:
            raise ConfigError(f"flag --{name} needs a value")
    layers = [dict(pairs)]
    path = layers[0].pop("config", None)
    if path:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read config {path!r}: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {path!r} is not a JSON object")
        layers.insert(0, {k.replace("_", "-"): v for k, v in file_cfg.items()})
    cfg = {flag: default for flag, (_, default) in table.items()}
    for layer in layers:
        layer.pop("out", None)
        for key, value in layer.items():
            if key not in table:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _convert(table[key][0], value, f"--{key}")
    return cfg


def _convert(typ, value, what):
    """typ(value), or a ConfigError naming what: every flag value and list item."""
    try:
        return typ(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{what}: {err}") from err


def _parse_g(value):
    """Gravity parameter: a float, or one of the generic presets."""
    return G_PRESETS[value] if value in G_PRESETS else _convert(float, value, "g")


def _list(typ, cfg, flag):
    """The comma-separated items of a list flag, each read by typ: an empty
    item (a doubled, leading or trailing comma) is refused like any other."""
    return [_convert(typ, t, f"--{flag}") for t in str(cfg[flag]).split(",")]


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
                          n_records=cfg["n-records"], budget=cfg["budget"])
    return _write_census(res, out, "scan3")


def _cmd_scan4(cfg, out):
    params = DispersionParams(_parse_g(cfg["g"]), cfg["sigma"])
    res = scan_four_wave(params, ScanWindow(cfg["max-high"], cfg["max-low"]),
                         n_records=cfg["n-records"], bprime=cfg["bprime"], budget=cfg["budget"])
    return _write_census(res, out, "scan4")


def _cmd_collinear(cfg, out):
    params = DispersionParams(_parse_g(cfg["g"]), cfg["sigma"])
    xi = tuple(_list(int, cfg, "xi"))
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
    rows, prev = [], None
    for mb in exceptional_measure_bounds(cfg["bigB"], range(cfg["j-min"], cfg["j-max"] + 1),
                                         WeightParams(cfg["kappa"]), cfg["cutoff"],
                                         budget=cfg["budget"]):
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
    eps_list = _list(float, cfg, "eps-list")
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
    res = lifespan_sweep(mc, _list(float, cfg, "eps-list"), courant=cfg["courant"])
    res.to_csv(f"{out}/sweep.csv")
    return {"p_fit": res.p_fit, "p_stderr": res.p_stderr}


def _cmd_energy_audit(cfg, out):
    params = DispersionParams(cfg["g"], 1.0)
    mc = ModelConfig(params, Grid(cfg["grid"]), cfg["epsilon"], cfg["dt"],
                     cfg["t-end"], seed=cfg["seed"])
    audit = increment_audit(mc, None, _list(float, cfg, "audit-times"),
                            N=cfg["N"], D=cfg["D"])
    audit.save(f"{out}/audit.json")
    rep = depletion_checks(params, cfg["N"], cfg["depletion-radius"])
    write_json(f"{out}/depletion.json", rep)
    return {"max_rel_err": audit.max_rel_err, "factor_C": rep.factor_C}


# the body of each subcommand of the flag table
_COMMANDS = {sub: globals()["_cmd_" + sub.replace("-", "_")] for sub in FLAGS}


def dispatch(argv) -> int:
    sub, pairs = (argv[0] if argv else None), _pairs(argv[1:])
    if sub in ("-h", "--help") or sub == "schema" and ("help", None) in pairs:
        print(f"{USAGE}\n{__doc__}")
        return EXIT_OK
    if sub == "schema" and not pairs:
        print(json.dumps(SCHEMAS, indent=2, sort_keys=True))
        return EXIT_OK
    if sub not in FLAGS:
        print(USAGE, file=sys.stderr)
        return EXIT_CONFIG
    if ("help", None) in pairs:
        print(f"usage: gcwaves {sub} {FLAG_USAGE}")
        for flag, (typ, default) in FLAGS[sub].items():
            print(f"  --{flag:<17} {typ.__name__:<8} default {default!r}")
        return EXIT_OK

    t0, status, code, summary = time.time(), "ok", EXIT_OK, {}
    cfg = abort_reason = last_good = None
    out = dict(p for p in pairs if p[1] is not None).get("out") or f"gcwaves_out/{sub}"
    try:
        cfg = _resolve(sub, pairs)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {out!r}: {err}") from err
        write_json(f"{out}/run_config.json", dict(cfg))
        summary = _COMMANDS[sub](cfg, out)
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
        "subcommand": sub,
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
