import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gcwaves import cli
from gcwaves.cli import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_NUMERIC, EXIT_OK,
                         EXIT_RESOURCE, SCHEMAS, dispatch)
from gcwaves.errors import SingularMultiplierError
from gcwaves.fields import load_snapshot, write_json


def _sha(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def test_usage_and_bad_subcommand():
    assert dispatch([]) == EXIT_CONFIG
    assert dispatch(["no-such-command"]) == EXIT_CONFIG


def test_schema_dump(capsys):
    assert dispatch(["schema"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    for cmd in ("scan3", "scan4", "collinear", "lemma1", "measure",
                "paradiff-audit", "symbols", "simulate", "sweep", "energy-audit"):
        assert cmd in data
    assert data == SCHEMAS


def test_lemma1_artifacts(tmp_path):
    out = str(tmp_path / "l1")
    code = dispatch(["lemma1", "--a", "1", "--b", "1", "--c", "2",
                     "--bigB", "10", "--delta", "0.05", "--out", out])
    assert code == EXIT_OK
    res = json.loads((tmp_path / "l1" / "result.json").read_text())
    assert res["root"] == pytest.approx(2.0, abs=1e-9)
    manifest = json.loads((tmp_path / "l1" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["knobs"]["c_energy"] == pytest.approx(-0.5 * (2 * 3.141592653589793) ** -4)


def test_manifest_records_the_host_kind(tmp_path):
    # artifacts are bitwise identical only on one kind of host: the manifest
    # names the SIMD targets and the BLAS build the run used
    out = tmp_path / "m"
    assert dispatch(["lemma1", "--out", str(out)]) == EXIT_OK
    knobs = json.loads((out / "manifest.json").read_text())["knobs"]
    assert set(knobs["simd_targets"]) == {"X86_V2", "X86_V3", "X86_V4", "AVX512_ICL",
                                          "AVX512_SPR"}
    assert all(isinstance(v, bool) for v in knobs["simd_targets"].values())
    assert set(knobs["blas"]) == {"name", "configuration"}
    assert knobs["blas"]["name"] == np.show_config(mode="dicts")["Build Dependencies"][
        "blas"]["name"]
    assert knobs.get("openblas_coretype") == os.environ.get("OPENBLAS_CORETYPE")


# tiny flags for every subcommand that writes a CSV
CSV_RUNS = {
    "scan3": ["--max-high", "8", "--max-low", "1"],
    "scan4": ["--max-high", "8", "--max-low", "1"],
    "collinear": ["--xi", "4,0"],
    "measure": ["--cutoff", "8", "--j-min", "5", "--j-max", "6"],
    "symbols": ["--grid", "8", "--eps-list", "1e-1,1e-3"],
    "simulate": ["--grid", "16", "--dt", "0.01", "--t-end", "0.02", "--snapshot-dt", "0.01"],
    "sweep": ["--grid", "16", "--dt", "0.05", "--t-end", "2", "--eps-list", "0.4,0.2,0.05"],
}


@pytest.mark.parametrize("sub", CSV_RUNS)
def test_csv_headers_are_their_schemas(tmp_path, sub):
    # each CSV starts with the column list `gcwaves schema` documents, and
    # every line has as many fields (sweep's last row is its fit)
    assert dispatch([sub, *CSV_RUNS[sub], "--out", str(tmp_path)]) == EXIT_OK
    schemas = {name.replace(".json/.csv", ".csv"): columns
               for name, columns in SCHEMAS[sub].items() if name.endswith(".csv")}
    assert sorted(schemas) == sorted(p.name for p in tmp_path.glob("*.csv"))
    for name, columns in schemas.items():
        columns = [c for c in columns if not c.startswith("# footer")]
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) > 1
        assert all(len(line.split(",")) == len(columns) for line in lines)


def test_scan3_deterministic_and_reexecutable(tmp_path):
    args = ["scan3", "--max-high", "8", "--max-low", "1"]
    assert dispatch(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert dispatch(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("records.csv", "summary.json"):
        assert _sha(tmp_path / "a" / name) == _sha(tmp_path / "b" / name)
    # a run re-executed from its emitted config reproduces identical artifacts
    assert dispatch(["scan3", "--config", str(tmp_path / "a" / "run_config.json"),
                     "--out", str(tmp_path / "c")]) == EXIT_OK
    assert _sha(tmp_path / "a" / "records.csv") == _sha(tmp_path / "c" / "records.csv")


def test_config_file_merged_and_overridden(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-high": 6, "max-low": 1, "kappa": 0.7}))
    out = str(tmp_path / "run")
    assert dispatch(["scan3", "--config", str(cfg), "--kappa", "0.9",
                     "--out", out]) == EXIT_OK
    rc = json.loads((tmp_path / "run" / "run_config.json").read_text())
    assert rc["max-high"] == 6      # from file
    assert rc["kappa"] == 0.9       # flag overrides file


def test_invalid_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus-knob": 1}))
    assert dispatch(["scan3", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_resource_budget_exit_code(tmp_path):
    out = str(tmp_path / "big")
    code = dispatch(["scan3", "--max-high", "64", "--max-low", "4",
                     "--budget", "100", "--out", out])
    assert code == EXIT_RESOURCE
    manifest = json.loads((tmp_path / "big" / "manifest.json").read_text())
    assert manifest["status"] == "resource-error"
    assert manifest["abort_reason"]


def test_numeric_abort_exit_code(tmp_path):
    out = str(tmp_path / "blow")
    code = dispatch(["simulate", "--grid", "16", "--epsilon", "50",
                     "--dt", "0.5", "--t-end", "20", "--out", out])
    assert code == EXIT_NUMERIC
    manifest = json.loads((tmp_path / "blow" / "manifest.json").read_text())
    assert manifest["status"] == "numeric-abort"


def test_failed_simulate_keeps_its_healthy_prefix(tmp_path):
    out = tmp_path / "blow"
    code = dispatch(["simulate", "--grid", "16", "--epsilon", "20", "--dt", "0.05",
                     "--t-end", "5", "--out", str(out)])
    assert code == EXIT_NUMERIC
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numeric-abort"
    # the first step leaves the L2 norm 2e6 times its initial value: the
    # drift guard stops the run there, and t = 0 is the last healthy state
    last = manifest["last_good"]
    assert last == {"t": 0.0, "step": 0}
    rows = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
    assert rows[0]["t"] == 0.0
    assert all(math.isfinite(r["l2"]) and math.isfinite(r["hN"]) for r in rows)
    assert rows[-1]["t"] <= last["t"] + 1e-12
    assert not (out / "conservation.json").exists()


def test_collinear_artifacts(tmp_path):
    out = str(tmp_path / "col")
    assert dispatch(["collinear", "--xi", "6,0", "--out", out]) == EXIT_OK
    lines = (tmp_path / "col" / "gaps.csv").read_text().splitlines()
    assert lines[0] == "etax,etay,gap,gap_times_xi6"
    assert len(lines) == 6  # header + five interior points


def _no_constant(token):
    raise ValueError(f"{token} is not valid JSON (RFC 8259)")


def test_simulate_artifacts(tmp_path):
    out = str(tmp_path / "sim")
    code = dispatch(["simulate", "--grid", "16", "--epsilon", "0.01",
                     "--dt", "0.01", "--t-end", "0.2", "--snapshot-dt", "0.1",
                     "--out", out])
    assert code == EXIT_OK
    rows = [json.loads(l, parse_constant=_no_constant) for l in
            (tmp_path / "sim" / "trajectory.jsonl").read_text().splitlines()]
    assert rows and set(rows[0]) == {"t", "l2", "hN", "doubled"}
    cons = json.loads((tmp_path / "sim" / "conservation.json").read_text())
    assert cons["max_rel_l2_drift"] < 1e-8
    assert (tmp_path / "sim" / "final_field.csv").exists()
    assert (tmp_path / "sim" / "final_field.json").exists()


def test_simulate_keeps_only_its_final_state(tmp_path, monkeypatch):
    # simulate writes only the final state, so it keeps no snapshots and its
    # memory does not grow with t_end / snapshot_dt; the field it writes is
    # the last snapshot of the same run with every snapshot kept
    kept, run = [], cli.run

    def spy(mc, *args, **kwargs):
        kept.append((kwargs["keep_snapshots"], run(mc, keep_snapshots=True)))
        return run(mc, *args, **kwargs)

    monkeypatch.setattr(cli, "run", spy)
    out = tmp_path / "sim"
    assert dispatch(["simulate", "--grid", "16", "--epsilon", "0.01", "--dt", "0.01",
                     "--t-end", "0.05", "--snapshot-dt", "0.01", "--out", str(out)]) == EXIT_OK
    [(keep, full)] = kept
    assert keep is False and len(full.snapshots) == 6
    field, header = load_snapshot(str(out / "final_field"))
    assert header["time"] == full.snapshots[-1][0]
    assert np.array_equal(field.coeffs, full.snapshots[-1][1].coeffs)


def test_measure_artifacts(tmp_path):
    out = str(tmp_path / "meas")
    code = dispatch(["measure", "--cutoff", "8", "--j-min", "5", "--j-max", "6",
                     "--out", out])
    assert code == EXIT_OK
    lines = (tmp_path / "meas" / "bounds.csv").read_text().splitlines()
    assert lines[0] == "j,bound,n_intervals,ratio_to_previous"
    assert len(lines) == 3


def test_paradiff_audit_artifacts(tmp_path):
    out = str(tmp_path / "pa")
    assert dispatch(["paradiff-audit", "--grid", "16", "--out", out]) == EXIT_OK
    rep = json.loads((tmp_path / "pa" / "report.json").read_text())
    assert rep["self_adjoint_err"] < 1e-12
    assert rep["conjugation_err"] < 1e-12
    assert rep["t_const_err"] == 0.0
    assert rep["chi_exponent"] == -2


def test_manifest_roundtrips_through_parser(tmp_path):
    out = str(tmp_path / "m")
    assert dispatch(["lemma1", "--out", out]) == EXIT_OK
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["subcommand"] == "lemma1"
    assert "wall_time_s" in manifest
    # config echo feeds back into the parser
    assert dispatch(["lemma1", "--config", str(tmp_path / "m" / "run_config.json"),
                     "--out", str(tmp_path / "m2")]) == EXIT_OK


def test_dispatch_carries_no_state_between_runs(tmp_path):
    # one process: lemma1, collinear, lemma1 with other flags; each
    # run_config.json must equal the one a fresh process writes
    runs = [["lemma1", "--c", "1.5"], ["collinear", "--xi", "4,1"],
            ["lemma1", "--bigB", "7.0"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    for k, argv in enumerate(runs):
        assert dispatch(argv + ["--out", str(tmp_path / f"in{k}")]) == EXIT_OK
        alone = tmp_path / f"alone{k}"
        subprocess.run([sys.executable, "-m", "gcwaves.cli", *argv, "--out", str(alone)],
                       check=True, env=env, capture_output=True)
        assert ((tmp_path / f"in{k}" / "run_config.json").read_bytes()
                == (alone / "run_config.json").read_bytes())


@pytest.mark.parametrize("argv", [
    ["collinear", "--xi", "5"],
    ["lemma1", "--bigB", "nan"],
    ["measure", "--cutoff", "8", "--j-min", "9", "--j-max", "5"],
], ids=["collinear-one-int", "lemma1-nan", "measure-empty-range"])
def test_bad_input_rejected_at_entry(tmp_path, argv):
    out = tmp_path / "bad"
    assert dispatch(argv + ["--out", str(out)]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["abort_reason"]


@pytest.mark.parametrize("error", [SingularMultiplierError],
                         ids=["singular-multiplier"])
def test_named_caller_errors_map_to_config_exit(tmp_path, monkeypatch, error):
    def raise_it(cfg, out):
        raise error("from the caller's input")

    monkeypatch.setitem(cli._COMMANDS, "lemma1", raise_it)
    out = tmp_path / "named"
    assert dispatch(["lemma1", "--out", str(out)]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["abort_reason"] == "from the caller's input"


@pytest.mark.parametrize("argv", [
    ["scan3", "--g", "abc"],
    ["scan3", "--max-high", "8", "--max-low", "1", "--budget", "inf"],
    ["scan3", "--max-high", "8", "--max-low", "1", "--n-records", "-1"],
    ["scan4", "--max-high", "8", "--max-low", "1", "--bprime", "nan"],
    ["measure", "--cutoff", "4", "--bigB", "nan"],
    ["sweep", "--grid", "8", "--eps-list", "0.1,x"],
    ["symbols", "--grid", "8", "--eps-list", ","],
    ["symbols", "--grid", "8", "--eps-list", "0,1e-3"],
    ["simulate", "--grid", "8", "--dt", "nan"],
    ["simulate", "--grid", "8", "--t-end", "0.05", "--snapshot-dt", "nan"],
    ["simulate", "--grid", "8", "--t-end", "0.05", "--sobolev-index", "nan"],
    ["simulate", "--grid", "8", "--t-end", "-1"],
    ["sweep", "--grid", "8", "--courant", "nan"],
    ["energy-audit", "--grid", "8", "--N", "nan"],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", "0.01",
     "--depletion-radius", "-3"],
    ["symbols", "--grid", "8", "--amplitude", "nan"],
    ["scan3", "--max-high", "8", "--max-low", "1", "--sigma", "inf"],
    ["scan4", "--max-high", "8", "--max-low", "1", "--sigma", "inf"],
    ["energy-audit", "--grid", "8", "--g", "inf"],
    ["energy-audit", "--grid", "8", "--D", "nan"],
    ["simulate", "--grid", "8", "--t-end", "0.05", "--linear-only", "7"],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", "0.01",
     "--N", "400", "--depletion-radius", "8"],
    ["energy-audit", "--grid", "64", "--N", "95", "--depletion-radius", "8",
     "--t-end", "0.02", "--audit-times", "0.01", "--dt", "0.002"],
    ["simulate", "--grid", "32", "--t-end", "0.01", "--dt", "0.005",
     "--snapshot-dt", "0.005", "--sobolev-index", "120"],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", "0.01",
     "--N", "-400", "--depletion-radius", "8"],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", "nan"],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", "inf"],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", ""],
    ["energy-audit", "--grid", "8", "--t-end", "0.02", "--audit-times", ","],
    ["simulate", "--grid", "8", "--t-end", "0.05", "--snapshot-dt", "0"],
    ["simulate", "--grid", "8", "--t-end", "0.05", "--snapshot-dt", "-1"],
    ["scan3", "--max-high", "abc"],
    ["scan3", "--bogus", "1"],
    ["scan3", "--max-h", "8", "--max-low", "1"],
    ["symbols", "--grid", "8", "--eps-list", "-1e-2,1e-1"],
    ["simulate", "--grid"],
    ["scan3", "8"],
    ["collinear", "--xi", "4,,0"],
    ["collinear", "--xi", "4,0,"],
    ["symbols", "--grid", "8", "--eps-list", "1e-1,,1e-3"],
], ids=["g-text", "budget-inf", "n-records-negative", "bprime-nan", "bigB-nan",
        "eps-list-text", "eps-list-empty", "eps-zero", "dt-nan", "snapshot-dt-nan",
        "sobolev-index-nan", "t-end-negative", "courant-nan", "N-nan",
        "depletion-radius-negative", "amplitude-nan", "scan3-sigma-inf",
        "scan4-sigma-inf", "energy-g-inf", "D-nan", "linear-only-7",
        "N-overflows-depletion-table", "N-overflows-grid-weight",
        "sobolev-index-overflows", "N-underflows-grid-weight", "audit-times-nan",
        "audit-times-inf", "audit-times-empty", "audit-times-commas", "snapshot-dt-zero",
        "snapshot-dt-negative", "int-text", "unknown-flag", "flag-prefix",
        "eps-list-negative", "flag-without-value", "stray-token", "xi-doubled-comma",
        "xi-trailing-comma", "eps-list-doubled-comma"])
def test_value_errors_become_config_errors_at_entry(tmp_path, argv):
    out = tmp_path / "bad"
    assert dispatch(argv + ["--out", str(out)]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["abort_reason"]


def test_flags_take_the_equals_form(tmp_path):
    out = tmp_path / "run"
    assert dispatch(["symbols", "--grid=8", "--eps-list=1e-1,1e-3", f"--out={out}"]) == EXIT_OK
    rc = json.loads((out / "run_config.json").read_text())
    assert (rc["grid"], rc["eps-list"]) == (8, "1e-1,1e-3")


def test_help_prints_the_flag_table(tmp_path, monkeypatch, capsys):
    # -h lists each flag with its type and default, exits 0 and writes nothing
    monkeypatch.chdir(tmp_path)
    for sub, table in cli.FLAGS.items():
        assert dispatch([sub, "--seed", "1", "-h"]) == EXIT_OK
        text = capsys.readouterr().out
        for flag, (typ, default) in table.items():
            assert re.search(rf"^  --{re.escape(flag)} +{typ.__name__} +default "
                             rf"{re.escape(repr(default))}$", text, re.M), (sub, flag)
        assert len(text.splitlines()) == len(table) + 1
    assert dispatch(["--help"]) == EXIT_OK
    assert cli.USAGE in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ["{not json", "[1, 2]", '{"max-high": "many"}',
                                     '{"max-high": 6.5}', '{"budget": null}'],
                         ids=["bad-json", "not-an-object", "bad-int", "fractional-int",
                              "null"])
def test_bad_config_file_is_a_config_error(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    out = tmp_path / "run"
    assert dispatch(["scan3", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert json.loads((out / "manifest.json").read_text())["status"] == "config-error"
    assert dispatch(["scan3", "--config", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == EXIT_CONFIG


def test_config_file_values_take_the_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-high": 6.0, "max-low": 1, "kappa": 1, "g": 1.5}))
    out = tmp_path / "run"
    assert dispatch(["scan3", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rc = json.loads((out / "run_config.json").read_text())
    assert (rc["max-high"], rc["max-low"], rc["kappa"], rc["g"]) == (6, 1, 1.0, "1.5")
    assert isinstance(rc["kappa"], float)


@pytest.mark.parametrize("error", [ValueError("bad value"), KeyError("k"),
                                   ZeroDivisionError("division by zero")],
                         ids=["ValueError", "KeyError", "ZeroDivisionError"])
def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys, error):
    def buggy_body(cfg, out):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "lemma1", buggy_body)
    out = tmp_path / "bug"
    assert dispatch(["lemma1", "--out", str(out)]) == EXIT_INTERNAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "internal-error"
    assert manifest["config"]["a"] == 1.0
    reason = manifest["abort_reason"]
    assert "\n" not in reason
    assert reason.startswith(type(error).__name__ + ": ")
    assert "in buggy_body" in reason
    assert "Traceback" in capsys.readouterr().err


def test_unwritable_output_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert dispatch(["lemma1", "--out", str(blocker / "sub")]) == EXIT_CONFIG
    assert "manifest not written" in capsys.readouterr().err


class _ToJson:
    def to_json(self):
        return {"value": np.float32("nan"), "pair": (1, np.int64(2))}


class _Plain:
    def __init__(self):
        self.total = np.float64(2.5)
        self.rows = [(0.1, math.inf)]
        self._hidden = "not written"


def _write_json_by_two_encodes(path, obj):
    """The artifact writer as it was, numpy bools taken as the other numpy
    scalars are: encode with a default hook, decode, null the non-finite
    floats, encode again."""
    def default(o):
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        if hasattr(o, "to_json"):
            return o.to_json()
        if hasattr(o, "__dict__"):
            return {k: v for k, v in o.__dict__.items() if not k.startswith("_")}
        raise TypeError(f"not serializable: {type(o)}")

    def nulled(o):
        if isinstance(o, float):
            return o if math.isfinite(o) else None
        if isinstance(o, dict):
            return {k: nulled(v) for k, v in o.items()}
        if isinstance(o, list):
            return [nulled(v) for v in o]
        return o

    with open(path, "w") as fh:
        json.dump(nulled(json.loads(json.dumps(obj, default=default))), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.parametrize("obj", [
    {"a": np.float64(0.1), "b": np.int64(-3), "c": np.float32(1.5), "d": np.float64("nan"),
     "e": -0.0, "f": math.inf, "g": -math.inf, "h": None, "i": True, "j": "text",
     "k": np.bool_(True), "l": np.bool_(False)},
    {"t": (1, (2.5, float("nan"))), "l": [np.int32(7), (), []], "n": {"x": (np.float32(-0.0),)}},
    {10: "ten", 9: "nine", 1.5: "float", True: "bool", None: "none", "k": {2: [3], 11: [4]}},
    {"obj": _ToJson(), "plain": _Plain(), "list": [_Plain(), _ToJson()]},
    [1, 2.0, 1e300 * 10, (np.float64(3e-320), 12345678901234567890)],
], ids=["numpy-scalars", "tuples", "int-keys", "to-json-and-dict", "top-level-list"])
def test_write_json_matches_two_encodes(tmp_path, obj):
    # one walk writes the bytes the encode-decode-null-encode pipeline wrote
    write_json(tmp_path / "one.json", obj)
    _write_json_by_two_encodes(tmp_path / "two.json", obj)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_write_json_rejects_what_json_rejects(tmp_path):
    for obj in ({np.int64(1): 2}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            write_json(tmp_path / "bad.json", obj)
        with pytest.raises(TypeError):
            _write_json_by_two_encodes(tmp_path / "bad.json", obj)


# ---------------------------------------------------------------------------
# the parse, fuzzed: every argv that names a subcommand ends in a manifest
# ---------------------------------------------------------------------------

# argv text each table type reads, with the value it reads as
_READS = {
    cli.integer: st.integers(-10**6, 10**6).map(lambda n: (str(n), n)),
    float: st.floats().map(lambda x: (repr(x), x)),
    cli.finite: st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (repr(x), x)),
    cli.bit: st.sampled_from([("0", 0), ("1", 1)]),
    str: st.text("-=.,e019abx", max_size=8).filter(lambda t: not t.startswith("--"))
           .map(lambda t: (t, t)),
}
# argv text each table type refuses
_REFUSES = {cli.integer: ["abc", "1.5", "", "1e3", "-"], float: ["abc", "", "1,2", "-x"],
            cli.finite: ["nan", "inf", "-inf", "abc", ""], cli.bit: ["2", "-1", "0.5", ""],
            str: []}


def _rarely(items):
    """A list with no item three times in four, else with one."""
    return st.sampled_from([0, 0, 0, 1]).flatmap(
        lambda n: st.lists(items, min_size=n, max_size=n))


def _argv_items(sub):
    """Lists of items (argv tokens, (flag, value read) or None where the tokens are a
    usage error) for one subcommand, at most one of them an error."""
    table = cli.FLAGS[sub]

    def given_as(flag, text, value, equals):
        return ((f"--{flag}={text}",) if equals else (f"--{flag}", text)), value

    good = st.sampled_from(sorted(table)).flatmap(lambda f: st.builds(
        lambda read, eq: given_as(f, read[0], (f, read[1]), eq), _READS[table[f][0]],
        st.booleans()))
    refused = st.builds(lambda fv, eq: given_as(*fv, None, eq), st.sampled_from(
        [(f, t) for f, (typ, _) in table.items() for t in _REFUSES[typ]]), st.booleans())
    unknown = st.one_of(st.text("abghmx-", min_size=1, max_size=5),
                        st.sampled_from(sorted(table)).map(lambda f: f[:-1])).filter(
        lambda n: n not in {*table, "config", "out", "help"}).map(
        lambda n: ((f"--{n}", "1"), None))
    stray = st.sampled_from(["8", "-1", "x", "", "-"]).map(lambda t: ((t,), None))
    return st.tuples(st.lists(good, max_size=4),
                     _rarely(st.one_of(refused, unknown, stray))).flatmap(
        lambda lists: st.permutations(lists[0] + lists[1]))


_CASES = st.sampled_from(sorted(cli.FLAGS)).flatmap(lambda sub: st.tuples(
    st.just(sub), _argv_items(sub), _rarely(st.sampled_from(sorted(cli.FLAGS[sub])))))


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_CASES)
@example(case=("simulate", [(("--grid", "abc"), None)], []))
@example(case=("scan3", [(("--bogus", "1"), None)], []))
@example(case=("symbols", [(("--eps-list", "-1e-2,1e-1"), ("eps-list", "-1e-2,1e-1"))], []))
@example(case=("scan3", [(("--max-h", "8"), None), (("--max-low", "1"), ("max-low", 1))], []))
@example(case=("scan4", [(("--max-low=2",), ("max-low", 2)), (("--bprime", "-1"), ("bprime", -1.0)),
                         (("--g", "e"), ("g", "e"))], []))
@example(case=("simulate", [(("--seed", "3"), ("seed", 3))], ["grid"]))
def test_every_argv_ends_in_a_manifest(tmp_path, monkeypatch, case):
    # case: the subcommand, argv items, and flags given last with no value.  A
    # stub stands in for each body, so only the parse runs.  An argv with no
    # usage error exits 0 and hands the body every flag read by its type; any
    # usage error exits 2; either way a manifest is written to --out
    sub, items, dangling = case
    received = []
    monkeypatch.setattr(cli, "_COMMANDS", {s: lambda cfg, out: received.append(cfg) or {}
                                           for s in cli.FLAGS})
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    argv = [sub, *(t for tokens, _ in items for t in tokens), "--out", str(out),
            *(f"--{flag}" for flag in dangling)]
    code = dispatch(argv)
    status = json.loads((out / "manifest.json").read_text())["status"]
    if dangling or any(read is None for _, read in items):
        assert (code, status, received) == (EXIT_CONFIG, "config-error", [])
        return
    assert (code, status) == (EXIT_OK, "ok")
    expected = {flag: default for flag, (_, default) in cli.FLAGS[sub].items()}
    expected.update(read for _, read in items)
    assert [(k, type(v), repr(v)) for k, v in received[0].items()] == [
        (k, type(v), repr(v)) for k, v in expected.items()]
