import hashlib
import json
import pathlib

import pytest

from gcwaves import cli
from gcwaves.cli import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_NUMERIC, EXIT_OK,
                         EXIT_RESOURCE, SCHEMAS, dispatch)
from gcwaves.errors import CadenceError, SingularMultiplierError


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


def test_collinear_artifacts(tmp_path):
    out = str(tmp_path / "col")
    assert dispatch(["collinear", "--xi", "6,0", "--out", out]) == EXIT_OK
    lines = (tmp_path / "col" / "gaps.csv").read_text().splitlines()
    assert lines[0] == "etax,etay,gap,gap_times_xi6"
    assert len(lines) == 6  # header + five interior points


def test_simulate_artifacts(tmp_path):
    out = str(tmp_path / "sim")
    code = dispatch(["simulate", "--grid", "16", "--epsilon", "0.01",
                     "--dt", "0.01", "--t-end", "0.2", "--snapshot-dt", "0.1",
                     "--out", out])
    assert code == EXIT_OK
    rows = [json.loads(l) for l in
            (tmp_path / "sim" / "trajectory.jsonl").read_text().splitlines()]
    assert rows and set(rows[0]) == {"t", "l2", "hN", "doubled"}
    cons = json.loads((tmp_path / "sim" / "conservation.json").read_text())
    assert cons["max_rel_l2_drift"] < 1e-8
    assert (tmp_path / "sim" / "final_field.csv").exists()
    assert (tmp_path / "sim" / "final_field.json").exists()


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


@pytest.mark.parametrize("error", [SingularMultiplierError, CadenceError],
                         ids=["singular-multiplier", "cadence"])
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
], ids=["g-text", "budget-inf", "n-records-negative", "bprime-nan", "bigB-nan",
        "eps-list-text", "eps-list-empty", "eps-zero", "dt-nan", "snapshot-dt-nan"])
def test_value_errors_become_config_errors_at_entry(tmp_path, argv):
    out = tmp_path / "bad"
    assert dispatch(argv + ["--out", str(out)]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["abort_reason"]


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
