"""The reproducibility contract across host kinds (README "Determinism"):
a tiny ``symbols`` and ``paradiff-audit`` run in a child process whose numpy
dispatches below AVX-512 or AVX2 writes every number of its artifacts within
HOST_RTOL (relative) of the same run in this process, and keeps the
rounding-noise metrics (``*_err`` in report.json) under their gate; one
whose OpenBLAS takes its Sandybridge kernels writes them byte for byte, as
no calculus op calls BLAS.  A case runs wherever the host can run it, and
is skipped only where it cannot."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import gcwaves
from gcwaves.cli import dispatch

HOST_RTOL = 1e-10   # README "Determinism"
ERR_GATE = 1e-12    # the acceptance gate of the rounding-noise metrics

RUNS = {"s": ["symbols", "--grid", "12", "--eps-list", "1e-1,1e-3"],
        "p": ["paradiff-audit", "--grid", "16"]}
ARTIFACTS = ("s/slopes.json", "s/sigma1_trace.csv", "p/report.json")

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _openblas_dynamic():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in (blas.get("name") or "")
            and "DYNAMIC_ARCH" in (blas.get("openblas configuration") or ""))


def _skip_reason(case):
    """Why this host cannot run the case, or None."""
    cpu = __cpu_features__
    if "X86_V2" not in cpu:
        return "not an x86 host"
    if case == "no-avx512" and not any(cpu.get(t) for t in AVX512):
        return "numpy dispatches to no AVX-512 target here"
    if case == "no-avx2" and not cpu.get("X86_V3"):
        return "numpy dispatches to no AVX2 (X86_V3) target here"
    if case == "sandybridge" and not (_openblas_dynamic() and cpu.get("AVX")):
        return "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on an AVX host"
    return None


CASES = {
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)},
    "no-avx2": {"NPY_DISABLE_CPU_FEATURES": " ".join(("X86_V3",) + AVX512)},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}


def _numbers(out):
    """{(artifact, path...): value} over every number of the artifacts, and
    the same over every other leaf."""
    nums, rest = {}, {}

    def walk(x, path):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, path + (k,))
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, path + (i,))
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            nums[path] = float(x)
        else:
            rest[path] = x

    for name in ARTIFACTS:
        path = out / name
        if name.endswith(".json"):
            walk(json.loads(path.read_text()), (name,))
        else:
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            rest[(name, "header")] = header
            walk([[float(v) for v in row] for row in rows], (name,))
    return nums, rest


@pytest.fixture(scope="module")
def here(tmp_path_factory):
    out = tmp_path_factory.mktemp("here")
    for sub, argv in RUNS.items():
        assert dispatch(argv + ["--out", str(out / sub)]) == 0
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_artifacts_agree_across_host_kinds(case, here, tmp_path):
    reason = _skip_reason(case)
    if reason:
        pytest.skip(reason)
    code = ("import sys\nfrom gcwaves.cli import dispatch\n"
            f"for sub, argv in {RUNS!r}.items():\n"
            "    assert dispatch(argv + ['--out', sys.argv[1] + '/' + sub]) == 0\n")
    src = str(pathlib.Path(gcwaves.__file__).parents[1])
    env = dict(os.environ, **CASES[case],
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                   capture_output=True)
    knobs = json.loads((tmp_path / "s" / "manifest.json").read_text())["knobs"]
    if case == "sandybridge":     # the child ran as the case names it
        assert knobs["openblas_coretype"] == "Sandybridge"
    else:
        assert not any(knobs["simd_targets"][t] for t in CASES[case][
            "NPY_DISABLE_CPU_FEATURES"].split())
    if case == "sandybridge":
        for name in ARTIFACTS:
            assert (tmp_path / name).read_bytes() == (here / name).read_bytes(), name
    want, want_rest = _numbers(here)
    got, got_rest = _numbers(tmp_path)
    assert got_rest == want_rest and got.keys() == want.keys()
    for path, a in want.items():
        b = got[path]
        if str(path[-1]).endswith("_err"):
            assert abs(a) <= ERR_GATE and abs(b) <= ERR_GATE, (path, a, b)
        else:
            assert abs(a - b) <= HOST_RTOL * max(abs(a), abs(b)), (path, a, b)
