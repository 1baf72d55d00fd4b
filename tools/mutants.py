"""Committed mutants of the census code: each one must be killed by the
tests named for it.

A mutant replaces one exact piece of text in one file under ``src/``.  For
each mutant the script copies ``src/`` to a temporary directory, applies the
replacement there (the working tree is never touched), runs the named tests
against the copy, and requires them to fail.  The unmutated copy must pass
the same tests first.  A surviving mutant means the oracle misses that
fault: strengthen the oracle, never weaken the check.

    python tools/mutants.py            # every mutant; prints the kill table
    python tools/mutants.py tie-order  # the named mutants only

Exits 0 when every mutant run is killed, 1 otherwise.  Needs pytest and
hypothesis; not part of the unit test suite (about a minute on two cores).
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]

DISP = "gcwaves/dispersion.py"
ENERGY = "gcwaves/energy.py"
SCAN3 = "tests/test_dispersion.py::test_scan3_matches_brute_force_census"
SCAN4 = "tests/test_dispersion.py::test_scan4_matches_brute_force_census"
PROPS = "tests/test_properties.py::"
CUTS = "tests/test_dispersion.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str       # relative to src/
    old: str        # exact text, present once
    new: str
    tests: tuple    # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("diagonal-not-a-rep", DISP,
           "rep = np.flatnonzero((0 <= v2) & (v2 <= v1))",
           "rep = np.flatnonzero((0 <= v2) & ((v2 < v1) | (v1 == 0) & (v2 == 0)))",
           (SCAN3, PROPS + "test_depletion_checks_match_double_loop")),
    Mutant("axis-orbit-size-8", ENERGY,
           "    pts = pts[rep]\n",
           "    pts = pts[rep]\n    size = np.where((pts[:, 1] == 0) & (pts[:, 0] > 0), 8, size)\n",
           (PROPS + "test_depletion_checks_match_double_loop",)),
    Mutant("eta-zero-kept", DISP,
           "gap[xi_is_rho[k]] = aphase[xi_is_rho[k]] = np.inf",
           "pass",
           (SCAN3,)),
    Mutant("tie-order", DISP,
           "keep = np.lexsort((cols[1], cols[0]))",
           "keep = np.lexsort((-cols[1], cols[0]))",
           (SCAN3, SCAN4)),
    Mutant("cut-before-dedup", DISP,
           "sel = np.flatnonzero(gap <= self.tau)\n        if not sel.size:",
           "sel = self.shortlist(gap)\n        if not sel.size:",
           (CUTS + "test_scan3_record_counts_at_every_cut",
            CUTS + "test_scan4_record_counts_at_every_cut")),
    Mutant("scan4-no-sign-swap", DISP,
           "np.where(swapped[:, a, b, None], _SWAP_SIGNS[rows], rows)",
           "np.where(swapped[:, a, b, None], rows, rows)",
           (SCAN4, PROPS + "test_scan4_reduced_sweep_matches_oracle")),
    Mutant("measure-gather-shifted", DISP,
           "lengths = length[row][",
           "lengths = length[np.roll(row, 1)][",
           (PROPS + "test_measure_distinct_rows_equal_per_level_bisection",
            "tests/test_dispersion.py::test_measure_bound_matches_pairwise_lemma1_sum")),
)


def run_tests(src, tests):
    """pytest's exit code for the tests against the gcwaves package in src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def check(mutant, tmp):
    """'killed', 'SURVIVED', or an error text, for one mutant."""
    src = pathlib.Path(tmp) / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if run_tests(src, mutant.tests) != 0:
        return "ERROR: the unmutated copy fails its tests"
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"ERROR: the old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    code = run_tests(src, mutant.tests)
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exit code {code}")


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = []
    with tempfile.TemporaryDirectory(prefix="gcwaves-mutants-") as tmp:
        for m in chosen:
            rows.append((m.name, m.file, check(m, tmp), ", ".join(
                t.split("::")[-1] for t in m.tests)))
    widths = [max(len(r[i]) for r in rows + [("mutant", "file", "result", "")])
              for i in range(3)]
    print(f"{'mutant':{widths[0]}}  {'file':{widths[1]}}  {'result':{widths[2]}}  tests")
    for name, file, result, tests in rows:
        print(f"{name:{widths[0]}}  {file:{widths[1]}}  {result:{widths[2]}}  {tests}")
    return 0 if all(r[2] == "killed" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
