"""Committed mutants of the lattice layer, the census, the Weyl calculus (its
chi-plan build and sampled symbol norms), the slope fit, the good variable,
the model kernel, the energy layer, the artifact writers, and the CLI's flag
parse and exit codes: each one must be killed by the tests named for it.

A mutant replaces one exact piece of text in one file under ``src/``.  For
each mutant the script copies ``src/`` to a temporary directory, applies the
replacement there (the working tree is never touched), runs the named tests
against the copy, and requires them to fail.  The unmutated copy must pass
the same tests first.  A surviving mutant means the oracle misses that
fault: strengthen the oracle, never weaken the check.

    python tools/mutants.py            # every mutant; prints the kill table
    python tools/mutants.py tie-order  # the named mutants only

The mutated copy runs its tests with Hypothesis limited to explicit
``@example`` cases first: derandomized draws are hashed from a test's
source, so editing a test re-draws them, and a mutant that only a draw
kills could start surviving unseen.  If those pass, the tests run again
with draws; a mutant killed only then is reported ``draw-only``.

Exits 0 when every mutant run is killed with draws off, 1 otherwise
(a ``draw-only`` mutant included).  Needs pytest and hypothesis; not part
of the unit test suite (a few minutes on two cores).
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

LATTICE = "gcwaves/lattice.py"
DISP = "gcwaves/dispersion.py"
ENERGY = "gcwaves/energy.py"
PARADIFF = "gcwaves/paradiff.py"
GOODVAR = "gcwaves/goodvar.py"
MODEL = "gcwaves/model.py"
FIELDS = "gcwaves/fields.py"
CLI = "gcwaves/cli.py"
SCAN3 = "tests/test_dispersion.py::test_scan3_matches_brute_force_census"
SCAN4 = "tests/test_dispersion.py::test_scan4_matches_brute_force_census"
PROPS = "tests/test_properties.py::"
CUTS = "tests/test_dispersion.py::"
BRUTE = "tests/test_paradiff.py::test_weyl_apply_matches_brute_force_double_sum"
ROWS = ("tests/test_paradiff.py::test_separable_apply_matches_active_row_walk",
        "tests/test_paradiff.py::test_separable_apply_matches_active_row_walk_pinned")
READ = ("tests/test_paradiff.py::test_box_dft_matches_direct_sum",
        "tests/test_paradiff.py::test_every_plan_rho_reads_its_hermitian_partner")
BOXES = "tests/test_paradiff.py::test_box_plan_is_the_full_plan_restricted_to_its_box"
PASSES = "tests/test_paradiff.py::test_apply_is_independent_of_the_pass_length"
ONE_ENTRY = "tests/test_paradiff.py::test_one_entry_passes_round_like_long_ones"
PAIRING = "tests/test_goodvar.py::test_even_symbols_apply_bit_for_bit_as_undeclared"
MIRROR = "tests/test_paradiff.py::test_every_plan_midpoint_is_paired_with_its_mirror"
BUILD = "tests/test_plan_build.py::test_plan_build_matches_concatenating_oracle"
BOUNDS = "tests/test_plan_build.py::test_lower_bound_holds_no_support"
FIT = ("tests/test_fields.py::test_fit_line_matches_polyfit",
       "tests/test_fields.py::test_fit_line_is_exact_on_collinear_points")
NORMS = "tests/test_paradiff.py::test_symbol_norm_"
ZDIFF = ("tests/test_paradiff.py::test_zeta_difference_is_central_at_step_one_quarter",
         NORMS + "zeta_derivatives_at_step_one_quarter")
KERNEL = ("tests/test_model.py::test_fused_kernel_matches_six_transform_oracle",
          "tests/test_model.py::test_kernel_matches_direct_symbol_sum")
EPLAN = ("tests/test_energy_oracle.py::test_plan_holds_exactly_the_near_resonant_pairs",
         "tests/test_energy_oracle.py::test_energy_routes_match_row_loop")
MPMATH = "tests/test_energy_oracle.py::test_energy_total_matches_mpmath"
MEASURE = (PROPS + "test_measure_distinct_rows_equal_per_level_bisection",
           PROPS + "test_measure_representative_sweep_equals_reference",
           PROPS + "test_measure_bisects_each_distinct_row_once",
           "tests/test_dispersion.py::test_measure_bound_matches_pairwise_lemma1_sum")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str       # relative to src/
    old: str        # exact text, present once
    new: str
    tests: tuple    # pytest node ids, relative to the repository root


MUTANTS = (
    # the lattice layer: the index rule and the D4 orbit representatives
    Mutant("index-rule-odd-offset", LATTICE,
           "return (pts[..., 0] + n // 2) * n + (pts[..., 1] + n // 2)",
           "return (pts[..., 0] + (n - 1) // 2) * n + (pts[..., 1] + (n - 1) // 2)",
           (PROPS + "test_index_rule_matches_fft_layout", BRUTE)),
    Mutant("diagonal-not-a-rep", LATTICE,
           "rep = np.flatnonzero((0 <= v2) & (v2 <= v1))",
           "rep = np.flatnonzero((0 <= v2) & ((v2 < v1) | (v1 == 0) & (v2 == 0)))",
           (SCAN3, PROPS + "test_depletion_checks_match_double_loop")),
    Mutant("axis-orbit-size-8", LATTICE,
           "np.where((v2 == 0) | (v2 == v1), 4, 8)",
           "np.where(v2 == v1, 4, 8)",
           (PROPS + "test_depletion_checks_match_double_loop",)),
    Mutant("point-key-drops-shell", DISP,
           "return (shells * w + pts[..., 0] + r) * w + pts[..., 1] + r",
           "return (0 * shells * w + pts[..., 0] + r) * w + pts[..., 1] + r",
           (SCAN3, SCAN4)),
    Mutant("scan3-box-one-short", DISP,
           "xs.max(axis=0) + math.floor(r_lo))",
           "xs.max(axis=0) + math.floor(r_lo) - 1)",
           (SCAN3,)),
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
           MEASURE),
    Mutant("measure-prefilter-loosened", DISP,
           "keep = (f0 < delta) & (fB > -delta)",
           "keep = (f0 < 2.0 * delta) & (fB > -2.0 * delta)",
           MEASURE),
    Mutant("measure-identity-image-only", DISP,
           "(img[:, ie] * len(pts) + img[:, ix])",
           "(img[:1, ie] * len(pts) + img[:1, ix])",
           MEASURE),
    Mutant("measure-pairs-unweighted", DISP,
           "np.count_nonzero(ok, axis=1) @ size[lo:hi]",
           "np.count_nonzero(ok)",
           MEASURE),
    # the Weyl calculus: both application paths and the symbol algebra
    # the general path's read of its rfft2: rho2 < 0 at the Hermitian point
    Mutant("hermitian-read-no-conj", PARADIFF,
           "            np.conjugate(v, out=v, where=flip)\n",
           "",
           (BRUTE, *READ)),
    Mutant("hermitian-read-no-flip", PARADIFF,
           "np.where(flip, -r1, r1) % m",
           "r1 % m",
           (BRUTE, *READ)),
    Mutant("every-term-zeta-free", PARADIFF,
           "gz = [None if term.gz is _one_fn else",
           "gz = [None if True else",
           (BRUTE, *ROWS)),
    Mutant("walk-ends-one-row-early", PARADIFF,
           "end = int(plan.row_start[active[-1] + 1])",
           "end = int(plan.row_start[active[-1]])",
           (BRUTE, *ROWS)),
    Mutant("slice-drops-last-entry", PARADIFF,
           "e = slice(lo, min(lo + BLOCK, end))",
           "e = slice(lo, min(lo + BLOCK, end) - 1)",
           (BRUTE, *ROWS)),
    Mutant("eta-box-one-short", PARADIFF,
           "self.etas = np.arange(-radius, radius + 1, dtype=np.int32)",
           "self.etas = np.arange(-radius, radius, dtype=np.int32)",
           (BRUTE, *ROWS)),
    # the plan build: an integer lower bound, a count pass, a contiguous fill
    Mutant("plan-lower-bound-too-tight", PARADIFF,
           "c = (2.0 ** -chi_exponent / R_OUT) ** 2 * (1.0 - 1e-9)",
           "c = (2.0 ** -chi_exponent / R_OUT) ** 2 * (1.0 + 1e-2)",
           (BUILD, BOUNDS)),
    Mutant("plan-kept-by-lower-bound-alone", PARADIFF,
           "            keep = chi > 0.0\n",
           "            keep = chi >= 0.0\n",
           (BUILD,)),
    Mutant("plan-fill-offset-off-by-one", PARADIFF,
           "e = slice(at, at + len(b))",
           "e = slice(at + 1, at + 1 + len(b))",
           (BUILD,)),
    Mutant("pass-buffers-not-regrown", PARADIFF,
           "if not _PASS or len(_PASS[1]) < BLOCK:",
           "if not _PASS:",
           (PASSES,)),
    # every input on the full plan: the sums do not change, only the work
    Mutant("box-radius-ignored", PARADIFF,
           "return self.box(min(int(radius), self.m // 2 - 1))",
           "return self.box(self.m // 2 - 1)",
           (BOXES,)),
    # the f-hat product as it was written before the walk had fixed passes
    Mutant("product-order-swapped-back", PARADIFF,
           'v = np.multiply(np.take(fc, eta, out=work[2, :len(w)], mode="clip"), w,\n'
           "                        out=work[1, :len(w)])",
           "v = w * np.take(fc, eta)",
           (PASSES,)),
    # the f-hat product as it was written in place, one-entry passes and all
    Mutant("one-entry-product-in-place", PARADIFF,
           'v = np.multiply(np.take(fc, eta, out=work[2, :len(w)], mode="clip"), w,\n'
           "                        out=work[1, :len(w)])",
           'v = np.take(fc, eta, out=work[2, :len(w)], mode="clip")\n'
           "        np.multiply(v, w, out=v)",
           (ONE_ENTRY,)),
    # the general path's +-s pairing of an even symbol's midpoints: a pair's
    # ids are 2i and 2i + 1, each midpoint's mirror is its id ^ 1
    Mutant("pair-ids-not-adjacent", PARADIFF,
           "self.mid_id = 2 * np.minimum(f, n - 1 - f) + (f > n // 2)",
           "self.mid_id = f.copy()",
           (MIRROR, PAIRING)),
    Mutant("pairing-wrong-mirror", PARADIFF,
           "mirror = ids ^ 1",
           "mirror = ids ^ 3",
           (MIRROR, PAIRING)),
    Mutant("pairing-rep-at-lower-id", PARADIFF,
           "rep = np.where(ids[at] == mirror, np.maximum(j, at), j)",
           "rep = np.where(ids[at] == mirror, np.minimum(j, at), j)",
           (MIRROR, PAIRING)),
    # the general path's one walk: a batch of samples serves one contiguous
    # run of perm, each entry weighed at its own sample and accumulated at once
    Mutant("sample-slot-off-by-one", PARADIFF,
           "mid = np.repeat(np.arange(j2 - j), np.diff(bound[j:j2 + 1]))",
           "mid = np.repeat(np.arange(1, j2 - j + 1), np.diff(bound[j:j2 + 1]))",
           (BRUTE, PAIRING)),
    # values checked on entry: they would zero the operator or go unchecked
    Mutant("chi-exponent-nan-accepted", PARADIFF,
           "if not -math.inf < self.chi_exponent <= -1:",
           "if self.chi_exponent > -1:",
           ("tests/test_paradiff.py::test_config_rejects_values_that_zero_the_operator",)),
    Mutant("row-tol-unbounded", PARADIFF,
           "if not 0.0 <= self.row_tol < 1.0:",
           "if self.row_tol < 0.0:",
           ("tests/test_paradiff.py::test_config_rejects_values_that_zero_the_operator",)),
    Mutant("kernel-side-unchecked", PARADIFF,
           'if side not in ("left", "right"):',
           "if False:",
           ("tests/test_paradiff.py::test_error_kernel_checks_its_side_on_entry",)),
    Mutant("conj-flip-no-sign-flip", PARADIFF,
           "g(-np.asarray(z1), -np.asarray(z2)), np.complex128))",
           "g(np.asarray(z1), np.asarray(z2)), np.complex128))",
           ("tests/test_paradiff.py::test_conjugation_identity",)),
    # the sampled symbol norms: one weight <zeta>^{-l}, one zeta difference
    Mutant("sampled-norm-weight-flipped", PARADIFF,
           "weight = math.sqrt(1.0 + w1 * w1 + w2 * w2) ** -l",
           "weight = math.sqrt(1.0 + w1 * w1 + w2 * w2) ** l",
           ("tests/test_paradiff.py::test_sampled_norm_weights_each_sample",
            NORMS + "order_one_multiplier")),
    Mutant("sampled-norm-nan-skipped", PARADIFF,
           "if not math.isfinite(norm):",
           "if math.isinf(norm):",
           ("tests/test_paradiff.py::test_sampled_norm_raises_on_a_nan_sample",
            "tests/test_paradiff.py::test_symbol_norm_raises_on_a_nan_sample")),
    Mutant("zeta-difference-step-doubled", PARADIFF,
           "    h = ZETA_STEP\n",
           "    h = 2 * ZETA_STEP\n",
           ZDIFF),
    Mutant("zeta-difference-sign-flipped", PARADIFF,
           "return (fn(Z1, Z2 + h) - fn(Z1, Z2 - h)) / (2 * h)",
           "return (fn(Z1, Z2 - h) - fn(Z1, Z2 + h)) / (2 * h)",
           (*ZDIFF, "tests/test_paradiff.py::test_poisson_finite_difference_fallback")),
    # the good variable: the expansion remainders, bit for bit
    Mutant("expansion-remainder-regrouped", GOODVAR,
           "rem_gl = (gl ** p) * lead ** (-p) - 1.0 + p * lam2h / lead",
           "rem_gl = (gl ** p) * lead ** (-p) + (p * lam2h / lead - 1.0)",
           ("tests/test_goodvar.py::test_expansion_check_equals_symbol_norm_route",)),
    # the good variable: lambda0 = N/Q + c0
    Mutant("n12-sign-flipped", GOODVAR,
           "    c0 = 0.5 * lap - ",
           "    n12 = -n12\n    c0 = 0.5 * lap - ",
           ("tests/test_goodvar.py::test_lambda0_quadratic_form_matches_chain_rule",
            "tests/test_goodvar.py::test_lambda0_matches_spectral_bracket")),
    # the one least-squares line of every fitted slope
    Mutant("fit-line-uncentered", FIELDS,
           "mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)",
           "mx, my = 0.0, 0.0",
           FIT),
    # the model kernel N = (1/2) dbar(W U) + (1/2) conj(W) d U
    Mutant("kernel-swapped-sums", MODEL,
           "out = self.c1 * ug\n            np.multiply(self.c2, dug, out=dug)",
           "out = self.c2 * ug\n            np.multiply(self.c1, dug, out=dug)",
           KERNEL),
    Mutant("kernel-half-divergence-0.6", MODEL,
           "self.c1 = (1j * k1 + k2) * c2",
           "self.c1 = (1j * k1 + k2) * c2 * 1.2",
           KERNEL),
    Mutant("kernel-drops-conj-W", MODEL,
           "            np.conj(wg, out=wg)\n",
           "",
           KERNEL),
    Mutant("kernel-d-for-dbar", MODEL,
           "self.c1 = (1j * k1 + k2) * c2",
           "self.c1 = (1j * k1 - k2) * c2",
           KERNEL),
    Mutant("l2-drift-abort-off", MODEL,
           "L2_DRIFT_ABORT = 0.1",
           "L2_DRIFT_ABORT = 1e30",
           ("tests/test_cli.py::test_failed_simulate_keeps_its_healthy_prefix",)),
    # the energy audit's near-resonant plan: le0 = bump(Phi) > 0
    Mutant("energy-plan-support-shrunk", ENERGY,
           "near = np.flatnonzero(np.abs(phi) < R_OUT)",
           "near = np.flatnonzero(np.abs(phi) < 0.9 * R_OUT)",
           EPLAN),
    # the powers (1+q)^N back in place of their accurate differences: the
    # sums lose their digits as N -> 0
    Mutant("energy-total-power-back", ENERGY,
           "big = np.where(y < 1.0, np.expm1(y), (1.0 + q) ** N / (1.0 + q0) ** N - 1.0)",
           "big = (1.0 + q) ** N",
           (MPMATH,)),
    Mutant("symbol-power-back", ENERGY,
           "np.where(np.abs(y) < 1.0,",
           "np.where(False,",
           (MPMATH,)),
    # the audit's hiMod is the total minus both small-modulation parts
    Mutant("himod-drops-a-part", ENERGY,
           "return tot - (lh + ll), lh, ll",
           "return tot - lh, lh, ll",
           ("tests/test_energy.py::test_one_pass_parts_match_separate_sums",)),
    # the artifact writers and the guards under them
    Mutant("check-power-accepts-subnormals", FIELDS,
           "if sys.float_info.min <= w < math.inf:",
           "if 0.0 < w < math.inf:",
           ("tests/test_fields.py::test_check_power_accepts_exactly_the_normal_range",)),
    Mutant("finite-json-keeps-nan", FIELDS,
           "return obj if math.isfinite(obj) else None",
           "return obj",
           ("tests/test_cli.py::test_write_json_matches_two_encodes",
            "tests/test_energy.py::test_energy_audit_save_writes_strict_json")),
    # the 2/3 rule's kmax: the largest k with 3k < M, also where 3 divides M
    Mutant("kmax-allows-aliasing", FIELDS,
           "return (self.size - 1) // 3",
           "return self.size // 3",
           ("tests/test_fields.py::test_kmax_dealias_is_the_largest_alias_free_k",)),
    Mutant("dealias-keeps-everything", FIELDS,
           "np.where(mask, f.coeffs, 0.0)",
           "np.where(True, f.coeffs, 0.0)",
           ("tests/test_fields.py::test_dealias_product_is_exact_convolution",)),
    Mutant("csv-value-by-str", FIELDS,
           "else repr(v) for v in row",
           "else str(v) for v in row",
           ("tests/test_fields.py::test_write_csv_writes_str_as_is_and_the_rest_by_repr",)),
    # the flag table: each value, from argv or a config file, read once by its type
    Mutant("flag-text-unconverted", CLI,
           'cfg[key] = _convert(table[key][0], value, f"--{key}")',
           'cfg[key] = value if key in layers[-1] else _convert(table[key][0], value, f"--{key}")',
           ("tests/test_cli.py::test_config_file_merged_and_overridden",
            "tests/test_cli.py::test_every_argv_ends_in_a_manifest")),
    Mutant("config-int-accepts-fraction", CLI,
           "if not isinstance(value, str) and int(value) != value:",
           "if False:",
           ("tests/test_cli.py::test_bad_config_file_is_a_config_error",)),
    Mutant("resource-error-exits-numeric", CLI,
           '"resource-error", str(err), EXIT_RESOURCE',
           '"resource-error", str(err), EXIT_NUMERIC',
           ("tests/test_cli.py::test_resource_budget_exit_code",)),
)


def run_tests(src, tests, explicit=False):
    """pytest's exit code for the tests against the gcwaves package in src;
    with explicit, Hypothesis runs only their @example cases (the profile of
    tests/conftest.py)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(["--hypothesis-profile=explicit"] if explicit else []), *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def check(mutant, tmp):
    """'killed', 'draw-only', 'SURVIVED', or an error text, for one mutant:
    its tests run with Hypothesis draws off first, and again with draws only
    if that passes."""
    src = pathlib.Path(tmp) / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if run_tests(src, mutant.tests) != 0:
        return "ERROR: the unmutated copy fails its tests"
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"ERROR: the old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    code = run_tests(src, mutant.tests, explicit=True)
    if code == 0:
        code = run_tests(src, mutant.tests)
        return {0: "SURVIVED", 1: "draw-only"}.get(code, f"ERROR: pytest exit code {code}")
    return {1: "killed"}.get(code, f"ERROR: pytest exit code {code}")


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
