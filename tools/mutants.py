"""Run a fixed list of hand-written mutants against the tests meant to kill them.

    python3 tools/mutants.py [--out mutants.json] [NAME ...]

Each mutant replaces one piece of text in one file of ``src/`` or ``tests/``;
the old text must occur exactly once.  For every mutant the script copies
``src/``, ``tests/`` and ``pyproject.toml`` of its own checkout into a
temporary directory, applies the mutant there, and runs
``python -m pytest -x -q`` on the mutant's tests with that copy's ``src`` on
the path.  A run that fails kills the mutant; a run that passes lets it
survive.  Before the mutants, the same tests run once on an unmutated copy,
so that a kill cannot come from a test that already fails.

Each mutant is marked ``killed`` (the tests must catch it) or ``equivalent``
(it computes the same results, so no test can).  The script prints one JSON
object, or writes it to ``--out``, and exits 1 if a mutant marked killed
survives, or if any run ends in a pytest error other than failed tests.
Positional names run only those mutants.  It takes minutes, so it is not a
CI step: run it after rewriting a kernel, and add that kernel's mutants here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

ORACLE = "tests/test_sympy_oracle.py"

# name, file, old text, new text, reason, expected outcome, tests to run.
MUTANTS = (
    (
        "prime_factors_break_on_equal_square",
        "src/vvmf3/arith.py",
        "if p * p > m:",
        "if p * p >= m:",
        "stops trial division at p * p == m and records m = p^2 as a prime",
        "killed",
        ("tests/test_arith.py", ORACLE),
    ),
    (
        "prime_factors_without_rho",
        "src/vvmf3/arith.py",
        "if m < _TABLE_BOUND * _TABLE_BOUND:",
        "if True:",
        "records the cofactor the whole table leaves as one prime, unsplit",
        "killed",
        ("tests/test_arith.py", ORACLE),
    ),
    (
        "prime_factors_exponent_reset",
        "src/vvmf3/arith.py",
        "e += 1",
        "e = 1",
        "records every table prime with exponent 1",
        "killed",
        ("tests/test_arith.py", ORACLE),
    ),
    (
        "prime_factors_table_bound_100",
        "src/vvmf3/arith.py",
        "_TABLE_BOUND = 10_000",
        "_TABLE_BOUND = 100",
        "a shorter table leaves more to Miller-Rabin and rho, whose "
        "factorization is the same",
        "equivalent",
        ("tests/test_arith.py", ORACLE),
    ),
    (
        "law_hypothesis_at_equality",
        "src/vvmf3/valuation.py",
        "if not nu_level > 2 * vz:",
        "if not nu_level >= 2 * vz:",
        "accepts nu_p(N) = 2 nu_p(z_0), outside the proof, and reports the "
        "law's column there as formula-verified",
        "killed",
        ("tests/test_valuation.py::test_predicted_valuation_inapplicability",),
    ),
    (
        "progression_start_off_by_one",
        "src/vvmf3/valuation.py",
        "(-beta * pow(alpha, -1, q) - 1) % q",
        "(-beta * pow(alpha, -1, q)) % q",
        "starts each progression at index k in place of k - 1, one step late",
        "killed",
        ("tests/test_valuation.py::test_progression_valuations_match_direct_valuations",),
    ),
    (
        "law_without_k_factor",
        "src/vvmf3/valuation.py",
        "return (0, 1, 0), _form_key(",
        "return _form_key(",
        "drops the form k of c_k from the law's key, and so its factor k from "
        "the column",
        "killed",
        ("tests/test_valuation.py::test_law_matches_reference_law",),
    ),
    (
        "law_key_without_beta",
        "src/vvmf3/valuation.py",
        "return va, alpha // q, beta // q",
        "return va, alpha // q, 0",
        "drops beta' from a form's key, so the pairs that share p, delta, n, "
        "nu_p(alpha) and alpha' share one column whatever their progressions",
        "killed",
        ("tests/test_valuation.py::test_law_matches_reference_law",),
    ),
    (
        "law_without_constant_valuation",
        "src/vvmf3/valuation.py",
        "inc = [delta - sum(key[0] for key in forms)] * n",
        "inc = [delta] * n",
        "starts the column's increments at delta, without the forms' constant "
        "valuations v of their keys, nu_p(alpha) or the smaller nu_p(beta)",
        "killed",
        ("tests/test_valuation.py::test_law_matches_reference_law",),
    ),
    (
        "closed_form_without_constant_valuation",
        "src/vvmf3/valuation.py",
        "sum(key[0] * n + sum(map(len, _hits(key, p, n)))",
        "sum(sum(map(len, _hits(key, p, n)))",
        "drops v * n, the forms' constant valuations, from the count of "
        "predicted_valuation, so it leaves the column _law_rows walks",
        "killed",
        ("tests/test_valuation.py::test_predicted_valuation_counts_the_law_rows",),
    ),
    (
        "rows_second_difference_halved",
        "src/vvmf3/mde.py",
        "[2 * s2 * d * d * v for v in h2[1 : T + 1]]",
        "[s2 * d * d * v for v in h2[1 : T + 1]]",
        "drops the factor 2 of the second difference in j of P_m(j), so every "
        "row from the third on is wrong",
        "killed",
        ("tests/test_mde.py::test_component_series_matches_naive_oracle",),
    ),
    (
        "diagonal_root_c_as_b",
        "src/vvmf3/mde.py",
        "(w - t.C * u)",
        "(w - t.B * u)",
        "puts the root B/N twice in the closed indicial cubic, so c_n and the "
        "residual's diagonal are wrong alike and the residual stays zero",
        "killed",
        ("tests/test_mde.py::test_component_series_matches_naive_oracle",
         "tests/test_mde.py::test_ode_residual_matches_convolution_reference_on_components"),
    ),
    (
        "prime_cases_case_5_at_5",
        "src/vvmf3/reps.py",
        "(5, None, 1, lambda n, om, pi: n % 25 == 0)",
        "(5, None, 1, lambda n, om, pi: n % 5 == 0)",
        "covers 5 | product at levels 5 || N as case 5, whose predicted "
        "nu_5(z_n) = 1 is not below nu_5(24N) there",
        "killed",
        ("tests/test_valuation.py::test_classifier_uncovered_pins",
         "tests/test_valuation.py::test_classifier_matches_periodic_oracle"),
    ),
    (
        "build_mde_h0_one_factor_m",
        "src/vvmf3/mde.py",
        "72 * m * m * p3 * e2[m]",
        "72 * m * p3 * e2[m]",
        "drops one factor m from the E2 term of h0; every h0[m] stays an "
        "integer, and h0[1] is unchanged",
        "killed",
        ("tests/test_sympy_oracle.py::test_restated_h_and_six_z_match_build_mde",),
    ),
    (
        "blocks_over_final_lcm",
        "src/vvmf3/qseries.py",
        "lcms = list(accumulate((c.denominator for c in cs), math.lcm))",
        "lcms = [math.lcm(*(c.denominator for c in cs))] * len(cs)",
        "puts every block of a given series over the lcm of the whole series; "
        "the sums and every output stay the same, only the widths grow",
        "killed",
        ("tests/test_mde.py::test_component_series_keeps_closed_blocks_over_prefix_lcms",),
    ),
    (
        "horner_without_ratio",
        "src/vvmf3/qseries.py",
        "acc = acc * ratio + sum(map(mul, ints, row))",
        "acc = acc + sum(map(mul, ints, row))",
        "adds each block's dot product without carrying acc to the next lcm",
        "killed",
        ("tests/test_mde.py::test_component_series_matches_naive_oracle",
         "tests/test_qseries.py::test_product_matches_cauchy_oracle"),
    ),
    (
        "blocks_close_at_64",
        "src/vvmf3/qseries.py",
        "return size * size > 16 * n",
        "return size * size > 64 * n",
        "longer blocks, closed by the same rule in component_series and in the "
        "block pass; the sums are the same",
        "equivalent",
        ("tests/test_mde.py::test_component_series_keeps_closed_blocks_over_prefix_lcms",
         "tests/test_mde.py::test_component_series_matches_unreduced_recursion_at_random_orders",
         "tests/test_mde.py::test_ode_residual_matches_convolution_reference",
         "tests/test_qseries.py::test_product_matches_cauchy_oracle",
         "tests/test_qseries.py::test_modular_derivative_matches_series_reference"),
    ),
    (
        "derivative_first_ratio_without_factor",
        "src/vvmf3/qseries.py",
        "blocks[0] = (blocks[0][0] * 12 * kd * e, blocks[0][1])",
        "blocks[0] = (blocks[0][0], blocks[0][1])",
        "leaves the factor 12 kd e out of the first ratio of a derivative's "
        "integer form, so its coefficients lie over the D of the argument",
        "killed",
        ("tests/test_qseries.py::test_modular_derivative_matches_series_reference",),
    ),
    (
        "blocks_rebuilt_every_row_sum",
        "src/vvmf3/qseries.py",
        "if f._blocks is None:",
        "if True:",
        "builds the blocks of a series again at every row sum, from its reduced "
        "coefficients; the sums are the same",
        "killed",
        ("tests/test_mde.py::test_certification_builds_each_series_blocks_once",),
    ),
    (
        "denominator_profile_ratio_minus_e",
        "src/vvmf3/valuation.py",
        "pairs.append((n, (pairs[-1][1] if pairs else 0) - e))",
        "pairs.append((n, -e))",
        "records -nu_p(r_n) as the new minimum in place of the running value "
        "lowered by it",
        "killed",
        ("tests/test_valuation.py::test_denominator_profile_matches_hypergeometric_minima",),
    ),
    (
        "prime_stats_counts_index_zero",
        "src/vvmf3/valuation.py",
        "later_new_mins += n > 0",
        "later_new_mins += 1",
        "counts a new minimum at n = 0 toward strictly_decreasing, which then "
        "never holds for a series with a(0) = 1",
        "killed",
        ("tests/test_valuation.py::test_denominator_profile_unbounded_pattern",
         "tests/test_valuation.py::test_denominator_profile_matches_dense_reference"),
    ),
    (
        "late_new_minimum_last_fifth",
        "src/vvmf3/valuation.py",
        "s.last_new_min_index >= T - max(1, T // 10)",
        "s.last_new_min_index >= T - max(1, T // 5)",
        "widens the decreasing-pattern rule from the last tenth of the window "
        "to the last fifth",
        "killed",
        ("tests/test_valuation.py::test_denominator_profile_boundary_of_late_minimum",),
    ),
    (
        "delta_for_lead_recomputes_case_lead",
        "src/vvmf3/valuation.py",
        "if lead == case.lead:",
        "if False:",
        "evaluates z_0 and its valuation again for the lead classify_prime chose "
        "by that valuation; the results are the same",
        "killed",
        ("tests/test_valuation.py::test_delta_for_lead_reads_the_case_lead",),
    ),
    (
        "scan_template_without_escape",
        "src/vvmf3/cli.py",
        'return text.replace("%", "%%")',
        "return text",
        "bakes a classification's text into scan's %-templates unescaped, so a "
        "% in it is read as a conversion",
        "killed",
        ("tests/test_cli.py::test_scan_escapes_percent_in_classification_text",),
    ),
    (
        "scan_k0_minus_one_level",
        "src/vvmf3/reps.py",
        "k0 = (4 * s - 2 * N) // N",
        "k0 = (4 * s - N) // N",
        "puts k0 + 1 on every sigma-line of the enumerator, so every scan row "
        "renders it",
        "killed",
        ("tests/test_cli.py::test_scan_output_matches_reference",),
    ),
    (
        "admissible_b_equal_c",
        "src/vvmf3/reps.py",
        "(d - 1) // 2",
        "d // 2",
        "ends each run at b = (sigma - a) // 2, which admits b = c at even "
        "sigma - a",
        "killed",
        ("tests/test_reps.py::test_admissible_matches_brute_force_with_k0",),
    ),
    (
        "admissible_gcd_without_sigma",
        "src/vvmf3/reps.py",
        "math.gcd(a, s, N)",
        "math.gcd(a, N)",
        "tests b against gcd(a, N) in place of gcd(a, sigma, N), so it drops "
        "triples whose gcd(a, b, sigma, N) is 1",
        "killed",
        ("tests/test_reps.py::test_admissible_matches_brute_force_with_k0",),
    ),
    (
        "admissible_sigma_one_line_short",
        "src/vvmf3/reps.py",
        "range(step, 3 * N - 5, step)",
        "range(step, 3 * N - 5 - step, step)",
        "stops sigma one step early, so the top line's triples are missing",
        "killed",
        ("tests/test_reps.py::test_admissible_matches_brute_force_with_k0",),
    ),
    (
        "classified_one_class_at_level_7",
        "src/vvmf3/reps.py",
        "if N != 7 and not m:",
        "if not m:",
        "takes the one-class shortcut at level 7 too, so the primitive "
        "classes read as plain",
        "killed",
        ("tests/test_reps.py::test_classify_triple_matches_restated_rules",),
    ),
    (
        "scan_json_levels_without_comma",
        "src/vvmf3/cli.py",
        'sep = ",\\n"',
        'sep = "\\n"',
        "joins the rows of consecutive levels in scan's JSON without a comma",
        "killed",
        ("tests/test_cli.py::test_scan_output_matches_reference",),
    ),
    (
        "scan_table_width_from_min_only",
        "src/vvmf3/cli.py",
        "(n, *map(max, zip(*rows)))",
        "(n, *map(min, zip(*rows)))",
        "sizes scan's A, B and C columns by each level's smallest value",
        "killed",
        ("tests/test_cli.py::test_scan_output_matches_reference",),
    ),
    (
        "scan_csv_holds_levels",
        "src/vvmf3/cli.py",
        "        for n, classes, idx, rows in levels():\n            templates = [f",
        "        for n, classes, idx, rows in list(levels()):\n            templates = [f",
        "enumerates every level before csv writes its first row, so a reader "
        "that leaves early no longer stops the scan",
        "killed",
        ("tests/test_cli.py::test_scan_csv_streams",),
    ),
    (
        "encoder_default_str",
        "src/vvmf3/cli.py",
        "default=rational_str",
        "default=str",
        "renders JSON rationals by str, which raises past CPython's 4,300-digit "
        "limit on int to str conversion",
        "killed",
        ("tests/test_cli.py::test_encoder_renders_rationals_in_its_hook",),
    ),
)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(dest: Path, tests: tuple[str, ...]) -> tuple[int, float]:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, round(perf_counter() - start, 2)


def _outcome(returncode: int) -> str:
    # pytest exits 0 when every test passes and 1 when some test fails.
    return {0: "survived", 1: "killed"}.get(returncode, f"error (pytest exit {returncode})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = parser.parse_args()
    known = {m[0] for m in MUTANTS}
    unknown = sorted(set(args.names) - known)
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]

    for name, path, old, *_ in chosen:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{name}: {old!r} occurs {count} times in {path}, not once")

    results = []
    with tempfile.TemporaryDirectory(prefix="vvmf3-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = tuple(dict.fromkeys(t for m in chosen for t in m[6]))
        code, seconds = _pytest(base, tests)
        baseline = {"tests": list(tests), "pytest_exit": code, "seconds": seconds}
        print(f"unmutated: pytest exit {code} in {seconds} s", file=sys.stderr)
        if code != 0:
            raise SystemExit(f"the unmutated tests do not pass: {baseline}")
        for i, (name, path, old, new, reason, expected, tests) in enumerate(chosen):
            work = Path(tmp) / f"m{i}"
            _copy(work)
            target = work / path
            target.write_text(target.read_text().replace(old, new))
            code, seconds = _pytest(work, tests)
            outcome = _outcome(code)
            print(f"{name}: {outcome} in {seconds} s (expected {expected})", file=sys.stderr)
            results.append({
                "name": name, "file": path, "old": old, "new": new, "reason": reason,
                "expected": expected, "tests": list(tests), "outcome": outcome,
                "seconds": seconds,
            })
            shutil.rmtree(work)

    failed = [r["name"] for r in results
              if r["outcome"].startswith("error")
              or (r["expected"] == "killed" and r["outcome"] != "killed")]
    report = {"python": sys.version.split()[0], "baseline": baseline,
              "mutants": results, "failed": failed}
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
