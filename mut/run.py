#!/usr/bin/env python3
"""Mutation check: every listed mutant of ``src/`` must turn a named test red.

For each mutant the script copies ``src/`` to a temporary directory,
replaces one piece of text in one module (the old text must occur there
exactly once), and runs the pytest node ids named for that mutant
against the copy, one mutant after another.  A mutant is killed when
pytest reports a failing test (exit 1); any other exit, such as a node id
that collects nothing, is an error.  First the union of all named tests
runs against an unmutated copy and must pass, so that a red run means the
mutant and not the setup.

    python3 mut/run.py

Exit 0 when every mutant is killed, 1 otherwise.  Standard library
only; pytest runs as ``python -m pytest`` with the interpreter running
this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LIFTER = "tests/test_sequences.py::TestClarkeZero"
PROOF = "tests/test_levels.py::TestProveConstant"
CLASSIFY = "tests/test_levels.py::TestClassify"
CARRIED = f"{PROOF}::test_carried_powers_match_pow_at_every_node"
A_S = f"{PROOF}::test_verdicts_equal_the_a_s_certificate"
SCAN = "tests/test_stirling.py::TestVal2Range"
MAIN = "tests/test_levels.py::TestMainConjecture"
POWERS = "tests/test_sequences.py::TestCohenAtPowers"
ORACLE = "tests/test_stirling.py::TestTriangle"
ROWS = "tests/test_stirling.py::TestVal2Rows"
STEPPED = f"{ROWS}::test_stepped_rows_equal_power_rows"
TRIANGLE = "tests/test_stirling.py::TestTriangleRows::test_slots_equal_exact_residues_to_300"
INJECTED = "tests/test_stirling.py::test_identity_battery_reports_injected_inequality_failures"
K5 = "tests/test_levels.py::TestK5StructureReadsTheTree"
CLARKE = "tests/test_sequences.py::TestClarkeValCheck::test_lift_passes_n_max"
STREAM = "tests/test_cli.py::TestStreaming::test_rows_reach_stdout_as_they_are_computed"
WALKED = "tests/test_approx.py::TestExceptionSets::test_residue_tests_match_the_walked_sets"
START_UP = ("tests/test_cli.py::TestUsageAndEnvironment::"
            "test_start_up_imports_neither_dataclasses_nor_inspect")
MEMBERS = "tests/test_levels.py::TestMemberValues"
LAZY = "tests/test_cli.py::TestUsageAndEnvironment::test_a_call_imports_only_the_modules_it_runs"
WRITER = "tests/test_reports.py"
GOLDEN = "tests/test_golden.py::test_golden_output"
PLAIN = "tests/test_cli.py::TestPlainArgs"

# (name, module under src/stirval, old text, new text, pytest node ids)
MUTANTS = [
    ("t2_zeros keeps only the first extension", "sequences.py",
     "for x in (r, r + step)", "for x in (r,)", [LIFTER]),
    ("t2_zeros steps by 2^(P-2)", "sequences.py",
     "step = 1 << (P - 3)", "step = 1 << (P - 2)", [LIFTER]),
    ("clarke_val_check stops the lift at the bit length of n_max", "sequences.py",
     "<= n_max:\n        M += 1", "<= n_max:\n        break", [f"{CLARKE}[156]"]),
    ("clarke_val_check lifts only while a residue is below n_max", "sequences.py",
     "min(zeros := t2_zeros(5, M)) <= n_max", "min(zeros := t2_zeros(5, M)) < n_max",
     [f"{CLARKE}[156]"]),
    ("clarke scan takes a zero T_2 residue as INFINITE", "sequences.py",
     "nu_int(2, t or t_sum(2, n, k))", "nu_int(2, t)",
     ["tests/test_sequences.py::TestTSum::test_zero_residue_falls_back_to_the_exact_sum"]),
    ("cohen_at_powers yields a zero residue instead of doubling", "sequences.py",
     "if not top:\n            return None", "if False:\n            return None",
     [f"{POWERS}::test_tiny_precision_gives_no_prefixes"]),
    ("cohen_at_powers scales by 2^(kM), dropping the -ke", "sequences.py",
     "k * (M - e)", "k * M", [f"{POWERS}::test_matches_exact_partial_sums"]),
    ("cohen_at_powers leaves the term j = 2^m out of the prefix", "sequences.py",
     "(d << ((1 << m) + k * (M - m)))", "(d << ((1 << m) + k * (M - m))) * (m == 0)",
     [f"{POWERS}::test_matches_exact_partial_sums"]),
    ("power_lemma_report reads the powers mod 2^(m+3)", "padic.py",
     "1 << (m + 5)", "1 << (m + 3)", ["tests/test_padic.py::TestPowerLemmas"]),
    ("classify_class records a witness valuation one too high", "levels.py",
     "witness_b=member", "witness_b=(member[0], member[1] + 1)",
     ["tests/test_acceptance.py::test_09_main_conjecture_nine_orders"]),
    ("classify_class takes witness_b one member early", "levels.py",
     "witness_b=member", "witness_b=(member[0] - c.modulus, member[1])",
     [f"{CLASSIFY}::test_witnesses_are_the_first_member_and_the_first_that_differs"]),
    ("classify_class calls a class the count breaks CONSTANT", "levels.py",
     "return ClassStatus(NON_CONSTANT, witness_a=first, witness_b=member)",
     "return ClassStatus(CONSTANT, value=value)",
     [f"{CLASSIFY}::test_non_constant_with_certificate"]),
    ("the count compares each member with the one before it", "levels.py",
     "        if member[1] != value:\n"
     "            return ClassStatus(NON_CONSTANT, witness_a=first, witness_b=member)\n",
     "        if member[1] != first[1]:\n"
     "            return ClassStatus(NON_CONSTANT, witness_a=first, witness_b=member)\n"
     "        first = member\n",
     [f"{CLASSIFY}::test_witnesses_are_the_first_member_and_the_first_that_differs"]),
    ("the count returns an engine disagreement instead of raising it", "levels.py",
     'raise ArithmeticError(\n                f"nu_2(S(',
     'return ClassStatus(NON_CONSTANT, witness_a=first, witness_b=(n, value))\n'
     '            raise ArithmeticError(\n                f"nu_2(S(',
     [f"{PROOF}::test_small_members_are_checked_exactly"]),
    ("prove_constant counts one member short", "levels.py",
     "islice(values, len(small) + a // (c.m + 2))",
     "islice(values, max(len(small) + a // (c.m + 2) - 1, 0))", [A_S]),
    ("prove_constant counts floor(a/(m+3)) + 1 members", "levels.py",
     "len(small) + a // (c.m + 2)", "len(small) + a // (c.m + 3)", [A_S]),
    ("prove_constant trusts the member n = a", "levels.py",
     "range(n, a + 1, c.modulus)", "range(n, a, c.modulus)", [PROOF]),
    ("prove_constant skips the members n <= a", "levels.py",
     "    for n in small:\n", "    for n in ():\n",
     [f"{PROOF}::test_small_members_are_checked_exactly"]),
    ("every class entry renders 64 samples", "levels.py",
     '"status": s.kind, "samples": samples}', '"status": s.kind, "samples": 64}',
     [f"{GOLDEN}[verify main-conjecture --k {k} --levels {m} --samples {n}]"
      for k, m, n in ((45, 9, 2), (11, 5, 16), (21, 9, 32))]),
    ("the column reads each member at index n + 1", "levels.py",
     "if n >= len(values):\n"
     "                values.extend(islice(self._scan, n + 1 - len(values)))\n"
     "            yield n, values[n]",
     "if n + 1 >= len(values):\n"
     "                values.extend(islice(self._scan, n + 2 - len(values)))\n"
     "            yield n, values[n + 1]",
     ["tests/test_levels.py::TestColumn::test_values_equal_val2_stirling"]),
    ("split_powers steps the children by the parent's b^(2^m)", "levels.py",
     "square = beta * beta & mask", "square = beta", [CARRIED]),
    ("split_powers keeps the parent's u in the child j + 2^m", "levels.py",
     "high.append((u * beta & mask, square))", "high.append((u, square))", [CARRIED]),
    ("member_values drops the nu_2(r) < n guard", "levels.py",
     "if r and (a := (r & -r).bit_length() - 1) < n:",
     "if r and ((a := (r & -r).bit_length() - 1) or True):",
     [f"{MEMBERS}::test_even_base_part_sends_members_to_val2_stirling"]),
    ("member_values starts one member late below k", "levels.py",
     "exp_sums(terms, skip, P)", "exp_sums(terms, skip + (skip > 0), P)",
     [f"{MEMBERS}::test_matches_val2_stirling_on_random_classes"]),
    ("member_values reads a zero residue as a value", "levels.py",
     "if r and (a :=", "if (a :=", [f"{MEMBERS}::test_exact_at_any_precision"]),
    ("exp_sums yields its sum unreduced", "stirling.py",
     "yield sum(values) & mask", "yield sum(values)",
     [f"{MEMBERS}::test_exp_sums_on_odd_powers_equal_the_exact_odd_base_sum"]),
    ("level size compared with >= for ==", "levels.py",
     "ok = len(rec.survivors) == expected", "ok = len(rec.survivors) >= expected",
     [f"{MAIN}::test_k16_counterexample"]),
    ("--levels below m0 accepted", "levels.py",
     "if m_max < m0:", "if False:",
     [f"{MAIN}::test_levels_below_m0_rejected",
      "tests/test_cli.py::TestUsageAndEnvironment::test_bad_domain_maps_to_usage"]),
    ("k5_structure_report takes any CONSTANT child as the one at m - 2", "levels.py",
     "s.kind == CONSTANT and s.value == m - 2", "s.kind == CONSTANT",
     [f"{K5}::test_constant_child_value_comes_from_the_proof"]),
    ("k5_structure_report reads the surviving chain after a counterexample", "levels.py",
     "    if not report.counterexamples:\n", "    if True:\n",
     [f"{K5}::test_constant_child_value_comes_from_the_proof"]),
    ("stirling_exact multiplies by c - 1", "stirling.py",
     "left[i] + c * column[i - 1]", "left[i] + (c - 1) * column[i - 1]",
     [f"{ORACLE}::test_examples", f"{ORACLE}::test_fresh_table_in_shuffled_order"]),
    ("stirling_exact reads the left column one index early", "stirling.py",
     "left[i] + c", "left[i - 1] + c",
     [f"{ORACLE}::test_examples", f"{ORACLE}::test_fresh_table_in_shuffled_order"]),
    ("closed forms stop one short of n_max", "stirling.py",
     "ns = range(k, n_max + 1)", "ns = range(k, n_max)",
     ["tests/test_stirling.py::test_identity_battery_checks_closed_forms_to_n_max"]),
    ("triangle_rows shifts plane b by b + 1", "stirling.py",
     "(row & plane) << b for", "(row & plane) << (b + 1) for", [TRIANGLE]),
    ("triangle slots one bit below the carry bound", "stirling.py",
     "return M + n_max.bit_length()", "return M + n_max.bit_length() - 1", [TRIANGLE]),
    ("identity_battery masks one bit below s_2(k) - s_2(n)", "stirling.py",
     "ones >> c & field", "ones >> (c + 1) & field", [INJECTED]),
    ("identity_battery leaves its inequality failures unsorted", "stirling.py",
     "for k, n, gap in sorted(failures)", "for k, n, gap in failures", [INJECTED]),
    ("val2_range without its val2 fallback", "stirling.py",
     "(nu_int(2, v) if v else self.val2(i))", "nu_int(2, v)", [SCAN]),
    ("val2_range hands out a block holding a zero residue whole", "stirling.py",
     "if 0 in part:", "if False:", [SCAN]),
    ("val2_range reads a whole block's valuations at once", "stirling.py",
     "zip(indices, map(nu_int, repeat(2), part))",
     "zip(indices, list(map(nu_int, repeat(2), part)))", [SCAN]),
    ("column_q slots one byte short", "stirling.py",
     "Wb = 8  # slot width in bytes", "Wb = 7  # slot width in bytes", [SCAN]),
    ("column_q leaves one even j in Q_o", "stirling.py",
     "_linear_product(range(1, k + 1, 2), K + 1,",
     "_linear_product([*range(1, k + 1, 2), 2], K + 1,",
     [f"{SCAN}::test_packed_q_equals_the_list_product"]),
    ("column_e cuts E to 31 terms", "stirling.py",
     "Wb, terms = 9, 32", "Wb, terms = 9, 31",
     [f"{SCAN}::test_e_is_the_column_of_k_over_two_times_powers_of_two"]),
    ("recurrence_mod shifts its window by one slot less", "stirling.py",
     "terms >> (W * (L - K))", "terms >> (W * (L - K - 1))", [SCAN]),
    ("recurrence_mod Newton slots one byte short", "stirling.py",
     "Wb = (64 + L.bit_length() + 8) // 8", "Wb = (64 + L.bit_length()) // 8", [SCAN]),
    ("recurrence_mod block slots one byte short", "stirling.py",
     "Bb = (64 + max(K, 32).bit_length() + 7) // 8",
     "Bb = (64 + max(K, 32).bit_length() - 1) // 8",
     [SCAN]),
    ("recurrence_mod block slots sized for K/2 products", "stirling.py",
     "Bb = (64 + max(K, 32).bit_length() + 7) // 8",
     "Bb = (64 + max(K // 2, 32).bit_length() + 7) // 8",
     [f"{SCAN}::test_recurrence_mod_holds_the_largest_slot_sums"]),
    ("recurrence_mod reads its block from one slot early", "stirling.py",
     "K * Wb)", "(K - 1) * Wb)", [SCAN]),
    ("recurrence_mod adds Newton's ones to one slot fewer", "stirling.py",
     "(ones & reduce)", "(ones & (reduce >> W))", [SCAN]),
    ("val2_range takes the first window one index early", "stirling.py",
     "first, blocks = k, recurrence_mod", "first, blocks = k - 1, recurrence_mod",
     [f"{SCAN}::test_halved_blocks_equal_the_order_k_recurrence_and_the_oracle"]),
    ("val2_rows decides a zero residue as INFINITE", "stirling.py",
     "if r else val2_stirling(n, k)", "if r else INFINITE",
     [f"{ROWS}::test_zero_residue_goes_to_val2_stirling"]),
    ("val2_rows steps row n by k - 1", "stirling.py",
     "k * (a + b) % mod", "(k - 1) * (a + b) % mod", [STEPPED]),
    ("val2_rows steps without the S(n-1, k-1) term", "stirling.py",
     "k * (a + b) % mod", "k * b % mod", [STEPPED]),
    ("val2_rows steps from any earlier row", "stirling.py",
     "last == n - 1 >= 1", "1 <= last < n", [STEPPED]),
    ("val2_rows steps row 1 from row 0", "stirling.py",
     "last == n - 1 >= 1", "last == n - 1 >= 0",
     [f"{ROWS}::test_one_power_row_per_run_of_consecutive_indices"]),
    ("val2_rows reads the coefficients of k - 1", "stirling.py",
     "for c, _ in ksf_terms(k)]", "for c, _ in ksf_terms(k - 1)]",
     [f"{ROWS}::test_matches_val2_stirling_near_powers_of_two"]),
    ("val2 extracts the valuation off by one", "stirling.py",
     "return nu_int(2, r) - self.fact_val", "return nu_int(2, r) - self.fact_val + 1",
     ["tests/test_stirling.py::TestVal2Stirling::test_examples"]),
    ("m_start without its 32 spare bits", "stirling.py",
     "while self.m_start <= self.fact_val + 32:", "while self.m_start <= self.fact_val:",
     ["tests/test_stirling.py::TestVal2Stirling::test_one_ladder_for_single_values_and_scans",
      f"{SCAN}::test_far_scan_takes_a_head_of_K_values_from_exp_sums"]),
    ("I1 repeats every 511 instead of 512", "approx.py",
     "(x1(i), 512)", "(x1(i), 511)", [WALKED]),
    ("I1 keeps two of its three residue classes", "approx.py",
     "_I1 = [(x1(i), 512) for i in range(3)]", "_I1 = [(x1(i), 512) for i in range(2)]",
     [WALKED]),
    ("a residue class leaves out its first element", "approx.py",
     "n >= a and", "n > a and", [WALKED]),
    ("to_json separates items with a comma and a space", "reports.py",
     'sep = ","\n        out.append(newline + "}")', 'sep = ", "\n        out.append(newline + "}")',
     [f"{WRITER}::test_scalars_and_empty_containers_are_json_text"]),
    ("to_json writes a string holding a quote as it is", "reports.py",
     """ and '"' not in s""", "", [f"{WRITER}::test_strings_and_keys_are_json_text"]),
    ("to_json leaves an infinite valuation to json", "reports.py",
     """out.append('"inf"')""", "out.append(_json_scalar(value))",
     [f"{WRITER}::test_scalars_and_empty_containers_are_json_text"]),
    ("_emit joins the lines before writing", "cli.py",
     "sys.stdout.writelines(lines)", 'sys.stdout.write("".join(lines))', [STREAM]),
    ("_csv sends a row holding INFINITE through the template", "cli.py",
     'if "inf" in text else', 'if False else',
     ["tests/test_cli.py::TestVal::test_stirling_below_order_is_blank"]),
    ("_csv template has one field fewer than the header", "cli.py",
     '["%s"] * len(header)', '["%s"] * (len(header) - 1)', ["tests/test_cli.py::TestCsv"]),
    ("cli imports every library module at start-up", "cli.py",
     "from . import padic\n", "from . import approx, levels, padic, sequences\n", [LAZY]),
    ("cli imports inspect at start-up", "cli.py",
     "import argparse\n", "import argparse\nimport inspect\n", [START_UP]),
    ("cli imports pathlib at start-up", "cli.py",
     "import argparse\n", "import argparse\nimport pathlib\n",
     ["tests/test_cli.py::TestUsageAndEnvironment::test_pathlib_is_imported_only_for_out"]),
    ("_target reads a functools.wraps wrapper's own parameters", "cli.py",
     '    while hasattr(inner, "__wrapped__"):\n        inner = inner.__wrapped__\n', "",
     ["tests/test_cli.py::TestTargetDefaults"]),
    ("_plain_args accepts a prefix of a flag", "cli.py",
     "    for flag, value in zip(rest[::2], rest[1::2]):\n",
     "    for flag, value in zip(rest[::2], rest[1::2]):\n"
     "        flag = next((f for f in options if f.startswith(flag)), flag)\n", [PLAIN]),
    ("_plain_args keeps the first of two repeated flags", "cli.py",
     "if flag in given:  # argparse keeps the last: leave it the call\n            return None",
     "if flag in given:  # argparse keeps the last: leave it the call\n            continue",
     [PLAIN]),
    ("_plain_args drops the required-option check", "cli.py",
     "if required and flag not in given:", "if False:", [PLAIN]),
    ("_plain_args drops the --series choices check", "cli.py",
     "if choices is not None and value not in choices:", "if False:", [PLAIN]),
]


def pytest_exit(src: Path, ids: list[str]) -> int:
    """Run the node ids against the package in ``src``; pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *ids]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True).returncode


def copy_src(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", dest, ignore=ignore)
    return dest


def main() -> int:
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="stirval-mut-") as tmp:
        all_ids = sorted({i for m in MUTANTS for i in m[4]})
        code = pytest_exit(copy_src(Path(tmp) / "base"), all_ids)
        if code != 0:
            print(f"baseline: the named tests fail on unmutated src/ (pytest exit {code})")
            return 1
        for n, (name, module, old, new, ids) in enumerate(MUTANTS):
            src = copy_src(Path(tmp) / f"m{n}")
            path = src / "stirval" / module
            text = path.read_text()
            count = text.count(old)
            if count != 1:
                print(f"ERROR     {name}: old text occurs {count} times in {module}")
                failed += 1
                continue
            path.write_text(text.replace(old, new))
            code = pytest_exit(src, ids)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failed += code != 1
            print(f"{verdict:9s} {name}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
