"""A standing mutation gate: each deliberate bug below must fail the tests
listed with it.

Run from the repository root:

    python tests/mutations.py [NAME ...]

`src/`, `tests/` and `pyproject.toml` are copied to a temporary directory,
since `pyproject.toml`'s `pythonpath = ["src"]` would put this checkout's own
`src` ahead of any other. Each mutation is applied there in turn, and its
tests run with `pytest -x`. The script fails when a mutation survives (its
tests pass), when its tests error instead of failing, or when its old text no
longer occurs exactly once in its file, so that a refactor must update the
entry. It assumes the unmutated suite passes, as the tier-1 run shows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file, old text, new text, the tests expected to catch it)
MUTATIONS = {
    "offset multiplicity q": (
        "src/codezeta/code.py",
        "yield h, field.q - 1",
        "yield h, field.q",
        ["tests/test_analysis.py::test_one_enumeration_one_pass"],
    ),
    "Kronecker slot width without its +2": (
        "src/codezeta/code.py",
        "B = (q**n * sum(map(abs, counts))).bit_length() + 2",
        "B = (q**n * sum(map(abs, counts))).bit_length()",
        ["tests/test_analysis.py::test_one_enumeration_one_pass"],
    ),
    "low list takes 2r < |A| for 2r <= |A|": (
        "src/codezeta/code.py",
        "q ** ((total + 1) // 2 if on_dual else max(k - total // 2, 0))",
        "q ** (total // 2 + 1 if on_dual else max(k - (total - 1) // 2, 0))",
        ["tests/test_golden.py"],
    ),
    "a size group of the subset table counted one subset short": (
        "src/codezeta/code.py",
        "group, left = grouped[a:b], b - a",
        "group, left = grouped[a:b - 1], b - a",
        ["tests/test_kernels.py::test_subset_dfs_matches_reference"],
    ),
    "Clifford violation 2r <= |A| for 2r < |A|": (
        "src/codezeta/matroid.py",
        "if 2 * rank < size:",
        "if 2 * rank <= size:",
        ["tests/test_acceptance.py"],
    ),
    "no complement on the dual side of subset_ranks": (
        "src/codezeta/code.py",
        "keys = list(map(operator.xor, masks, repeat((1 << C.n) - 1))) if on_dual else masks",
        "keys = masks",
        ["tests/test_code.py::test_subset_rank_basics"],
    ),
    "_echelon_rank reduces the rows whose pivot lies in A": (
        "src/codezeta/code.py",
        "if not taken[pivot]:",
        "if taken[pivot]:",
        ["tests/test_golden.py"],
    ),
    "format_poly skips the nonzero terms": (
        "src/codezeta/exactmath.py",
        "        if c == 0:\n            continue",
        "        if c != 0:\n            continue",
        ["tests/test_cli.py::test_main_exits_with_the_golden_report"],
    ),
    "_verdict reads only the top-level keys": (
        "src/codezeta/cli.py",
        "return all(_verdict(v) for v in report.values() if isinstance(v, dict))",
        "return True",
        ["tests/test_golden.py"],
    ),
    "JSON emitter writes dict keys unsorted": (
        "src/codezeta/cli.py",
        "for key in sorted(value)]",
        "for key in value]",
        ["tests/test_cli.py::test_json_emitter_matches_json",
         "tests/test_golden.py"],
    ),
    "JSON emitter separates items with \", \"": (
        "src/codezeta/cli.py",
        'sep = "," + inner',
        'sep = ", " + inner',
        ["tests/test_cli.py::test_json_emitter_matches_json",
         "tests/test_golden.py"],
    ),
    "nonnegative is not a check": (
        "src/codezeta/cli.py",
        '"unique", "nonnegative",',
        '"unique",',
        ["tests/test_cli.py::test_extremal_exit_codes_up_to_n_54"],
    ),
    "Type IV's identity claimed off n = 3m + 3": (
        "src/codezeta/cli.py",
        "elif enum.n != 3 * m + 3:",
        "elif False:",
        ["tests/test_cli.py::test_extremal_exit_codes_up_to_n_54"],
    ),
    "normalized Greene with its two scales swapped": (
        "src/codezeta/matroid.py",
        "return all(l * L == r * D for l, r in zip(lhs, rhs))",
        "return all(l * D == r * L for l, r in zip(lhs, rhs))",
        ["tests/test_matroid.py::test_greene_normalized_corpus",
         "tests/test_matroid.py::test_greene_checks_match_the_fraction_routes_and_can_fail"],
    ),
    "Z(T, q) compared with (1 - T)^2 for (1 - T)(1 - qT)": (
        "src/codezeta/zeta.py",
        "lhs = _times(num, (1, -1 - q, q))",
        "lhs = _times(num, (1, -2, 1))",
        ["tests/test_zeta.py::test_two_var_compat_corpus",
         "tests/test_zeta.py::test_two_var_compat_holds_when_d_dual_is_at_least_2"],
    ),
    "Z(T, u) read at u = 1 for u = q": (
        "src/codezeta/zeta.py",
        "out[t] += c * u**e",
        "out[t] += c",
        ["tests/test_zeta.py::test_two_var_compat_corpus",
         "tests/test_zeta.py::test_two_var_compat_holds_when_d_dual_is_at_least_2"],
    ),
    "W_n^+ with the (1 - x) of its y tail dropped": (
        "src/codezeta/matroid.py",
        "((0, n - k + 1), L), ((1, n - k + 1), -L))",
        "((0, n - k + 1), L))",
        ["tests/test_zeta.py::test_integer_wn_plus_and_two_var_zeta_match_the_reference_routes",
         "tests/test_golden.py"],
    ),
    "Z(T, u) quotient over u^0 .. u^i for u^0 .. u^(i-1)": (
        "src/codezeta/zeta.py",
        "for e in range(i):",
        "for e in range(i + 1):",
        ["tests/test_zeta.py::test_integer_wn_plus_and_two_var_zeta_match_the_reference_routes",
         "tests/test_zeta.py::test_two_var_zeta_matches_the_reference"],
    ),
    "a-bound relation N_d (a - d + q + 1) for N_d (a - d + q)": (
        "src/codezeta/zeta.py",
        "N[d] * (a - d + q) == N[d + 1]",
        "N[d] * (a - d + q + 1) == N[d + 1]",
        ["tests/test_zeta.py::test_a_bound_corpus",
         "tests/test_zeta.py::test_a_bound_relation_on_integers_matches_the_fraction_a_list"],
    ),
    "Greene checks accept a code's weights against its dual's W": (
        "src/codezeta/matroid.py",
        "if isinstance(A, WeightDistribution) and A.k != W.k:",
        "if False:",
        ["tests/test_matroid.py::test_check_greene_rejects_mismatched_lengths"],
    ),
    "strong divisibility bound n + c(c + 1) for n + c(c + 2)": (
        "src/codezeta/bounds.py",
        "return n + c * (c + 1 + strong)",
        "return n + c * (c + 1)",
        ["tests/test_bounds.py::test_mallows_sloane_bound_is_the_classical_formula"],
    ),
    "Mallows-Sloane bound strong for q != 2, plain for q = 2": (
        "src/codezeta/bounds.py",
        "rhs = _divisibility_rhs(n, c, q == 2)",
        "rhs = _divisibility_rhs(n, c, q != 2)",
        ["tests/test_bounds.py::test_mallows_sloane_bound_is_the_classical_formula"],
    ),
    "human renderer labels a list item like a dict key": (
        "src/codezeta/cli.py",
        'entries = (("-", value) for value in report)',
        'entries = ((f"{key}:", value) for key, value in enumerate(report))',
        ["tests/test_cli.py::test_human_renderer_matches_the_two_branch_renderer",
         "tests/test_golden.py"],
    ),
    "a size group's tally overwrites its key's count": (
        "src/codezeta/code.py",
        "counts[key] = counts.get(key, 0) + c",
        "counts[key] = c",
        ["tests/test_kernels.py::test_subset_dfs_matches_reference"],
    ),
}


def run(names):
    unknown = set(names) - set(MUTATIONS)
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = []
    with tempfile.TemporaryDirectory(prefix="codezeta-mutations-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
        for name in names or MUTATIONS:
            file, old, new, tests = MUTATIONS[name]
            path = tmp / file
            original = path.read_text()
            if original.count(old) != 1:
                failures.append(f"{name}: the old text occurs "
                                f"{original.count(old)} times in {file}")
                continue
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q",
                     "-p", "no:cacheprovider", *tests],
                    cwd=tmp, env=env, capture_output=True, text=True,
                )
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            verdict = {0: "SURVIVED", 1: "caught"}.get(proc.returncode, "ERROR")
            print(f"{verdict:8} {seconds:6.1f} s  {name}", flush=True)
            if proc.returncode != 1:
                failures.append(f"{name}: pytest exited {proc.returncode}")
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
