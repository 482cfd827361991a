import contextlib
import dataclasses
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import codezeta
from codezeta import cli as cli_mod
from codezeta import code as code_mod
from codezeta import extremal as extremal_mod
from codezeta import matroid as matroid_mod
from codezeta.bounds import MALLOWS_SLOANE
from codezeta.cli import FILE_COMMANDS, run
from codezeta.gf import SUPPORTED_Q
from strategies import codes, make_code

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
HAMMING = str(FIXTURES / "hamming74.code")
CODE10 = str(FIXTURES / "code10.code")
EXT_HAMMING = str(FIXTURES / "ext_hamming84.code")
HEXACODE = str(FIXTURES / "hexacode63.code")


def test_weights_human(capsys):
    assert run(["weights", HAMMING]) == 0
    out = capsys.readouterr().out
    assert "d: 3" in out and "d_dual: 4" in out


def test_weights_json_deterministic(capsys):
    assert run(["--json", "weights", HAMMING]) == 0
    first = capsys.readouterr().out
    assert run(["weights", HAMMING, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["counts"] == ["1", "0", "0", "7", "7", "0", "0", "1"]


def test_zeta_json(capsys):
    assert run(["--json", "zeta", HAMMING]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["P"]["coeffs"] == ["1/5", "2/5", "2/5"]
    assert report["routes_agree"] and report["functional_equation"]
    assert report["a_bound"]["relation_holds"]


def test_rankgen_greene_twovar(capsys):
    for cmd in ("rankgen", "greene", "twovar"):
        assert run([cmd, HAMMING]) == 0, cmd
        capsys.readouterr()


def test_bounds_extremal_fixture(capsys):
    assert run(["--json", "bounds", EXT_HAMMING]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mallows_sloane"]["extremal"]
    assert report["zero_audit"]["meets"]


def test_clifford_pass(capsys):
    assert run(["clifford", EXT_HAMMING, "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "classification: self-dual" in out


def test_clifford_violation_exit_1(capsys):
    assert run(["--json", "clifford", CODE10]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["first_violation"]["subset"] == [1]


def test_clifford_other_class_is_left_out_of_the_verdict(tmp_path, capsys):
    # 2k < n makes the class "other", which claims nothing: the violations
    # are listed, and both modes and `report` exit 0
    path = tmp_path / "other.code"
    path.write_text("2 4 1\n1 1 0 0\n")
    for mode in ([], ["--sample", "50"]):
        assert run(["--json", "clifford", str(path), *mode]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "other"
        assert report["violations"]
        assert report["ok"] is None
        assert report["ok_not_applicable"] == (
            "needs a code that contains its dual or is formally self-dual"
        )
    assert run(["--json", "clifford", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["first_violation"] == {"subset": [0, 1, 2, 3], "size": 4, "rank": 1}
    assert run(["--json", "report", str(path)]) == 0


def test_clifford_sample(capsys):
    assert run(["clifford", EXT_HAMMING, "--sample", "50", "--seed", "3"]) == 0
    assert "subsets_checked: 50" in capsys.readouterr().out


def test_sampled_clifford_past_the_enumeration_guard(tmp_path, capsys):
    # a systematic q=9 [20,10] code: 9^10 words lie past the 2^28 guard, so
    # the weights that would tell "formally-self-dual" from "other" are
    # refused, but the sampled ranks are not; "undetermined" claims nothing,
    # so the violations are listed and left out of the verdict
    rng = random.Random(20)
    rows = [
        [int(j == i) for j in range(10)] + [rng.randrange(9) for _ in range(10)]
        for i in range(10)
    ]
    path = tmp_path / "q9_20_10.code"
    path.write_text("9 20 10\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    assert run(["--json", "clifford", str(path), "--sample", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "undetermined"
    assert report["decompositions"] == []
    assert report["ok"] is None
    assert report["ok_not_applicable"] == (
        "needs a code that contains its dual or is formally self-dual"
    )
    assert run(["--json", "weights", str(path)]) == 2
    assert "exceeds the 2^28 guard" in capsys.readouterr().err


def _binary_23_11(tmp_path):
    # a systematic binary [23, 11] code, one column past the subset guard
    rng = random.Random(23)
    rows = [
        [int(j == i) for j in range(11)] + [rng.randrange(2) for _ in range(12)]
        for i in range(11)
    ]
    path = tmp_path / "binary_23_11.code"
    path.write_text("2 23 11\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return str(path)


@pytest.mark.parametrize(
    "argv", [["rankgen"], ["greene"], ["twovar"], ["report"], ["clifford", "--exhaustive"]]
)
def test_subset_pass_past_the_guard_exits_2(tmp_path, capsys, argv):
    assert run([*argv, _binary_23_11(tmp_path)]) == 2
    assert "subset enumeration guarded at n <= 22" in capsys.readouterr().err


def test_sampled_clifford_is_not_subset_guarded(tmp_path, capsys):
    # point queries walk no subsets, so n = 23 is served
    assert run(["--json", "clifford", _binary_23_11(tmp_path), "--sample", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["subsets_checked"] == 20


def test_extremal_command(capsys):
    assert run(
        ["--json", "extremal", "--q", "4", "--c", "2", "--n", "12",
         "--ultraspherical"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 6
    assert report["ultraspherical"]["holds"]
    assert report["ultraspherical"]["lambda"] == "1/140"
    assert report["ultraspherical"]["on_critical_circle"]


@pytest.mark.parametrize("q,c,n", [(2, 2, 2), (2, 2, 4), (2, 2, 6), (4, 2, 2), (4, 2, 4)])
def test_extremal_ultraspherical_below_d_3_is_not_applicable(q, c, n, capsys):
    args = ["--q", str(q), "--c", str(c), "--n", str(n)]
    assert run(["--json", "extremal", *args, "--ultraspherical"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report.pop("ultraspherical") == {
        "m": report["d"] - 3, "holds": None, "not_applicable": "needs d >= 3",
    }
    assert run(["--json", "extremal", *args]) == 0
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("n", range(6, 20, 2))
def test_extremal_type_iv_identity_is_claimed_at_n_3m_plus_3_only(n, capsys):
    # the identity equates polynomials of degrees 2(2g + 1) and 2m, so it is
    # stated for n = 3m + 3 only; at every Type IV length the zeros lie on
    # |T| = 1/2
    args = ["--q", "4", "--c", "2", "--n", str(n), "--ultraspherical"]
    assert run(["--json", "extremal", *args]) == 0
    ultra = json.loads(capsys.readouterr().out)["ultraspherical"]
    assert ultra["on_critical_circle"] is True
    if n == 3 * ultra["m"] + 3:
        assert ultra["holds"] is True
        assert "not_applicable" not in ultra
    else:
        assert ultra["holds"] is None
        assert ultra["not_applicable"] == "needs n = 3m + 3"
        assert ultra["lambda"] == "0/1"


@pytest.mark.parametrize("q,c,n", [(2, 4, 24), (3, 3, 12)])
def test_extremal_critical_circle_radius_comes_from_q(q, c, n, capsys):
    # the Golay enumerators: every zero lies on |T| = q^(-1/2); the identity
    # is Type IV's, so for these types it is not applicable and `ok` rests on
    # the circle
    args = ["--q", str(q), "--c", str(c), "--n", str(n), "--ultraspherical"]
    assert run(["--json", "extremal", *args]) == 0
    ultra = json.loads(capsys.readouterr().out)["ultraspherical"]
    assert ultra["radii"] and all(
        r == pytest.approx(q ** -0.5, abs=1e-9) for r in ultra["radii"]
    )
    assert ultra["on_critical_circle"] is True
    assert ultra["holds"] is None
    assert ultra["not_applicable"] == "the identity is Type IV's (q = 4)"


def test_extremal_over_the_guard_exits_2(capsys):
    n = (extremal_mod.EXTREMAL_N_MAX // 8 + 1) * 8
    unused = mock.Mock(side_effect=AssertionError("the guard must come first"))
    with mock.patch.object(extremal_mod, "_gleason_synthesis", unused):
        assert run(["extremal", "--q", "2", "--c", "4", "--n", str(n)]) == 2
    assert "guarded at n <=" in capsys.readouterr().err


def test_report_command(capsys):
    assert run(["--json", "report", HEXACODE]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "weights", "zeta", "rankgen", "greene", "twovar", "bounds", "clifford"
    }
    # Euclidean dual: the hexacode is self-dual only Hermitian-wise
    assert report["clifford"]["classification"] == "formally-self-dual"


def test_report_with_wrapped_commands(monkeypatch, capsys):
    # a tracer replaces the module's functions by wrappers; report must not
    # take its own table entry for another command
    original = cli_mod.cmd_report
    monkeypatch.setattr(cli_mod, "cmd_report", lambda *args: original(*args))
    assert run(["--json", "report", HAMMING]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "weights", "zeta", "rankgen", "greene", "twovar", "bounds", "clifford"
    }


def test_usage_errors(tmp_path, capsys):
    assert run(["weights", str(tmp_path / "missing.code")]) == 2
    bad = tmp_path / "bad.code"
    bad.write_text("2 2 1\n1 2\n")
    assert run(["weights", str(bad)]) == 2
    assert run(["extremal", "--q", "5", "--c", "2", "--n", "6"]) == 2
    assert run(["clifford", EXT_HAMMING, "--exhaustive", "--sample", "5"]) == 2
    assert run(["nosuchcommand"]) == 2
    capsys.readouterr()


def _run_child(*args):
    """A fresh interpreter that imports the same codezeta as the tests,
    installed or not."""
    package_root = str(Path(codezeta.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = _run_child("-m", "codezeta.cli", "--json", "weights", HAMMING)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 3


@pytest.mark.parametrize("stem", ["hamming74", "code10"])
def test_main_exits_with_the_golden_report(stem):
    # main() hands run()'s exit code to sys.exit: 0 for hamming74, 1 for code10
    golden = FIXTURES.parent / "golden"
    code_file = str(FIXTURES / f"{stem}.code")
    proc = _run_child("-m", "codezeta.cli", "--json", "report", code_file)
    exits = json.loads((golden / "exit_codes.json").read_text())
    assert proc.returncode == exits[f"{stem}.report"]
    assert proc.stdout == (golden / f"{stem}.report.json").read_text()


def test_zeta_functional_equation_not_applicable_below_distance_2(tmp_path, capsys):
    # d = d_dual = 1: the functional equation is not claimed, so zeta exits 0
    path = tmp_path / "degenerate.code"
    path.write_text("2 3 1\n1 0 0\n")
    assert run(["--json", "zeta", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["functional_equation"] is None
    assert report["functional_equation_not_applicable"] == "needs d, d_dual >= 2"
    assert run(["--json", "zeta", HAMMING]) == 0
    assert "functional_equation_not_applicable" not in json.loads(capsys.readouterr().out)


def test_twovar_compatibility_not_applicable_below_dual_distance_2(tmp_path, capsys):
    # d_dual = 1: P(T) is not claimed to be Z(T, q)'s numerator, so twovar
    # exits 0 and still prints Z and g
    path = tmp_path / "degenerate.code"
    path.write_text("2 2 1\n1 0\n")
    assert run(["--json", "twovar", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["compatible_with_one_variable"] is None
    assert report["compatible_with_one_variable_not_applicable"] == "needs d_dual >= 2"
    assert "Z" in report and "g" in report


def test_zeta_a_bound_not_applicable_at_d_equals_n(tmp_path, capsys):
    # the binary [3, 1, 3] repetition code: d + 1 <= q + 1 + a is not claimed
    path = tmp_path / "rep3.code"
    path.write_text("2 3 1\n1 1 1\n")
    assert run(["--json", "zeta", str(path)]) == 0
    abound = json.loads(capsys.readouterr().out)["a_bound"]
    assert abound["bound_holds"] is None
    assert abound["bound_not_applicable"] == "d = n"


NUMPY_PROBE = """
import contextlib, io, sys
from codezeta.cli import run

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        run(list(argv))

for path in sys.argv[1:]:
    quiet("report", path)
quiet("extremal", "--q", "4", "--c", "2", "--n", "12")
print("numpy" in sys.modules)
quiet("extremal", "--q", "4", "--c", "2", "--n", "12", "--ultraspherical")
print("numpy" in sys.modules)
"""


def test_numpy_is_imported_only_by_ultraspherical():
    fixtures = sorted(str(p) for p in FIXTURES.glob("*.code"))
    proc = _run_child("-c", NUMPY_PROBE, *fixtures)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def _code_text(C):
    """C in the code file format."""
    rows = (" ".join(map(str, row)) for row in C.generator)
    return "\n".join([f"{C.q} {C.n} {C.k}", *rows]) + "\n"


def _invoke(argv):
    """(exit code, stdout, stderr) of one `run`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(codes(max_n=6, max_words=9**6))
@example(make_code(5, [[1, 2, 3, 4]]))  # k = 1
@example(make_code(9, [[1, 2, 0], [0, 1, 5], [3, 0, 1]]))  # k = n
@example(make_code(8, [[1, 0, 0, 3], [0, 1, 0, 0]]))  # a zero column
@example(make_code(4, [[1]]))  # n = 1, k = n
def test_every_file_command_exits_0_or_1_with_json(tmp_path, C):
    # any code of any k <= n over the seven fields: each file command
    # exits 0 or 1 with a JSON report, exit 1 exactly when a check reads
    # false, and `report` gathers the others'
    path = tmp_path / "drawn.code"
    path.write_text(_code_text(C))
    reports = {}
    for name in FILE_COMMANDS:
        code, out, err = _invoke(["--json", name, str(path)])
        assert code in (0, 1), (name, err)
        reports[name] = json.loads(out)
        assert code == _fails(reports[name]), name
    assert reports.pop("report") == reports


# The report keys that are checks: the exit code is 1 exactly when one of
# them reads false, and one that reads null is not applicable. The test's own
# copy of `cli.CHECKS`.
CHECK_KEYS = {
    "routes_agree", "functional_equation", "deg_matches", "P1_is_one",
    "relation_holds", "bound_holds", "greene", "greene_normalized",
    "compatible_with_one_variable", "singleton_holds", "divisibility_holds",
    "meets", "strong_holds", "holds", "ok", "unique", "nonnegative",
    "on_critical_circle",
}
# Boolean keys that report a fact about the code or the enumerator, not a check.
FACT_KEYS = {
    "nondegenerate", "binary_even_allone", "formally_self_dual", "extremal",
    "functional_equation_exploratory",
}


def _entries(value):
    """(key, value, the dict holding it) of every dict entry of a JSON
    value, at any depth, inside lists too."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key, item, value
            yield from _entries(item)
    elif isinstance(value, list):
        for item in value:
            yield from _entries(item)


def _fails(report):
    """1 when a check of the report reads false, else 0."""
    return int(any(key in CHECK_KEYS and item is False
                   for key, item, _ in _entries(report)))


# `extremal` exits 1 at these n <= 54, by type and --ultraspherical, and 0 at
# every other valid n. These exits come from negative extremal coefficients.
EXTREMAL_EXIT_1 = {
    ("I", False): [32, 40, 42, 48, 50, 52],
    ("I", True): [32, 40, 42, 48, 50, 52],
}


@functools.cache
def _extremal_runs():
    """{(type, ultraspherical, n): (exit code, report)} of `extremal --json`
    at every valid n <= 54 of the four Mallows-Sloane types. From n = 56 the
    float radii drift past their 1e-9 tolerance, so a pin there would pin
    that drift."""
    runs = {}
    for name, (q, c, mod) in MALLOWS_SLOANE.items():
        for ultra in (False, True):
            for n in range(mod, 55, mod):
                argv = ["--json", "extremal", "--q", str(q), "--c", str(c), "--n", str(n)]
                code, out, _ = _invoke(argv + ["--ultraspherical"] * ultra)
                runs[name, ultra, n] = code, json.loads(out)
    return runs


def _all_reports():
    """(exit code, report) of every golden that has a report, and of every
    `extremal` run above."""
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    goldens = [(code, json.loads((GOLDEN / f"{case}.json").read_text()))
               for case, code in exits.items() if code != 2]
    return goldens + list(_extremal_runs().values())


def test_extremal_exit_codes_up_to_n_54():
    runs = _extremal_runs()
    assert len(runs) == 146
    for (name, ultra, n), (code, _) in runs.items():
        assert code == (n in EXTREMAL_EXIT_1.get((name, ultra), [])), (name, ultra, n)


def test_golden_exit_codes_follow_the_checks_and_nulls_say_why():
    for code, report in _all_reports():
        assert code == _fails(report), report
        for key, item, holder in _entries(report):
            if key in CHECK_KEYS and item is None:
                assert any(k.endswith("not_applicable") for k in holder), key


def test_every_check_name_is_written_by_a_report():
    written = {key for _, report in _all_reports() for key, _, _ in _entries(report)}
    assert set(cli_mod.CHECKS) <= written


def test_every_boolean_key_is_a_check_or_a_fact():
    booleans = {key for _, report in _all_reports()
                for key, item, _ in _entries(report) if isinstance(item, bool)}
    assert booleans <= set(cli_mod.CHECKS) | FACT_KEYS, booleans - FACT_KEYS


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


def test_json_emitter_matches_json_on_every_golden_and_extremal_run():
    # the extremal runs with --ultraspherical carry the float radii
    reports = [report for _, report in _all_reports()]
    radii = [r for report in reports for key, item, _ in _entries(report)
             if key == "radii" for r in item]
    assert radii and all(isinstance(r, float) for r in radii)
    for report in reports:
        assert cli_mod._json(report) == _dumps(report)


_JSON_TEXT = st.text() | st.text(st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "a", "\u00e9", "\u20ac",
     "\U0001f600", "\ud800"]
))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
    st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)),
    st.floats(), st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324,
                                  float("nan"), float("inf"), float("-inf")]),
    _JSON_TEXT,
)
json_values = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children) | st.dictionaries(_JSON_TEXT, children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"": [], "a": {}, "b": [{}, [[]]]})
@example([True, 1, False, 0, None, 1.0, -0.0])
def test_json_emitter_matches_json(value):
    assert cli_mod._json(value) == _dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {2}}, [b"x"], [0.5j]])
def test_json_emitter_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli_mod._json(value)


def test_rankgen_on_a_table_missing_a_subset_exits_1(monkeypatch):
    # W(1, 1) counts every column subset once, so a table short of the empty
    # set breaks the structure of W: check failed, and no report
    original = code_mod.subset_rank_table

    def short_table(C):
        table = original(C)
        counts = dict(table.counts)
        counts[0, 0] -= 1
        return dataclasses.replace(table, counts=counts)

    monkeypatch.setattr(code_mod, "subset_rank_table", short_table)
    code, out, err = _invoke(["--json", "rankgen", HAMMING])
    assert code == 1
    assert out == ""
    assert err.startswith("check failed:")


@st.composite
def malformed_code_texts(draw):
    """A code file with one fault: a bad header, a wrong row count or row
    length, an out-of-range or non-integer symbol, a rank-deficient
    generator, or a field size outside SUPPORTED_Q."""
    C = draw(codes(max_n=5))
    q, n, k = C.q, C.n, C.k
    rows = [list(map(str, row)) for row in C.generator]
    header = [str(q), str(n), str(k)]
    fault = draw(st.sampled_from([
        "header_tokens", "header_value", "dimension", "field", "row_count",
        "row_length", "symbol_range", "symbol_value", "rank", "empty",
    ]))
    if fault == "header_tokens":
        header = (header + ["1", "2"])[:draw(st.sampled_from([1, 2, 4, 5]))]
    elif fault == "header_value":
        header[draw(st.integers(0, 2))] = draw(st.sampled_from(["x", "2.0", "0x3", "1e2"]))
    elif fault == "dimension":
        header[2] = str(draw(st.sampled_from([0, -1, n + 1])))
    elif fault == "field":
        header[0] = str(draw(st.integers(-2, 30).filter(lambda v: v not in SUPPORTED_Q)))
    elif fault == "row_count":
        rows = rows[:-1] if draw(st.booleans()) else rows + [rows[0]]
    elif fault == "row_length":
        i = draw(st.integers(0, k - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    elif fault == "symbol_range":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = str(draw(st.sampled_from([q, q + 1, 100, -1])))
    elif fault == "symbol_value":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(["a", "1.0", "1/2", "--"]))
    elif fault == "rank":
        rows[-1] = ["0"] * n if k == 1 else list(rows[0])
    else:
        return draw(st.sampled_from(["", "\n", "# only a comment\n"]))
    return "\n".join([" ".join(header), *map(" ".join, rows)]) + "\n"


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_code_texts(), st.sampled_from(sorted(FILE_COMMANDS)), st.booleans())
@example("6 2 1\n1 0\n", "weights", True)  # q outside SUPPORTED_Q
@example("2 3 2\n1 0 1\n1 0 1\n", "report", False)  # rank 1 < k = 2
def test_malformed_code_files_exit_2_with_an_error(tmp_path, text, name, as_json):
    path = tmp_path / "malformed.code"
    path.write_text(text)
    code, out, err = _invoke([*(["--json"] if as_json else []), name, str(path)])
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("command", ["clifford", "report"])
@pytest.mark.parametrize("count", ["0", "-5"])
def test_sample_count_below_1_exits_2(command, count):
    # a sample of no subsets checks nothing, so it is refused, not passed
    code, out, err = _invoke([command, HAMMING, "--sample", count])
    assert code == 2
    assert out == ""
    assert f"error: argument --sample: must be at least 1, got {count}" in err


@pytest.mark.parametrize("command", ["clifford", "report"])
def test_sample_count_past_the_guard_exits_2_at_once(command):
    # the sampled check holds every mask and rank at once, so one sample
    # past the guard is refused, with its estimate, before any is drawn:
    # drawing them would take seconds
    count = (1 << matroid_mod.SAMPLE_BITS) + 1
    start = time.perf_counter()
    code, out, err = _invoke([command, HAMMING, "--sample", str(count)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (f"error: sampling {count} column subsets exceeds the 2^22 "
                   "guard: about 240 MB and 6 s\n")


def test_report_refuses_a_sample_past_the_guard_before_any_section(tmp_path):
    # on a code past the subset guard too, report's first refusal is the
    # sample count's, as clifford's is
    count = (1 << matroid_mod.SAMPLE_BITS) + 1
    path = _binary_23_11(tmp_path)
    for command in ("clifford", "report"):
        code, out, err = _invoke([command, path, "--sample", str(count)])
        assert (code, out) == (2, "")
        assert err == (f"error: sampling {count} column subsets exceeds the 2^22 "
                       "guard: about 240 MB and 6 s\n")


_NUMBERS = st.one_of(
    st.integers(-3, 200).map(str), st.sampled_from(["x", "", "2.5", "1e2", "0x8", "--"])
)


@st.composite
def argvs(draw):
    """An argv for `run`: `extremal` on one of the Mallows-Sloane types at a
    length n <= 200 that it allows, with one option in ten left out and one
    in ten given a number or junk instead; or a list of the parser's own
    words, numbers and code files in any order."""
    if draw(st.booleans()):
        q, c, mod = draw(st.sampled_from(sorted(MALLOWS_SLOANE.values())))
        values = {
            "--q": st.just(str(q)),
            "--c": st.just(str(c)),
            "--n": st.integers(1, 200 // mod).map(lambda i: str(mod * i)),
        }
        argv = ["extremal"]
        for option in draw(st.permutations(list(values))):
            choice = draw(st.sampled_from(["valid"] * 8 + ["junk", "left out"]))
            if choice != "left out":
                argv += [option, draw(values[option] if choice == "valid" else _NUMBERS)]
        if draw(st.booleans()):
            argv.append("--ultraspherical")
        if draw(st.booleans()):
            argv.insert(draw(st.sampled_from([0, len(argv)])), "--json")
        return argv
    words = st.sampled_from([
        *FILE_COMMANDS, "extremal", "nosuchcommand", "--json", "--q", "--c",
        "--n", "--ultraspherical", "--sample", "--seed", "--exhaustive", "-h",
        HAMMING, CODE10, EXT_HAMMING, str(FIXTURES / "missing.code"),
    ])
    return draw(st.lists(words | _NUMBERS, max_size=7))


@settings(max_examples=150, deadline=None)
@given(argvs())
@example(["extremal", "--q", "2", "--c", "2", "--n", "-2"])
@example(["extremal", "--q", "4", "--c", "2", "--n", "200", "--ultraspherical"])
@example(["clifford", HAMMING, "--sample", "--seed", "3"])
@example(["--json"])
@example([])
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    # an exception out of `run` is a traceback at the console
    code, out, err = _invoke(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert any(line.startswith("usage:") or "error:" in line
                   for line in err.splitlines()), (argv, err)
