import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import codezeta
from codezeta import cli as cli_mod
from codezeta import extremal as extremal_mod
from codezeta.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
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


def test_clifford_sample(capsys):
    assert run(["clifford", EXT_HAMMING, "--sample", "50", "--seed", "3"]) == 0
    assert "subsets_checked: 50" in capsys.readouterr().out


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


@pytest.mark.parametrize("q,c,n", [(2, 4, 24), (3, 3, 12)])
def test_extremal_critical_circle_radius_comes_from_q(q, c, n, capsys):
    # the Golay enumerators: every zero lies on |T| = q^(-1/2); the identity
    # checked is Type IV's, so `holds` stays false
    args = ["--q", str(q), "--c", str(c), "--n", str(n), "--ultraspherical"]
    assert run(["--json", "extremal", *args]) == 1
    ultra = json.loads(capsys.readouterr().out)["ultraspherical"]
    assert ultra["radii"] and all(
        r == pytest.approx(q ** -0.5, abs=1e-9) for r in ultra["radii"]
    )
    assert ultra["on_critical_circle"] is True
    assert ultra["holds"] is False


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
