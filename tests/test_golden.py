"""`--json` output and exit code of every file command on every fixture, and
the plain `report` output of every fixture, must stay byte-identical to the
recorded files in tests/golden/. JSON sorts its keys; the plain output prints
them in the order the report builds them, so it is the one that sees a change
of key order.

A deliberate change of output is recorded again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from codezeta.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "weights": ["weights"],
    "zeta": ["zeta"],
    "rankgen": ["rankgen"],
    "greene": ["greene"],
    "twovar": ["twovar"],
    "bounds": ["bounds"],
    "clifford": ["clifford"],
    "clifford-sample": ["clifford", "--sample", "50", "--seed", "3"],
    "report": ["report"],
}
STEMS = sorted(fixture.stem for fixture in FIXTURES.glob("*.code"))
CASES = [(stem, name) for stem in STEMS for name in COMMANDS]


def invoke(stem, name, plain=False):
    """(exit code, stdout) of one `--json` invocation, or a plain one."""
    argv = [*([] if plain else ["--json"]), *COMMANDS[name][:1],
            str(FIXTURES / f"{stem}.code"), *COMMANDS[name][1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("stem,name", CASES)
def test_golden_output(stem, name):
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = invoke(stem, name)
    assert code == exits[f"{stem}.{name}"]
    assert out == (GOLDEN / f"{stem}.{name}.json").read_text()


@pytest.mark.parametrize("stem", STEMS)
def test_golden_plain_report(stem):
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = invoke(stem, "report", plain=True)
    assert code == exits[f"{stem}.report"]
    assert out == (GOLDEN / f"{stem}.report.txt").read_text()


def record():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for stem, name in CASES:
        code, out = invoke(stem, name)
        exits[f"{stem}.{name}"] = code
        (GOLDEN / f"{stem}.{name}.json").write_text(out)
    for stem in STEMS:
        _, out = invoke(stem, "report", plain=True)
        (GOLDEN / f"{stem}.report.txt").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exits, sort_keys=True, indent=2) + "\n"
    )


if __name__ == "__main__":
    sys.exit(record())
