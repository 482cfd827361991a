"""Smoke check of the benchmark harness on codes with n <= 10.

Run from the repository root:
    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import TIME_LAYERS, Tracer, layer_metrics, public_functions  # noqa: E402
from workloads import (  # noqa: E402
    build_pass, check, load_reference, section_digests, write_pass_files,
)

REFERENCE = load_reference()
WORK = ROOT / ".bench_build" / "perfbench" / "smoke"


def small_invocations(seed, pass_index=0):
    """The n <= 10 invocations of one small_many pass."""
    return [inv for inv in build_pass("small_many", seed, pass_index, REFERENCE["pool"])
            if inv.file_text is not None or int(inv.argv[7]) <= 10]


def run_cli(argv):
    from codezeta import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def test_inputs_follow_the_seed():
    a, b = small_invocations(3), small_invocations(3)
    assert [(i.argv, i.file_text) for i in a] == [(i.argv, i.file_text) for i in b]
    texts = [i.file_text for i in a if i.file_text is not None]
    assert len(set(texts)) == len(texts)
    other = [i.file_text for i in small_invocations(4) if i.file_text is not None]
    assert other != texts


def test_pass_agrees_with_reference():
    invocations = small_invocations(seed=11)
    specs = write_pass_files(invocations, WORK / "pass")
    assert any(i.argv[-1] == "--ultraspherical" for i in invocations)
    for inv, argv in zip(invocations, specs):
        code, stdout = run_cli(argv)
        assert check(inv.argv, code, None, stdout, REFERENCE["expected"][inv.ref_key]) is None


def test_check_rules():
    code, stdout = run_cli(["--json", "extremal", "--q", "2", "--c", "2", "--n", "8"])
    expected = {"exit": code, "sections": section_digests("extremal", stdout)}
    argv = ["--json", "extremal"]
    assert expected["sections"]
    assert check(argv, 1 - code, None, stdout, expected) is None
    assert check(argv, 2, None, "", expected) is not None
    assert check(argv, code, "ValueError: boom", stdout, expected) is not None
    assert check(argv, 3, None, stdout, expected) is not None
    changed = json.loads(stdout)
    changed["counts"][-1] = str(int(changed["counts"][-1]) + 1)
    assert check(argv, code, None, json.dumps(changed), expected) is not None
    del changed["counts"]
    assert check(argv, code, None, json.dumps(changed), expected) is not None
    assert check(argv, 2, None, "", {"exit": 2, "sections": {}}) is None


def test_tracer_partitions_the_wall_time():
    from codezeta import cli

    originals = public_functions()
    path = WORK / "hamming.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("2 7 4\n1 0 0 0 0 1 1\n0 1 0 0 1 0 1\n0 0 1 0 1 1 0\n0 0 0 1 1 1 1\n")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.invocation = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["--json", "report", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert public_functions() == originals
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.run"]
    metrics = layer_metrics([(tracer.spans, 1.0)])
    wall = roots[0][2] - roots[0][1]
    assert abs(sum(metrics[name] for name in TIME_LAYERS) - wall) < 1e-6
    assert metrics["code.subset_passes"] == 6
    assert metrics["code.subsets_visited"] == 6 * 2**7
    assert metrics["code.words_enumerated"] == 2**3 * metrics["code.weight_distribution_calls"]
    assert metrics["code.subset_pass_useful_ratio"] == 1 / 6


def test_run_refuses_a_directory_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
