"""One pass: run a list of CLI invocations in this fresh interpreter.

Usage: python3 perfbench/pass_child.py MANIFEST RESULT

MANIFEST is a JSON object {"invocations": [argv, ...], "trace": bool}. Each
argv goes to `codezeta.cli.run` in turn, with stdout and stderr captured, and
RESULT receives one JSON object with each invocation's wall seconds, exit
code, any exception that escaped `run`, and captured output, plus this
process's peak resident memory, the yardstick timings taken between
invocations (at least every 0.25 s, and before the first and after the
last), and, when tracing, the recorded spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

YARDSTICK_EVERY_S = 0.25
_ADD = tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3))
_MUL = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
_COLUMNS = tuple(tuple((i * 7 + j * 3 + i * j) % 3 for j in range(5)) for i in range(8))
_ROW = (2, 1, 0, 1, 2) * 6


def _reduce(basis, vec):
    cur = list(vec)
    for pivot, bvec in basis:
        c = cur[pivot]
        if c:
            cur = [_ADD[a][_MUL[3 - c][b]] for a, b in zip(cur, bvec)]
    pivot = next((i for i, v in enumerate(cur) if v), None)
    if pivot is None:
        return basis
    inv = cur[pivot]  # in GF(3) every nonzero element is its own inverse
    return basis + ((pivot, tuple(_MUL[inv][v] for v in cur)),)


def _yardstick_once():
    start = perf_counter()
    counts = {}
    stack = [(0, ())]
    while stack:  # rank of every column subset, by DFS with a growing basis
        j, basis = stack.pop()
        if j == len(_COLUMNS):
            counts[len(basis)] = counts.get(len(basis), 0) + 1
            continue
        stack.append((j + 1, basis))
        stack.append((j + 1, _reduce(basis, _COLUMNS[j])))
    acc = list(_ROW)
    for _ in range(150):  # codeword-style row sums through addition tables
        acc = [_ADD[a][b] for a, b in zip(acc, _ROW)]
        w = sum(1 for v in acc if v)
        counts[w] = counts.get(w, 0) + 1
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 1)
    return perf_counter() - start


def yardstick():
    """Seconds a fixed piece of pure-Python work takes right now: a small
    subset-rank DFS, codeword-style table sums and Fraction sums, like the
    program's inner loops. The median of three limits interrupt outliers."""
    return statistics.median(_yardstick_once() for _ in range(3))


def main(manifest_path, result_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    from codezeta import cli

    tracer = None
    if manifest["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    yardsticks = [[perf_counter(), yardstick()]]
    try:
        for i, argv in enumerate(manifest["invocations"]):
            out, err = io.StringIO(), io.StringIO()
            raised = None
            if tracer is not None:
                tracer.invocation = i
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
            except Exception as exc:  # the harness records it as a failure
                code = None
                raised = f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            results.append({
                "start": start, "end": end, "exit": code, "raised": raised,
                "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            })
            if end - yardsticks[-1][0] >= YARDSTICK_EVERY_S:
                yardsticks.append([perf_counter(), yardstick()])
        if yardsticks[-1][0] < results[-1]["end"]:
            yardsticks.append([perf_counter(), yardstick()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({
            "results": results,
            "peak_rss_mb": peak_kb / 1024,
            "yardsticks": yardsticks,
            "spans": tracer.spans if tracer is not None else None,
        }, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
