"""codezeta benchmark: named workloads through the real CLI, checked against
a recorded reference.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run measures set-up, then repeats passes for about S seconds. A pass is one
fresh interpreter (`pass_child.py`) that calls `codezeta.cli.run(argv)` with
`--json` once per invocation of the workload, on code files generated from the
seed; passes run one at a time, so the load is a closed loop with a single
client. Every invocation is checked against `reference.json`.

With `--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` traced and untraced passes alternate and
it holds the per-layer metrics, and the spans are written under
`.bench_build/perfbench/`. Lines before it give the same numbers for reading.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pass_child import yardstick  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, build_pass, check, load_reference, workload_fields,
    write_pass_files,
)

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 165  # the whole run, set-up included, ends well within 180 s
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above
# Median yardstick time (see pass_child.py) on the machine the baseline was
# recorded on. Invocation times are scaled by YARDSTICK_NOMINAL_S over the
# yardstick measured around them, which takes out the machine's own changes
# of speed (about +-20% over seconds on a shared 2-vCPU host).
YARDSTICK_NOMINAL_S = 0.0012


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CODEZETA_THREADS", None)
    return env


def _cpu_limit(seconds):
    """preexec_fn that ends the child when it has used `seconds` of CPU, so
    that waiting for it needs no polling timeout."""
    seconds = max(int(seconds), 1)

    def apply():
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))
    return apply


def measure_setup(qs, env):
    """Median wall time of a fresh interpreter that imports the CLI and builds
    the workload's fields, each scaled like an invocation by yardsticks taken
    here just before and after it. One unmeasured start first compiles the
    sources."""
    code = ("import codezeta.cli\nfrom codezeta.gf import field_new\n"
            f"for q in {tuple(qs)}:\n    field_new(q)\n")
    argv = [sys.executable, "-c", code]
    times = []
    before = yardstick()
    for _ in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, preexec_fn=_cpu_limit(30))
        elapsed = perf_counter() - start
        after = yardstick()
        times.append(elapsed * 2 * YARDSTICK_NOMINAL_S / (before + after))
        before = after
    times = times[1:]
    return statistics.median(times)


def run_pass(invocations, workdir, trace, env, timeout):
    """Run one pass in a child interpreter; returns its result object, or
    None when the child failed or ran out of time."""
    if workdir.exists():
        shutil.rmtree(workdir)
    specs = write_pass_files(invocations, workdir)
    manifest = workdir / "manifest.json"
    result = workdir / "result.json"
    manifest.write_text(json.dumps({"invocations": specs, "trace": trace}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "pass_child.py"), str(manifest), str(result)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, preexec_fn=_cpu_limit(timeout),
    )
    if proc.returncode != 0 or not result.exists():
        print(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(result) as fh:
        return json.load(fh)


class Run:
    """Accumulates the passes of one run and the correctness verdicts."""

    def __init__(self, name, seed, expected, pool, env, deadline):
        self.name, self.seed = name, seed
        self.expected, self.pool, self.env = expected, pool, env
        self.deadline = deadline
        self.workdir = OUT_DIR / f"run-{name}-{seed}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.failures = []
        self.pass_walls = []
        self.count = 0

    def one_pass(self, trace):
        invocations = build_pass(self.name, self.seed, self.count, self.pool)
        self.count += 1
        start = perf_counter()
        data = run_pass(invocations, self.workdir, trace, self.env,
                        self.deadline - start)
        self.pass_walls.append(perf_counter() - start)
        self.attempted += len(invocations)
        if data is None:
            self.failed += len(invocations)
            self.failures.append("a pass did not complete")
            return None
        for inv, res in zip(invocations, data["results"]):
            reason = check(inv.argv, res["exit"], res["raised"], res["stdout"],
                           self.expected[inv.ref_key])
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{inv.ref_key}: {reason}")
        return data

    def more(self, seconds, started):
        """Whether another pass fits in the measured time (at least one runs)."""
        now = perf_counter()
        if not self.pass_walls:
            return True
        typical = statistics.median(self.pass_walls)
        return now - started + typical <= seconds and now + typical < self.deadline

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def durations(data):
    return [r["end"] - r["start"] for r in data["results"]]


def speed_factors(data):
    """YARDSTICK_NOMINAL_S over the mean of the yardsticks taken just before
    and just after each invocation."""
    marks = data["yardsticks"]
    out = []
    j = 0
    for r in data["results"]:
        while j + 1 < len(marks) and marks[j + 1][0] <= r["start"]:
            j += 1
        after = marks[j + 1][1] if j + 1 < len(marks) else marks[j][1]
        out.append(2 * YARDSTICK_NOMINAL_S / (marks[j][1] + after))
    return out


def scaled_durations(data):
    return [d * f for d, f in zip(durations(data), speed_factors(data))]


def end_to_end(run, seconds, setup_s):
    started = perf_counter()
    passes = []
    while run.more(seconds, started):
        data = run.one_pass(trace=False)
        if data is not None:
            passes.append(data)
    if not passes:
        return {}, []
    samples = sorted(d for p in passes for d in scaled_durations(p))
    rates = [len(p["results"]) / sum(scaled_durations(p)) for p in passes]
    raw = sorted(d for p in passes for d in durations(p))
    n = len(samples)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    notes = [
        f"passes: {len(passes)}, invocations timed: {n}",
        f"cmd_tail_s is p{100 * (tail_index + 1) / n:.1f} of {n} samples "
        f"({n - tail_index - 1} above it)",
        "unscaled: cmds_per_s {:.6g}, cmd_p50_s {:.6g}, cmd_tail_s {:.6g}; "
        "median speed factor {:.4f}".format(
            statistics.median(len(p["results"]) / sum(durations(p)) for p in passes),
            statistics.median(raw), raw[tail_index],
            statistics.median(f for p in passes for f in speed_factors(p))),
    ]
    metrics = {
        "cmds_per_s": (statistics.median(rates), "1/s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_tail_s": (samples[tail_index], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, notes


def per_layer(run, seconds):
    from spans import TIME_LAYERS, layer_metrics, unit_of

    started = perf_counter()
    walls = {False: 0.0, True: 0.0}
    traced = []
    traced_wall = 0.0  # scaled like the spans, by the pass's median factor
    while run.more(seconds, started):
        for trace in (False, True):
            data = run.one_pass(trace=trace)
            if data is None:
                continue
            walls[trace] += sum(scaled_durations(data))
            if trace:
                factor = statistics.median(speed_factors(data))
                traced.append((data["spans"], factor))
                traced_wall += factor * sum(durations(data))
    if not traced or not walls[False]:
        return {}, []
    metrics = layer_metrics(traced)
    layer_sum = sum(metrics[name] for name in TIME_LAYERS)
    wall = traced_wall / len(traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.self_sum_frac"] = layer_sum / wall
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1
    out = OUT_DIR / f"spans-{run.name}-seed{run.seed}.json"
    for spans, _ in traced:
        for s in spans:
            if s[6] is not None and len(s[6]) >= 4:
                s[6] = s[6][:3] + s[6][4:]  # drop the generator matrix
    out.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                          "invocation", "busy", "info"],
                               "passes": [spans for spans, _ in traced]}))
    result = {name: (value, unit_of(name)) for name, value in metrics.items()}
    return result, [f"traced passes: {len(traced)}, spans written to {out}"]


def main():
    parser = argparse.ArgumentParser(description="codezeta benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "codezeta" / "cli.py").is_file():
        print(f"no codezeta sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    reference = load_reference()
    env = child_env()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, reference["expected"], reference["pool"],
              env, deadline)
    try:
        if args.trace:
            metrics, notes = per_layer(run, args.seconds)
        else:
            setup_s = measure_setup(workload_fields(args.workload), env)
            metrics, notes = end_to_end(run, args.seconds, setup_s)
    finally:
        run.cleanup()
    if not metrics:
        print("no pass completed", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    fail_frac = run.failed / run.attempted
    print(f"fail_frac: {fail_frac:.6f} ({run.failed} of {run.attempted} invocations)")
    for reason in run.failures[:20]:
        print(f"failed: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
