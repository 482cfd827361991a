"""Repeat the benchmark over several seeds and summarise each metric.

Usage (from the repository root):
    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1 2 3 ...]
                                [--seconds S] [--trace 0|1] [--out FILE]

For each workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, which is the
distance between the quartiles as a share of the median. `--out` also writes
the summary and every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench_config():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def summarise(results):
    names = results[0]["metrics"]
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main():
    config = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary and raw results here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    report = {}
    for workload in workloads:
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            status = "ok" if res["correct"] else f"{res['failed']} failed"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)
        summary = summarise(results)
        report[workload] = {
            "summary": summary,
            "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: m["value"] for k, m in r["metrics"].items()}}
                     for seed, r in zip(args.seeds, results)],
        }
        print(f"== {workload} ({len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed invocations)")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag = f"  spread >= bound/3 ({bound / 3:.3f})"
            print(f"  {name:36s} {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        out = {"environment": environment(), "seconds": args.seconds,
               "trace": args.trace, "workloads": report}
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
