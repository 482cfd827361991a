"""Build `reference.json`: the base-code pools and the reference values.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/make_reference.py [--label TEXT]

Run this only at a commit whose results are trusted; the benchmark compares
every later commit against what it records. For every base code (and every
extremal parameter set, plain and with `--ultraspherical`) it stores the exit
code and a digest of each section's exact values. As a self-check, each base
code is also run in one random equivalent presentation, which must give the
same digests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    POOL_SIZE, REFERENCE_PATH, WORKLOADS, code_text, encode_rows, make_field,
    present, section_digests, systematic_code,
)


def run_cli(argv):
    from codezeta import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def expected_for(argv, path, text):
    path.write_text(text)
    code, stdout = run_cli([str(path) if a is None else a for a in argv])
    return {"exit": code, "sections": section_digests(argv[1], stdout)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="provenance note to store")
    args = parser.parse_args()
    work = Path(".bench_build/perfbench/reference")
    work.mkdir(parents=True, exist_ok=True)
    path = str(work / "code.txt")
    pool, expected = {}, {}
    slots = {slot.key: slot for slots in WORKLOADS.values() for slot in slots}
    for key, slot in sorted(slots.items()):
        if slot.command == "extremal":
            for suffix, extra in (("", []), ("/ultra", ["--ultraspherical"])):
                argv = ["--json", "extremal", "--q", str(slot.q), "--c",
                        str(slot.c), "--n", str(slot.n)] + extra
                code, stdout = run_cli(argv)
                expected[key + suffix] = {
                    "exit": code, "sections": section_digests("extremal", stdout)}
            continue
        rng = random.Random(f"pool/{key}")
        field = make_field(slot.q)
        pool[key] = []
        for index in range(POOL_SIZE):
            rows = systematic_code(
                slot.q, slot.n, slot.k, rng,
                nondegenerate=slot.kind == "nondegenerate",
                zero_column=slot.kind == "zero_column",
            )
            pool[key].append(encode_rows(rows))
            argv = ["--json", slot.command, None]
            if slot.sample:
                argv += ["--sample", str(slot.sample), "--seed", str(index)]
            ref = expected_for(argv, Path(path), code_text(slot.q, rows))
            other = present(field, rows, rng, permute=not slot.sample)
            again = expected_for(argv, Path(path), code_text(slot.q, other))
            if again["sections"] != ref["sections"]:
                raise SystemExit(f"{key}#{index}: presentation changed the values")
            expected[f"{key}#{index}"] = ref
        print(key, [expected[f"{key}#{i}"]["exit"] for i in range(POOL_SIZE)],
              file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"label": args.label, "pool_size": POOL_SIZE, "pool": pool,
                   "expected": expected}, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
