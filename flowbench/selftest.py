#!/usr/bin/env python3
"""Self-test of the flow benchmark.

Run from the repository root:

    python3 flowbench/selftest.py

Runs every workload named in BENCHMARK.json once at the smoke size, with
--trace 0 and with --trace 1, and checks that each result line is well
formed, reports no failed flow, and carries every end-to-end metric
(--trace 0) or every per-layer metric (--trace 1) of BENCHMARK.json with
its unit.  Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_result(line, expected):
    """Problems with one result line, given {metric: unit} expected."""
    problems = []
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys are {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed = {result['failed']!r}")
    metrics = result["metrics"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif set(m) != {"value", "unit"}:
            problems.append(f"metric {name} has keys {sorted(m)}")
        elif m["unit"] != unit:
            problems.append(f"metric {name} has unit {m['unit']}, not {unit}")
        elif not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} value is not a number")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit code {proc.returncode}",
                            proc.stderr.strip()[-2000:]]
            else:
                problems = check_result(lines[-1], expected[trace])
            tag = f"{workload['name']} --trace {trace}"
            if problems:
                failures += 1
                print(f"FAIL {tag}")
                for p in problems:
                    print(f"  {p}")
            else:
                print(f"ok   {tag}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
