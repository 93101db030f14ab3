#!/usr/bin/env python3
"""Short-mode test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json for one second, untraced and
traced, and checks that each run exits 0, passes its correctness gate and
prints exactly the metrics BENCHMARK.json lists for that mode, each with its
unit (end-to-end metrics must also be non-zero). Exits 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list, nonzero: bool) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"want {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value is not a number")
        elif nonzero and got["value"] == 0:
            problems.append(f"{m['name']}: reads 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            try:
                problems = check(run(workload, trace), expected, trace == 0)
            except (AssertionError, json.JSONDecodeError, IndexError,
                    subprocess.TimeoutExpired) as error:
                problems = [str(error)]
            status = "ok" if not problems else "FAIL"
            print(f"{label}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
