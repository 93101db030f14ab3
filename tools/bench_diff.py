#!/usr/bin/env python3
"""Compares perfbench result lines of a parent and a change.

    python3 tools/bench_diff.py PARENT CHANGE [--benchmark BENCHMARK.json]
    python3 tools/bench_diff.py --self-test tests/bench_diff_fixtures

PARENT and CHANGE each hold perfbench result lines, one run per line: the
final JSON line `perfbench/run.py` prints, {"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}. Line i of PARENT and line
i of CHANGE form pair i, so alternate the runs, e.g.

    for seed in 201 202 203; do
      (cd parent && python3 perfbench/run.py --workload loop_serve \\
          --seed $seed --seconds 10 --trace 0 | tail -n 1) >> parent.jsonl
      (cd change && python3 perfbench/run.py --workload loop_serve \\
          --seed $seed --seconds 10 --trace 0 | tail -n 1) >> change.jsonl
    done

For every metric both files carry, it prints each side's median and
interquartile range [Q1, Q3] (linear interpolation between ranks), the
change/parent ratio of the medians with the parent median as its base, and
how many pairs the change won. A metric is flagged as moved only when each
side's median lies outside the other side's IQR; the move is labelled
better or worse from the metric's `better` field in BENCHMARK.json (read
only), or just "moved" when the file does not name the metric.

--self-test DIR runs DIR/parent.jsonl against DIR/change.jsonl with
DIR/benchmark.json and compares the report with DIR/expected.txt.

Exit status: 0 = report printed (or self-test passed), 1 = self-test
mismatch, 2 = unreadable input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> list[dict]:
    runs = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{number}: not JSON: {err}") from err
        if not isinstance(run, dict) or "metrics" not in run:
            raise ValueError(f"{path}:{number}: not a perfbench result line")
        runs.append(run)
    if not runs:
        raise ValueError(f"{path}: no result lines")
    return runs


def load_directions(path: Path) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"]
            for section in ("end_to_end", "per_layer")
            for m in spec.get(section, [])}


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fmt(value: float) -> str:
    return f"{value:.4g}"


def value_of(run: dict, name: str) -> float | None:
    metric = run["metrics"].get(name)
    return None if metric is None else float(metric["value"])


def summary(label: str, runs: list[dict]) -> str:
    correct = sum(1 for r in runs if r.get("correct") is True)
    attempted = sum(int(r.get("attempted", 0)) for r in runs)
    failed = sum(int(r.get("failed", 0)) for r in runs)
    return (f"{label}: {len(runs)} runs, {correct} correct, "
            f"{failed} of {attempted} operations failed")


def report(parent: list[dict], change: list[dict],
           directions: dict[str, str]) -> str:
    in_parent = dict.fromkeys(n for r in parent for n in r["metrics"])
    names = [n for n in in_parent if any(n in r["metrics"] for r in change)]
    pairs = min(len(parent), len(change))
    lines = [summary("parent", parent), summary("change", change),
             f"pairs: {pairs} (line i of each file)", ""]
    header = ("metric", "unit", "parent median [Q1, Q3]",
              "change median [Q1, Q3]", "change/parent (base)", "wins",
              "move")
    rows = [header]
    for name in names:
        p = [v for v in (value_of(r, name) for r in parent) if v is not None]
        c = [v for v in (value_of(r, name) for r in change) if v is not None]
        unit = next(r["metrics"][name].get("unit", "")
                    for r in parent if name in r["metrics"])
        p_med, p_q1, p_q3 = (quantile(p, q) for q in (0.5, 0.25, 0.75))
        c_med, c_q1, c_q3 = (quantile(c, q) for q in (0.5, 0.25, 0.75))
        ratio = "-" if p_med == 0 else f"{c_med / p_med:.3f} ({fmt(p_med)})"
        better = directions.get(name)
        if better in ("higher", "lower"):
            sign = 1.0 if better == "higher" else -1.0
            paired = [(value_of(a, name), value_of(b, name))
                      for a, b in zip(parent, change)]
            paired = [(a, b) for a, b in paired
                      if a is not None and b is not None]
            won = sum(1 for a, b in paired if sign * (b - a) > 0)
            wins = f"{won}/{len(paired)}"
        else:
            wins = "-"
        moved = (not p_q1 <= c_med <= p_q3) and (not c_q1 <= p_med <= c_q3)
        if not moved:
            move = ""
        elif better == "higher":
            move = "better" if c_med > p_med else "worse"
        elif better == "lower":
            move = "better" if c_med < p_med else "worse"
        else:
            move = "moved"
        rows.append((name, unit,
                     f"{fmt(p_med)} [{fmt(p_q1)}, {fmt(p_q3)}]",
                     f"{fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}]",
                     ratio, wins, move))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def self_test(fixtures: Path) -> int:
    got = report(load_runs(fixtures / "parent.jsonl"),
                 load_runs(fixtures / "change.jsonl"),
                 load_directions(fixtures / "benchmark.json"))
    want = (fixtures / "expected.txt").read_text()
    if got == want:
        print("bench_diff self-test: ok")
        return 0
    print("bench_diff self-test: report differs from expected.txt")
    print("--- got ---")
    print(got, end="")
    print("--- expected ---")
    print(want, end="")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    parser.add_argument("--self-test", type=Path, metavar="DIR")
    args = parser.parse_args()
    try:
        if args.self_test is not None:
            return self_test(args.self_test)
        if args.parent is None or args.change is None:
            parser.error("PARENT and CHANGE are required")
        print(report(load_runs(args.parent), load_runs(args.change),
                     load_directions(args.benchmark)), end="")
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
