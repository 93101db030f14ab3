#!/usr/bin/env python3
"""Compares perfbench result lines of a parent and a change.

    python3 tools/bench_diff.py PARENT CHANGE [--benchmark BENCHMARK.json]
                                [--ledger OUT.json]
    python3 tools/bench_diff.py --trajectory BENCH_*.json
    python3 tools/bench_diff.py --self-test tests/bench_diff_fixtures

PARENT and CHANGE each hold perfbench result lines, one run per line: the
final JSON line `perfbench/run.py` prints, {"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}. The {"fingerprint": ...}
line perfbench prints just before it may precede each result line; it
names the workload and the seed of that run. Result line i of PARENT and
result line i of CHANGE form pair i, so alternate the runs, e.g.

    for seed in 201 202 203; do
      (cd parent && python3 perfbench/run.py --workload loop_serve \\
          --seed $seed --seconds 10 --trace 0 | tail -n 2) >> parent.jsonl
      (cd change && python3 perfbench/run.py --workload loop_serve \\
          --seed $seed --seconds 10 --trace 0 | tail -n 2) >> change.jsonl
    done

For every metric both files carry, it prints each side's median and
interquartile range [Q1, Q3] (linear interpolation between ranks), the
change/parent ratio of the medians with the parent median as its base, and
how many pairs the change won. A metric is flagged as moved only when each
side's median lies outside the other side's IQR; the move is labelled
better or worse from the metric's `better` field in BENCHMARK.json (read
only), or just "moved" when the file does not name the metric.

--ledger OUT.json also records the comparison as a ledger entry: for each
metric, each side's median and [Q1, Q3], the ratio with its base, the pair
wins and the flag, plus each side's run counts, seeds and fingerprint (the
fingerprint line without its seed). The entry is keyed by the workload the
fingerprints name; an existing OUT.json keeps its other workloads, so one
file collects every workload of a change (e.g. BENCH_17.json).

--trajectory LEDGER... reads ledgers written by --ledger and prints one
line per workload and PR (the number in the file name, BENCH_<pr>.json):
the change/parent ratio of the decisions_per_s medians, the pair wins,
and the running product of the ratios over that workload's PRs so far.
Each ledger compares a change with its own parent, so only the ratios
chain; the absolute medians of different ledgers do not.

--self-test DIR runs DIR/parent.jsonl against DIR/change.jsonl with
DIR/benchmark.json and compares the report with DIR/expected.txt and the
ledger with DIR/expected_ledger.json; it also runs --trajectory over
DIR/BENCH_*.json and compares that with DIR/expected_trajectory.txt.

Exit status: 0 = report printed (or self-test passed), 1 = self-test
mismatch, 2 = unreadable input.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER_FORMAT = "explora.bench_ledger.v1"


def load_runs(path: Path) -> list[dict]:
    """Result lines in file order; a fingerprint line is attached to the
    result line that follows it, as run["fingerprint"]."""
    runs = []
    fingerprint = None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{number}: not JSON: {err}") from err
        if isinstance(run, dict) and isinstance(run.get("fingerprint"), dict):
            fingerprint = run["fingerprint"]
            continue
        if not isinstance(run, dict) or "metrics" not in run:
            raise ValueError(f"{path}:{number}: not a perfbench result line")
        if fingerprint is not None:
            run["fingerprint"] = fingerprint
            fingerprint = None
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


def counts(runs: list[dict]) -> dict:
    return {"runs": len(runs),
            "correct": sum(1 for r in runs if r.get("correct") is True),
            "attempted": sum(int(r.get("attempted", 0)) for r in runs),
            "failed": sum(int(r.get("failed", 0)) for r in runs)}


def summary(label: str, runs: list[dict]) -> str:
    c = counts(runs)
    return (f"{label}: {c['runs']} runs, {c['correct']} correct, "
            f"{c['failed']} of {c['attempted']} operations failed")


def compare(parent: list[dict], change: list[dict],
            directions: dict[str, str]) -> list[dict]:
    """One record per metric both files carry, in the parent's order."""
    in_parent = dict.fromkeys(n for r in parent for n in r["metrics"])
    names = [n for n in in_parent if any(n in r["metrics"] for r in change)]
    records = []
    for name in names:
        p = [v for v in (value_of(r, name) for r in parent) if v is not None]
        c = [v for v in (value_of(r, name) for r in change) if v is not None]
        unit = next(r["metrics"][name].get("unit", "")
                    for r in parent if name in r["metrics"])
        p_med, p_q1, p_q3 = (quantile(p, q) for q in (0.5, 0.25, 0.75))
        c_med, c_q1, c_q3 = (quantile(c, q) for q in (0.5, 0.25, 0.75))
        better = directions.get(name)
        wins = None
        if better in ("higher", "lower"):
            sign = 1.0 if better == "higher" else -1.0
            paired = [(value_of(a, name), value_of(b, name))
                      for a, b in zip(parent, change)]
            paired = [(a, b) for a, b in paired
                      if a is not None and b is not None]
            won = sum(1 for a, b in paired if sign * (b - a) > 0)
            wins = f"{won}/{len(paired)}"
        moved = (not p_q1 <= c_med <= p_q3) and (not c_q1 <= p_med <= c_q3)
        if not moved:
            flag = ""
        elif better == "higher":
            flag = "better" if c_med > p_med else "worse"
        elif better == "lower":
            flag = "better" if c_med < p_med else "worse"
        else:
            flag = "moved"
        records.append({
            "name": name, "unit": unit,
            "parent": {"median": p_med, "iqr": [p_q1, p_q3]},
            "change": {"median": c_med, "iqr": [c_q1, c_q3]},
            "ratio": None if p_med == 0 else c_med / p_med, "base": p_med,
            "wins": wins, "flag": flag})
    return records


def report(parent: list[dict], change: list[dict],
           directions: dict[str, str]) -> str:
    pairs = min(len(parent), len(change))
    lines = [summary("parent", parent), summary("change", change),
             f"pairs: {pairs} (line i of each file)", ""]
    header = ("metric", "unit", "parent median [Q1, Q3]",
              "change median [Q1, Q3]", "change/parent (base)", "wins",
              "move")
    rows = [header]
    for m in compare(parent, change, directions):
        side = {k: (f"{fmt(m[k]['median'])} [{fmt(m[k]['iqr'][0])}, "
                    f"{fmt(m[k]['iqr'][1])}]") for k in ("parent", "change")}
        ratio = ("-" if m["ratio"] is None
                 else f"{m['ratio']:.3f} ({fmt(m['base'])})")
        rows.append((m["name"], m["unit"], side["parent"], side["change"],
                     ratio, m["wins"] or "-", m["flag"]))
    return "\n".join(lines + table(rows)) + "\n"


def side_entry(runs: list[dict]) -> dict:
    """Run counts, seeds and the seedless fingerprint of one side."""
    prints = [r.get("fingerprint") for r in runs]
    seeds = [None if f is None else f.get("seed") for f in prints]
    seedless = [None if f is None else
                {k: v for k, v in f.items() if k != "seed"} for f in prints]
    if any(f != seedless[0] for f in seedless):
        raise ValueError("runs of one side carry different fingerprints")
    return {**counts(runs), "seeds": seeds, "fingerprint": seedless[0]}


def ledger_entry(parent: list[dict], change: list[dict],
                 directions: dict[str, str]) -> tuple[str, dict]:
    """(workload, entry) for the ledger file."""
    sides = {"parent": side_entry(parent), "change": side_entry(change)}
    workloads = {(s["fingerprint"] or {}).get("workload")
                 for s in sides.values()}
    if len(workloads) != 1:
        raise ValueError(f"parent and change name different workloads: "
                         f"{sorted(map(str, workloads))}")
    workload = workloads.pop() or "unknown"
    metrics = {}
    for m in compare(parent, change, directions):
        name = m.pop("name")
        metrics[name] = m
    return workload, {"pairs": min(len(parent), len(change)), **sides,
                      "metrics": metrics}


def ledger_text(ledger: dict) -> str:
    """Indented JSON with every list of numbers kept on one line."""
    text = json.dumps(ledger, indent=1)
    return re.sub(r"\[\s+([-+.,\w\s]*?)\s+\]",
                  lambda m: "[" + ", ".join(
                      v.strip() for v in m.group(1).split(",")) + "]",
                  text) + "\n"


def write_ledger(path: Path, workload: str, entry: dict) -> None:
    ledger = ({"format": LEDGER_FORMAT, "workloads": {}}
              if not path.exists() else read_ledger(path))
    ledger["workloads"][workload] = entry
    path.write_text(ledger_text(ledger))


def read_ledger(path: Path) -> dict:
    ledger = json.loads(path.read_text())
    if ledger.get("format") != LEDGER_FORMAT:
        raise ValueError(f"{path}: not a {LEDGER_FORMAT} file")
    return ledger


def pr_number(path: Path) -> int:
    match = re.search(r"(\d+)$", path.stem)
    if match is None:
        raise ValueError(f"{path}: no PR number in the file name")
    return int(match.group(1))


def table(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns, two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def trajectory(paths: list[Path]) -> str:
    """One line per workload and PR: ratio, wins and running product."""
    metric = "decisions_per_s"
    by_workload: dict[str, list[tuple[int, dict]]] = {}
    for path in sorted(paths, key=pr_number):
        for workload, entry in read_ledger(path)["workloads"].items():
            if metric in entry["metrics"]:
                by_workload.setdefault(workload, []).append(
                    (pr_number(path), entry["metrics"][metric]))
    rows = [("workload", "pr", f"{metric} change/parent", "wins",
             "running product")]
    for workload in sorted(by_workload):
        product = 1.0
        for pr, m in by_workload[workload]:
            ratio = m.get("ratio")
            if ratio is not None:
                product *= ratio
            rows.append((workload, str(pr),
                         "-" if ratio is None else f"{ratio:.3f}",
                         m.get("wins") or "-", f"{product:.3f}"))
    return "\n".join(table(rows)) + "\n"


def self_test(fixtures: Path) -> int:
    parent = load_runs(fixtures / "parent.jsonl")
    change = load_runs(fixtures / "change.jsonl")
    directions = load_directions(fixtures / "benchmark.json")
    workload, entry = ledger_entry(parent, change, directions)
    checks = (
        ("expected.txt", report(parent, change, directions)),
        ("expected_ledger.json",
         ledger_text({"format": LEDGER_FORMAT,
                      "workloads": {workload: entry}})),
        ("expected_trajectory.txt",
         trajectory(list(fixtures.glob("BENCH_*.json")))),
    )
    failed = 0
    for name, got in checks:
        want = (fixtures / name).read_text()
        if got == want:
            continue
        failed = 1
        print(f"bench_diff self-test: output differs from {name}")
        print("--- got ---")
        print(got, end="")
        print("--- expected ---")
        print(want, end="")
    if not failed:
        print("bench_diff self-test: ok")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    parser.add_argument("--ledger", type=Path, metavar="OUT.json")
    parser.add_argument("--trajectory", nargs="+", type=Path,
                        metavar="LEDGER")
    parser.add_argument("--self-test", type=Path, metavar="DIR")
    args = parser.parse_args()
    try:
        if args.self_test is not None:
            return self_test(args.self_test)
        if args.trajectory is not None:
            print(trajectory(args.trajectory), end="")
            return 0
        if args.parent is None or args.change is None:
            parser.error("PARENT and CHANGE are required")
        parent, change = load_runs(args.parent), load_runs(args.change)
        directions = load_directions(args.benchmark)
        print(report(parent, change, directions), end="")
        if args.ledger is not None:
            write_ledger(args.ledger,
                         *ledger_entry(parent, change, directions))
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
