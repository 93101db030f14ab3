#!/usr/bin/env python3
"""Runs alternating parent/change perfbench pairs and writes the ledger.

    python3 tools/bench_pairs.py --parent REV --change REV --work DIR
        [--workloads loop_steer,loop_serve,trace_replay] [--pairs 10]
        [--seconds 30] [--first-seed 1] [--ledger BENCH_<pr>.json]
    python3 tools/bench_pairs.py --self-test

REV is anything `git rev-parse` accepts. For uncommitted work, stage it and
pass `$(git stash create)`: a commit of the index and working tree that
leaves both untouched.

Each revision is exported with `git archive` into DIR/<commit>/ once; a
tree already there is reused together with whatever its benchmark built in
it (perfbench/run.py builds into the checkout it runs from). Before the
pairs, each tree runs every workload once for WARMUP_SECONDS, so that
builds and agent training land outside the timed runs.

Pair i of a workload runs seed first_seed + i on both sides, the parent
first when i is even and the change first when i is odd, so a host that
drifts over time favours neither side. The last two stdout lines of each
run (perfbench's fingerprint and result lines) are appended to
DIR/<workload>.parent.jsonl and DIR/<workload>.change.jsonl, which are
emptied first; then tools/bench_diff.py prints the comparison and, with
--ledger, records it.

--self-test builds a scratch git repository with two revisions of a stub
benchmark (its runs print fixed fingerprint and result lines and log their
order), runs three pairs of it, and checks the run order, the result files
and the ledger. Exit status: 0 = done (or self-test passed), 1 = a run or
the self-test failed, 2 = bad arguments or git failure.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIFF = ROOT / "tools" / "bench_diff.py"
COMMAND = "python3 perfbench/run.py"
WARMUP_SECONDS = 2.0
SIDES = ("parent", "change")


def git(repo: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          **kwargs)


def export_tree(repo: Path, rev: str, work: Path) -> Path:
    """DIR/<commit>/ holding `rev`'s files, exported once."""
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}",
                 capture_output=True, text=True).stdout.strip()
    tree = work / commit
    marker = tree / ".bench_pairs_exported"
    if marker.exists():
        return tree
    tree.mkdir(parents=True, exist_ok=True)
    archive = git(repo, "archive", "--format=tar", commit,
                  capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    marker.write_text(commit + "\n")
    return tree


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> list[str]:
    """The last two stdout lines of one benchmark run in `tree`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{shlex.join(argv)} in {tree} exited "
                           f"{done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{shlex.join(argv)} in {tree} printed "
                           f"{len(lines)} line(s), expected fingerprint "
                           "and result")
    return lines[-2:]


def run_pairs(args: argparse.Namespace) -> int:
    repo = args.repo.resolve()
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    command = shlex.split(args.command)
    trees = {side: export_tree(repo, rev, work)
             for side, rev in zip(SIDES, (args.parent, args.change))}
    workloads = [w for w in args.workloads.split(",") if w]
    for workload in workloads:
        for side in SIDES:
            print(f"bench_pairs: warm-up {workload} on {side}",
                  file=sys.stderr)
            run_once(trees[side], command, workload, args.first_seed,
                     args.warmup_seconds)
    status = 0
    for workload in workloads:
        files = {side: work / f"{workload}.{side}.jsonl" for side in SIDES}
        for path in files.values():
            path.write_text("")
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"bench_pairs: {workload} pair {i + 1}/{args.pairs} "
                      f"seed {seed} {side}", file=sys.stderr)
                lines = run_once(trees[side], command, workload, seed,
                                 args.seconds)
                with files[side].open("a") as out:
                    out.write("\n".join(lines) + "\n")
        diff = [sys.executable, str(BENCH_DIFF), str(files["parent"]),
                str(files["change"])]
        if args.ledger is not None:
            diff += ["--ledger", str(args.ledger.resolve())]
        status = max(status, subprocess.run(diff).returncode)
    return 0 if status == 0 else 1


# ---- self-test --------------------------------------------------------------

STUB = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(Path(__file__).parent.parent / "order.log", "a") as log:
    log.write(f"{SIDE} {args['--workload']} {seed}\\n")
print("build noise")
print(json.dumps({"fingerprint": {"workload": args["--workload"],
                                  "seed": seed}}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"decisions_per_s": {
                      "value": RATE + seed, "unit": "1/s"}}}))
"""


def self_test() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory() as scratch:
        scratch_dir = Path(scratch)
        repo = scratch_dir / "repo"
        repo.mkdir()
        quiet = {"stdout": subprocess.DEVNULL}
        git(repo, "init", "-q")
        revs = []
        for side, rate in (("parent", 100), ("change", 150)):
            (repo / "stub.py").write_text(
                STUB.replace("SIDE", repr(side)).replace("RATE", str(rate)))
            git(repo, "add", "stub.py")
            git(repo, "-c", "user.name=bench",
                "-c", "user.email=bench@localhost",
                "commit", "-q", "-m", side, **quiet)
            revs.append(git(repo, "rev-parse", "HEAD", capture_output=True,
                            text=True).stdout.strip())
        work = scratch_dir / "work"
        ledger = scratch_dir / "BENCH_0.json"
        args = argparse.Namespace(
            repo=repo, work=work, parent=revs[0], change=revs[1],
            workloads="loop_steer", pairs=3, seconds=1.0, first_seed=7,
            warmup_seconds=0.5, ledger=ledger,
            command=f"{sys.executable} stub.py")
        check(run_pairs(args) == 0, "run_pairs exit status")
        order = (work / "order.log").read_text().split("\n")[:-1]
        # Warm-ups (parent, then change), then pairs that alternate.
        check(order == ["parent loop_steer 7", "change loop_steer 7",
                        "parent loop_steer 7", "change loop_steer 7",
                        "change loop_steer 8", "parent loop_steer 8",
                        "parent loop_steer 9", "change loop_steer 9"],
              f"run order {order}")
        for side, rate in (("parent", 100), ("change", 150)):
            lines = (work / f"loop_steer.{side}.jsonl").read_text().split(
                "\n")[:-1]
            values = [json.loads(line)["metrics"]["decisions_per_s"]["value"]
                      for line in lines[1::2]]
            check(values == [rate + 7, rate + 8, rate + 9],
                  f"{side} results {values}")
        entry = json.loads(ledger.read_text())["workloads"]["loop_steer"]
        metric = entry["metrics"]["decisions_per_s"]
        check(entry["pairs"] == 3, f"ledger pairs {entry['pairs']}")
        check(entry["parent"]["seeds"] == [7, 8, 9],
              f"ledger seeds {entry['parent']['seeds']}")
        check(metric["wins"] == "3/3", f"ledger wins {metric}")
        # A second run reuses both exported trees.
        args.pairs = 1
        check(run_pairs(args) == 0, "rerun exit status")
        check(len(list(work.glob("*/.bench_pairs_exported"))) == 2,
              "exported trees are reused")
    for failure in failures:
        print(f"bench_pairs self-test: {failure}")
    if not failures:
        print("bench_pairs self-test: ok")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV")
    parser.add_argument("--change", metavar="REV")
    parser.add_argument("--work", type=Path, metavar="DIR")
    parser.add_argument("--workloads",
                        default="loop_steer,loop_serve,trace_replay")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--ledger", type=Path, metavar="OUT.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None or args.work is None:
        parser.error("--parent, --change and --work are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.repo = ROOT
    args.command = COMMAND
    args.warmup_seconds = WARMUP_SECONDS
    try:
        return run_pairs(args)
    except subprocess.CalledProcessError as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
