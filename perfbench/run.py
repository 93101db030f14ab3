#!/usr/bin/env python3
"""Builds and runs the closed-loop benchmark.

    python3 perfbench/run.py --workload loop_steer --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
explora libraries and the benchmark under $CARGO_TARGET_DIR (default
.bench_build), and trains the agent into an artifact directory keyed by the
benchmark binary's hash, so weights always come from the code under test.
The last line of stdout is the benchmark's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build


def build_root() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def sh(cmd, **kwargs):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kwargs)


def build(out: Path) -> Path:
    lib_dir = out / "explora"
    bench_dir = out / "perfbench"
    flags = [f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if not (lib_dir / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(ROOT), "-B", str(lib_dir), "-G", "Ninja",
            *flags])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    sh(["cmake", "--build", str(lib_dir), "--target", "explora_harness",
        "-j", jobs])
    if not (bench_dir / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(HERE), "-B", str(bench_dir), "-G", "Ninja",
            *flags, f"-DEXPLORA_SOURCE_DIR={ROOT}",
            f"-DEXPLORA_BUILD_DIR={lib_dir}"])
    sh(["cmake", "--build", str(bench_dir), "-j", jobs])
    return bench_dir / "perfbench"


def artifact_dir(out: Path, binary: Path) -> Path:
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    return out / "artifacts" / digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["loop_steer", "loop_serve", "trace_replay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_root()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    artifacts = artifact_dir(out, binary)
    env["EXPLORA_ARTIFACTS"] = str(artifacts)
    # One process on one thread generates the load (see README.md,
    # "Threads").
    env["EXPLORA_THREADS"] = "1"
    if not (artifacts / "trained").exists():
        artifacts.mkdir(parents=True, exist_ok=True)
        subprocess.run([str(binary), "--train"], env=env, check=True,
                       stdout=sys.stderr, timeout=600)
        (artifacts / "trained").touch()

    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans-dir", str(spans)]
    # Set-ups and synthesis slices fall outside the measuring window, so
    # the limit grows with it.
    try:
        result = subprocess.run(cmd, env=env, cwd=ROOT,
                                timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
