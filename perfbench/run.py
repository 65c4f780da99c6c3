#!/usr/bin/env python3
"""Build and run one benchmark workload of the PageRankVM workspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload in its own process, checks that the result line carries exactly
the metrics BENCHMARK.json names, and relays the binary's output: its last
stdout line is the result object. Exits non-zero, without a result line,
when the build or the run fails; exits 1 after the result line when an
output check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"[run.py] {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}", 3)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number of at least 1")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    binary = (ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench").resolve()
    cmd = [
        str(binary), args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"workload run failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout)
        fail(f"workload exited with code {done.returncode} and no result")
    try:
        validate(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(done.stdout)
        fail(f"malformed result line: {e}")
    print("\n".join(lines), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
