#!/usr/bin/env python3
"""Build and run the structura benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, release, offline) into
$CARGO_TARGET_DIR (default .bench_build), then runs each workload in a
process of its own. With one workload, the last line of stdout is that
workload's result object. With `all`, every workload runs in turn, each
result line is printed, and the exit code is non-zero if any failed.

Each run leaves a record (and, traced, its spans) under perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-zipf", "track-city", "track-sparse"]
# A run must end within 180 s; the child gets a little less.
RUN_TIMEOUT_S = 175


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "structura-perfbench")


def run_one(binary, env, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PERFBENCH_REV"] = tool_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "-V"])
    print(f"perfbench: nproc {os.cpu_count()}, rev {env['PERFBENCH_REV']}, "
          f"{env['PERFBENCH_RUSTC']}", file=sys.stderr)

    binary = build(env)
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code, result = run_one(binary, env, workload, args)
        if result is not None:
            print(result if len(workloads) == 1 else f"{workload}: {result}", flush=True)
        if code != 0 or result is None:
            print(f"perfbench: {workload} failed (exit {code})", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
