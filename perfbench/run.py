#!/usr/bin/env python3
"""Build comptest from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

The first form runs one workload and ends its standard output with one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer ones with `--trace 1`). The traced
run also writes `perfbench/out/<workload>-seed<n>.trace.json` (Chrome trace
events) and `.layers.txt` (per-layer self time). The second form runs every
workload untraced and traced and prints every metric by name and unit.

The build uses `CARGO_TARGET_DIR` (default `.bench_build` in the checkout).
Both the benchmark and the `comptest` binary (the remote workers) are built
in release mode before anything is timed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(env):
    """Builds the worker binary and the benchmark; returns the bench binary path."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "comptest"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "comptest")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(bench, worker, env, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout, parsed result) or exits on failure."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--comptest", worker,
           "--out", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: {workload} printed no result (exit {done.returncode})")
    want = expected_metrics(trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"perfbench: {workload} metrics {got} do not match BENCHMARK.json {want}")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)
    return done.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(
        os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build")))
    bench, worker = build(env)

    if args.workload != "all":
        out, _ = run_one(bench, worker, env, args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    correct, attempted, failed = True, 0, 0
    for workload in workloads:
        for trace in (0, 1):
            out, result = run_one(bench, worker, env, workload, args.seed, args.seconds, trace)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"== {workload} (trace {trace})")
            sys.stdout.write("".join(line + "\n" for line in out.split("\n")[:-2]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))


if __name__ == "__main__":
    main()
