#!/usr/bin/env python3
"""Build and run the malleus benchmark.

    python3 perfbench/run.py --workload <cold-plan|replan-direct|tenants-socket|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) with a path dependency on the repository's facade
crate, built in release mode into $CARGO_TARGET_DIR (default: .bench_build).
Each workload runs in a process of its own, so set-up time and peak memory
belong to that workload alone.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  `--workload all` runs the three
workloads one after another and merges their results, with each metric
prefixed by its workload.  BENCHMARK.json lists cold-plan and replan-direct;
see README.md for why tenants-socket is run only by hand.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["cold-plan", "replan-direct", "tenants-socket"]
HERE = os.path.dirname(os.path.abspath(__file__))


def run_child(cmd, **kwargs):
    """Run one child process to its end.  If this script is told to stop,
    the child is stopped first and waited for, so no process outlives it."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return child.returncode, out


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    return code == 0


def run_one(binary, root, args, workload, target_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(target_dir, "spans", f"{workload}-seed{args.seed}.jsonl")]
    code, out = run_child(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: the repository sources are missing next to perfbench/", file=sys.stderr)
        return 1
    target_dir = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not build(root, target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")

    if args.workload != "all":
        return 0 if run_one(binary, root, args, args.workload, target_dir) else 1

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, root, args, workload, target_dir)
        if result is None:
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
