#!/usr/bin/env python3
"""Builds and runs the end-to-end simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

The first form builds the `perfbench` binary (release, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`) and runs one workload in its
own process; the last line of standard output is the JSON result. The
second form runs every workload, each in a fresh process, and prints
every metric by name with its unit. Every metric printed is checked
against the lists in `BENCHMARK.json`. The exit code is non-zero when the
build fails, a correctness check fails or a workload overruns its time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["rubick-table4", "antman-backlog", "serve-refit"]
# A workload must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"error: building the benchmark failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def contract():
    """The (name, unit) pairs BENCHMARK.json promises per trace mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except FileNotFoundError:
        return None
    pairs = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
    return {0: pairs("end_to_end"), 1: pairs("per_layer")}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} overran {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def check_contract(result, promised):
    """Names every metric that BENCHMARK.json lists but the run did not
    print (or printed with another unit), and every extra one."""
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    missing = [p for p in promised if p not in got]
    extra = [g for g in got if g not in promised]
    problems = [f"missing {n} [{u}]" for n, u in missing]
    problems += [f"unlisted {n} [{u}]" for n, u in extra]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    promised = contract()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code, result = run_one(binary, workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code or 1
        if result["correct"] and promised is not None:
            problems = check_contract(result, promised[args.trace])
            if problems:
                print(f"error: {workload}: metrics differ from BENCHMARK.json: "
                      + "; ".join(problems), file=sys.stderr)
                code = code or 1
                result["correct"] = False
        if args.workload != "all":
            print(json.dumps(result))
            return code
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
