#!/usr/bin/env python3
"""Builds and runs the campaign benchmark (see README.md beside this file).

Run from the repository root:

    python3 perfbench/run.py --workload tiny_pool --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first form builds the library sources and the benchmark into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload; the last line of its output is the result JSON. `--workload all`
runs every workload in turn and fails if any of them does. --self-test runs
every workload at smoke size and checks the emitted metrics against
BENCHMARK.json and that one seed always gives one fingerprint.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
OUT = os.path.join(BUILD_ROOT, "perfbench-out")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("tiny_pool", "deep_fleet", "fabric_resume")


def build():
    """Configures once and builds; all tool output goes to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def commit():
    """The checked-out commit, or 'unknown' outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def run(args, capture=False):
    command = [EXE, *args, "--commit", commit(), "--out-dir", OUT]
    if capture:
        return subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
    return subprocess.run(command, cwd=ROOT)


def self_test():
    """Smoke-sized runs of every workload, checked against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        prints = set()
        for trace, attempt in (("0", 1), ("0", 2), ("1", 1)):
            done = run(["--workload", workload, "--seed", "7", "--seconds",
                        "0.5", "--trace", trace, "--smoke"], capture=True)
            what = f"{workload} --trace {trace} (run {attempt})"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{what}: exit {done.returncode}\n"
                                f"{done.stdout}{done.stderr}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{what}: correctness gate missed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{what}: metrics {units} != BENCHMARK.json "
                                f"{expected[trace]}")
            prints.update(line for line in lines
                          if line.startswith("fingerprint "))
        if len(prints) != 1:
            failures.append(f"{workload}: one seed gave {sorted(prints)}")
        print(f"self-test {workload}: done", flush=True)
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        return self_test()
    if "--workload" in args[:-1]:
        at = args.index("--workload") + 1
        if args[at] == "all":
            codes = [run(args[:at] + [workload] + args[at + 1:]).returncode
                     for workload in WORKLOADS]
            return next((code for code in codes if code != 0), 0)
    return run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
