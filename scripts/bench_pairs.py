#!/usr/bin/env python3
"""Compare two perfbench binaries in alternating pairs of runs.

Usage (from the repo root; build each side with `python3 perfbench/run.py
--self-test` in its own checkout first):

    python3 scripts/bench_pairs.py --pairs 10 --seconds 30 \\
        --workload tiny_pool --workload fabric_resume \\
        --parent ../parent/.bench_build/perfbench/perfbench \\
        --change .bench_build/perfbench/perfbench [--json pairs.json]

Pair i runs both binaries on seed `--seed-base + i`, parent first on even
pairs and change first on odd ones, so a host that drifts during the comparison
weighs on both sides alike. For every end-to-end metric BENCHMARK.json names
(every per-layer one with `--trace 1`) it prints each side's median and [Q1, Q3], the change/parent ratio of the
medians, how many pairs the change won (in the metric's "better" direction)
and whether the medians differ by more than the parent's interquartile
range. Each run's host steal (perfbench's own /proc/stat reading) is printed
too, and each pair's two fingerprints (same seed) are compared: a workload
reports `bits: equal on N/N pairs` or the seeds whose outputs differ. Exits 1
if any run fails its correctness gate.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEAL = re.compile(r"host steal while measuring: ([0-9.]+) %")


def run_once(exe, workload, seed, seconds, trace, out_dir):
    """One perfbench run: (result JSON, steal percent, fingerprint)."""
    done = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", trace, "--out-dir", out_dir],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.exit(f"bench_pairs: {exe} exited {done.returncode}\n"
                 f"{done.stdout}{done.stderr}")
    steal = next((float(m.group(1)) for m in map(STEAL.search, lines) if m),
                 float("nan"))
    fingerprint = next((line.split()[1] for line in lines
                        if line.startswith("fingerprint ")), "?")
    return json.loads(lines[-1]), steal, fingerprint


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload, metrics, runs, seeds):
    """Prints one workload's table from runs[side] = [(result, steal, fp)],
    where pair i ran on seeds[i]."""
    pairs = len(runs["parent"])
    steals = [steal for side in runs.values() for _, steal, _ in side]
    print(f"\n{workload}: {pairs} pairs, host steal "
          f"{min(steals):.1f}-{max(steals):.1f} %")
    differ = [seed for seed, (_, _, parent_fp), (_, _, change_fp)
              in zip(seeds, runs["parent"], runs["change"])
              if parent_fp != change_fp]
    if differ:
        print(f"  bits: differ on {len(differ)}/{pairs} pairs, seeds "
              + " ".join(map(str, differ)))
    else:
        print(f"  bits: equal on {pairs}/{pairs} pairs")
    print(f"  {'metric':<18} {'parent median [Q1, Q3]':>34} "
          f"{'change median [Q1, Q3]':>34} {'ratio':>6} {'wins':>6} >IQR")
    for name, better in metrics:
        values = {side: [result["metrics"][name]["value"]
                         for result, _, _ in runs[side]]
                  for side in runs}
        if better == "higher":
            wins = sum(c > p for p, c in zip(values["parent"], values["change"]))
        else:
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        stats = {side: (statistics.median(values[side]), *quartiles(values[side]))
                 for side in values}
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                 for m, q1, q3 in (stats["parent"], stats["change"])]
        parent_median, parent_q1, parent_q3 = stats["parent"]
        change_median = stats["change"][0]
        ratio = change_median / parent_median if parent_median else float("nan")
        beyond = abs(change_median - parent_median) > parent_q3 - parent_q1
        print(f"  {name:<18} {cells[0]:>34} {cells[1]:>34} {ratio:>6.3f} "
              f"{wins:>3}/{pairs:<2} {'yes' if beyond else 'no'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent perfbench")
    parser.add_argument("--change", required=True, help="change perfbench")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    metrics = [(m["name"], m["better"]) for m in spec[section]]
    exes = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    record = {}
    gate_missed = False
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                seed = args.seed_base + pair
                order = ("parent", "change") if pair % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    result, steal, fingerprint = run_once(
                        exes[side], workload, seed, args.seconds, args.trace,
                        out_dir)
                    gate_missed = (gate_missed or not result["correct"]
                                   or result["failed"] != 0)
                    runs[side].append((result, steal, fingerprint))
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          f"steal {steal:.1f} % "
                          + " ".join(f"{name}={result['metrics'][name]['value']:.4g}"
                                     for name, _ in metrics[:3]), flush=True)
            report(workload, metrics, runs,
                   [args.seed_base + pair for pair in range(args.pairs)])
            record[workload] = {side: [{"result": r, "steal_pct": s,
                                        "fingerprint": f} for r, s, f in rs]
                                for side, rs in runs.items()}
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"pairs": args.pairs, "seconds": args.seconds,
                       "seed_base": args.seed_base, "trace": args.trace,
                       "workloads": record}, handle, indent=1)
    if gate_missed:
        print("bench_pairs: a run missed its correctness gate", file=sys.stderr)
    return 1 if gate_missed else 0


if __name__ == "__main__":
    sys.exit(main())
