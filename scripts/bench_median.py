#!/usr/bin/env python3
"""Run bench_campaign_throughput several times and write the median.

Usage (from the repo root, after a Release build):

    python3 scripts/bench_median.py --runs 5 --out BENCH_campaign.json \\
        ./build/bench_campaign_throughput

Each run writes its own JSON (`<bench> --json <tmp>`). Every numeric field
of the output is the median_low of that field over the runs, so it is a
value one run really measured; list elements are matched by position, and
every run must have the same shape. Other fields come from the first run.
A top-level "repetitions" object records the run count, the host steal
during each run (percent of all CPU time, from /proc/stat) and the
[min, max] of every scenarios_per_sec field, so a reader can tell a change
from noise on a shared host.

A run whose host steal exceeds MAX_STEAL_PCT (ROADMAP's bound) measured its
neighbours as much as the bench, so it is run again, at most MAX_RERUNS
times per run. If a run still exceeds the bound, the script exits 1 and
writes nothing to --out.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

MAX_STEAL_PCT = 5.0
MAX_RERUNS = 3


def cpu_times():
    """(steal, total) jiffies of the host, from the aggregate /proc/stat line."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user, so the total stops at steal.
    return fields[7], sum(fields[:8])


def median_tree(runs, path, spread):
    first = runs[0]
    if isinstance(first, bool) or not isinstance(first, (int, float, dict, list)):
        return first
    if isinstance(first, dict):
        return {key: median_tree([run[key] for run in runs], f"{path}.{key}",
                                 spread)
                for key in first}
    if isinstance(first, list):
        if any(len(run) != len(first) for run in runs):
            sys.exit(f"bench_median: runs disagree on the length of {path}")
        return [median_tree([run[i] for run in runs], f"{path}[{i}]", spread)
                for i in range(len(first))]
    if path.endswith(".scenarios_per_sec"):
        spread[path.lstrip(".")] = [min(runs), max(runs)]
    return statistics.median_low(runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", required=True)
    parser.add_argument("bench", nargs="+",
                        help="bench command; --json <file> is appended")
    args = parser.parse_args()

    reports, steal_pct, reruns = [], [], 0
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(args.runs):
            path = os.path.join(scratch, f"run{i}.json")
            for attempt in range(1 + MAX_RERUNS):
                steal_before, total_before = cpu_times()
                subprocess.run([*args.bench, "--json", path], check=True,
                               stdout=subprocess.DEVNULL)
                steal_after, total_after = cpu_times()
                elapsed = max(total_after - total_before, 1)
                steal = round(100 * (steal_after - steal_before) / elapsed, 2)
                if steal <= MAX_STEAL_PCT:
                    break
                print(f"bench_median: run {i} saw {steal} % host steal",
                      file=sys.stderr)
            else:
                sys.exit(f"bench_median: run {i} exceeded {MAX_STEAL_PCT} % "
                         f"host steal {1 + MAX_RERUNS} times; "
                         f"{args.out} not written")
            reruns += attempt
            steal_pct.append(steal)
            with open(path) as handle:
                reports.append(json.load(handle))

    spread = {}
    merged = median_tree(reports, "", spread)
    merged["repetitions"] = {"runs": args.runs, "steal_pct": steal_pct,
                             "reruns_for_steal": reruns,
                             "scenarios_per_sec_min_max": spread}
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
