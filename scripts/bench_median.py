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
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


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

    reports, steal_pct = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(args.runs):
            path = os.path.join(scratch, f"run{i}.json")
            steal_before, total_before = cpu_times()
            subprocess.run([*args.bench, "--json", path], check=True,
                           stdout=subprocess.DEVNULL)
            steal_after, total_after = cpu_times()
            elapsed = max(total_after - total_before, 1)
            steal_pct.append(round(100 * (steal_after - steal_before) / elapsed,
                                   2))
            with open(path) as handle:
                reports.append(json.load(handle))

    spread = {}
    merged = median_tree(reports, "", spread)
    merged["repetitions"] = {"runs": args.runs, "steal_pct": steal_pct,
                             "scenarios_per_sec_min_max": spread}
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
