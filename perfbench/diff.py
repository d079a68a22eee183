#!/usr/bin/env python3
"""Compares two sets of benchmark runs: parent and change.

    python3 perfbench/diff.py --parent <path>... --change <path>...

Each path is a run record written by perfbench/run.py (a file, or a
directory of them, such as .bench_build/runs/). Runs are grouped by
workload and paired by seed. For every workload and gated end-to-end metric
of BENCHMARK.json it prints the medians and quartiles of both sides, the
share of seed pairs the change wins (ties count for neither side) and a
verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ,
              in the better direction, by more than the parent's quartile
              spread; or, when the spread exceeds the bound, every change
              run beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the run-to-run spread exceeds the bound, so no call is made;
  unchanged   otherwise.

The workload's own verdict is its worst metric verdict. Numbers a run
records but BENCHMARK.json does not gate (the timed metrics in wall seconds
rather than reference seconds, page time-to-extractions) are listed for
information. Exits 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys


def load_records(paths):
    records = []
    for path in paths:
        files = ([os.path.join(path, name) for name in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for name in files:
            if not name.endswith(".json"):
                continue
            with open(name) as f:
                record = json.load(f)
            if "stamp" in record and "result" in record:
                records.append(record)
    return records


def by_workload(records, trace):
    grouped = {}
    for record in records:
        stamp = record["stamp"]
        if str(stamp.get("trace")) != trace:
            continue
        grouped.setdefault(stamp["workload"], {})[stamp["seed"]] = record
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, pairs):
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / (wins + losses) if wins + losses else 0.5
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0
    if spread > bound:
        all_better = (min(change) > max(parent) if sign > 0
                      else max(change) < min(parent))
        return ("improved" if all_better else "unresolved"), win_share
    if win_share >= 0.9 and sign * (c_med - p_med) > (p_q3 - p_q1):
        return "improved", win_share
    if worse_by > bound:
        return "regressed", win_share
    return "unchanged", win_share


def numeric_stamp(record, key):
    try:
        return float(record["stamp"][key])
    except (KeyError, TypeError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=["0", "1"],
                        help="compare traced runs (per-layer metrics)")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace == "1" else "end_to_end"]
    parent = by_workload(load_records(args.parent), args.trace)
    change = by_workload(load_records(args.change), args.trace)
    any_regressed = False
    header = (f"{'workload':<16} {'metric':<30} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'win':>5}  verdict")
    print(header)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:<16} missing runs on one side "
                  f"(parent {len(p_runs)}, change {len(c_runs)})")
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        calls = []
        for metric in metrics:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["result"]["metrics"][name]["value"],
                      c_runs[s]["result"]["metrics"][name]["value"]) for s in seeds]
            bound = metric.get("bound", float("inf"))
            call, win_share = verdict(pv, cv, metric["better"], bound, pairs)
            calls.append(call)
            p, c = quartiles(pv), quartiles(cv)
            print(f"{workload:<16} {name:<30} "
                  f"{p[0]:>10.4g}/{p[1]:>10.4g}/{p[2]:>10.4g} "
                  f"{c[0]:>10.4g}/{c[1]:>10.4g}/{c[2]:>10.4g} "
                  f"{win_share:>5.2f}  {call}")
        for key in ("pages_per_s", "setup_wall_s", "p50_ms", "tail_ms"):
            pv = [v for v in (numeric_stamp(r, key) for r in p_runs.values()) if v is not None]
            cv = [v for v in (numeric_stamp(r, key) for r in c_runs.values()) if v is not None]
            if pv and cv:
                p, c = quartiles(pv), quartiles(cv)
                print(f"{workload:<16} {key + ' (not gated)':<30} "
                      f"{p[0]:>10.4g}/{p[1]:>10.4g}/{p[2]:>10.4g} "
                      f"{c[0]:>10.4g}/{c[1]:>10.4g}/{c[2]:>10.4g} {'':>5}  -")
        worst = next((c for c in ("regressed", "unresolved", "improved")
                      if c in calls), "unchanged")
        any_regressed = any_regressed or worst == "regressed"
        print(f"{workload:<16} {'=> workload verdict':<30} {'':>32} {'':>32} "
              f"{'':>5}  {worst} ({len(seeds)} seed pairs)")
    return 1 if any_regressed else 0


if __name__ == "__main__":
    sys.exit(main())
