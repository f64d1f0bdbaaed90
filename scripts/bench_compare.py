#!/usr/bin/env python3
"""Compares paired servebench runs of a parent and a change checkout.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR \\
        [--claim readings_per_s --workload fleet_batch]

Each directory is a checkout in which `python3 servebench/run.py ...
--trace 0` has run; the script reads only PARENT_DIR/BENCHMARK.json and
the untraced results in each checkout's .bench_build/results/. Runs pair
by workload and seed, so run both sides with the same seeds, alternating
which side goes first. A directory holding results of two different
benchmark binaries for one workload and seed is refused: the pair would
be ambiguous.

For every workload and end-to-end metric it prints each side's median
and quartiles over the paired runs, the change of the median in %, the
pairs the change won (ties count for neither side), the metric's bound,
and a verdict:

  worse       the change's median is worse than the parent's by more
              than the bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound,
              and not every change run beats every parent run
  ok          otherwise

It also prints failed/attempted operations per side. --claim METRIC
--workload W adds the gain test: at least 10 pairs, the change wins at
least 9 in 10 of them, and the medians differ, in the better direction,
by more than the parent's IQR.

Exit status: 0 when nothing fails; 1 when a run reports correct: false,
the change fails a larger share of its operations on some workload, a
metric is worse than its bound, or a claim is not met; 2 on bad input.
"""

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

RESULT_RE = re.compile(
    r"^(?P<workload>[a-z_]+)-seed(?P<seed>-?\d+)-trace0-(?P<binary>\w+)\.json$")


class InputError(Exception):
    pass


def load_runs(checkout):
    """Maps (workload, seed) to the untraced result of one checkout."""
    results = Path(checkout) / ".bench_build" / "results"
    if not results.is_dir():
        raise InputError(f"{results}: no servebench results")
    runs, binaries = {}, {}
    for path in sorted(results.iterdir()):
        match = RESULT_RE.match(path.name)
        if match is None:
            continue
        key = (match["workload"], int(match["seed"]))
        if key in binaries and binaries[key] != match["binary"]:
            raise InputError(
                f"{results}: {key[0]} seed {key[1]} has results of two "
                f"binaries ({binaries[key]}, {match['binary']})")
        binaries[key] = match["binary"]
        runs[key] = json.loads(path.read_text())
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def fmt(value):
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def compare_metric(metric, parent, change):
    """Summary of one metric over paired runs: parallel value lists."""
    direction, bound = metric["better"], metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    change_pct = 100.0 * (c_med - p_med) / p_med if p_med else math.nan
    worse_share = (c_med - p_med) / p_med if p_med else 0.0
    if direction == "higher":
        worse_share = -worse_share
    if worse_share > bound:
        verdict = "worse"
    elif (p_med and (p_q3 - p_q1) / abs(p_med) > bound and
          not all(better(c, p, direction) for c in change for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "change_pct": change_pct, "wins": wins, "pairs": len(parent),
        "bound": bound, "verdict": verdict, "direction": direction,
    }


def claim_met(row):
    """The gain rule: >= 10 pairs, >= 9/10 wins, median gap > parent IQR."""
    p_q1, p_med, p_q3 = row["parent"]
    gap = row["change"][1] - p_med
    if row["direction"] == "lower":
        gap = -gap
    return (row["pairs"] >= 10 and 10 * row["wins"] >= 9 * row["pairs"] and
            gap > p_q3 - p_q1)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--claim", metavar="METRIC")
    parser.add_argument("--workload", metavar="W")
    args = parser.parse_args()
    if (args.claim is None) != (args.workload is None):
        parser.error("--claim and --workload go together")

    try:
        spec = json.loads((Path(args.parent_dir) / "BENCHMARK.json").read_text())
        parent_runs = load_runs(args.parent_dir)
        change_runs = load_runs(args.change_dir)
    except (InputError, OSError, ValueError) as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        print(f"bench_compare: {args.claim} is not an end-to-end metric",
              file=sys.stderr)
        return 2

    failed = False
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for (workload, seed), run in sorted(runs.items()):
            if not run.get("correct", False):
                print(f"FAIL {side} {workload} seed {seed}: correct: false")
                failed = True

    claim_row = None
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (w, s) in parent_runs.keys() & change_runs.keys()
                       if w == workload)
        unpaired = sum(1 for runs in (parent_runs, change_runs)
                       for (w, s) in runs if w == workload and s not in seeds)
        if not seeds:
            continue
        pairs = [(parent_runs[(workload, s)], change_runs[(workload, s)])
                 for s in seeds]
        print(f"\n{workload}: {len(seeds)} pairs, seeds "
              f"{','.join(map(str, seeds))}"
              + (f" ({unpaired} unpaired runs ignored)" if unpaired else ""))
        share = {}
        for i, side in enumerate(("parent", "change")):
            attempted = sum(p[i]["attempted"] for p in pairs)
            fails = sum(p[i]["failed"] for p in pairs)
            share[side] = fails / attempted if attempted else 0.0
            print(f"  {side} failed/attempted: {fails}/{attempted}")
        if share["change"] > share["parent"]:
            print("  FAIL the change fails a larger share of operations")
            failed = True
        print(f"  {'metric':<15} {'parent median [q1-q3]':<30} "
              f"{'change median [q1-q3]':<30} {'change':>8} {'wins':>6} "
              f"{'bound':>6}  verdict")
        for name, metric in metrics.items():
            if not all(name in p[0]["metrics"] and name in p[1]["metrics"]
                       for p in pairs):
                continue
            row = compare_metric(
                metric, [p[0]["metrics"][name]["value"] for p in pairs],
                [p[1]["metrics"][name]["value"] for p in pairs])
            cells = []
            for q1, med, q3 in (row["parent"], row["change"]):
                cells.append(f"{fmt(med)} [{fmt(q1)}-{fmt(q3)}]")
            print(f"  {name:<15} {cells[0]:<30} {cells[1]:<30} "
                  f"{row['change_pct']:>+7.1f}% {row['wins']:>2}/{row['pairs']:<3}"
                  f" {row['bound']:>6.2f}  {row['verdict']}")
            if row["verdict"] == "worse":
                failed = True
            if workload == args.workload and name == args.claim:
                claim_row = row

    if args.claim is not None:
        if claim_row is None:
            print(f"\nclaim {args.claim} on {args.workload}: NOT MET "
                  "(no paired runs)")
            failed = True
        else:
            met = claim_met(claim_row)
            p_q1, p_med, p_q3 = claim_row["parent"]
            print(f"\nclaim {args.claim} on {args.workload}: "
                  f"{'met' if met else 'NOT MET'} ({claim_row['wins']}/"
                  f"{claim_row['pairs']} wins, median gap "
                  f"{fmt(abs(claim_row['change'][1] - p_med))} vs parent IQR "
                  f"{fmt(p_q3 - p_q1)})")
            failed = failed or not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
