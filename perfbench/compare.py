#!/usr/bin/env python3
"""Steadiness and A/B comparison for the repo benchmark.

    # Ten runs of this checkout per workload, one seed each:
    python3 perfbench/compare.py steady [--runs 10] [--workloads a,b]

    # Ten alternating pairs of a parent and a change checkout:
    python3 perfbench/compare.py ab --parent DIR --change DIR [--pairs 10]

    # Compare two saved `steady` sets (parent first), pairing equal seeds:
    python3 perfbench/compare.py sets PARENT.json CHANGE.json

    # Re-print a saved comparison:
    python3 perfbench/compare.py report FILE

Every run is `python3 perfbench/run.py ... --trace 0` inside the checkout
it measures, so both sides of an A/B use their own benchmark code; run
them from checkouts with identical perfbench/ directories. Metrics,
units, directions and bounds come from BENCHMARK.json.

For each workload and end-to-end metric the report gives the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
the interquartile distance as a share of the median, next to the
metric's bound.

`steady` verdicts: "steady" (spread within a third of the bound),
"within bound", or "too noisy".

`ab` and `sets` verdicts, by the rule for small sandboxes: "better" when
the change wins at least nine tenths of the pairs (ties count for
neither side) and the medians differ by more than the parent's own
interquartile distance;
"worse" when the change's median is worse than the parent's by more than
the bound; "unresolved" when either side's spread exceeds the bound,
unless every run of one side beats every run of the other; otherwise
"unchanged".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    """One benchmark run in checkout @p root; the parsed result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed in %s (%s seed %d):\n%s"
                 % (root, workload, seed, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("warning: %s seed %d in %s reported failures"
              % (workload, seed, root), file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_share(parent, change, better):
    """Signed relative change of the medians; positive means worse."""
    p, c = statistics.median(parent), statistics.median(change)
    if p == 0:
        return 0.0 if c == 0 else float("inf")
    d = (c - p) / abs(p)
    return d if better == "lower" else -d


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def steady_verdict(values, bound):
    s = spread(values)
    if s <= bound / 3:
        return "steady"
    return "within bound" if s <= bound else "too noisy"


def ab_verdict(parent, change, metric):
    better, bound = metric["better"], metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p, better) for p, c in pairs)
    q1, _, q3 = quartiles(parent)
    diff = abs(statistics.median(change) - statistics.median(parent))
    separated = (all(beats(c, p, better) for c in change for p in parent)
                 or all(beats(p, c, better) for c in change for p in parent))
    if max(spread(parent), spread(change)) > bound and not separated:
        return "unresolved"
    if wins >= 0.9 * len(pairs) and diff > q3 - q1:
        return "better"
    if worse_share(parent, change, better) > bound:
        return "worse"
    return "unchanged"


def fmt(v):
    return "%.6g" % v


def print_steady(data):
    spec = data["spec"]
    for w, runs in data["runs"].items():
        print("\n%s (%d runs, seeds %s)" % (w, len(runs),
                                           ",".join(str(r["seed"]) for r in runs)))
        print("  %-20s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(vals)
            print("  %-20s %12s %12s %12s %8.4f %6.3f  %s" % (
                m["name"], fmt(q2), fmt(q1), fmt(q3), spread(vals),
                m["bound"], steady_verdict(vals, m["bound"])))


def print_ab(data):
    spec = data["spec"]
    for w, pairs in data["pairs"].items():
        print("\n%s (%d pairs)" % (w, len(pairs)))
        print("  %-20s %12s %12s %8s %12s %8s %6s %6s  %s" % (
            "metric", "parent med", "change med", "delta", "parent iqr",
            "spread", "bound", "wins", "verdict"))
        for m in spec["end_to_end"]:
            par = [p["parent"]["metrics"][m["name"]]["value"] for p in pairs]
            chg = [p["change"]["metrics"][m["name"]]["value"] for p in pairs]
            q1, _, q3 = quartiles(par)
            wins = sum(beats(c, p, m["better"]) for p, c in zip(par, chg))
            print("  %-20s %12s %12s %+8.4f %12s %8.4f %6.3f %3d/%-2d  %s" % (
                m["name"], fmt(statistics.median(par)),
                fmt(statistics.median(chg)),
                -worse_share(par, chg, m["better"]), fmt(q3 - q1),
                max(spread(par), spread(chg)), m["bound"], wins, len(pairs),
                ab_verdict(par, chg, m)))
    print("\n(delta: relative change of the median, positive = better)")


def workloads_of(spec, arg):
    names = [w["name"] for w in spec["workloads"]]
    if not arg:
        return names
    chosen = arg.split(",")
    for n in chosen:
        if n not in names:
            sys.exit("unknown workload %r" % n)
    return chosen


def main():
    ap = argparse.ArgumentParser(
        description="Steadiness and A/B comparison for the repo benchmark.")
    sub = ap.add_subparsers(dest="mode", required=True)
    st = sub.add_parser("steady", help="repeat runs of one checkout")
    st.add_argument("--root", default=os.path.dirname(HERE))
    st.add_argument("--runs", type=int, default=10)
    ab = sub.add_parser("ab", help="alternating parent/change pairs")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    for p in (st, ab):
        p.add_argument("--workloads", default="")
        p.add_argument("--seed0", type=int, default=1)
        p.add_argument("--seconds", type=int, default=0,
                       help="default: run_seconds of BENCHMARK.json")
        p.add_argument("--out", default="", help="save the runs as JSON")
    rp = sub.add_parser("report", help="re-print a saved comparison")
    rp.add_argument("file")
    ss = sub.add_parser("sets", help="compare two saved steady sets")
    ss.add_argument("parent")
    ss.add_argument("change")
    args = ap.parse_args()

    if args.mode == "sets":
        with open(args.parent) as f:
            parent = json.load(f)
        with open(args.change) as f:
            change = json.load(f)
        data = {"spec": change["spec"], "pairs": {}}
        for w, runs in change["runs"].items():
            by_seed = {r["seed"]: r for r in parent["runs"].get(w, [])}
            data["pairs"][w] = [{"seed": r["seed"], "parent": by_seed[r["seed"]],
                                 "change": r}
                                for r in runs if r["seed"] in by_seed]
        print_ab(data)
        return
    if args.mode == "report":
        with open(args.file) as f:
            data = json.load(f)
        (print_ab if "pairs" in data else print_steady)(data)
        return

    spec = load_spec(args.root if args.mode == "steady" else args.change)
    seconds = args.seconds or spec["run_seconds"]
    data = {"spec": spec, "seconds": seconds}
    if args.mode == "steady":
        data["runs"] = {}
        for w in workloads_of(spec, args.workloads):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + i
                r = run_once(args.root, w, seed, seconds)
                r["seed"] = seed
                runs.append(r)
            data["runs"][w] = runs
    else:
        data["pairs"] = {}
        for w in workloads_of(spec, args.workloads):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    root = args.parent if side == "parent" else args.change
                    pair[side] = run_once(root, w, seed, seconds)
                pairs.append(pair)
            data["pairs"][w] = pairs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    (print_steady if args.mode == "steady" else print_ab)(data)


if __name__ == "__main__":
    main()
