#!/usr/bin/env python3
"""Runs the end-to-end benchmark in two checkouts as alternating pairs.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S [--seed0 K]

Pair i runs `python3 perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each checkout: the parent first on even pairs, the
change first on odd ones, so drift in the host's state falls on both sides
alike. Each checkout builds its own perfbench on its first run.

Prints each pair's end-to-end metrics and failed counts, then each side's
median [quartiles] and, per metric, how many pairs the change won (strictly
better, in the direction BENCHMARK.json gives) and one verdict, the first
that holds of:

  gain          the change won at least 9 in 10 pairs, and its median is
                better than the parent's by more than the parent's
                interquartile range;
  worse         the change's median is worse than the parent's by more
                than the metric's BENCHMARK.json bound (a fraction of the
                parent's median);
  unresolved    either side's interquartile range, as a fraction of its
                median, is wider than the bound, and not every change run
                is better than every parent run;
  within bound  otherwise.

Exits non-zero if any run failed. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def end_to_end(checkout):
    """(name, better, bound) of each end-to-end metric, from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def run_once(checkout, workload, seed, seconds):
    """The result JSON of one run, or None if the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        return None
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return None
    if not result.get("correct") or result.get("failed", 1) != 0:
        return None
    return result


def quartiles(values):
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def spread(values):
    """'median [lower quartile, upper quartile]'."""
    q1, med, q3 = quartiles(values)
    if len(values) < 2:
        return "%.6g" % med
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def verdict(parent, change, better, bound, wins):
    """The first of gain, worse, unresolved that holds, else within bound
    (see the module docstring). `wins` counts the pairs the change won."""
    sign = 1 if better == "lower" else -1
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (pmed - cmed)  # > 0: the change's median is better
    if 10 * wins >= 9 * len(parent) and gain > p3 - p1:
        return "gain"
    if -gain > bound * abs(pmed):
        return "worse"

    def relative(q1, med, q3):
        return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))

    wide = max(relative(p1, pmed, p3), relative(c1, cmed, c3)) > bound
    apart = all(sign * (p - c) > 0 for p in parent for c in change)
    return "unresolved" if wide and not apart else "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    metrics = end_to_end(args.parent_dir)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    values = {side: {name: [] for name, _, _ in metrics} for side in sides}
    wins = {name: 0 for name, _, _ in metrics}
    compared = 0
    failed = {side: 0 for side in sides}

    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        results = {}
        for side in order:
            results[side] = run_once(sides[side], args.workload, seed, args.seconds)
            if results[side] is None:
                failed[side] += 1
        cells = []
        for side in ("parent", "change"):
            r = results[side]
            if r is None:
                cells.append("%s FAILED" % side)
                continue
            shown = " ".join("%s=%.6g" % (name, r["metrics"][name]["value"])
                             for name, _, _ in metrics)
            cells.append("%s %s failed=%d" % (side, shown, r["failed"]))
        print("pair %d seed %d (%s first): %s" % (i, seed, order[0], " | ".join(cells)),
              flush=True)
        if results["parent"] is None or results["change"] is None:
            continue
        compared += 1
        for name, better, _ in metrics:
            p = results["parent"]["metrics"][name]["value"]
            c = results["change"]["metrics"][name]["value"]
            values["parent"][name].append(p)
            values["change"][name].append(c)
            if (c < p) if better == "lower" else (c > p):
                wins[name] += 1

    print("\n%s, %d pairs of %g s, seeds %d-%d:" % (args.workload, args.pairs, args.seconds,
                                                    args.seed0, args.seed0 + args.pairs - 1))
    for name, better, bound in metrics:
        parent, change = values["parent"][name], values["change"][name]
        if not parent:
            continue
        print("  %-20s parent %s   change %s   change %s in %d/%d: %s" % (
            name, spread(parent), spread(change), better, wins[name], compared,
            verdict(parent, change, better, bound, wins[name])))
    print("  failed runs: parent %d, change %d" % (failed["parent"], failed["change"]))
    return 1 if failed["parent"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
