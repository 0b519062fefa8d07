#!/usr/bin/env python3
"""Compares hyco_bench results of a parent commit and a change.

    python3 bench/hyco_bench/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--bench BENCHMARK.json]

Each file is a result written by `hyco_bench --json=...` (run.py leaves
them in <build>/hyco_bench/results/). Results are grouped by workload and
mode; within a group the i-th parent file and the i-th change file form a
pair, so pass them in the order they ran, alternating which side ran first
(parent, change, change, parent, ...). At least 10 pairs are needed before
any gain is claimed.

One row per workload and metric of BENCHMARK.json: parent and change
median with quartiles (Python's statistics.quantiles), the change's win
fraction over pairs (ties count for neither side), and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (metrics with no bound, the per-layer
              ones: the mirror of the gain rule);
  unresolved  the parent's spread (IQR / median) is wider than the bound
              and not every change run reads better than every parent run;
  unchanged   none of the above.
"""

import argparse
import collections
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    groups = collections.defaultdict(list)
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text())
        if not doc.get("correct", False):
            sys.exit("compare.py: %s is not a correct run" % path)
        groups[(doc["workload"], doc["mode"])].append(doc)
    return groups


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = sign * (cmed - pmed)
    iqr = pq3 - pq1
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gap > iqr:
        return wins, "improved"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gap > iqr:
            return wins, "regressed"
        return wins, "unchanged"
    worse = -gap / abs(pmed) if pmed else 0.0
    if worse > bound:
        return wins, "regressed"
    spread = iqr / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main():
    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--bench", default=str(here.parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    bench = json.loads(pathlib.Path(args.bench).read_text())
    listed = {"e2e": bench["end_to_end"], "trace": bench["per_layer"]}
    parents = load(args.parent)
    changes = load(args.change)

    print("%-12s %-5s %-26s %28s %28s %7s %6s  %s" % (
        "workload", "mode", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "verdict"))
    for key in sorted(set(parents) | set(changes)):
        workload, mode = key
        p_docs, c_docs = parents.get(key, []), changes.get(key, [])
        n = min(len(p_docs), len(c_docs))
        if n == 0:
            print("%-12s %-5s (no pairs: %d parent, %d change results)"
                  % (workload, mode, len(p_docs), len(c_docs)))
            continue
        if n < MIN_PAIRS:
            print("%-12s %-5s only %d pair(s); no gain can be claimed"
                  % (workload, mode, n))
        for m in listed[mode]:
            name = m["name"]
            p = [d["metrics"][name]["value"] for d in p_docs[:n]]
            c = [d["metrics"][name]["value"] for d in c_docs[:n]]
            wins, v = verdict(p, c, m["better"], m.get("bound"))
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            print("%-12s %-5s %-26s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+6.1f%% %2d/%-3d  %s" % (
                workload, mode, name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                100.0 * delta, wins, n, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
