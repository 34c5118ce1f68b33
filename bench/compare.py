#!/usr/bin/env python3
"""Compare two result files written by bench/series.py.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

For each workload and metric (the result-line metrics, then the
workload's own report metrics) prints both medians with their
quartiles and the ratio CHANGE/BASE.  A metric is marked ``unresolved``
when either side's run-to-run spread, (q3 - q1) / median, exceeds its
bound: the BENCHMARK.json bound for end-to-end metrics, ``OTHER_BOUND``
for the rest.  End-to-end metrics that resolve are marked ``worse`` when
CHANGE's median is worse than BASE's by more than the bound, else
``better`` or ``same``; ``worse`` makes the exit code 1.
"""

import argparse
import json
import sys

from series import load_spec, quartiles, spread

OTHER_BOUND = 0.1   # spread bound of metrics that have none in BENCHMARK.json


def load(path):
    """workload -> metric -> [values], over every run in the file."""
    runs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            into = runs.setdefault(rec["workload"], {})
            for name, metric in rec["result"]["metrics"].items():
                into.setdefault(name, []).append(metric["value"])
            for name, value in rec["report"]["metrics"].items():
                if name not in rec["result"]["metrics"]:
                    into.setdefault("report." + name, []).append(value)
    return runs


def verdict(base, change, bound, better):
    if spread(base) > bound or spread(change) > bound:
        return "unresolved"
    b, c = quartiles(base)[1], quartiles(change)[1]
    if better is None or b == 0:
        return ""
    worse_by = (b - c) / abs(b) if better == "higher" else (c - b) / abs(b)
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(args.base), load(args.change)
    regressions = 0
    for workload in base:
        if workload not in change:
            print("%s: only in %s" % (workload, args.base))
            continue
        print(workload)
        for name, b_values in base[workload].items():
            c_values = change[workload].get(name)
            if not c_values:
                continue
            metric = e2e.get(name)
            bound = metric["bound"] if metric else OTHER_BOUND
            mark = verdict(b_values, c_values, bound, metric and metric["better"])
            regressions += mark == "worse"
            bq, cq = quartiles(b_values), quartiles(c_values)
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            print("  %-46s %12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  x%.4f  %s"
                  % (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], ratio, mark))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
