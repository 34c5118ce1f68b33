#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/series.py --seeds 0-9 [--workloads a,b] [--trace 0|1]
                            [--out results.jsonl]

Runs ``bench/run.py`` once per workload and seed, one run at a time,
appends every run (report and result line) to ``--out`` as JSON lines,
and prints, per workload and metric, the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
Every run lasts the ``run_seconds`` of BENCHMARK.json, so two files
compare like with like.  The file it writes is what ``bench/compare.py``
reads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode,
                                                   proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def summarise(records, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_workload = {}
    for rec in records:
        for name, metric in rec["result"]["metrics"].items():
            by_workload.setdefault(rec["workload"], {}).setdefault(name, []).append(
                metric["value"])
    for workload, metrics in by_workload.items():
        print("%s (%d runs)" % (workload, len(next(iter(metrics.values())))))
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name)
            s = spread(values)
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER BOUND")
            print("  %-44s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s %s"
                  % (name, med, q1, q3, s,
                     "" if bound is None else "(bound %.2f)" % bound, flag))


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    records = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            rec = run_one(workload, seed, spec["run_seconds"], args.trace)
            records.append(rec)
            print("%s seed %d: attempted %d failed %d" % (
                workload, seed, rec["result"]["attempted"], rec["result"]["failed"]),
                flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
    summarise(records, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
