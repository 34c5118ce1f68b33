#!/usr/bin/env python3
"""Run one convavg benchmark workload for one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  The
second-to-last stdout line is a JSON report (environment, every metric
named in bench/README.md, failures); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  The traced run runs every round twice, first
untraced and then traced on the same inputs, so the tracing overhead is
measured on identical work under the same machine load.
"""

import os

# One BLAS thread: the 4x4 solves gain nothing from more, and the
# benchmark must not compete with itself for the machine's cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse                     # noqa: E402
import functools                    # noqa: E402
import json                         # noqa: E402
import math                         # noqa: E402
import platform                     # noqa: E402
import random                       # noqa: E402
import resource                     # noqa: E402
import statistics                   # noqa: E402
import subprocess                   # noqa: E402
import sys                          # noqa: E402
import tempfile                     # noqa: E402
import traceback                    # noqa: E402
from collections import Counter     # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path            # noqa: E402
from time import perf_counter       # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("design-grid", "transient-drive", "switched-crosscheck", "cli-bundled")
SETUP_REPEATS = 15
SETUP_CODE = ("import convavg; from importlib import resources; "
              "[convavg.parse_config(resources.files('convavg').joinpath("
              "'configs', n + '.conf').read_text(encoding='utf-8')) "
              "for n in ('sepic_bench', 'cuk_bench')]")

# name -> unit, for the end-to-end metrics of the result line
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "items/s",
              "op_ms_p50": "ms"}


def import_program():
    """Import convavg from this checkout's src/, or exit with code 2."""
    if not (SRC / "convavg" / "__init__.py").is_file():
        print("bench: no convavg sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import convavg
    if Path(convavg.__file__).resolve().parent != SRC / "convavg":
        print("bench: imported convavg from %s, not %s" % (convavg.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)
    return convavg


@dataclass
class Pass:
    """Everything one measured pass over a workload produced."""

    rounds: int = 0
    seconds: float = 0.0            # timed seconds inside operations
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    samples: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)

    def add(self, result):
        self.seconds += result.seconds
        self.work += result.work
        self.attempted += result.ops
        self.failed += result.failed
        for key, values in result.samples.items():
            self.samples.setdefault(key, []).extend(values)
        for key, value in result.errors.items():
            if math.isfinite(value):    # a non-finite error already failed its check
                self.errors[key] = max(self.errors.get(key, 0.0), value)
        if result.failed:
            self.failures["check"] += result.failed
        self._note(result.notes)

    def add_exception(self, exc):
        self.attempted += 1
        self.failed += 1
        self.failures[type(exc).__name__] += 1
        self._note(["%s: %s" % (type(exc).__name__, exc)])
        if self.failures[type(exc).__name__] == 1:
            traceback.print_exc(file=sys.stderr)

    def _note(self, notes):
        self.notes.extend(notes[:max(0, 20 - len(self.notes))])


def measure(round_fn, api, seed, seconds, rounds=None, max_ops=None, replay=None):
    """Run whole rounds until the time budget is spent (or ``rounds``).

    A new round starts only while the budget has more than half a mean
    round left, so a run holds the whole-round count closest to it.
    ``replay`` is ``(round_fn, api, context, pass)``: each round then runs
    a second time right after itself, on the same inputs, inside
    ``context()`` and into ``pass``, so both passes see the same machine.
    """
    rng = random.Random(seed)
    run = Pass()
    start = perf_counter()
    while rounds is None or run.rounds < rounds:
        elapsed = perf_counter() - start
        if rounds is None and run.rounds and \
                elapsed + 0.5 * elapsed / run.rounds >= seconds:
            break
        state = rng.getstate()
        _run_round(run, round_fn(api, rng, run.rounds)[:max_ops])
        if replay is not None:
            replay_fn, replay_api, context, again = replay
            rng.setstate(state)
            with context():
                _run_round(again, replay_fn(replay_api, rng, run.rounds)[:max_ops])
            again.rounds += 1
        run.rounds += 1
    run.wall = perf_counter() - start
    return run


def _run_round(run, ops):
    for op in ops:
        try:
            result = op()
        except Exception as exc:    # a failed operation; keep measuring
            run.add_exception(exc)
        else:
            run.add(result)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def workload_metrics(name, run):
    """The workload's own metrics, under the names bench/README.md uses."""
    s = run.samples
    e = run.errors
    if name == "design-grid":
        dc_seconds = 1e-3 * sum(s.get("dc_solve_ms", [])) + sum(s.get("sweep_s", []))
        dc_points = len(s.get("dc_solve_ms", [])) + sum(s.get("sweep_points", []))
        return {
            "dc_points_per_s": dc_points / dc_seconds if dc_seconds else 0.0,
            "dc_solve_ms_p50": _quantile(s.get("dc_solve_ms", []), 50),
            "dc_solve_ms_p99": _quantile(s.get("dc_solve_ms", []), 99),
            "dc_solve_count": len(s.get("dc_solve_ms", [])),
            "ac_responses_per_s": (2 * len(s.get("ac_s", [])) / sum(s["ac_s"])
                                   if s.get("ac_s") else 0.0),
            "dc_gain_err_pct_max": e.get("dc_gain_err_pct_max", 0.0),
            "dc_residual_max": e.get("dc_residual_max", 0.0),
        }
    if name == "transient-drive":
        return {"tran_sim_ms_per_s": run.work / run.seconds if run.seconds else 0.0,
                "tran_run_s_p50": _quantile(s.get("tran_run_s", []), 50),
                "tran_runs": len(s.get("tran_run_s", [])),
                "settle_err_pct_max": e.get("settle_err_pct_max", 0.0)}
    if name == "switched-crosscheck":
        return {"switched_cycles_per_s": run.work / run.seconds if run.seconds else 0.0,
                "crosscheck_s_p50": _quantile(s.get("crosscheck_s", []), 50),
                "crosschecks": len(s.get("crosscheck_s", [])),
                "switched_err_pct_max": e.get("switched_err_pct_max", 0.0)}
    out = {"cli_s_p50": _quantile(s.get("cli_s", []), 50),
           "cli_invocations": len(s.get("cli_s", []))}
    for key, values in sorted(s.items()):
        if key.startswith("cli_") and key != "cli_s":
            out[key + "_p50"] = _quantile(values, 50)
    return out


# The per-operation time each workload reports as op_ms_p50.
OP_TIME = {"design-grid": ("dc_solve_ms", 1.0), "transient-drive": ("tran_run_s", 1e3),
           "switched-crosscheck": ("crosscheck_s", 1e3), "cli-bundled": ("cli_s", 1e3)}


def end_to_end(name, run, setup_s):
    key, scale = OP_TIME[name]
    return {"setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "work_per_s": run.work / run.seconds if run.seconds else 0.0,
            "op_ms_p50": scale * _quantile(run.samples.get(key, []), 50)}


def peak_rss_mb():
    """Peak resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds(repeats):
    """Median time for a fresh interpreter to import convavg and parse both
    bundled configs."""
    import workloads
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                       capture_output=True, env=workloads.cli_environment(str(SRC)),
                       timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "seed": seed, "commit": git_commit()}


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def round_function(name, raw, stats_dir=None):
    import workloads
    if name == "design-grid":
        return workloads.design_grid_round
    if name == "transient-drive":
        return workloads.transient_round
    if name == "switched-crosscheck":
        return workloads.switched_round
    return functools.partial(workloads.cli_round, src=str(SRC),
                             reference=workloads.cli_reference(raw),
                             stats_dir=stats_dir)


def run_workload(name, seed, seconds, trace, rounds=None, max_ops=None,
                 setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns (report, result line)."""
    import tracing
    import workloads
    raw = tracing.raw_api()
    setup_s = setup_seconds(setup_repeats)
    workloads.warm_up(raw)
    if not trace:
        untraced = measure(round_function(name, raw), raw, seed, seconds, rounds, max_ops)
    else:
        tracer = tracing.Tracer()
        traced = Pass()
        with tempfile.TemporaryDirectory(prefix=".trace-", dir=BENCH) as stats_dir:
            replay = (round_function(name, raw, stats_dir), tracer.api(raw),
                      lambda: tracing.installed(tracer), traced)
            untraced = measure(round_function(name, raw), raw, seed, seconds, rounds,
                               max_ops, replay)
    e2e = end_to_end(name, untraced, setup_s)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(seed), "rounds": untraced.rounds,
              "wall_s": untraced.wall, "attempted": untraced.attempted,
              "failed": untraced.failed,
              "failed_ops_ratio": untraced.failed / max(untraced.attempted, 1),
              "failures": dict(untraced.failures), "notes": untraced.notes,
              "metrics": dict(e2e, **workload_metrics(name, untraced))}
    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        final = {"correct": untraced.failed == 0, "attempted": untraced.attempted,
                 "failed": untraced.failed, "metrics": metrics}
        return report, final

    overhead = 100.0 * (traced.seconds / untraced.seconds - 1.0) if untraced.seconds else 0.0
    layers = tracing.layer_metrics(tracer, overhead)
    report["traced"] = {"attempted": traced.attempted, "failed": traced.failed,
                        "seconds": traced.seconds, "untraced_seconds": untraced.seconds,
                        "metrics": layers}
    metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in layers.items()}
    final = {"correct": traced.failed == 0 and traced.attempted == untraced.attempted,
             "attempted": traced.attempted, "failed": traced.failed, "metrics": metrics}
    return report, final


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    report, final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
