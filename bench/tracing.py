"""Spans and counters for the traced benchmark run.

Only the benchmark's own files are instrumented.  A span is recorded
around every call the benchmark makes into a module's public function
(and, in the traced CLI child, around the calls ``cli`` makes into the
solvers).  The inner ``resolve_ports``/``derivative`` calls are counted,
not timed, by wrapping those names where ``dc``, ``transient``,
``smallsignal`` and ``cli`` bind them; their cost is timed afterwards in
isolation on states sampled from the run.  Nothing is patched outside
``installed()``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

import convavg
from convavg import avgmodel, cli, dc, smallsignal, transient
from convavg.converter import ConverterSpec
from convavg.switchcell import DCM

# Public functions the benchmark calls, with the span name each gets.
SPANS = {
    "parse_config": "config.parse_config",
    "solve_dc": "dc.solve_dc",
    "sweep_duty": "dc.sweep_duty",
    "linearize": "smallsignal.linearize",
    "frequency_response": "smallsignal.frequency_response",
    "simulate": "transient.simulate",
    "run_switched": "switched.run_switched",
    "cycle_average": "switched.cycle_average",
}
CALLERS = ("dc", "transient", "smallsignal", "cli")
CLI_COMMANDS = ("dc", "tran", "ac", "sweep", "compare")
# transient reports its self time as transient.simulate.self_s
LAYERS = ("config", "cli", "dc", "smallsignal", "switched")

# Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER = {
    "config.parse_config.us_p50": ("us", "lower"),
    "config.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{"cli.%s.self_ms" % c: ("ms", "lower") for c in CLI_COMMANDS},
    "avgmodel.resolve_ports.us_p50": ("us", "lower"),
    "avgmodel.derivative.us_p50": ("us", "lower"),
    "avgmodel.derivative.calls": ("count", "lower"),
    **{"avgmodel.resolve_ports.calls." + c: ("count", "lower") for c in CALLERS},
    "avgmodel.dcm_fraction": ("ratio", "lower"),
    "avgmodel.fallback_calls": ("count", "lower"),
    "avgmodel.est_s": ("s", "lower"),
    "dc.self_s": ("s", "lower"),
    "dc.resolves_per_solve": ("count", "lower"),
    "dc.newton_iters_mean": ("count", "lower"),
    "dc.sweep_duty.ms_per_point": ("ms", "lower"),
    "dc.nonconverged": ("count", "lower"),
    "transient.accepted_steps": ("count", "lower"),
    "transient.resolves_per_accepted_step": ("count", "lower"),
    "transient.simulate.self_s": ("s", "lower"),
    "transient.underflows": ("count", "lower"),
    "smallsignal.self_s": ("s", "lower"),
    "smallsignal.linearize.resolves_per_call": ("count", "lower"),
    "smallsignal.frequency_response.us_per_freq": ("us", "lower"),
    "smallsignal.frequency_response.ms_p50": ("ms", "lower"),
    "smallsignal.degenerate": ("count", "lower"),
    "switched.self_s": ("s", "lower"),
    "switched.run_switched.us_per_cycle_ccm": ("us", "lower"),
    "switched.run_switched.us_per_cycle_dcm": ("us", "lower"),
    "switched.dcm_cycle_fraction": ("ratio", "lower"),
    "switched.cycle_average.ms_p50": ("ms", "lower"),
    "switched.event_errors": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_SAMPLE_STRIDE = 61         # keep every 61st state each caller resolves ...
_SAMPLE_CAP = 256           # ... up to this many in all, for isolated timing


class Tracer:
    """In-memory spans, counters and sampled avgmodel states."""

    def __init__(self):
        self.stack = []                 # open spans: [name, child seconds]
        self.durations = {}             # span name -> [seconds]
        self.self_times = {}            # span name -> [seconds]
        self.counts = Counter()
        self.modes = Counter()          # resolved conduction modes
        self.per_cycle = {"CCM": [], "DCM": []}   # run_switched us per cycle
        self.samples = []               # (spec, d, x) for isolated timing
        self._child_files = 0

    # -- spans -----------------------------------------------------------
    def span(self, name, fn):
        digest = _DIGESTS.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts["error." + name + "." + type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                self.stack.pop()
                self.durations.setdefault(name, []).append(elapsed)
                self.self_times.setdefault(name, []).append(elapsed - frame[1])
                if self.stack:
                    self.stack[-1][1] += elapsed
            if digest is not None:
                digest(self, result, elapsed)
            return result
        return wrapper

    def api(self, raw):
        """Span-wrapped versions of the public functions in ``raw``."""
        wrapped = {name: self.span(SPANS[name], getattr(raw, name)) for name in SPANS}
        return Api(absorb_child=self.absorb_child,
                   next_child_path=self.next_child_path, **wrapped)

    # -- inner counters --------------------------------------------------
    def _counter(self, caller):
        """Per-call bookkeeping for one caller module, kept cheap: it runs
        on every resolve."""
        key = "resolve." + caller
        counts, modes, samples, stack = self.counts, self.modes, self.samples, self.stack

        def note(ports, spec, d, x):
            if not stack:
                return
            counts[key] += 1
            modes[ports.mode] += 1
            if ports.fallback:
                counts["resolve.fallback"] += 1
            if counts[key] % _SAMPLE_STRIDE == 0 and len(samples) < _SAMPLE_CAP:
                samples.append((spec, float(d), np.array(x, dtype=float)))
        return note

    def count_resolve(self, caller, resolve):
        note = self._counter(caller)

        def wrapper(spec, d, x):
            ports = resolve(spec, d, x)
            note(ports, spec, d, x)
            return ports
        return wrapper

    def count_derivative(self, caller, resolve, derivative):
        # Resolving here and passing ``ports`` on computes exactly what
        # derivative(spec, d, x) computes, and exposes the resolved mode.
        note = self._counter(caller)
        counts, stack = self.counts, self.stack

        def wrapper(spec, d, x, ports=None):
            if ports is None:
                ports = resolve(spec, d, x)
                note(ports, spec, d, x)
            if stack:
                counts["derivative"] += 1
            return derivative(spec, d, x, ports)
        return wrapper

    # -- CLI child processes ---------------------------------------------
    def next_child_path(self, directory):
        self._child_files += 1
        return "%s/cli-%d.json" % (directory, self._child_files)

    def dump(self, path):
        data = {"durations": self.durations, "self_times": self.self_times,
                "counts": dict(self.counts), "modes": dict(self.modes),
                "per_cycle": self.per_cycle,
                "samples": [[dataclasses.asdict(s), d, list(x)]
                            for s, d, x in self.samples]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def absorb_child(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for name, values in data["durations"].items():
            self.durations.setdefault(name, []).extend(values)
        for name, values in data["self_times"].items():
            self.self_times.setdefault(name, []).extend(values)
        self.counts.update(data["counts"])
        self.modes.update(data["modes"])
        for mode, values in data["per_cycle"].items():
            self.per_cycle[mode].extend(values)
        for spec, d, x in data["samples"]:
            if len(self.samples) < _SAMPLE_CAP:
                self.samples.append((ConverterSpec(**spec), d, np.array(x)))


class Api:
    """The functions an operation calls, raw or span-wrapped."""

    def __init__(self, absorb_child=None, next_child_path=None, **functions):
        self.absorb_child = absorb_child
        self.next_child_path = next_child_path
        self.__dict__.update(functions)


def raw_api():
    return Api(**{name: getattr(convavg, name) for name in SPANS})


# -- result digests: work counters read off each call's return value ------

def _digest_solve(tracer, op, _):
    tracer.counts["dc.points"] += 1
    tracer.counts["dc.iterations"] += op.iterations


def _digest_sweep(tracer, points, _):
    tracer.counts["dc.points"] += len(points)
    tracer.counts["dc.sweep_points"] += len(points)
    tracer.counts["dc.iterations"] += sum(p.iterations for p in points)
    tracer.counts["dc.nonconverged"] += sum(not p.converged for p in points)


def _digest_simulate(tracer, wf, _):
    tracer.counts["transient.accepted"] += len(wf.times) - 1


def _digest_linearize(tracer, model, _):
    tracer.counts["smallsignal.degenerate"] += bool(model.degenerate)


def _digest_response(tracer, resp, _):
    tracer.counts["smallsignal.freqs"] += resp.f.size


def _digest_switched(tracer, wf, elapsed):
    n_dcm = sum(s.mode == DCM for s in wf.summaries)
    tracer.counts["switched.cycles"] += wf.cycles_run
    tracer.counts["switched.dcm_cycles"] += n_dcm
    mode = "DCM" if 2 * n_dcm > wf.cycles_run else "CCM"
    tracer.per_cycle[mode].append(1e6 * elapsed / wf.cycles_run)


_DIGESTS = {
    "dc.solve_dc": _digest_solve,
    "dc.sweep_duty": _digest_sweep,
    "transient.simulate": _digest_simulate,
    "smallsignal.linearize": _digest_linearize,
    "smallsignal.frequency_response": _digest_response,
    "switched.run_switched": _digest_switched,
}


@contextlib.contextmanager
def installed(tracer):
    """Wrap the avgmodel names where the solver modules and cli bind them,
    and the solver names where cli binds them; restore on exit."""
    resolve, derivative = avgmodel.resolve_ports, avgmodel.derivative
    patches = []
    for module, caller in ((dc, "dc"), (transient, "transient"),
                           (smallsignal, "smallsignal"), (cli, "cli")):
        patches.append((module, "resolve_ports", tracer.count_resolve(caller, resolve)))
        if hasattr(module, "derivative"):
            patches.append((module, "derivative",
                            tracer.count_derivative(caller, resolve, derivative)))
    for name, span in SPANS.items():
        if hasattr(cli, name):
            patches.append((cli, name, tracer.span(span, getattr(cli, name))))
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


# -- per-layer metrics -----------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def isolated_us(fn, samples, repeats=20):
    """Median microseconds per call of fn(spec, d, x) over sampled states."""
    per_state = []
    for spec, d, x in samples:
        t0 = perf_counter()
        for _ in range(repeats):
            fn(spec, d, x)
        per_state.append(1e6 * (perf_counter() - t0) / repeats)
    return _median(per_state)


def layer_metrics(tracer, overhead_pct):
    """Every per-layer metric, 0 where the workload does not reach a layer."""
    c = tracer.counts
    resolves = sum(c["resolve." + caller] for caller in CALLERS)
    dur = tracer.durations
    selfs = tracer.self_times
    resolve_us = isolated_us(avgmodel.resolve_ports, tracer.samples)
    m = {
        "config.parse_config.us_p50": 1e6 * _median(dur.get("config.parse_config", [])),
        "avgmodel.resolve_ports.us_p50": resolve_us,
        "avgmodel.derivative.us_p50": isolated_us(avgmodel.derivative, tracer.samples),
        "avgmodel.derivative.calls": c["derivative"],
        "avgmodel.dcm_fraction": _ratio(tracer.modes[DCM], resolves),
        "avgmodel.fallback_calls": c["resolve.fallback"],
        "avgmodel.est_s": 1e-6 * resolve_us * resolves,
        "dc.resolves_per_solve": _ratio(c["resolve.dc"], c["dc.points"]),
        "dc.newton_iters_mean": _ratio(c["dc.iterations"], c["dc.points"]),
        "dc.sweep_duty.ms_per_point": _ratio(1e3 * sum(dur.get("dc.sweep_duty", [])),
                                             c["dc.sweep_points"]),
        "dc.nonconverged": (c["dc.nonconverged"]
                            + c["error.dc.solve_dc.NonConvergence"]),
        "transient.accepted_steps": c["transient.accepted"],
        "transient.resolves_per_accepted_step": _ratio(c["resolve.transient"],
                                                       c["transient.accepted"]),
        "transient.simulate.self_s": sum(selfs.get("transient.simulate", [])),
        "transient.underflows": c["error.transient.simulate.StepSizeUnderflow"],
        "smallsignal.linearize.resolves_per_call": _ratio(
            c["resolve.smallsignal"], len(dur.get("smallsignal.linearize", []))),
        "smallsignal.frequency_response.us_per_freq": _ratio(
            1e6 * sum(dur.get("smallsignal.frequency_response", [])),
            c["smallsignal.freqs"]),
        "smallsignal.frequency_response.ms_p50": 1e3 * _median(
            dur.get("smallsignal.frequency_response", [])),
        "smallsignal.degenerate": c["smallsignal.degenerate"],
        "switched.run_switched.us_per_cycle_ccm": _median(tracer.per_cycle["CCM"]),
        "switched.run_switched.us_per_cycle_dcm": _median(tracer.per_cycle["DCM"]),
        "switched.dcm_cycle_fraction": _ratio(c["switched.dcm_cycles"],
                                              c["switched.cycles"]),
        "switched.cycle_average.ms_p50": 1e3 * _median(
            dur.get("switched.cycle_average", [])),
        "switched.event_errors": c["error.switched.run_switched.EventDetectionError"],
        "trace.overhead_pct": overhead_pct,
    }
    for caller in CALLERS:
        m["avgmodel.resolve_ports.calls." + caller] = c["resolve." + caller]
    for command in CLI_COMMANDS:
        m["cli.%s.self_ms" % command] = 1e3 * _median(selfs.get("cli." + command, []))
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(sum(v) for k, v in selfs.items()
                                   if k.split(".", 1)[0] == layer)
    return m
