"""The four benchmark workloads.

Each workload is an endless sequence of *rounds* drawn from a seeded
``random.Random``.  A round is a list of operations; the runner always
finishes the round it started, so every run holds whole rounds and the
mix of operation kinds is the same on every seed.  An operation times
only its calls into convavg (through ``api``, which the traced run
replaces by span-recording wrappers) and then checks its outputs
untimed.  Round 0 always holds the bundled ``sepic_bench``/``cuk_bench``
points.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

import numpy as np

import convavg as ca

PARASITICS = ("R_L1", "R_L2", "R_on1", "V_d", "R_d", "R_C1", "R_C2")

# Correctness limits, taken from the acceptance contract.
DC_TOL = 1e-9               # solve_dc's default convergence tolerance
GAIN_LIMIT_PCT = 0.5        # criterion 6: linearized DC gain vs FD of solve_dc
SETTLE_LIMIT_PCT = 0.5      # criterion 7: settled transient vs solve_dc
FD_DUTY_STEP = 1e-4         # criterion 6's central-difference step

BUNDLED = ("sepic_bench", "cuk_bench")


@dataclass
class Result:
    """Outcome of one operation: timed seconds, work items, checks."""

    seconds: float
    work: float
    ops: int = 1
    failed: int = 0
    samples: dict = field(default_factory=dict)   # metric name -> list of values
    errors: dict = field(default_factory=dict)    # error metric -> worst value
    notes: list = field(default_factory=list)


def pct(measured, reference):
    return 100.0 * abs(measured - reference) / max(abs(reference), 1e-12)


def loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def bundled_text(name):
    return resources.files("convavg").joinpath("configs", name + ".conf").read_text(
        encoding="utf-8")


def load_bundled(api):
    """Parse both bundled configs through ``api.parse_config``."""
    return [api.parse_config(bundled_text(name)) for name in BUNDLED]


def warm_up(api):
    """Exercise every analysis once so that lazy imports and first-call
    set-up are not timed."""
    for parsed in load_bundled(api):
        spec, d = parsed.spec, parsed.duty
        op = solve(spec, d)
        model = ca.linearize(spec, op)
        ca.frequency_response(model, "duty", f=[10.0, 100.0])
        ca.simulate(spec, ca.Stimulus(duty=d), 1e-4, initial=op.state)
        wf = ca.run_switched(ca.SwitchedRunConfig(spec=spec, D=d, n_cycles=1,
                                                  initial=op.state))
        ca.cycle_average(wf, 0)


def perturb(rng, spec, load=(1 / 3, 3.0), l2=(1 / 3, 3.0), par=(0.5, 2.0)):
    """Non-ideal variant: load, L2 and parasitic scale drawn log-uniformly."""
    scale = loguniform(rng, *par)
    changes = {name: getattr(spec, name) * scale for name in PARASITICS}
    changes["R"] = spec.R * loguniform(rng, *load)
    changes["L2"] = spec.L2 * loguniform(rng, *l2)
    return dataclasses.replace(spec, **changes)


def residual_norm(spec, d, x):
    """solve_dc's scaled residual norm, recomputed from avgmodel.derivative."""
    r = ca.derivative(spec, d, x) * np.array([spec.L1, spec.L2, spec.C1, spec.C2])
    v_scale = abs(spec.Vg) + abs(x[2]) + abs(x[3]) + 1.0
    i_scale = abs(x[0]) + abs(x[1]) + 1.0
    return max(abs(r[0]) / v_scale, abs(r[1]) / v_scale,
               abs(r[2]) / i_scale, abs(r[3]) / i_scale)


def solve(spec, d):
    return ca.solve_dc(ca.OperatingPointRequest(spec=spec, D=d))


def dc_ok(spec, op):
    if not op.converged:
        return False, float("inf")
    res = residual_norm(spec, op.D, op.state.as_array())
    return res <= DC_TOL, res


def fd_gain(op, solve_at, h):
    """Central difference of V0, one-sided when a probe changes mode
    (the same mode-consistent rule ``linearize`` follows)."""
    plus, minus = solve_at(+h), solve_at(-h)
    if plus.mode == op.mode and minus.mode != op.mode:
        return (plus.V0 - op.V0) / h
    if minus.mode == op.mode and plus.mode != op.mode:
        return (op.V0 - minus.V0) / h
    return (plus.V0 - minus.V0) / (2.0 * h)


def dc_gain(model, B, D_feed):
    return float(model.C @ np.linalg.solve(-model.A, B) + D_feed)


# ---------------------------------------------------------------- design-grid

GRID_COLD = 6                   # cold solves per variant
GRID_SWEEP = (0.1, 0.85, 0.025)  # 31-point warm-started sweep across CCM/DCM


def _cold_op(api, spec, d, with_ac):
    """A cold solve from the closed-form guess, optionally followed by AC."""
    def run():
        t = perf_counter()
        op = api.solve_dc(ca.OperatingPointRequest(spec=spec, D=d))
        dt = perf_counter() - t
        ok, res = dc_ok(spec, op)
        result = Result(dt, 1.0, failed=0 if ok else 1,
                        samples={"dc_solve_ms": [dt * 1e3]},
                        errors={"dc_residual_max": res},
                        notes=[] if ok else ["dc residual %.3g at D=%.4f" % (res, d)])
        if with_ac and ok:
            result = merge(result, _ac(api, spec, op))
        return result
    return run


def _sweep_op(api, spec):
    def run():
        t = perf_counter()
        points = api.sweep_duty(spec, *GRID_SWEEP)
        dt = perf_counter() - t
        bad, worst = 0, 0.0
        for op in points:
            ok, res = dc_ok(spec, op)
            bad += not ok
            worst = max(worst, res)
        return Result(dt, float(len(points)), ops=len(points), failed=bad,
                      samples={"sweep_s": [dt], "sweep_points": [len(points)]},
                      errors={"dc_residual_max": worst},
                      notes=["%d sweep points failed" % bad] if bad else [])
    return run


def _ac(api, spec, op):
    """linearize plus both frequency responses; DC gains checked by FD."""
    t = perf_counter()
    model = api.linearize(spec, op)
    duty = api.frequency_response(model, "duty")
    source = api.frequency_response(model, "source")
    dt = perf_counter() - t
    h_g = 1e-4 * spec.Vg
    g_d = fd_gain(op, lambda s: solve(spec, op.D + s), FD_DUTY_STEP)
    g_g = fd_gain(op, lambda s: solve(dataclasses.replace(spec, Vg=spec.Vg + s),
                                      op.D), h_g)
    err = max(pct(dc_gain(model, model.B_d, model.D_d), g_d),
              pct(dc_gain(model, model.B_g, model.D_g), g_g))
    finite = all(np.all(np.isfinite(r.magnitude_db)) for r in (duty, source))
    ok = finite and err <= GAIN_LIMIT_PCT
    return Result(dt, 2.0, failed=0 if ok else 1,
                  samples={"ac_s": [dt]},
                  errors={"dc_gain_err_pct_max": err},
                  notes=[] if ok else ["DC gain error %.3g%% at %s D=%.4f"
                                       % (err, spec.kind, op.D)])


def design_grid_round(api, rng, index):
    """One SEPIC and one Cuk variant: cold solves, a sweep, AC at one point.

    AC runs at the first cold point of each variant, not at every solved
    point: one AC pair costs about fifty cold solves, so at every point
    the frequency loop would drown the DC/Newton share of the round."""
    ops = []
    for parsed in load_bundled(api):
        spec = parsed.spec if index == 0 else perturb(rng, parsed.spec)
        duties = [rng.uniform(0.1, 0.85) for _ in range(GRID_COLD)]
        if index == 0:
            duties[0] = parsed.duty
        ops += [_cold_op(api, spec, d, k == 0) for k, d in enumerate(duties)]
        ops.append(_sweep_op(api, spec))
    return ops


def merge(a, b):
    out = Result(a.seconds + b.seconds, a.work + b.work, a.ops + b.ops,
                 a.failed + b.failed, notes=a.notes + b.notes)
    for src in (a, b):
        for k, v in src.samples.items():
            out.samples.setdefault(k, []).extend(v)
        for k, v in src.errors.items():
            out.errors[k] = max(out.errors.get(k, 0.0), v)
    return out


# ------------------------------------------------------------ transient-drive

def _tran_op(api, label, spec, stim, t_end, initial, final_spec, final_d):
    def run():
        t = perf_counter()
        wf = api.simulate(spec, stim, t_end, initial=initial)
        dt = perf_counter() - t
        ref = solve(final_spec, final_d)
        err = pct(wf.v0[-1], ref.V0)
        ok = bool(np.isfinite(err)) and err <= SETTLE_LIMIT_PCT
        return Result(dt, 1e3 * t_end, failed=0 if ok else 1,
                      samples={"tran_run_s": [dt]},
                      errors={"settle_err_pct_max": err},
                      notes=[] if ok else ["%s %s settle error %.3g%%"
                                           % (spec.kind, label, err)])
    return run


# Settling windows: long enough for the slowest mode of each bench
# network (criterion 7 uses 0.25 s / 0.4 s from zero).
TRAN_T_END = {"sepic": 0.25, "cuk": 0.4}
# CCM targets sit just above the variant's ideal CCM/DCM boundary
# 1 - sqrt(K): the C1 ring, and with it the cost of a SEPIC run, grows
# steeply with the target duty.
TRAN_CCM_MARGIN = {"sepic": (0.02, 0.06), "cuk": (0.03, 0.08)}
TRAN_DCM_DUTY = {"sepic": (0.15, 0.25), "cuk": (0.3, 0.4)}


def transient_round(api, rng, index):
    """Per topology: a load plus winding-resistance parameter step, then
    start-up from zero into CCM, a DCM->CCM duty step and a ramp from a
    solved point.  Capacitor ESR is not in ``transient.STEPPABLE``, so the
    resistance stepped next to the load is L1's, R_L1."""
    ops = []
    for parsed in load_bundled(api):
        bench = parsed.spec
        spec = bench if index == 0 else perturb(rng, bench, load=(0.9, 1.1),
                                                l2=(0.9, 1.1), par=(0.9, 1.1))
        kind = spec.kind
        t_end = TRAN_T_END[kind]
        k = 2.0 * ca.equivalent_inductance(spec) * spec.f_s / spec.R
        # one CCM target per drive, each from its own third of the margin
        # range, so every round spans the range whatever the seed
        lo, hi = TRAN_CCM_MARGIN[kind]
        d_ccm = [1.0 - math.sqrt(k) + lo + (j + rng.random()) * (hi - lo) / 3
                 for j in range(3)]
        rng.shuffle(d_ccm)
        d_dcm = parsed.duty if index == 0 else rng.uniform(*TRAN_DCM_DUTY[kind])
        start = solve(spec, d_dcm).state

        new_r = spec.R * loguniform(rng, 0.5, 2.0)
        new_rl1 = spec.R_L1 * loguniform(rng, 0.5, 2.0)
        params = ca.Stimulus(duty=d_dcm, parameter_steps=((1e-3, "R", new_r),
                                                          (2e-3, "R_L1", new_rl1)))
        after = dataclasses.replace(spec, R=new_r, R_L1=new_rl1)
        # a doubled load slows the DCM output pole: give it twice the window
        ops.append(_tran_op(api, "parameter step", spec, params, 2 * t_end, start,
                            after, d_dcm))

        hold = ((0.0, d_dcm), (1e-3, d_dcm))
        drives = (
            ("start-up", ca.Stimulus(duty=d_ccm[0]), None, d_ccm[0]),
            ("duty step", ca.Stimulus(duty=hold + ((1e-3, d_ccm[1]),)), start, d_ccm[1]),
            ("duty ramp", ca.Stimulus(duty=hold + ((6e-3, d_ccm[2]),)), start, d_ccm[2]),
        )
        for label, stim, initial, d in drives:
            ops.append(_tran_op(api, label, spec, stim, t_end, initial, spec, d))
    return ops


# -------------------------------------------------------- switched-crosscheck

SWITCHED_CYCLES = 100
SWITCHED_STEPS = 1000
SWITCHED_DUTY = {"sepic": (0.15, 0.7), "cuk": (0.25, 0.75)}


def _switched_op(api, spec, d):
    def run():
        t = perf_counter()
        op = api.solve_dc(ca.OperatingPointRequest(spec=spec, D=d))
        wf = api.run_switched(ca.SwitchedRunConfig(
            spec=spec, D=d, n_cycles=SWITCHED_CYCLES,
            steps_per_cycle=SWITCHED_STEPS, initial=op.state), steady_tol=0.0)
        last = wf.cycles_run - 1
        I1, I2, _, _, _ = api.cycle_average(wf, last)
        dt = perf_counter() - t
        ports = ca.resolve_ports(spec, d, op.state.as_array())
        errs = (pct(wf.summaries[last].v0_avg, op.V0), pct(I1, ports.I1),
                pct(I2, ports.I2))
        ok = all(np.isfinite(e) for e in errs) and wf.cycles_run == SWITCHED_CYCLES
        return Result(dt, float(wf.cycles_run), failed=0 if ok else 1,
                      samples={"crosscheck_s": [dt]},
                      errors={"switched_err_pct_max": max(errs)},
                      notes=[] if ok else ["%s D=%.4f cross-check not computed"
                                           % (spec.kind, d)])
    return run


def switched_round(api, rng, index):
    """A CCM and a DCM point per topology, each at its own seeded load."""
    ops = []
    for parsed in load_bundled(api):
        bench = parsed.spec
        if index == 0:
            ops.append(_switched_op(api, bench, parsed.duty))
        for want_dcm in (False, True):
            while True:
                spec = dataclasses.replace(bench, R=bench.R * loguniform(rng, 0.2, 5.0))
                d = rng.uniform(*SWITCHED_DUTY[bench.kind])
                if ca.dcm_predicted(spec, d) == want_dcm:
                    break
            ops.append(_switched_op(api, spec, d))
    return ops


# ---------------------------------------------------------------- cli-bundled

CLI_COMPARE_CYCLES = 50
CLI_SWEEP = ("--from", "0.1", "--to", "0.85", "--step", "0.05")


def cli_argvs():
    """The five subcommands on both bundled configs."""
    out = []
    for name in BUNDLED:
        cfg = ("--config", name)
        out += [("dc",) + cfg, ("tran",) + cfg, ("ac",) + cfg,
                ("sweep",) + cfg + CLI_SWEEP,
                ("compare",) + cfg + ("--cycles", str(CLI_COMPARE_CYCLES))]
    return out


def _cli_check(argv, proc, reference):
    """Validate one CLI invocation's exit code and output."""
    if proc.returncode != 0:
        return "exit code %d: %s" % (proc.returncode, proc.stderr.strip()[-200:])
    lines = proc.stdout.splitlines()
    sub, name = argv[0], argv[2]
    ref_v0, ref_freqs = reference[name]
    if sub == "dc":
        fields = dict(line.split(" = ", 1) for line in lines if " = " in line)
        v0 = float(fields.get("V0", "nan"))
        if not abs(v0 - ref_v0) <= 1e-9 * abs(ref_v0):
            return "dc V0 %r differs from solve_dc %r" % (v0, ref_v0)
    elif sub == "tran":
        rows = [line.split(",") for line in lines[1:] if line and line[0].isdigit()]
        if len(rows) < 10 or not np.isfinite(float(rows[-1][5])):
            return "tran wrote %d rows" % len(rows)
    elif sub == "ac":
        margin_lines = [line for line in lines if line.startswith("phase_margin_deg")]
        rows = [line for line in lines[1:] if line and line[0].isdigit()]
        if not margin_lines or len(rows) != ref_freqs:
            return "ac wrote %d of %d rows, %d margin lines" % (
                len(rows), ref_freqs, len(margin_lines))
    elif sub == "sweep":
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != 16 or any(r[-1] not in ("CCM", "DCM") for r in rows):
            return "sweep wrote %d rows" % len(rows)
    elif sub == "compare":
        rows = [line.split(",") for line in lines[1:10]]
        if len(rows) != 9 or not all(np.isfinite(float(r[3])) for r in rows):
            return "compare table malformed"
    return None


def cli_environment(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _cli_op(api, argv, src, reference, stats_dir):
    def run():
        traced = stats_dir is not None
        if traced:
            path = api.next_child_path(stats_dir)
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"),
                   path] + list(argv)
        else:
            cmd = [sys.executable, "-m", "convavg"] + list(argv)
        t = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=cli_environment(src), timeout=120)
        dt = perf_counter() - t
        if traced:
            api.absorb_child(path)
        problem = _cli_check(argv, proc, reference)
        return Result(dt, 1.0, failed=0 if problem is None else 1,
                      samples={"cli_s": [dt], "cli_%s_s" % argv[0]: [dt]},
                      notes=[] if problem is None else
                      ["%s: %s" % (" ".join(argv), problem)])
    return run


def cli_round(api, rng, index, src, reference, stats_dir):
    """All ten invocations in seeded order."""
    load_bundled(api)
    argvs = cli_argvs()
    rng.shuffle(argvs)
    return [_cli_op(api, argv, src, reference, stats_dir) for argv in argvs]


def cli_reference(api):
    """Per bundled config, the in-process V0 at its default duty and the
    size of its default frequency grid, for checking ``dc`` and ``ac``."""
    return {name: (solve(parsed.spec, parsed.duty).V0,
                   ca.default_frequency_grid(parsed.spec).size)
            for name, parsed in zip(BUNDLED, load_bundled(api))}
