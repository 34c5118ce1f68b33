"""Acceptance suite.

Each test checks one release criterion end to end and prints a single
PASS/FAIL line (bypassing capture, so the verdicts always appear in the
run log).  Tolerances are the contractual ones, not the tighter
regression bounds used by the unit tests.  Known shortfalls are
documented in the assertion messages rather than papered over.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from convavg import (
    OperatingPointRequest,
    Stimulus,
    SwitchedRunConfig,
    cycle_average,
    frequency_response,
    linearize,
    run_switched,
    simulate,
    solve_dc,
    sweep_duty,
)
from convavg.avgmodel import resolve_ports
from convavg.converter import dcm_predicted, effective_resistance
from strategies import CUK_BENCH, SEPIC_BENCH


def verdict(capfd, number, ok, detail):
    line = "[criterion %d] %s  %s" % (number, "PASS" if ok else "FAIL", detail)
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def pct(measured, reference):
    return 100.0 * abs(measured - reference) / abs(reference)


def solve(spec, d):
    return solve_dc(OperatingPointRequest(spec=spec, D=d))


def test_criterion_1_sepic_dc_point(capfd):
    t0 = time.perf_counter()
    op = solve(SEPIC_BENCH, 0.2)
    ideal = solve(dataclasses.replace(SEPIC_BENCH, ideal=True), 0.2)
    elapsed = time.perf_counter() - t0
    closed_form = 62.0 * math.sqrt(52.0 / 409.76)
    err_nonideal = pct(op.V0, 22.0)
    err_ideal = pct(ideal.V0, closed_form)
    ok = err_nonideal <= 5.0 and err_ideal <= 0.1 and elapsed < 1.0
    verdict(capfd, 1, ok,
            "SEPIC DC: non-ideal %.4f V (%.2f%% from 22 V, limit 5%%), "
            "ideal %.4f V (%.4f%% from closed form, limit 0.1%%), %.2f s"
            % (op.V0, err_nonideal, ideal.V0, err_ideal, elapsed))


def test_criterion_2_cuk_dc_point(capfd):
    t0 = time.perf_counter()
    op = solve(CUK_BENCH, 0.42)
    ideal = solve(dataclasses.replace(CUK_BENCH, ideal=True), 0.42)
    elapsed = time.perf_counter() - t0
    closed_form = 25.0 * 0.42 * math.sqrt(100.0 / (2.0 * 0.5e-3 * 20e3))
    err_nonideal = pct(abs(op.V0), 21.0)
    err_ideal = pct(abs(ideal.V0), closed_form)
    ok = err_nonideal <= 10.0 and err_ideal <= 0.1 and elapsed < 1.0
    verdict(capfd, 2, ok,
            "Cuk DC: non-ideal |V0| %.4f V (%.2f%% from 21 V, limit 10%%), "
            "ideal %.4f V (%.4f%% from closed form, limit 0.1%%), %.2f s"
            % (abs(op.V0), err_nonideal, abs(ideal.V0), err_ideal, elapsed))


def test_criterion_3_averaged_vs_switched(capfd):
    failures = []
    notes = []
    for name, spec, d in (("SEPIC", SEPIC_BENCH, 0.2), ("Cuk", CUK_BENCH, 0.42)):
        t0 = time.perf_counter()
        op = solve(spec, d)
        ports = resolve_ports(spec, d, op.state.as_array())
        wf = run_switched(SwitchedRunConfig(spec=spec, D=d, n_cycles=2000,
                                            steps_per_cycle=1000,
                                            initial=op.state),
                          steady_tol=0.0)
        last = wf.cycles_run - 1
        I1, I2, V1, V2, duties = cycle_average(wf, last)
        errs = {"V0": pct(wf.summaries[last].v0_avg, op.V0),
                "I1": pct(I1, ports.I1),
                "I2": pct(I2, ports.I2),
                "duty relation": pct(duties.D2,
                                     duties.D1 * ports.V1 / ports.V2)}
        elapsed = time.perf_counter() - t0
        if elapsed >= 30.0:
            failures.append("%s runtime %.1f s" % (name, elapsed))
        for key, err in errs.items():
            if err > 2.0:
                failures.append("%s %s %.2f%%" % (name, key, err))
        notes.append("%s worst %.2f%% in %.1f s" %
                     (name, max(errs.values()), elapsed))
    detail = "averaged vs switched (limit 2%): " + ", ".join(notes)
    if failures:
        detail += "; over limit: " + "; ".join(failures)
    verdict(capfd, 3, not failures, detail)


def _mode_grid(spec):
    """Ideal-variant operating points over the criterion 4 duty/load grid."""
    ideal = dataclasses.replace(spec, ideal=True)
    for load in np.logspace(np.log10(0.5), np.log10(500.0), 10):
        varied = dataclasses.replace(ideal, R=float(load))
        for d in np.linspace(0.05, 0.95, 50):
            yield varied, float(d), solve(varied, float(d))


def _crossover_duty(spec):
    ideal = dataclasses.replace(spec, ideal=True)
    lo, hi = 0.05, 0.95
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if solve(ideal, mid).mode == "DCM":
            lo = mid
        else:
            hi = mid
    return ideal, 0.5 * (lo + hi)


def test_criterion_4_mode_law(capfd):
    total = agree = 0
    for spec, d, op in _mode_grid(SEPIC_BENCH):
        total += 1
        agree += op.mode == ("DCM" if dcm_predicted(spec, d) else "CCM")
    for spec, d, op in _mode_grid(CUK_BENCH):
        total += 1
        agree += op.mode == ("DCM" if dcm_predicted(spec, d) else "CCM")
    worst_kink = 0.0
    for base in (SEPIC_BENCH, CUK_BENCH):
        ideal, dstar = _crossover_duty(base)
        worst_kink = max(worst_kink, abs(solve(ideal, dstar).mu - dstar))
    ok = agree == total and worst_kink < 1e-6
    verdict(capfd, 4, ok,
            "mode law: %d/%d grid points agree with the conduction "
            "criterion, |mu - D| at the bisected boundary %.1e (limit 1e-6)"
            % (agree, total, worst_kink))


def test_criterion_5_power_conservation(capfd):
    worst_power = worst_lfr = 0.0
    n = 0
    for base in (SEPIC_BENCH, CUK_BENCH):
        for spec, d, op in _mode_grid(base):
            if op.mode != "DCM":
                continue
            n += 1
            ports = resolve_ports(spec, d, op.state.as_array())
            p_in = ports.V1 * ports.I1
            worst_power = max(worst_power,
                              abs(p_in - ports.V2 * ports.I2) / p_in)
            worst_lfr = max(worst_lfr,
                            abs(ports.I1 - ports.V1 /
                                effective_resistance(spec, d)) / ports.I1)
    ok = n > 0 and worst_power < 1e-9 and worst_lfr < 1e-9
    verdict(capfd, 5, ok,
            "power conservation over %d DCM equilibria: worst transfer "
            "residual %.1e, worst input-resistance residual %.1e (limit 1e-9)"
            % (n, worst_power, worst_lfr))


def test_criterion_6_margins(capfd):
    sepic_model = linearize(SEPIC_BENCH, solve(SEPIC_BENCH, 0.2))
    cuk_model = linearize(CUK_BENCH, solve(CUK_BENCH, 0.42))
    sm = frequency_response(sepic_model, "duty").margins
    cm = frequency_response(cuk_model, "duty").margins

    soft = [
        ("SEPIC phase crossover", sm.phase_crossover_hz, 1814.0),
        ("SEPIC gain margin", sm.gain_margin_db, 5.254),
        ("SEPIC gain crossover", sm.gain_crossover_hz, 76834.0),
        ("SEPIC phase margin", sm.phase_margin_deg, 92.845),
        ("Cuk gain crossover", cm.gain_crossover_hz, 81982.0),
    ]
    misses = []
    hits = 0
    for name, measured, target in soft:
        if measured is not None and pct(measured, target) <= 15.0:
            hits += 1
        else:
            shown = float("nan") if measured is None else measured
            misses.append("%s %.4g vs %.4g" % (name, shown, target))
    gm_absent = cm.gain_margin_db == np.inf
    if gm_absent:
        hits += 1
    else:
        misses.append("Cuk gain margin %.4g not infinite" % cm.gain_margin_db)

    hard_worst = 0.0
    h = 1e-4
    for spec, d, model in ((SEPIC_BENCH, 0.2, sepic_model),
                           (CUK_BENCH, 0.42, cuk_model)):
        fd = (solve(spec, d + h).V0 - solve(spec, d - h).V0) / (2.0 * h)
        g0 = float(model.C @ np.linalg.solve(-model.A, model.B_d) + model.D_d)
        hard_worst = max(hard_worst, pct(g0, fd))

    ok = not misses and hard_worst <= 0.5
    detail = ("margins: %d/6 soft targets within 15%%, hard DC-gain "
              "companion worst %.3f%% (limit 0.5%%)" % (hits, hard_worst))
    if misses:
        detail += "; missed: " + "; ".join(misses)
    verdict(capfd, 6, ok, detail)


def test_criterion_7_transient_consistency(capfd):
    failures = []
    notes = []
    t0 = time.perf_counter()
    for name, spec, d, t_end in (("SEPIC", SEPIC_BENCH, 0.2, 0.25),
                                 ("Cuk", CUK_BENCH, 0.42, 0.4)):
        op = solve(spec, d)
        wf = simulate(spec, Stimulus(duty=d), t_end)
        err = pct(wf.v0[-1], op.V0)
        notes.append("%s settle %.4f%%" % (name, err))
        if err > 0.5:
            failures.append("%s settle %.2f%%" % (name, err))
    settle_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    start = dataclasses.replace(SEPIC_BENCH, R_L1=0.13, R_L2=1.1)
    op0 = solve(start, 0.2)
    stim = Stimulus(duty=0.2, parameter_steps=((0.060, "R_L1", 0.65),
                                               (0.120, "R_L2", 0.11)))
    wf = simulate(start, stim, t_end=0.18, initial=op0.state)
    step_time = time.perf_counter() - t0
    t = np.asarray(wf.times)
    v0 = np.asarray(wf.v0)
    seg_end = [v0[t <= edge][-1] for edge in (0.060, 0.120, 0.18)]
    peak_in_final = t[int(np.argmax(v0))] > 0.120
    ordered = seg_end[2] > seg_end[0] and seg_end[2] > seg_end[1]
    notes.append("resistance-step segments end at %.3f/%.3f/%.3f V"
                 % tuple(seg_end))
    if not (peak_in_final and ordered):
        failures.append("high-R_L1/low-R_L2 segment did not give the "
                        "maximum output")
    if settle_time >= 10.0 or step_time >= 10.0:
        failures.append("runtime %.1f s + %.1f s" % (settle_time, step_time))
    detail = ("transient consistency (settle limit 0.5%): " +
              ", ".join(notes) +
              ", %.1f s + %.1f s" % (settle_time, step_time))
    if failures:
        detail += "; " + "; ".join(failures)
    verdict(capfd, 7, not failures, detail)


def test_criterion_8_duty_sweep_monotonicity(capfd):
    points = sweep_duty(SEPIC_BENCH, 0.2, 0.9, 0.01)
    v0 = np.array([p.V0 for p in points])
    i1 = np.array([p.state.i_L1 for p in points])
    sepic_ok = bool(np.all(np.diff(v0) > 0.0) and np.all(np.diff(i1) > 0.0))

    cuk_points = sweep_duty(CUK_BENCH, 0.2, 0.9, 0.01)
    n_dcm = 0
    while (n_dcm < len(cuk_points) and cuk_points[n_dcm].mode == "DCM"):
        n_dcm += 1
    absv = np.abs([p.V0 for p in cuk_points[:n_dcm]])
    cuk_ok = n_dcm >= 10 and bool(np.all(np.diff(absv) > 0.0))

    ok = sepic_ok and cuk_ok
    verdict(capfd, 8, ok,
            "duty sweep: SEPIC V0 and i_L1 strictly increasing over "
            "[0.2, 0.9] = %s; Cuk |V0| monotone over its %d-point DCM "
            "range (up to D = %.2f) = %s"
            % (sepic_ok, n_dcm, cuk_points[n_dcm - 1].D, cuk_ok))
