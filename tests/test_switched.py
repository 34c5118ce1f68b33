"""Tests for the cycle-by-cycle switched reference simulator.

These runs are the ground truth the averaged model is judged against,
so the assertions here check the simulator's internal consistency
(flux balance, step-size convergence, interval bookkeeping) plus its
agreement with the averaged cell at matched operating points.
"""

import dataclasses

import numpy as np
import pytest

from convavg import (
    SEPIC,
    CCM,
    DCM,
    ConverterSpec,
    OperatingPointRequest,
    StateVector,
    SwitchedRunConfig,
    ValidationError,
    average_switch_waveforms,
    cycle_average,
    equivalent_inductance,
    run_switched,
    solve_dc,
)

SEPIC_BENCH = ConverterSpec(kind=SEPIC, Vg=62.0, R=52.0, L1=13e-3, L2=166e-6,
                         C1=0.5e-6, C2=1000e-6, f_s=50e3, R_L1=0.13, R_L2=0.11,
                         R_on1=0.031, V_d=0.7, R_d=0.12, R_C1=0.27, R_C2=0.11)


def seeded_run(spec, d, n_cycles, steps=1000):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    cfg = SwitchedRunConfig(spec=spec, D=d, n_cycles=n_cycles,
                            steps_per_cycle=steps, initial=op.state)
    return op, run_switched(cfg, record="last", steady_tol=0.0)


def test_final_cycle_reconstructs_averaged_cell_ports():
    """Steady-cycle port averages match the averaged cell at the
    cycle-averaged state within 2%."""
    op, wf = seeded_run(SEPIC_BENCH, 0.2, 600)
    ci = wf.cycles_run - 1
    i1_m, i2_m, v1_m, v2_m, duties = cycle_average(wf, ci)
    s = wf.summaries[ci]
    xavg = StateVector(i_L1=s.i_L1_avg, i_L2=s.i_L2_avg,
                       v_C1=s.v_C1_avg, v_C2=s.v_C2_avg)
    ap = average_switch_waveforms(SEPIC_BENCH, duties, xavg)
    for measured, modeled in ((v1_m, ap.V1), (v2_m, ap.V2),
                              (i1_m, ap.I1), (i2_m, ap.I2)):
        assert abs(measured - modeled) / abs(modeled) < 0.02


def test_final_cycle_flux_balance():
    # net volt-seconds on each inductor over a steady cycle vanish
    # relative to the intra-cycle flux excursion
    _, wf = seeded_run(SEPIC_BENCH, 0.2, 600)
    ci = wf.cycles_run - 1
    segs = [s for s in wf.segments if s[0] == ci]
    lo, hi = segs[0][2], segs[-1][3]
    for col in (0, 1):
        trace = wf.states[lo:hi + 1, col]
        net = abs(trace[-1] - trace[0])
        peak = np.max(np.abs(trace - trace[0]))
        assert net <= 1e-3 * peak


def test_duties_sum_exactly_to_one():
    _, wf = seeded_run(SEPIC_BENCH, 0.2, 60)
    d = wf.summaries[-1].duties
    assert d.D1 + d.D2 + d.D3 == 1.0
    assert d.D1 == pytest.approx(0.2, abs=1e-12)


def test_discontinuous_mode_confirmed_by_idle_interval():
    _, wf = seeded_run(SEPIC_BENCH, 0.2, 60)
    d = wf.summaries[-1].duties
    assert d.D3 > 0.0
    assert wf.summaries[-1].mode == DCM


def test_doubling_steps_leaves_cycle_averages_unchanged():
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    outs = []
    for steps in (1000, 2000):
        cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=200,
                                steps_per_cycle=steps, initial=op.state)
        outs.append(run_switched(cfg, record="last", steady_tol=0.0).summaries[-1])
    a, b = outs
    for field in ("v0_avg", "i_L1_avg", "i_L2_avg", "v_C1_avg", "v_C2_avg"):
        x, y = getattr(a, field), getattr(b, field)
        assert abs(x - y) / max(abs(y), 1e-12) < 1e-3


def test_triangle_peak_current_relation():
    """In an ideal steady DCM cycle the transistor-port current average
    equals D^2 * V1 * Ts / (2 * L_eq).

    The relation assumes the coupling-capacitor voltage is flat over the
    cycle, so it is checked on an ideal build with the coupling
    capacitor enlarged enough (50 uF) to make its ripple negligible; at
    the nameplate 0.5 uF the ripple curvature shifts the average by a
    couple of percent.
    """
    spec = dataclasses.replace(SEPIC_BENCH, C1=50e-6, ideal=True)
    op, wf = seeded_run(spec, 0.2, 300)
    ci = wf.cycles_run - 1
    i1_m, _, v1_m, v2_m, duties = cycle_average(wf, ci)
    leq = equivalent_inductance(spec)
    ts = 1.0 / spec.f_s
    predicted = 0.2 ** 2 * v1_m * ts / (2.0 * leq)
    assert abs(i1_m - predicted) / predicted < 0.01


def test_diode_interval_from_volt_second_balance():
    # D2 == D1 * V1 / V2 within 2% on the same ideal large-C1 run
    spec = dataclasses.replace(SEPIC_BENCH, C1=50e-6, ideal=True)
    _, wf = seeded_run(spec, 0.2, 300)
    ci = wf.cycles_run - 1
    _, _, v1_m, v2_m, duties = cycle_average(wf, ci)
    predicted = duties.D1 * v1_m / v2_m
    assert abs(duties.D2 - predicted) / duties.D2 < 0.02


def test_heavy_load_forces_continuous_conduction():
    # load divided by 100: the inductor-current sum never reaches zero
    # and the diode conducts for exactly the rest of the period
    spec = dataclasses.replace(SEPIC_BENCH, R=0.52)
    op, wf = seeded_run(spec, 0.2, 150)
    d = wf.summaries[-1].duties
    assert d.D2 == pytest.approx(0.8, abs=1e-12)
    assert d.D3 == 0.0
    assert wf.summaries[-1].mode == CCM
    i_sum = wf.states[:, 0] + wf.states[:, 1]
    assert i_sum.min() > 0.0


def test_cold_start_converges_to_dc_solution():
    # free-running start with the default steady detector active: the
    # final recorded cycle's output average lands within 2% of solve_dc
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=2000,
                            steps_per_cycle=1000)
    wf = run_switched(cfg, record="last")
    v0 = wf.summaries[-1].v0_avg
    assert abs(v0 - op.V0) / abs(op.V0) < 0.02


def test_record_all_retains_every_cycle():
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5,
                            steps_per_cycle=1000, initial=op.state)
    wf = run_switched(cfg, record="all", steady_tol=0.0)
    for ci in range(wf.cycles_run):
        i1, i2, v1, v2, duties = cycle_average(wf, ci)
        assert np.isfinite([i1, i2, v1, v2]).all()
    # with record="last" earlier cycles are dropped
    wf2 = run_switched(cfg, record="last", steady_tol=0.0)
    with pytest.raises(ValueError):
        cycle_average(wf2, 0)


def test_steady_tol_validation():
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5,
                            steps_per_cycle=1000)
    with pytest.raises(ValueError):
        run_switched(cfg, steady_tol=-1e-6)
    with pytest.raises(ValidationError):
        SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5, steps_per_cycle=500)


def test_config_rejects_bad_record_mode():
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5,
                            steps_per_cycle=1000)
    with pytest.raises(ValueError):
        run_switched(cfg, record="some")
