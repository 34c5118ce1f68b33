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
    CUK,
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
from convavg.switched import OPEN, _interval_system, _port_values, _v0_coeffs

SEPIC_BENCH = ConverterSpec(kind=SEPIC, Vg=62.0, R=52.0, L1=13e-3, L2=166e-6,
                         C1=0.5e-6, C2=1000e-6, f_s=50e3, R_L1=0.13, R_L2=0.11,
                         R_on1=0.031, V_d=0.7, R_d=0.12, R_C1=0.27, R_C2=0.11)
CUK_BENCH = ConverterSpec(kind=CUK, Vg=25.0, R=100.0, L1=1e-3, L2=1e-3,
                       C1=850e-6, C2=47e-6, f_s=20e3, R_L1=0.15, R_L2=0.2,
                       R_on1=0.031, V_d=0.75, R_d=0.11, R_C1=0.2, R_C2=0.3)

# (spec, duty, mode of the seeded run): one DCM and one CCM point per
# topology, each non-ideal and ideal
REFERENCE_POINTS = [
    (spec, d, mode)
    for base, d_dcm in ((SEPIC_BENCH, 0.2), (CUK_BENCH, 0.42))
    for spec in (base, dataclasses.replace(base, ideal=True))
    for d, mode in ((d_dcm, DCM), (0.7, CCM))
]
POINT_IDS = ["%s-%s-%s" % (spec.kind, "ideal" if spec.ideal else "nonideal", mode)
             for spec, _, mode in REFERENCE_POINTS]


def seeded_run(spec, d, n_cycles, steps=1000):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    cfg = SwitchedRunConfig(spec=spec, D=d, n_cycles=n_cycles,
                            steps_per_cycle=steps, initial=op.state)
    return op, run_switched(cfg, steady_tol=0.0)


def sample_walk_cycle_average(wf, cycle_index):
    """Switch-port averages of one retained cycle by walking its samples:
    the trapezoid of the instantaneous port values, step by step, each
    segment evaluated with its own interval's port relations."""
    spec = wf.spec
    segs = [s for s in wf.segments if s[0] == cycle_index]
    assert segs, "cycle %d was not retained" % cycle_index
    open_sys = _interval_system(spec, OPEN)
    Ts = 1.0 / spec.f_s
    sums = [0.0, 0.0, 0.0, 0.0]
    for _, interval, i0, i1 in segs:
        prev = None
        for i in range(i0, i1 + 1):
            vals = _port_values(spec, interval, wf.states[i], open_sys)
            if prev is not None:
                h = wf.times[i] - wf.times[i - 1]
                for q in range(4):
                    sums[q] += 0.5 * h * (prev[q] + vals[q])
            prev = vals
    V1, V2, I1, I2 = (v / Ts for v in sums)
    return I1, I2, V1, V2


def trapezoid(t, y):
    """Trapezoid integral of the samples y (one row per time) over t."""
    t = np.asarray(t)
    y = np.asarray(y)
    return 0.5 * np.sum(np.diff(t) * (y[1:] + y[:-1]).T, axis=-1)


@pytest.mark.parametrize("spec,d,mode", REFERENCE_POINTS, ids=POINT_IDS)
def test_cycle_average_matches_sample_walk(spec, d, mode):
    """The port averages run_switched builds from per-interval state
    integrals equal the step-by-step trapezoid over the final cycle."""
    _, wf = seeded_run(spec, d, 3)
    ci = wf.cycles_run - 1
    assert wf.summaries[ci].mode == mode
    got = cycle_average(wf, ci)[:4]
    want = sample_walk_cycle_average(wf, ci)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec,d,mode", REFERENCE_POINTS, ids=POINT_IDS)
def test_state_and_output_averages_match_retained_trace(spec, d, mode):
    """The final cycle's state and v0 averages equal the trapezoid of the
    retained samples; v0 is taken per segment, because it jumps at a
    switching instant when the ESR current changes."""
    _, wf = seeded_run(spec, d, 3)
    s = wf.summaries[-1]
    assert s.mode == mode
    Ts = 1.0 / spec.f_s
    states = trapezoid(wf.times, wf.states) / Ts
    for got, want in zip((s.i_L1_avg, s.i_L2_avg, s.v_C1_avg, s.v_C2_avg),
                         states):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    v0_int = 0.0
    for _, interval, i0, i1 in wf.segments:
        p = np.array(_v0_coeffs(spec, interval))
        np.testing.assert_allclose(wf.v0[i0 + 1:i1 + 1],
                                   wf.states[i0 + 1:i1 + 1] @ p, rtol=1e-12)
        v = wf.v0[i0:i1 + 1].copy()
        v[0] = wf.states[i0] @ p
        v0_int += trapezoid(wf.times[i0:i1 + 1], v)
    assert s.v0_avg == pytest.approx(v0_int / Ts, rel=1e-12, abs=0.0)


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
        outs.append(run_switched(cfg, steady_tol=0.0).summaries[-1])
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
    wf = run_switched(cfg)
    v0 = wf.summaries[-1].v0_avg
    assert abs(v0 - op.V0) / abs(op.V0) < 0.02


def test_cycle_average_covers_every_cycle():
    # only the final cycle's samples are kept, yet every cycle of the
    # run has its port averages; an index outside the run is refused
    _, wf = seeded_run(SEPIC_BENCH, 0.2, 5)
    assert wf.cycles_run == 5
    for ci in range(wf.cycles_run):
        i1, i2, v1, v2, duties = cycle_average(wf, ci)
        assert np.isfinite([i1, i2, v1, v2]).all()
        assert duties == wf.summaries[ci].duties
    for bad in (wf.cycles_run, -1):
        with pytest.raises(ValueError):
            cycle_average(wf, bad)


def test_steady_tol_validation():
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5,
                            steps_per_cycle=1000)
    with pytest.raises(ValueError):
        run_switched(cfg, steady_tol=-1e-6)
    with pytest.raises(ValidationError):
        SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5, steps_per_cycle=500)
