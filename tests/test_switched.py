"""Tests for the cycle-by-cycle switched reference simulator.

These runs are the ground truth the averaged model is judged against,
so the assertions here check the simulator's internal consistency
(flux balance, step-size convergence, interval bookkeeping) plus its
agreement with the averaged cell at matched operating points.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convavg import (
    SEPIC,
    CCM,
    DCM,
    OperatingPointRequest,
    StateVector,
    SwitchedRunConfig,
    ValidationError,
    cycle_average,
    equivalent_inductance,
    run_switched,
    solve_dc,
)
from convavg.switched import (DIODE, ON, OPEN, CycleSummary, _interval_system,
                              _output_map)
from convavg.switchcell import MU_CLAMP_EPS, SwitchIntervalDuties
from strategies import CUK_BENCH, SEPIC_BENCH, bundled, converter_specs


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


# --- references: the port algebra written out per interval ----------

def v0_coeffs(spec, interval):
    """v0 = p . x for one interval (load node including C2 ESR)."""
    alpha = spec.R / (spec.R + spec.R_C2)
    Rk = spec.R * spec.R_C2 / (spec.R + spec.R_C2)
    if spec.kind == SEPIC:
        if interval == DIODE:
            return (Rk, Rk, 0.0, alpha)
        return (0.0, 0.0, 0.0, alpha)
    if interval == OPEN:
        return (Rk, 0.0, 0.0, alpha)
    return (0.0, -Rk, 0.0, alpha)


def port_values(spec, interval, x, open_sys):
    """Instantaneous switch-port (V1, V2, I1, I2) in one interval."""
    i1, i2, v_C1, v_C2 = x
    s = i1 + i2
    alpha = spec.R / (spec.R + spec.R_C2)
    Rk = spec.R * spec.R_C2 / (spec.R + spec.R_C2)
    if interval == ON:
        V1 = spec.R_on1 * s
        if spec.kind == SEPIC:
            V2 = alpha * v_C2 + v_C1 - spec.R_on1 * s + spec.R_C1 * (-i2)
        else:
            V2 = v_C1 - spec.R_on1 * s + spec.R_C1 * (-i2)
        return V1, V2, s, 0.0
    if interval == DIODE:
        V2 = -(spec.V_d + spec.R_d * s)
        if spec.kind == SEPIC:
            v_node2 = alpha * v_C2 + Rk * s + spec.V_d + spec.R_d * s
        else:
            v_node2 = spec.V_d + spec.R_d * s
        V1 = v_node2 + v_C1 + spec.R_C1 * i1
        return V1, V2, 0.0, s
    di1 = float(open_sys[0] @ (i1, i2, v_C1, v_C2, 1.0))
    V1 = spec.Vg - spec.R_L1 * i1 - spec.L1 * di1
    if spec.kind == SEPIC:
        V2 = alpha * v_C2 - spec.L2 * di1 - spec.R_L2 * i1
    else:
        V2 = -(alpha * v_C2 + Rk * i1 + spec.L2 * di1 + spec.R_L2 * i1)
    return V1, V2, 0.0, 0.0


@dataclasses.dataclass(frozen=True)
class AveragedPortState:
    """Average switch-cell port quantities over one period."""

    V1: float
    V2: float
    I1: float
    I2: float
    mu: float
    mode: str


def average_switch_waveforms(spec, duties, state):
    """Port averages of the cell for the given interval duties.

    Interval-by-interval the blocked/conducted voltages are combinations
    of the capacitor voltages; drops on the conducting device (R_on1,
    V_d, R_d) are taken at the conduction-interval mean of the summed
    inductor current, which is what the triangular current waveform
    actually averages to over the conducting sub-period.  An ideal spec
    has these drops zeroed, which gives the lossless reconstruction.
    """
    i_L1, i_L2, v_C1, v_C2 = state.i_L1, state.i_L2, state.v_C1, state.v_C2
    D1, D2, D3 = duties.D1, duties.D2, duties.D3
    conducting = D1 + D2
    i_sum = i_L1 + i_L2
    i_cond = i_sum / conducting if conducting > 0.0 else 0.0

    I1 = D1 * i_cond
    I2 = D2 * i_cond
    drop_on = spec.R_on1 * i_cond
    drop_d = spec.V_d + spec.R_d * i_cond

    if spec.kind == SEPIC:
        V1 = D1 * drop_on + D2 * (v_C1 + v_C2 + drop_d) + D3 * v_C1
        V2 = D1 * (v_C1 + v_C2 - drop_on) - D2 * drop_d + D3 * v_C2
    else:
        # Cuk: v_C2 carries the (negative) output polarity, so the
        # signed combinations below match the magnitudes seen on the
        # physical nodes.
        V1 = D1 * drop_on + D2 * (v_C1 + drop_d) + D3 * (v_C1 + v_C2)
        V2 = D1 * (v_C1 - drop_on) - D2 * drop_d - D3 * v_C2

    mu = D1 / conducting if conducting > 0.0 else 1.0 - MU_CLAMP_EPS
    mode = DCM if D3 > 1e-9 else CCM
    return AveragedPortState(V1=V1, V2=V2, I1=I1, I2=I2, mu=mu, mode=mode)


def seeded_run(spec, d, n_cycles, steps=1000):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    cfg = SwitchedRunConfig(spec=spec, D=d, n_cycles=n_cycles,
                            steps_per_cycle=steps, initial=op.state)
    return op, run_switched(cfg)


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
            vals = port_values(spec, interval, wf.states[i], open_sys)
            if prev is not None:
                h = wf.times[i] - wf.times[i - 1]
                for q in range(4):
                    sums[q] += 0.5 * h * (prev[q] + vals[q])
            prev = vals
    V1, V2, I1, I2 = (v / Ts for v in sums)
    return I1, I2, V1, V2


def step_map(spec, interval, h):
    """(M, c) of one interval's trapezoid step x' = M x + c, as lists,
    solved from (A, b) on the 4-state system, independently of the
    augmented map run_switched raises to powers."""
    F = _interval_system(spec, interval)
    A, b = F[:4, :4], F[:4, 4]
    eye = np.eye(4)
    lhs = eye - 0.5 * h * A
    M = np.linalg.solve(lhs, eye + 0.5 * h * A)
    c = np.linalg.solve(lhs, h * b)
    return M.tolist(), c.tolist()


def step_loop_run(cfg):
    """The switched run stepped one trapezoid step at a time in Python.

    The reference for run_switched's power stacks: every cycle of
    cfg.n_cycles, no early stop.  Returns one (summary, crossing step,
    segment layout) per cycle; the crossing step is the index of the
    DIODE step whose end took i_L1 + i_L2 below zero (None without a
    crossing) and the layout lists (interval, steps) per segment.
    """
    spec, D, steps = cfg.spec, cfg.D, cfg.steps_per_cycle
    Ts = 1.0 / spec.f_s
    n_on = min(max(int(round(D * steps)), 1), steps - 1)
    h_on, n_off = D * Ts / n_on, steps - n_on
    h_off = (1.0 - D) * Ts / n_off
    sys_open = _interval_system(spec, OPEN)
    maps = {k: step_map(spec, k, h) for k, h in ((ON, h_on), (DIODE, h_off))}
    x = [0.0] * 4 if cfg.initial is None else list(cfg.initial.as_array())
    out = []
    for cycle in range(cfg.n_cycles):
        t0 = cycle * Ts
        times, xs, segments = [t0], [tuple(x)], []

        def run_phase(interval, M, c, n, h, t_from, watch_sign=False):
            x0, x1, x2, x3 = x
            s = [0.0] * 4
            first = len(times) - 1
            crossed = None
            for k in range(n):
                y = [M[i][0] * x0 + M[i][1] * x1 + M[i][2] * x2 + M[i][3] * x3
                     + c[i] for i in range(4)]
                for i, xi in enumerate((x0, x1, x2, x3)):
                    s[i] += 0.5 * h * (xi + y[i])
                x0, x1, x2, x3 = y
                times.append(t_from + (k + 1) * h)
                xs.append(tuple(y))
                if watch_sign and (y[0] + y[1]) < 0.0:
                    crossed = k
                    break
            x[:] = [x0, x1, x2, x3]
            last = len(times) - 1
            segments.append([interval, first, last, s + [(last - first) * h]])
            return crossed

        run_phase(ON, *maps[ON], n_on, h_on, t0)
        t_sw = t0 + D * Ts
        d2, d3, mode, crossed = 1.0 - D, 0.0, CCM, None
        if x[0] + x[1] <= 0.0:
            t_open, T_open, n_open = t_sw, (1.0 - D) * Ts, n_off
            d2, d3, mode = 0.0, 1.0 - D, DCM
        else:
            crossed = run_phase(DIODE, *maps[DIODE], n_off, h_off, t_sw, True)
            if crossed is not None:
                xa, xb = xs[-2], xs[-1]
                sa, sb = xa[0] + xa[1], xb[0] + xb[1]
                assert sa > 0.0
                theta = sa / (sa - sb)
                t_ev = times[-2] + theta * h_off
                x_ev = [xa[i] + theta * (xb[i] - xa[i]) for i in range(4)]
                times[-1], xs[-1] = t_ev, tuple(x_ev)
                integral = segments[-1][3]
                for i in range(4):
                    integral[i] += (0.5 * theta * h_off * (xa[i] + x_ev[i])
                                    - 0.5 * h_off * (xa[i] + xb[i]))
                integral[4] -= (1.0 - theta) * h_off
                x[:] = x_ev
                t_open, T_open = t_ev, t0 + Ts - t_ev
                n_open = max(n_off - crossed, 1)
                d2 = (t_ev - t_sw) / Ts
                d3, mode = 1.0 - D - d2, DCM
        if mode == DCM and T_open > 0.0:
            h3 = T_open / n_open
            run_phase(OPEN, *step_map(spec, OPEN, h3), n_open, h3, t_open)

        totals = [0.0] * 9
        for interval, _, _, integral in segments:
            *S, T = integral
            if T <= 0.0:
                continue
            p = v0_coeffs(spec, interval)
            ports = port_values(spec, interval, [v / T for v in S], sys_open)
            parts = [p[0] * S[0] + p[1] * S[1] + p[3] * S[3], *S,
                     *(T * q for q in ports)]
            totals = [a + b for a, b in zip(totals, parts)]
        v0, iL1, iL2, vC1, vC2, V1, V2, I1, I2 = (v / Ts for v in totals)
        summary = CycleSummary(
            duties=SwitchIntervalDuties(D1=D, D2=d2, D3=d3),
            v0_avg=v0, i_L1_avg=iL1, i_L2_avg=iL2, v_C1_avg=vC1, v_C2_avg=vC2,
            I1_avg=I1, I2_avg=I2, V1_avg=V1, V2_avg=V2, mode=mode)
        out.append((summary, crossed,
                    [(seg[0], seg[2] - seg[1]) for seg in segments]))
    return out


VOLT_FIELDS = ("v0_avg", "v_C1_avg", "v_C2_avg", "V1_avg", "V2_avg")
AMP_FIELDS = ("i_L1_avg", "i_L2_avg", "I1_avg", "I2_avg")


def assert_matches_step_loop(cfg, duty_tol=1e-12):
    """Every cycle of run_switched agrees with step_loop_run: mode,
    crossing step and segment layout exactly, D2/D3 to duty_tol and
    every average to 1e-9 relative.  An average that passes near zero by
    cancellation (a port voltage during a start-up) is held to 1e-12 of
    the run's largest value in its unit instead.  The layout and the
    crossing of cycle c come from the retained final cycle of a run cut
    after c + 1 cycles."""
    ref = step_loop_run(cfg)
    full = run_switched(cfg).summaries
    assert len(full) == len(ref)
    for c, (want, crossed, layout) in enumerate(ref):
        got = full[c]
        assert got.mode == want.mode
        assert got.duties.D2 == pytest.approx(want.duties.D2, rel=0.0, abs=duty_tol)
        assert got.duties.D3 == pytest.approx(want.duties.D3, rel=0.0, abs=duty_tol)
        for fields in (VOLT_FIELDS, AMP_FIELDS):
            scale = max(abs(getattr(s, name)) for s, _, _ in ref for name in fields)
            for name in fields:
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-9, abs=1e-12 * scale), (c, name)
        cut = run_switched(dataclasses.replace(cfg, n_cycles=c + 1))
        got_layout = [(k, last - first) for _, k, first, last in cut.segments]
        assert got_layout == layout, c
        # in a DCM cycle the DIODE segment ends at the crossing sample
        diode = [n for k, n in got_layout if k == DIODE]
        dcm = cut.summaries[-1].mode == DCM
        assert (diode[0] - 1 if diode and dcm else None) == crossed, c


def trapezoid(t, y):
    """Trapezoid integral of the samples y (one row per time) over t."""
    t = np.asarray(t)
    y = np.asarray(y)
    return 0.5 * np.sum(np.diff(t) * (y[1:] + y[:-1]).T, axis=-1)


@pytest.mark.parametrize("spec", [SEPIC_BENCH, CUK_BENCH,
                                  dataclasses.replace(SEPIC_BENCH, ideal=True),
                                  dataclasses.replace(CUK_BENCH, ideal=True)],
                         ids=["sepic", "cuk", "sepic-ideal", "cuk-ideal"])
def test_output_map_reproduces_the_port_algebra(spec):
    """Each interval's G maps (x, 1) to the v0 and switch ports of the
    written-out reference, at seeded random states, to 1e-12 of the
    size of the terms summed."""
    rng = np.random.default_rng(20261018)
    open_sys = _interval_system(spec, OPEN)
    units = np.array([spec.Vg / spec.R] * 2 + [spec.Vg] * 2)
    for interval in (ON, DIODE, OPEN):
        G = _output_map(spec, interval, open_sys)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 4) * units
            want = (np.dot(v0_coeffs(spec, interval), x),
                    *port_values(spec, interval, x, open_sys))
            xa = np.append(x, 1.0)
            terms = np.abs(G) @ np.abs(xa)
            assert np.all(np.abs(G @ xa - want) <= 1e-12 * terms), interval


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
        p = np.array(v0_coeffs(spec, interval))
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
        outs.append(run_switched(cfg).summaries[-1])
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


@pytest.mark.parametrize("spec,d,mode", REFERENCE_POINTS, ids=POINT_IDS)
def test_power_stacks_match_step_loop(spec, d, mode):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    cfg = SwitchedRunConfig(spec=spec, D=d, n_cycles=5, initial=op.state)
    assert_matches_step_loop(cfg)


@pytest.mark.parametrize("spec,d,n_cycles", [(SEPIC_BENCH, 0.2, 160),
                                             (CUK_BENCH, 0.42, 105)],
                         ids=["sepic", "cuk"])
def test_power_stacks_match_step_loop_from_cold_start(spec, d, n_cycles):
    """From zero, through the start-up's CCM cycles into its first DCM
    ones.  After 100+ start-up cycles the two integrations' rounding
    leaves the inductor currents about 1e-11 A apart, and the crossing
    time moves by that over the per-step fall of i_L1 + i_L2 (about
    3 mA), so D2 and D3 are held to 1e-10 here."""
    cfg = SwitchedRunConfig(spec=spec, D=d, n_cycles=n_cycles)
    assert_matches_step_loop(cfg, duty_tol=1e-10)
    modes = {s.mode for s in run_switched(cfg).summaries}
    assert modes == {CCM, DCM}


@st.composite
def switched_runs(draw):
    """A random valid converter from converter_specs at a duty in
    (0.05, 0.9), from zero or from a random state that can start any
    interval sequence."""
    spec = draw(converter_specs())
    D = draw(st.floats(0.05, 0.9, exclude_min=True, exclude_max=True))
    initial = None
    if draw(st.booleans()):
        amps = st.floats(-2.0, 2.0).map(lambda a: a * spec.Vg / spec.R)
        volts = st.floats(-2.0, 2.0).map(lambda a: a * spec.Vg)
        initial = StateVector(i_L1=draw(amps), i_L2=draw(amps),
                              v_C1=draw(volts), v_C2=draw(volts))
    return SwitchedRunConfig(spec=spec, D=D, n_cycles=3, initial=initial)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(switched_runs())
def test_power_stacks_match_step_loop_on_random_converters(cfg):
    assert_matches_step_loop(cfg)


def run_on(wf):
    """One cycle continuing wf from its last sample."""
    return run_switched(SwitchedRunConfig(
        spec=wf.spec, D=wf.D, n_cycles=1, steps_per_cycle=wf.steps_per_cycle,
        initial=StateVector(*map(float, wf.states[-1]))))


def assert_prefix_and_continuation(cfg):
    """The first c summaries of an N-cycle run equal a c-cycle run's
    exactly, for every c <= N, and one cycle run on from the N-cycle
    run's last sample equals cycle N + 1 of an (N + 1)-cycle run
    exactly: building the final cycle's trace leaves the cycle loop
    alone, and no cycle depends on its index."""
    n = cfg.n_cycles
    longer = run_switched(dataclasses.replace(cfg, n_cycles=n + 1)).summaries
    for c in range(1, n + 1):
        cut = run_switched(dataclasses.replace(cfg, n_cycles=c))
        assert cut.summaries == longer[:c], c
    assert run_on(cut).summaries[0] == longer[n]


@pytest.mark.parametrize("spec,d,mode", REFERENCE_POINTS, ids=POINT_IDS)
def test_run_prefix_is_exact_and_continues_from_trace(spec, d, mode):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    cfg = SwitchedRunConfig(spec=spec, D=d, n_cycles=3, initial=op.state)
    assert_prefix_and_continuation(cfg)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(converter_specs(), st.floats(0.05, 0.9, exclude_min=True, exclude_max=True))
def test_run_prefix_is_exact_and_continues_from_trace_on_random_converters(spec, d):
    assert_prefix_and_continuation(SwitchedRunConfig(spec=spec, D=d, n_cycles=3))


@pytest.mark.parametrize("name", ["sepic_bench", "cuk_bench"])
def test_continuing_a_long_run_is_exact(name):
    """Cycle N + 1 of a run from the DC point equals, bit for bit, one
    cycle run on from cycle N's last sample, at N = 2000.  With cycle
    times taken from t = 0 of the run, D2 differed by about 1e-13."""
    parsed = bundled(name)
    op = solve_dc(OperatingPointRequest(spec=parsed.spec, D=parsed.duty))
    cfg = SwitchedRunConfig(spec=parsed.spec, D=parsed.duty, n_cycles=2000,
                            initial=op.state)
    longer = run_switched(dataclasses.replace(cfg, n_cycles=2001))
    assert run_on(run_switched(cfg)).summaries[0] == longer.summaries[2000]


def test_cold_start_converges_to_dc_solution():
    # free-running start, every one of the 2000 cycles run: the final
    # recorded cycle's output average lands within 2% of solve_dc
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


def test_initial_state_is_read_as_four_finite_values():
    """A list of four values starts the run exactly as the same
    StateVector does; three values or a NaN are refused when the config
    is built, where a NaN state once ran as zero averages in CCM."""
    x = [0.1, 0.2, 60.0, 20.0]
    runs = [run_switched(SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=3,
                                           initial=initial))
            for initial in (StateVector(*x), x)]
    assert runs[1].summaries == runs[0].summaries
    np.testing.assert_array_equal(runs[1].states, runs[0].states)
    nan = float("nan")
    for bad, match in (([0.1, 0.2, 60.0], "four entries"),
                       (StateVector(nan, 0.0, 0.0, 0.0), "finite"),
                       ([0.1, 0.2, nan, 20.0], "finite")):
        with pytest.raises(ValidationError, match=match):
            SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=3, initial=bad)


def test_steady_tol_validation():
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5,
                            steps_per_cycle=1000)
    for tol in (-1e-6, 1e-5):
        with pytest.raises(ValueError):
            run_switched(cfg, steady_tol=tol)
    for bad in ({"steps_per_cycle": 500}, {"D": 0.0}, {"D": 1.0}, {"n_cycles": 0}):
        with pytest.raises(ValidationError):
            SwitchedRunConfig(**{"spec": SEPIC_BENCH, "D": 0.2, "n_cycles": 5, **bad})


@pytest.mark.parametrize("counts", [{"n_cycles": 2.5}, {"steps_per_cycle": 1000.0},
                                    {"n_cycles": True}, {"steps_per_cycle": True}],
                         ids=["fractional-cycles", "float-steps", "bool-cycles",
                              "bool-steps"])
def test_counts_must_be_integers(counts):
    """A float count once passed validation and raised TypeError inside
    the run, and n_cycles=True ran one cycle; both are refused when the
    config is built.  A numpy integer is an integer."""
    with pytest.raises(ValidationError, match="must be an integer"):
        SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, **{"n_cycles": 2, **counts})
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=np.int64(2),
                            steps_per_cycle=np.int32(1000))
    assert run_switched(cfg).cycles_run == 2


def test_nan_steady_tol_is_refused():
    # NaN passed a `steady_tol < 0` check and silently disabled the detector
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=5)
    with pytest.raises(ValueError, match="steady_tol"):
        run_switched(cfg, steady_tol=float("nan"))
