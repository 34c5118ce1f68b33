"""Tests for the cycle-by-cycle switched reference simulator.

These runs are the ground truth the averaged model is judged against,
so the assertions here check the simulator's internal consistency
(flux balance, step-size convergence, interval bookkeeping) plus its
agreement with the averaged cell at matched operating points.  The
interval-weighted port reconstruction those agreement tests use is
tested here on its own as well.
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
from convavg.avgmodel import MU_CLAMP_EPS
from convavg.switched import (_BLOCK, DIODE, ON, OPEN, CycleSummary,
                              SwitchIntervalDuties, _cycle_map, _interval_system,
                              _open_step, _output_map)
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
BENCH_SPECS = [SEPIC_BENCH, CUK_BENCH, dataclasses.replace(SEPIC_BENCH, ideal=True),
               dataclasses.replace(CUK_BENCH, ideal=True)]
BENCH_IDS = ["sepic", "cuk", "sepic-ideal", "cuk-ideal"]


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


# --- the interval-weighted reference on its own -------------------

def sepic_bench(**overrides):
    return dataclasses.replace(SEPIC_BENCH, **overrides)


def cuk_bench(**overrides):
    return dataclasses.replace(CUK_BENCH, **overrides)


def test_ideal_sepic_currents_share_total():
    # the cell conducts the state's averaged total only during D1+D2, so
    # the port currents are conduction-weighted shares; with no idle
    # interval this reduces to the plain duty weighting
    spec = sepic_bench(ideal=True)
    duties = SwitchIntervalDuties(D1=0.2, D2=0.5, D3=0.3)
    state = StateVector(i_L1=0.4, i_L2=0.6, v_C1=62.0, v_C2=22.0)
    ap = average_switch_waveforms(spec, duties, state)
    assert ap.I1 == pytest.approx(0.2 / 0.7, rel=1e-12)
    assert ap.I2 == pytest.approx(0.5 / 0.7, rel=1e-12)
    assert ap.I1 / ap.I2 == pytest.approx(duties.D1 / duties.D2, rel=1e-12)

    ccm = SwitchIntervalDuties(D1=0.2, D2=0.8, D3=0.0)
    ap2 = average_switch_waveforms(spec, ccm, state)
    assert ap2.I1 == pytest.approx(0.2 * 1.0, rel=1e-12)
    assert ap2.I2 == pytest.approx(0.8 * 1.0, rel=1e-12)


def test_ideal_zero_total_current_gives_zero_ports():
    spec = sepic_bench(ideal=True)
    duties = SwitchIntervalDuties(D1=0.2, D2=0.5, D3=0.3)
    state = StateVector(i_L1=0.7, i_L2=-0.7, v_C1=62.0, v_C2=22.0)
    ap = average_switch_waveforms(spec, duties, state)
    assert ap.I1 == 0.0
    assert ap.I2 == 0.0


def test_nonideal_reduces_to_ideal_when_parasitics_vanish():
    duties = SwitchIntervalDuties(D1=0.3, D2=0.45, D3=0.25)
    state = StateVector(i_L1=0.9, i_L2=0.3, v_C1=40.0, v_C2=18.0)
    for make in (sepic_bench, cuk_bench):
        bare = make(R_L1=0.0, R_L2=0.0, R_on1=0.0, V_d=0.0, R_d=0.0,
                    R_C1=0.0, R_C2=0.0)
        ideal = make(ideal=True)
        a = average_switch_waveforms(bare, duties, state)
        b = average_switch_waveforms(ideal, duties, state)
        assert a.V1 == pytest.approx(b.V1, rel=1e-12, abs=1e-12)
        assert a.V2 == pytest.approx(b.V2, rel=1e-12, abs=1e-12)
        assert a.I1 == pytest.approx(b.I1, rel=1e-12, abs=1e-12)
        assert a.I2 == pytest.approx(b.I2, rel=1e-12, abs=1e-12)


def test_cuk_current_averages_nonideal():
    # conduction-weighted shares of the averaged total, independent of
    # parasitics; the D1:D2 split between the ports is exact
    spec = cuk_bench()
    duties = SwitchIntervalDuties(D1=0.42, D2=0.4, D3=0.18)
    state = StateVector(i_L1=0.22, i_L2=0.23, v_C1=48.0, v_C2=-23.0)
    ap = average_switch_waveforms(spec, duties, state)
    total = state.i_L1 + state.i_L2
    conducting = duties.D1 + duties.D2
    assert ap.I1 == pytest.approx(duties.D1 * total / conducting, rel=1e-12)
    assert ap.I2 == pytest.approx(duties.D2 * total / conducting, rel=1e-12)
    assert ap.I1 / ap.I2 == pytest.approx(duties.D1 / duties.D2, rel=1e-12)


def test_mode_tag_follows_idle_interval():
    spec = sepic_bench()
    state = StateVector(i_L1=0.15, i_L2=0.42, v_C1=62.0, v_C2=22.0)
    dcm = average_switch_waveforms(
        spec, SwitchIntervalDuties(D1=0.2, D2=0.55, D3=0.25), state)
    ccm = average_switch_waveforms(
        spec, SwitchIntervalDuties(D1=0.2, D2=0.8, D3=0.0), state)
    assert dcm.mode == DCM
    assert ccm.mode == CCM


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
    crossing) and the layout lists (interval, steps) per segment.  The
    OPEN interval runs on the DIODE grid: after a crossing, one step of
    the rest of the crossing step, then whole steps of h_off.
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

        def run_phase(interval, M, c, n, h, t_from, watch_sign=False, lead=None):
            """n steps of (M, c, h) from t_from; the first of them is
            lead = (M, c, h) instead when given."""
            x0, x1, x2, x3 = x
            s = [0.0] * 4
            first = len(times) - 1
            crossed = None
            for k in range(n):
                Mk, ck, hk = lead if lead and k == 0 else (M, c, h)
                y = [Mk[i][0] * x0 + Mk[i][1] * x1 + Mk[i][2] * x2 + Mk[i][3] * x3
                     + ck[i] for i in range(4)]
                for i, xi in enumerate((x0, x1, x2, x3)):
                    s[i] += 0.5 * hk * (xi + y[i])
                x0, x1, x2, x3 = y
                times.append(t_from + (k + 1) * h)
                xs.append(tuple(y))
                if watch_sign and (y[0] + y[1]) < 0.0:
                    crossed = k
                    break
            x[:] = [x0, x1, x2, x3]
            last = len(times) - 1
            T = (last - first) * h + (lead[2] - h if lead else 0.0)
            segments.append([interval, first, last, s + [T]])
            return crossed

        run_phase(ON, *maps[ON], n_on, h_on, t0)
        t_sw = t0 + D * Ts
        d2, d3, mode, crossed = 1.0 - D, 0.0, CCM, None
        if x[0] + x[1] <= 0.0:
            T_open = (1.0 - D) * Ts
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
                T_open = t0 + Ts - t_ev
                d2 = (t_ev - t_sw) / Ts
                d3, mode = 1.0 - D - d2, DCM
        if mode == DCM and T_open > 0.0:
            M, c = step_map(spec, OPEN, h_off)
            if crossed is None:
                run_phase(OPEN, M, c, n_off, h_off, t_sw)
            else:
                h_lead = (1.0 - theta) * h_off
                run_phase(OPEN, M, c, n_off - crossed, h_off, t_sw + crossed * h_off,
                          lead=(*step_map(spec, OPEN, h_lead), h_lead))

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


def unit_scales(summaries):
    """The largest |average| among the summaries, volts and amps."""
    return [max(abs(getattr(s, name)) for s in summaries for name in fields)
            for fields in (VOLT_FIELDS, AMP_FIELDS)]


def assert_summary_matches(got, want, D, scales, duty_tol=1e-12, where=None):
    """One summary of run_switched against step_loop_run's: mode exactly,
    D2/D3 to duty_tol and every average to 1e-9 relative.  An average
    that passes near zero by cancellation (a port voltage during a
    start-up) is held to 1e-12 of scales, the largest value in its unit,
    instead.  The duties also hold the interval invariant run_switched
    does not check at run time: D1 is the duty, D2 and D3 lie in [0, 1],
    the three sum to 1 and D3 is 0 in CCM."""
    assert got.mode == want.mode, where
    d = got.duties
    assert d.D1 == D, where
    assert 0.0 <= d.D2 <= 1.0 and 0.0 <= d.D3 <= 1.0, (where, d)
    assert abs(d.D1 + d.D2 + d.D3 - 1.0) <= 1e-15, (where, d)
    assert got.mode == DCM or d.D3 == 0.0, (where, d)
    assert got.duties.D2 == pytest.approx(want.duties.D2, rel=0.0, abs=duty_tol)
    assert got.duties.D3 == pytest.approx(want.duties.D3, rel=0.0, abs=duty_tol)
    for fields, scale in zip((VOLT_FIELDS, AMP_FIELDS), scales):
        for name in fields:
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-9, abs=1e-12 * scale), (where, name)


def assert_matches_step_loop(cfg, duty_tol=1e-12):
    """Every cycle of run_switched agrees with step_loop_run: each
    summary as assert_summary_matches holds it, scaled over the whole
    run, and the crossing step and segment layout exactly.  The layout
    and the crossing of cycle c come from the retained final cycle of a
    run cut after c + 1 cycles."""
    ref = step_loop_run(cfg)
    full = run_switched(cfg).summaries
    assert len(full) == len(ref)
    scales = unit_scales([s for s, _, _ in ref])
    for c, (want, crossed, layout) in enumerate(ref):
        assert_summary_matches(full[c], want, cfg.D, scales, duty_tol, c)
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


@pytest.mark.parametrize("spec", BENCH_SPECS, ids=BENCH_IDS)
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


@pytest.mark.parametrize("spec,d", [(SEPIC_BENCH, 0.2), (CUK_BENCH, 0.42)],
                         ids=["sepic", "cuk"])
def test_dcm_cycle_agrees_with_eight_times_the_steps(spec, d):
    """300 cycles from the DC point at 1000 and at 8000 steps per cycle:
    the last cycles' averages and D2 agree within 5e-6 relative (7.0e-7
    for the SEPIC's I1 and 1.3e-7 for the Cuk's I2 were measured, with
    the OPEN interval on its own grid or on the DIODE grid alike)."""
    a, b = (seeded_run(spec, d, 300, steps)[1].summaries[-1] for steps in (1000, 8000))
    assert a.mode == b.mode == DCM
    for name in VOLT_FIELDS + AMP_FIELDS:
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=5e-6), name
    assert a.duties.D2 == pytest.approx(b.duties.D2, rel=5e-6)


def one_cycle(x, spec=SEPIC_BENCH, d=0.2):
    return SwitchedRunConfig(spec=spec, D=d, n_cycles=1, initial=StateVector(*x))


def off_time_case(wf):
    """Where the final cycle's i_L1 + i_L2 reached zero: 'no current'
    left at the end of ON, in the 'first', the 'last' or a 'middle' DIODE
    step, or 'none' (CCM)."""
    layout = [(k, last - first) for _, k, first, last in wf.segments]
    kinds = [k for k, _ in layout]
    if OPEN not in kinds:
        return "none"
    if DIODE not in kinds:
        return "no current"
    j, n_off = layout[1][1], wf.steps_per_cycle - layout[0][1]
    return "first" if j == 1 else "last" if j == n_off else "middle"


@pytest.fixture(scope="module")
def off_time_starts():
    """A start state per off-time case: the first seeded state around the
    sepic_bench DC point to reach it, except 'first'.  No seeded state
    crossed in the first DIODE step, so that start shifts i_L1 of the DC
    point until ON ends with half a DIODE step's fall of i_L1 + i_L2."""
    x0 = np.array(solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2)).state)
    rng = np.random.default_rng(20261019)
    starts = {}
    for _ in range(3000):
        x = x0 * (1.0 + rng.uniform(-2.0, 2.0, 4))
        starts.setdefault(off_time_case(run_switched(one_cycle(x))), x)
        if {"no current", "middle", "last"} <= starts.keys():
            break

    def on_end_sums(x):
        wf = run_switched(one_cycle(x))
        i = wf.segments[0][3]       # the last ON sample, then the first DIODE one
        return wf.states[i:i + 2, 0] + wf.states[i:i + 2, 1]

    (s0, s1), (s0_shifted, _) = on_end_sums(x0), on_end_sums(x0 + (1e-3, 0, 0, 0))
    slope = (s0_shifted - s0) / 1e-3      # the ON end sum is affine in i_L1
    starts["first"] = x0 + ((0.5 * (s0 - s1) - s0) / slope, 0.0, 0.0, 0.0)
    return starts


@pytest.mark.parametrize("case", ["no current", "first", "middle", "last"])
def test_final_cycle_trace_sits_on_the_off_time_grid(off_time_starts, case):
    """Whichever DIODE step i_L1 + i_L2 crosses zero in, or with no
    current left at the end of ON, the final cycle's times strictly
    increase, the OPEN samples after the first sit on the DIODE grid
    t_sw + k h_off, the last sample is at Ts, and the cycle agrees with
    the step-by-step reference."""
    cfg = one_cycle(off_time_starts[case])
    wf = run_switched(cfg)
    assert off_time_case(wf) == case
    Ts = 1.0 / wf.spec.f_s
    n_off = wf.steps_per_cycle - (wf.segments[0][3] - wf.segments[0][2])
    h_off = (1.0 - wf.D) * Ts / n_off
    assert np.all(np.diff(wf.times) > 0.0)
    _, interval, first, last = wf.segments[-1]
    assert interval == OPEN and last == len(wf.times) - 1
    k = np.arange(n_off - (last - first) + 1, n_off + 1)
    np.testing.assert_allclose(wf.times[first + 1:], wf.D * Ts + k * h_off,
                               rtol=0.0, atol=1e-9 * h_off)
    assert wf.times[-1] == pytest.approx(Ts, rel=0.0, abs=1e-9 * h_off)
    assert_matches_step_loop(cfg)


@pytest.fixture(scope="module")
def record_kind_starts(off_time_starts):
    """off_time_starts with a 'ccm' start and a 'no open time' one.  The
    sepic_bench DC point with v_C2 lowered is bisected, to adjacent
    floats, between a cycle that crosses zero and one that stays CCM;
    the crossing side crosses in the last DIODE step so close to its end
    that the crossing leaves no OPEN time.  The bracket's CCM end is the
    'ccm' start (at the float next to the crossing the step-by-step
    reference still crosses, at the very end of the period)."""
    advance = _cycle_map(SEPIC_BENCH, 0.2, 1000)[0]
    x0 = np.array(solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2)).state)

    def shifted(dv):
        return x0 - (0.0, 0.0, 0.0, dv)

    def crosses(dv):
        return advance(np.append(shifted(dv), 1.0))[1].j is not None

    ccm = 0.2 * x0[3]
    assert crosses(0.0) and not crosses(ccm)
    lo, hi = 0.0, ccm
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    return dict(off_time_starts, ccm=shifted(ccm), **{"no open time": shifted(lo)})


RECORD_KINDS = ["ccm", "no current", "first", "middle", "last", "no open time"]


def record_kind(record):
    if record.j is None:
        return "ccm"
    if not record.j:
        return "no current"
    return "crossing" if record.x_in is not None else "no open time"


def test_one_block_of_every_record_kind_matches_the_step_loop(record_kind_starts):
    """One block holds a record of every kind: CCM, no current at the end
    of ON, a crossing in the first, a middle and the last DIODE step, and
    a crossing that leaves no OPEN time.  Each summary of the block
    equals the one-cycle run's from the same start bit for bit, and
    agrees with the step-by-step reference at the tolerances of
    assert_matches_step_loop."""
    advance, summarize, _ = _cycle_map(SEPIC_BENCH, 0.2, 1000)
    records = [advance(np.append(record_kind_starts[k], 1.0))[1] for k in RECORD_KINDS]
    assert [record_kind(r) for r in records] == [
        "ccm", "no current", "crossing", "crossing", "crossing", "no open time"]
    for kind, got in zip(RECORD_KINDS, summarize(records)):
        cfg = one_cycle(record_kind_starts[kind])
        assert got == run_switched(cfg).summaries[0], kind
        (want, _, _), = step_loop_run(cfg)
        assert_summary_matches(got, want, cfg.D, unit_scales([want]), where=kind)


def test_summaries_do_not_depend_on_the_block():
    """A cold start of 2 _BLOCK + 3 cycles, through CCM into DCM, has
    the summaries of its runs cut at _BLOCK - 1, _BLOCK and _BLOCK + 1
    cycles, bit for bit: a cycle's summary is the same in a full block
    and in a part one, at any place in either."""
    cfg = SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=2 * _BLOCK + 3)
    full = run_switched(cfg).summaries
    assert {s.mode for s in full} == {CCM, DCM}
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
        assert run_switched(dataclasses.replace(cfg, n_cycles=n)).summaries == full[:n], n


def assert_open_system_zeros(spec):
    """The zeros of the OPEN system the float partial step relies on: no
    row reads i_L2 and the last row is zero; v_C1 follows i_L1 alone and
    v_C2 i_L1 and itself."""
    F = _interval_system(spec, OPEN)
    assert np.all(F[:, 1] == 0.0) and np.all(F[4] == 0.0)
    assert np.all(F[2, 1:] == 0.0)
    assert F[3, 2] == F[3, 4] == 0.0


@pytest.mark.parametrize("spec", BENCH_SPECS, ids=BENCH_IDS)
def test_open_system_has_the_zeros_of_the_float_step(spec):
    assert_open_system_zeros(spec)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(converter_specs())
def test_open_system_has_the_zeros_of_the_float_step_on_random_converters(spec):
    assert_open_system_zeros(spec)


@pytest.mark.parametrize("spec", BENCH_SPECS, ids=BENCH_IDS)
def test_float_open_step_is_the_linear_solve(spec):
    """The written-out partial OPEN step of (1 - theta) h_off from x is
    2 y - x with integral 2a y, y = solve(I - aF, x) and
    a = (1 - theta) h_off / 2, within 1e-14 relative, at seeded theta,
    duties, step counts and states."""
    F = _interval_system(spec, OPEN)
    step = _open_step(F)
    rng = np.random.default_rng(20261020)
    units = np.array([spec.Vg / spec.R] * 2 + [spec.Vg] * 2)
    for _ in range(200):
        D, theta = rng.uniform(0.05, 0.9), rng.uniform()
        n_off = int(rng.integers(100, 8000))
        a = 0.5 * (1.0 - theta) * (1.0 - D) / spec.f_s / n_off
        x = np.append(rng.uniform(-2.0, 2.0, 4) * units, 1.0)
        y = np.linalg.solve(np.eye(5) - a * F, x)
        x_in, S = step(x.tolist(), a)
        np.testing.assert_allclose(x_in, 2.0 * y - x, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(S, 2.0 * a * y, rtol=1e-14, atol=0.0)


def test_linear_solves_do_not_grow_with_the_cycle_count(monkeypatch):
    """A run's np.linalg.solve calls build its stacks, so one DCM cycle
    and fifty make as many: the partial OPEN step solves on floats."""
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    counts = []
    for n in (1, 50):
        calls.clear()
        wf = run_switched(SwitchedRunConfig(spec=SEPIC_BENCH, D=0.2, n_cycles=n,
                                            initial=op.state))
        assert all(s.mode == DCM and s.duties.D2 > 0.0 for s in wf.summaries)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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
