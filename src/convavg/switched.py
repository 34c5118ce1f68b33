"""Cycle-by-cycle switched reference simulation.

Every switching interval of either converter is an affine LTI system
dx/dt = A x + b, so the reference integrates each interval with a
fixed-step trapezoidal rule applied through its exact one-step affine
map x' = M x + c (M and c precomputed per interval).  The diode-opening
instant is located by linear interpolation of the summed inductor
current between steps; after it, the remainder of the period runs on the
constrained dynamics of the isolated series loop, which preserve
i_L1 + i_L2 = 0 exactly.

This module is the verification counterpart of the averaged model and
deliberately shares no circuit algebra with it: the interval systems are
written out element by element from each sub-circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .converter import ConverterSpec, SEPIC, ValidationError
from .dc import StateVector
from .switchcell import CCM, DCM, SwitchIntervalDuties

ON, DIODE, OPEN = 1, 2, 3

_STEADY_REL_TOL = 1e-5


@dataclass(frozen=True)
class SwitchedRunConfig:
    spec: ConverterSpec
    D: float
    n_cycles: int
    steps_per_cycle: int = 1000
    initial: StateVector = None

    def __post_init__(self):
        if not (0.0 < self.D < 1.0):
            raise ValidationError("duty cycle must lie in (0, 1), got %r" % (self.D,))
        if self.n_cycles < 1:
            raise ValidationError("n_cycles must be at least 1")
        if self.steps_per_cycle < 1000:
            raise ValidationError("steps_per_cycle must be at least 1000")


@dataclass(frozen=True)
class CycleSummary:
    """Per-cycle trapezoidal averages and measured interval durations."""

    index: int
    t_start: float
    duties: SwitchIntervalDuties
    v0_avg: float
    i_L1_avg: float
    i_L2_avg: float
    v_C1_avg: float
    v_C2_avg: float
    mode: str


@dataclass
class SwitchedWaveform:
    """Sampled switched run plus per-cycle summaries.

    ``times``/``states``/``v0`` hold the retained samples (the final
    cycle by default, the whole run with record="all").  ``segments``
    lists (cycle_index, interval, first_sample, last_sample) spans into
    those arrays; trapezoidal averaging of any interval-dependent
    quantity uses the owning segment's interval id at both endpoints.
    """

    spec: ConverterSpec
    D: float
    steps_per_cycle: int
    times: np.ndarray
    states: np.ndarray
    v0: np.ndarray
    mode: list
    segments: list
    summaries: list
    cycles_run: int
    steady: bool

    def final_state(self) -> StateVector:
        return StateVector.from_array(self.states[-1])


class EventDetectionError(RuntimeError):
    """The diode-current zero crossing could not be bracketed cleanly."""


def _interval_system(spec, interval):
    """(A, b) of dx/dt = A x + b for one switch interval.

    State order (i_L1, i_L2, v_C1, v_C2); i_L2 is taken positive into
    the coupling node for the SEPIC and positive out of the load node
    for the Cuk, matching the averaged model's conventions.
    """
    L1, L2, C1, C2 = spec.L1, spec.L2, spec.C1, spec.C2
    R, R_C2 = spec.R, spec.R_C2
    alpha = R / (R + R_C2)          # load-node divider
    Rk = R * R_C2 / (R + R_C2)      # load || ESR
    gC2 = 1.0 / ((R + R_C2) * C2)
    A = [[0.0] * 4 for _ in range(4)]
    b = [0.0] * 4

    if spec.kind == SEPIC:
        if interval == ON:
            A[0][0] = -(spec.R_L1 + spec.R_on1) / L1
            A[0][1] = -spec.R_on1 / L1
            b[0] = spec.Vg / L1
            A[1][0] = -spec.R_on1 / L2
            A[1][1] = -(spec.R_on1 + spec.R_C1 + spec.R_L2) / L2
            A[1][2] = 1.0 / L2
            A[2][1] = -1.0 / C1
            A[3][3] = -gC2
        elif interval == DIODE:
            rs = Rk + spec.R_d
            A[0][0] = -(spec.R_L1 + spec.R_C1 + rs) / L1
            A[0][1] = -rs / L1
            A[0][2] = -1.0 / L1
            A[0][3] = -alpha / L1
            b[0] = (spec.Vg - spec.V_d) / L1
            A[1][0] = -rs / L2
            A[1][1] = -(rs + spec.R_L2) / L2
            A[1][3] = -alpha / L2
            b[1] = -spec.V_d / L2
            A[2][0] = 1.0 / C1
            A[3][0] = R * gC2
            A[3][1] = R * gC2
            A[3][3] = -gC2
        else:
            Lt = L1 + L2
            rs = spec.R_L1 + spec.R_C1 + spec.R_L2
            A[0][0] = -rs / Lt
            A[0][2] = -1.0 / Lt
            b[0] = spec.Vg / Lt
            A[1][0] = rs / Lt
            A[1][2] = 1.0 / Lt
            b[1] = -spec.Vg / Lt
            A[2][0] = 1.0 / C1
            A[3][3] = -gC2
    else:
        if interval == ON:
            A[0][0] = -(spec.R_L1 + spec.R_on1) / L1
            A[0][1] = -spec.R_on1 / L1
            b[0] = spec.Vg / L1
            A[1][0] = -spec.R_on1 / L2
            A[1][1] = -(Rk + spec.R_on1 + spec.R_C1 + spec.R_L2) / L2
            A[1][2] = 1.0 / L2
            A[1][3] = alpha / L2
            A[2][1] = -1.0 / C1
            A[3][1] = -R * gC2
            A[3][3] = -gC2
        elif interval == DIODE:
            A[0][0] = -(spec.R_L1 + spec.R_C1 + spec.R_d) / L1
            A[0][1] = -spec.R_d / L1
            A[0][2] = -1.0 / L1
            b[0] = (spec.Vg - spec.V_d) / L1
            A[1][0] = -spec.R_d / L2
            A[1][1] = -(Rk + spec.R_d + spec.R_L2) / L2
            A[1][3] = alpha / L2
            b[1] = -spec.V_d / L2
            A[2][0] = 1.0 / C1
            A[3][1] = -R * gC2
            A[3][3] = -gC2
        else:
            Lt = L1 + L2
            rs = spec.R_L1 + spec.R_C1 + spec.R_L2 + Rk
            A[0][0] = -rs / Lt
            A[0][2] = -1.0 / Lt
            A[0][3] = -alpha / Lt
            b[0] = spec.Vg / Lt
            A[1][0] = rs / Lt
            A[1][2] = 1.0 / Lt
            A[1][3] = alpha / Lt
            b[1] = -spec.Vg / Lt
            A[2][0] = 1.0 / C1
            A[3][0] = R * gC2
            A[3][3] = -gC2
    return np.array(A), np.array(b)


def _step_map(A, b, h):
    """Trapezoidal one-step affine map (M, c): x' = M x + c."""
    eye = np.eye(4)
    lhs = eye - 0.5 * h * A
    M = np.linalg.solve(lhs, eye + 0.5 * h * A)
    c = np.linalg.solve(lhs, h * (b + 0.0))
    # b enters TR as h/2*(b + b)
    return M, c


def _v0_coeffs(spec, interval):
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


def run_switched(config: SwitchedRunConfig, record: str = "last",
                 steady_tol: float = _STEADY_REL_TOL) -> SwitchedWaveform:
    """Integrate the switched converter cycle by cycle.

    record="last" retains samples of the final cycle only (summaries
    cover every cycle); record="all" retains everything.  Stops early
    once consecutive cycle-average output voltages agree to steady_tol
    relative (default 1e-5), capped at n_cycles; steady_tol=0 disables
    early stopping.
    """
    if record not in ("last", "all"):
        raise ValueError("record must be 'last' or 'all'")
    if steady_tol < 0.0:
        raise ValueError("steady_tol must be non-negative")
    spec, D = config.spec, config.D
    Ts = 1.0 / spec.f_s
    steps = config.steps_per_cycle

    n_on = min(max(int(round(D * steps)), 1), steps - 1)
    h_on = D * Ts / n_on
    n_off = steps - n_on
    h_off = (1.0 - D) * Ts / n_off

    sys_on = _interval_system(spec, ON)
    sys_diode = _interval_system(spec, DIODE)
    sys_open = _interval_system(spec, OPEN)
    M1, c1 = _step_map(*sys_on, h_on)
    M2, c2 = _step_map(*sys_diode, h_off)
    p_on = _v0_coeffs(spec, ON)
    p_diode = _v0_coeffs(spec, DIODE)
    p_open = _v0_coeffs(spec, OPEN)

    if config.initial is None:
        x = [0.0, 0.0, 0.0, 0.0]
    else:
        x = [config.initial.i_L1, config.initial.i_L2,
             config.initial.v_C1, config.initial.v_C2]

    kept_t, kept_x, kept_v0, kept_seg = [], [], [], []
    summaries = []
    prev_v0_avg = None
    steady = False
    cycles_run = 0

    for cycle in range(config.n_cycles):
        t0 = cycle * Ts
        times = [t0]
        xs = [tuple(x)]
        v0s = [p_on[0] * x[0] + p_on[1] * x[1] + p_on[3] * x[3]]
        segments = []
        # trapezoid accumulators over the cycle
        acc = [0.0, 0.0, 0.0, 0.0, 0.0]  # v0, iL1, iL2, vC1, vC2

        def run_phase(M, c, pv, n, h, t_from, watch_sign=False):
            """Advance n fixed steps; returns index of the step whose end
            crossed i_L1+i_L2 below zero (watch_sign), else None."""
            m00, m01, m02, m03 = M[0]
            m10, m11, m12, m13 = M[1]
            m20, m21, m22, m23 = M[2]
            m30, m31, m32, m33 = M[3]
            k0, k1, k2, k3 = c
            pv0, pv1, pv3 = pv[0], pv[1], pv[3]
            x0, x1, x2, x3 = x
            v_prev = pv0 * x0 + pv1 * x1 + pv3 * x3
            crossed = None
            for k in range(n):
                y0 = m00 * x0 + m01 * x1 + m02 * x2 + m03 * x3 + k0
                y1 = m10 * x0 + m11 * x1 + m12 * x2 + m13 * x3 + k1
                y2 = m20 * x0 + m21 * x1 + m22 * x2 + m23 * x3 + k2
                y3 = m30 * x0 + m31 * x1 + m32 * x2 + m33 * x3 + k3
                v_new = pv0 * y0 + pv1 * y1 + pv3 * y3
                half = 0.5 * h
                acc[0] += half * (v_prev + v_new)
                acc[1] += half * (x0 + y0)
                acc[2] += half * (x1 + y1)
                acc[3] += half * (x2 + y2)
                acc[4] += half * (x3 + y3)
                x0, x1, x2, x3 = y0, y1, y2, y3
                times.append(t_from + (k + 1) * h)
                xs.append((y0, y1, y2, y3))
                v0s.append(v_new)
                v_prev = v_new
                if watch_sign and (y0 + y1) < 0.0:
                    crossed = k
                    break
            x[0], x[1], x[2], x[3] = x0, x1, x2, x3
            return crossed

        # --- transistor interval -----------------------------------
        seg_start = len(times) - 1
        run_phase(M1, c1, p_on, n_on, h_on, t0)
        segments.append((ON, seg_start, len(times) - 1))
        t_sw = t0 + D * Ts
        d1 = D
        d2 = 1.0 - D
        d3 = 0.0
        mode = CCM

        # --- diode interval, with zero-crossing watch --------------
        s_entry = x[0] + x[1]
        if s_entry <= 0.0:
            # no current to hand over: the whole off-time is open
            t_open, T_open, n_open = t_sw, (1.0 - D) * Ts, n_off
            d2, d3 = 0.0, 1.0 - D
            mode = DCM
        else:
            seg_start = len(times) - 1
            crossed = run_phase(M2, c2, p_diode, n_off, h_off, t_sw,
                                watch_sign=True)
            if crossed is None:
                segments.append((DIODE, seg_start, len(times) - 1))
                t_open = None
            else:
                # interpolate the crossing inside the offending step,
                # overwrite that step's sample with the event sample
                xa = xs[-2]
                xb = xs[-1]
                sa = xa[0] + xa[1]
                sb = xb[0] + xb[1]
                if sa <= 0.0:
                    raise EventDetectionError(
                        "summed inductor current not positive entering the "
                        "step that crossed zero; reduce the step size")
                theta = sa / (sa - sb)
                t_ev = times[-2] + theta * h_off
                x_ev = tuple(xa[i] + theta * (xb[i] - xa[i]) for i in range(4))
                times[-1] = t_ev
                xs[-1] = x_ev
                v0s[-1] = (p_diode[0] * x_ev[0] + p_diode[1] * x_ev[1]
                           + p_diode[3] * x_ev[3])
                # roll back the over-counted tail of the trapezoid sums
                half = 0.5 * h_off
                he = 0.5 * theta * h_off
                va = p_diode[0] * xa[0] + p_diode[1] * xa[1] + p_diode[3] * xa[3]
                vb = p_diode[0] * xb[0] + p_diode[1] * xb[1] + p_diode[3] * xb[3]
                ve = v0s[-1]
                acc[0] += he * (va + ve) - half * (va + vb)
                for i in range(4):
                    acc[1 + i] += (he * (xa[i] + x_ev[i])
                                   - half * (xa[i] + xb[i]))
                x[0], x[1], x[2], x[3] = x_ev
                segments.append((DIODE, seg_start, len(times) - 1))
                t_open = t_ev
                T_open = t0 + Ts - t_ev
                n_open = max(n_off - crossed, 1)
                d2 = (t_ev - t_sw) / Ts
                d3 = 1.0 - D - d2
                mode = DCM

        # --- open interval (discontinuous tail) --------------------
        if mode == DCM and T_open > 0.0:
            h3 = T_open / n_open
            M3, c3 = _step_map(*sys_open, h3)
            seg_start = len(times) - 1
            run_phase(M3, c3, p_open, n_open, h3, t_open)
            segments.append((OPEN, seg_start, len(times) - 1))

        cycles_run = cycle + 1
        v0_avg = acc[0] / Ts
        summaries.append(CycleSummary(
            index=cycle, t_start=t0,
            duties=SwitchIntervalDuties(D1=d1, D2=d2, D3=d3),
            v0_avg=v0_avg, i_L1_avg=acc[1] / Ts, i_L2_avg=acc[2] / Ts,
            v_C1_avg=acc[3] / Ts, v_C2_avg=acc[4] / Ts, mode=mode))

        if prev_v0_avg is not None and steady_tol > 0.0:
            if abs(v0_avg - prev_v0_avg) <= steady_tol * max(abs(v0_avg), 1e-12):
                steady = True
        prev_v0_avg = v0_avg

        last_cycle = steady or (cycle == config.n_cycles - 1)
        if record == "all" or last_cycle:
            if kept_t and abs(times[0] - kept_t[-1]) <= 0.5 * h_on:
                # the cycle's first sample repeats the last retained one
                base = len(kept_t) - 1
                kept_t.extend(times[1:])
                kept_x.extend(xs[1:])
                kept_v0.extend(v0s[1:])
            else:
                base = len(kept_t)
                kept_t.extend(times)
                kept_x.extend(xs)
                kept_v0.extend(v0s)
            kept_seg.extend((cycle, seg, i0 + base, i1 + base)
                            for seg, i0, i1 in segments)
        if steady:
            break

    modes = [s.mode for s in summaries]
    return SwitchedWaveform(
        spec=spec, D=D, steps_per_cycle=steps,
        times=np.array(kept_t), states=np.array(kept_x),
        v0=np.array(kept_v0), mode=modes, segments=kept_seg,
        summaries=summaries, cycles_run=cycles_run, steady=steady)


def _port_values(spec, interval, x, open_sys):
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
    A, b = open_sys
    di1 = A[0][0] * i1 + A[0][1] * i2 + A[0][2] * v_C1 + A[0][3] * v_C2 + b[0]
    V1 = spec.Vg - spec.R_L1 * i1 - spec.L1 * di1
    if spec.kind == SEPIC:
        V2 = alpha * v_C2 - spec.L2 * di1 - spec.R_L2 * i1
    else:
        V2 = -(alpha * v_C2 + Rk * i1 + spec.L2 * di1 + spec.R_L2 * i1)
    return V1, V2, 0.0, 0.0


def cycle_average(waveform: SwitchedWaveform, cycle_index: int):
    """Trapezoidal switch-port averages over one retained cycle.

    Returns (I1_avg, I2_avg, V1_avg, V2_avg, duties).  The cycle must
    have its samples retained in the waveform (the final cycle always
    does; use record="all" to retain every cycle).
    """
    spec = waveform.spec
    segs = [s for s in waveform.segments if s[0] == cycle_index]
    if not segs:
        raise ValueError("cycle %d was not retained in this waveform"
                         % (cycle_index,))
    open_sys = _interval_system(spec, OPEN)
    Ts = 1.0 / spec.f_s
    sums = [0.0, 0.0, 0.0, 0.0]
    for _, interval, i0, i1 in segs:
        prev = None
        for i in range(i0, i1 + 1):
            vals = _port_values(spec, interval, waveform.states[i], open_sys)
            if prev is not None:
                h = waveform.times[i] - waveform.times[i - 1]
                for q in range(4):
                    sums[q] += 0.5 * h * (prev[q] + vals[q])
            prev = vals
    V1, V2, I1, I2 = (v / Ts for v in sums)
    duties = waveform.summaries[cycle_index].duties
    return I1, I2, V1, V2, duties
