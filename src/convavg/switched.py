"""Cycle-by-cycle switched reference simulation.

Every switching interval of either converter is an affine LTI system
dx/dt = A x + b, so the reference integrates each interval with a
fixed-step trapezoidal rule applied through its exact one-step affine
map x' = M x + c (M and c precomputed per interval).  The diode-opening
instant is located by linear interpolation of the summed inductor
current between steps; after it, the remainder of the period runs on the
constrained dynamics of the isolated series loop, which preserve
i_L1 + i_L2 = 0 exactly.

Each interval's trapezoid state integral is summed as it is stepped;
v0 and the switch ports are affine in the state within an interval, so
every cycle's averages of the states, v0 and the ports follow from
those integrals, with no pass over stored samples.

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
    """One cycle's measured interval durations and trapezoidal averages
    of the states, v0 and the switch ports (V1, V2, I1, I2)."""

    index: int
    t_start: float
    duties: SwitchIntervalDuties
    v0_avg: float
    i_L1_avg: float
    i_L2_avg: float
    v_C1_avg: float
    v_C2_avg: float
    I1_avg: float
    I2_avg: float
    V1_avg: float
    V2_avg: float
    mode: str


@dataclass
class SwitchedWaveform:
    """Samples of the final cycle plus a summary of every cycle.

    ``times``/``states``/``v0`` hold the final cycle's samples.
    ``segments`` lists its (cycle_index, interval, first_sample,
    last_sample) spans into those arrays; an interval-dependent quantity
    takes the owning segment's interval id at both endpoints.  The
    averages in ``summaries`` come from per-interval state integrals, so
    every cycle has them, retained or not.
    """

    spec: ConverterSpec
    D: float
    steps_per_cycle: int
    times: np.ndarray
    states: np.ndarray
    v0: np.ndarray
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


def run_switched(config: SwitchedRunConfig,
                 steady_tol: float = _STEADY_REL_TOL) -> SwitchedWaveform:
    """Integrate the switched converter cycle by cycle.

    Samples of the final cycle are retained; every cycle gets a summary
    of its averages.  Stops early once consecutive cycle-average output
    voltages agree to steady_tol relative (default 1e-5), capped at
    n_cycles; steady_tol=0 disables early stopping.
    """
    if steady_tol < 0.0:
        raise ValueError("steady_tol must be non-negative")
    spec, D = config.spec, config.D
    Ts = 1.0 / spec.f_s
    steps = config.steps_per_cycle

    n_on = min(max(int(round(D * steps)), 1), steps - 1)
    h_on = D * Ts / n_on
    n_off = steps - n_on
    h_off = (1.0 - D) * Ts / n_off

    sys_open = _interval_system(spec, OPEN)
    M1, c1 = _step_map(*_interval_system(spec, ON), h_on)
    M2, c2 = _step_map(*_interval_system(spec, DIODE), h_off)
    p_v0 = {k: _v0_coeffs(spec, k) for k in (ON, DIODE, OPEN)}
    p_on, p_diode = p_v0[ON], p_v0[DIODE]

    if config.initial is None:
        x = [0.0, 0.0, 0.0, 0.0]
    else:
        x = [config.initial.i_L1, config.initial.i_L2,
             config.initial.v_C1, config.initial.v_C2]

    summaries = []
    steady = False

    for cycle in range(config.n_cycles):
        t0 = cycle * Ts
        times = [t0]
        xs = [tuple(x)]
        v0s = [p_on[0] * x[0] + p_on[1] * x[1] + p_on[3] * x[3]]
        # (interval, first sample, last sample, trapezoid integrals of
        # (i_L1, i_L2, v_C1, v_C2, 1)); the last is the interval's length
        segments = []

        def run_phase(interval, M, c, n, h, t_from, watch_sign=False):
            """Advance n fixed steps and record the interval's segment;
            returns the index of the step whose end crossed i_L1+i_L2
            below zero (watch_sign), else None."""
            m00, m01, m02, m03 = M[0]
            m10, m11, m12, m13 = M[1]
            m20, m21, m22, m23 = M[2]
            m30, m31, m32, m33 = M[3]
            k0, k1, k2, k3 = c
            pv0, pv1, _, pv3 = p_v0[interval]
            x0, x1, x2, x3 = x
            s0 = s1 = s2 = s3 = 0.0
            half = 0.5 * h
            first = len(times) - 1
            crossed = None
            for k in range(n):
                y0 = m00 * x0 + m01 * x1 + m02 * x2 + m03 * x3 + k0
                y1 = m10 * x0 + m11 * x1 + m12 * x2 + m13 * x3 + k1
                y2 = m20 * x0 + m21 * x1 + m22 * x2 + m23 * x3 + k2
                y3 = m30 * x0 + m31 * x1 + m32 * x2 + m33 * x3 + k3
                s0 += half * (x0 + y0)
                s1 += half * (x1 + y1)
                s2 += half * (x2 + y2)
                s3 += half * (x3 + y3)
                x0, x1, x2, x3 = y0, y1, y2, y3
                times.append(t_from + (k + 1) * h)
                xs.append((y0, y1, y2, y3))
                v0s.append(pv0 * y0 + pv1 * y1 + pv3 * y3)
                if watch_sign and (y0 + y1) < 0.0:
                    crossed = k
                    break
            x[0], x[1], x[2], x[3] = x0, x1, x2, x3
            last = len(times) - 1
            segments.append((interval, first, last,
                             [s0, s1, s2, s3, (last - first) * h]))
            return crossed

        # --- transistor interval -----------------------------------
        run_phase(ON, M1, c1, n_on, h_on, t0)
        t_sw = t0 + D * Ts
        d2 = 1.0 - D
        d3 = 0.0
        mode = CCM

        # --- diode interval, with zero-crossing watch --------------
        if x[0] + x[1] <= 0.0:
            # no current to hand over: the whole off-time is open
            t_open, T_open, n_open = t_sw, (1.0 - D) * Ts, n_off
            d2, d3 = 0.0, 1.0 - D
            mode = DCM
        else:
            crossed = run_phase(DIODE, M2, c2, n_off, h_off, t_sw,
                                watch_sign=True)
            if crossed is not None:
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
                # roll back the over-counted tail of the trapezoid integral
                half = 0.5 * h_off
                he = 0.5 * theta * h_off
                integral = segments[-1][3]
                for i in range(4):
                    integral[i] += (he * (xa[i] + x_ev[i])
                                    - half * (xa[i] + xb[i]))
                integral[4] -= (1.0 - theta) * h_off
                x[0], x[1], x[2], x[3] = x_ev
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
            run_phase(OPEN, M3, c3, n_open, h3, t_open)

        # v0 and the ports are affine in the state within an interval, so
        # the trapezoid of each is its affine map applied to the trapezoid
        # S of the state: p.S for v0, T*port(S/T) over an interval of length T.
        totals = [0.0] * 9      # v0, i_L1, i_L2, v_C1, v_C2, V1, V2, I1, I2
        for interval, _, _, integral in segments:
            *S, T = integral
            if T <= 0.0:
                continue
            p = p_v0[interval]
            ports = _port_values(spec, interval, [v / T for v in S], sys_open)
            parts = [p[0] * S[0] + p[1] * S[1] + p[3] * S[3], *S,
                     *(T * q for q in ports)]
            totals = [a + b for a, b in zip(totals, parts)]
        v0_avg, iL1, iL2, vC1, vC2, V1, V2, I1, I2 = (v / Ts for v in totals)
        summaries.append(CycleSummary(
            index=cycle, t_start=t0,
            duties=SwitchIntervalDuties(D1=D, D2=d2, D3=d3),
            v0_avg=v0_avg, i_L1_avg=iL1, i_L2_avg=iL2, v_C1_avg=vC1,
            v_C2_avg=vC2, I1_avg=I1, I2_avg=I2, V1_avg=V1, V2_avg=V2,
            mode=mode))

        if (steady_tol > 0.0 and cycle > 0 and abs(v0_avg - summaries[-2].v0_avg)
                <= steady_tol * max(abs(v0_avg), 1e-12)):
            steady = True
            break

    # the loop ran at least once; its last cycle is the retained one
    return SwitchedWaveform(
        spec=spec, D=D, steps_per_cycle=steps,
        times=np.array(times), states=np.array(xs), v0=np.array(v0s),
        segments=[(cycle, interval, first, last)
                  for interval, first, last, _ in segments],
        summaries=summaries, cycles_run=len(summaries), steady=steady)


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
    """Switch-port averages over any cycle of the run.

    Returns (I1_avg, I2_avg, V1_avg, V2_avg, duties), read from the
    cycle's summary; run_switched computes them from the per-interval
    trapezoid state integrals.
    """
    if not 0 <= cycle_index < waveform.cycles_run:
        raise ValueError("cycle %r is not in this %d-cycle run"
                         % (cycle_index, waveform.cycles_run))
    s = waveform.summaries[cycle_index]
    return s.I1_avg, s.I2_avg, s.V1_avg, s.V2_avg, s.duties
