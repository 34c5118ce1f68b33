"""Cycle-by-cycle switched reference simulation.

Every switching interval of either converter is an affine LTI system
dx/dt = A x + b, integrated with a fixed-step trapezoidal rule whose
one-step map x' = M x + c is Z = [[M, c], [0, 1]] on the state augmented
with a constant 1.  There is no per-step loop: the k-th sample of an
interval entered at x is Z**k x, so a stack of the powers of Z, built by
doubling, gives all of an interval's samples in one product; the ON and
DIODE stacks are built once per run, the OPEN one per DCM cycle, since
its step changes.  The diode-opening instant is the first DIODE sample
whose summed inductor current is negative, interpolated linearly inside
that step; the rest of the period then runs on the constrained dynamics
of the isolated series loop, which preserve i_L1 + i_L2 = 0 exactly.

v0 and the switch ports (V1, V2, I1, I2) are affine in the augmented
state within an interval, one 5x5 output map G per interval, so every
cycle's averages of the states, v0 and the ports follow from each
interval's trapezoid state integral S as S and G S, with no pass over
stored samples.

This module is the verification counterpart of the averaged model and
deliberately shares no circuit algebra with it: the interval systems are
written out element by element from each sub-circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .converter import ConverterSpec, SEPIC, ValidationError
from .dc import SolverError, StateVector, state_values
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
        if self.initial is not None:
            object.__setattr__(self, "initial", StateVector(*state_values(self.initial)))


@dataclass(frozen=True)
class CycleSummary:
    """One cycle's measured interval durations and trapezoidal averages
    of the states, v0 and the switch ports (V1, V2, I1, I2)."""

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


class EventDetectionError(SolverError):
    """The diode-current zero crossing could not be bracketed cleanly."""


def _interval_system(spec, interval):
    """F = [[A, b], [0, 0]] of one switch interval: dx/dt = A x + b,
    written as d/dt (x, 1) = F (x, 1) on the state augmented with 1.

    State order (i_L1, i_L2, v_C1, v_C2); i_L2 is taken positive into
    the coupling node for the SEPIC and positive out of the load node
    for the Cuk, matching the averaged model's conventions.
    """
    L1, L2, C1, C2 = spec.L1, spec.L2, spec.C1, spec.C2
    R, R_C2 = spec.R, spec.R_C2
    alpha = R / (R + R_C2)          # load-node divider
    Rk = R * R_C2 / (R + R_C2)      # load || ESR
    gC2 = 1.0 / ((R + R_C2) * C2)
    A = np.zeros((5, 5))

    if spec.kind == SEPIC:
        if interval == ON:
            A[0][0] = -(spec.R_L1 + spec.R_on1) / L1
            A[0][1] = -spec.R_on1 / L1
            A[0][4] = spec.Vg / L1
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
            A[0][4] = (spec.Vg - spec.V_d) / L1
            A[1][0] = -rs / L2
            A[1][1] = -(rs + spec.R_L2) / L2
            A[1][3] = -alpha / L2
            A[1][4] = -spec.V_d / L2
            A[2][0] = 1.0 / C1
            A[3][0] = R * gC2
            A[3][1] = R * gC2
            A[3][3] = -gC2
        else:
            Lt = L1 + L2
            rs = spec.R_L1 + spec.R_C1 + spec.R_L2
            A[0][0] = -rs / Lt
            A[0][2] = -1.0 / Lt
            A[0][4] = spec.Vg / Lt
            A[1][0] = rs / Lt
            A[1][2] = 1.0 / Lt
            A[1][4] = -spec.Vg / Lt
            A[2][0] = 1.0 / C1
            A[3][3] = -gC2
    else:
        if interval == ON:
            A[0][0] = -(spec.R_L1 + spec.R_on1) / L1
            A[0][1] = -spec.R_on1 / L1
            A[0][4] = spec.Vg / L1
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
            A[0][4] = (spec.Vg - spec.V_d) / L1
            A[1][0] = -spec.R_d / L2
            A[1][1] = -(Rk + spec.R_d + spec.R_L2) / L2
            A[1][3] = alpha / L2
            A[1][4] = -spec.V_d / L2
            A[2][0] = 1.0 / C1
            A[3][1] = -R * gC2
            A[3][3] = -gC2
        else:
            Lt = L1 + L2
            rs = spec.R_L1 + spec.R_C1 + spec.R_L2 + Rk
            A[0][0] = -rs / Lt
            A[0][2] = -1.0 / Lt
            A[0][3] = -alpha / Lt
            A[0][4] = spec.Vg / Lt
            A[1][0] = rs / Lt
            A[1][2] = 1.0 / Lt
            A[1][3] = alpha / Lt
            A[1][4] = -spec.Vg / Lt
            A[2][0] = 1.0 / C1
            A[3][0] = R * gC2
            A[3][3] = -gC2
    return A


def _output_map(spec, interval, open_sys):
    """G with (v0, V1, V2, I1, I2) = G (x, 1) in one interval: the load
    node (C2 ESR included) and the switch ports, in the sign conventions
    of switchcell.  open_sys is the OPEN interval's system, whose i_L1 row
    gives the inductor voltages while both switches are off."""
    sepic = spec.kind == SEPIC
    alpha = spec.R / (spec.R + spec.R_C2)
    Rk = spec.R * spec.R_C2 / (spec.R + spec.R_C2)
    r_on, r_d, v_d = spec.R_on1, spec.R_d, spec.V_d
    alpha_s = alpha if sepic else 0.0   # v_C2 enters the SEPIC's switch voltages
    G = np.zeros((5, 5))
    if interval == ON:
        G[0] = (0.0, 0.0 if sepic else -Rk, 0.0, alpha, 0.0)
        G[1] = (r_on, r_on, 0.0, 0.0, 0.0)
        G[2] = (-r_on, -r_on - spec.R_C1, 1.0, alpha_s, 0.0)
        G[3] = (1.0, 1.0, 0.0, 0.0, 0.0)
    elif interval == DIODE:
        r_node = Rk + r_d if sepic else r_d     # diode-side node per amp
        G[0] = (Rk, Rk, 0.0, alpha, 0.0) if sepic else (0.0, -Rk, 0.0, alpha, 0.0)
        G[1] = (r_node + spec.R_C1, r_node, 1.0, alpha_s, v_d)
        G[2] = (-r_d, -r_d, 0.0, 0.0, -v_d)
        G[4] = (1.0, 1.0, 0.0, 0.0, 0.0)
    else:
        di_L1 = open_sys[0]     # d i_L1/dt = -d i_L2/dt in the series loop
        G[0] = (0.0, 0.0, 0.0, alpha, 0.0) if sepic else (Rk, 0.0, 0.0, alpha, 0.0)
        G[1] = (-spec.R_L1, 0.0, 0.0, 0.0, spec.Vg) - spec.L1 * di_L1
        if sepic:
            G[2] = (-spec.R_L2, 0.0, 0.0, alpha, 0.0) - spec.L2 * di_L1
        else:
            G[2] = (-Rk - spec.R_L2, 0.0, 0.0, -alpha, 0.0) - spec.L2 * di_L1
    return G


def _powers(Z, n):
    """Z**k for k = 0..n as an (n+1, m, m) stack, built by doubling."""
    m = Z.shape[0]
    P = np.empty((n + 1, m, m))
    P[0] = np.eye(m)
    k, Zk = 1, Z
    while k <= n:
        j = min(k, n + 1 - k)
        # Z**(k+i) = Z**i Z**k for i < j, as one product over stacked rows
        P[k:k + j] = (P[:j].reshape(-1, m) @ Zk).reshape(j, m, m)
        Zk = Zk @ Zk
        k *= 2
    return P


def _affine(F, h):
    """The trapezoidal step x' = M x + c of d/dt (x, 1) = F (x, 1), as
    Z = [[M, c], [0, 1]]."""
    I = np.eye(5)
    return np.linalg.solve(I - 0.5 * h * F, I + 0.5 * h * F)


def _trap(X, h):
    """Trapezoid integral of the samples X, spaced h apart."""
    return h * (np.ones(len(X)) @ X - 0.5 * (X[0] + X[-1]))


def run_switched(config: SwitchedRunConfig,
                 steady_tol: float = _STEADY_REL_TOL) -> SwitchedWaveform:
    """Integrate the switched converter cycle by cycle.

    Samples of the final cycle are retained; every cycle gets a summary
    of its averages.  Stops early, capped at n_cycles, once every
    component of the cycle-start state x has settled: either it no
    longer moves, or, with d_n its change over cycle n and rho the
    larger of its last two ratios d_n / d_n-1, rho < 1 and the geometric
    remainder d_n rho / (1 - rho) is at most steady_tol (default 1e-5)
    times the norm of the same-unit pair of x (the two inductor currents
    or the two capacitor voltages).  steady_tol=0 disables early stopping.
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
    # Z**k of the fixed-length intervals for every step k, side by side:
    # the samples of an interval entered at x are (x @ stack).reshape(-1, 5)
    stack_on, stack_d = (np.ascontiguousarray(
        _powers(_affine(_interval_system(spec, k), h), n).reshape(-1, 5).T)
        for k, h, n in ((ON, h_on, n_on), (DIODE, h_off, n_off)))
    G = {k: _output_map(spec, k, sys_open) for k in (ON, DIODE, OPEN)}

    def run_cycle(cycle, x):
        """One period from x = (i_L1, i_L2, v_C1, v_C2, 1): the summary and
        the segments, whose last sample is the end state."""
        t0 = cycle * Ts
        t_sw = t0 + D * Ts
        X = (x @ stack_on).reshape(-1, 5)
        # (interval, samples, trapezoid integrals of the augmented state
        # whose last is the interval's length, start time, step, end time)
        segs = [(ON, X, _trap(X, h_on), t0, h_on, t0 + n_on * h_on)]
        d2 = 1.0 - D
        d3 = 0.0
        mode = CCM

        if X[-1, 0] + X[-1, 1] <= 0.0:
            # no current to hand over: the whole off-time is open
            t_open, T_open, n_open = t_sw, (1.0 - D) * Ts, n_off
            d2, d3 = 0.0, 1.0 - D
            mode = DCM
        else:
            X = (X[-1] @ stack_d).reshape(-1, 5)
            below = X[1:, 0] + X[1:, 1] < 0.0
            j = int(below.argmax()) + 1     # first sample below zero
            if not below[j - 1]:
                segs.append((DIODE, X, _trap(X, h_off), t_sw, h_off,
                             t_sw + n_off * h_off))
            else:
                # interpolate the crossing inside step j, make the event
                # sample the last one and cut the integral there
                xa, xb = X[j - 1], X[j]
                sa, sb = xa[0] + xa[1], xb[0] + xb[1]
                if sa <= 0.0:
                    raise EventDetectionError(
                        "summed inductor current not positive entering the "
                        "step that crossed zero; reduce the step size")
                theta = float(sa / (sa - sb))
                t_ev = (t_sw + (j - 1) * h_off if j > 1
                        else t0 + n_on * h_on) + theta * h_off
                X = X[:j + 1]
                X[j] = xa + theta * (xb - xa)
                S = _trap(X[:j], h_off) + 0.5 * theta * h_off * (xa + X[j])
                segs.append((DIODE, X, S, t_sw, h_off, t_ev))
                t_open = t_ev
                T_open = t0 + Ts - t_ev
                n_open = max(n_off - j + 1, 1)
                d2 = (t_ev - t_sw) / Ts
                d3 = 1.0 - D - d2
                mode = DCM

        # --- open interval (discontinuous tail), its map per cycle ----
        if mode == DCM and T_open > 0.0:
            h3 = T_open / n_open
            P = _powers(_affine(sys_open, h3), n_open)
            X = (P.reshape(-1, 5) @ X[-1]).reshape(-1, 5)
            segs.append((OPEN, X, _trap(X, h3), t_open, h3,
                         t_open + n_open * h3))

        # v0 and the ports are affine in the state within an interval, so
        # the trapezoid of each is G applied to the trapezoid S of the state
        iL1, iL2, vC1, vC2, _ = (sum(seg[2] for seg in segs) / Ts).tolist()
        v0_avg, V1, V2, I1, I2 = (sum(G[seg[0]] @ seg[2] for seg in segs) / Ts).tolist()
        summary = CycleSummary(
            duties=SwitchIntervalDuties(D1=D, D2=d2, D3=d3),
            v0_avg=v0_avg, i_L1_avg=iL1, i_L2_avg=iL2, v_C1_avg=vC1,
            v_C2_avg=vC2, I1_avg=I1, I2_avg=I2, V1_avg=V1, V2_avg=V2,
            mode=mode)
        return summary, segs

    x = np.append(np.zeros(4) if config.initial is None
                  else config.initial.as_array(), 1.0)
    summaries = []
    steady = False
    d_prev = rho_prev = np.full(4, np.nan)
    for cycle in range(config.n_cycles):
        summary, segs = run_cycle(cycle, x)
        summaries.append(summary)
        x_next = segs[-1][1][-1]
        if steady_tol > 0.0:
            d = np.abs(x_next - x)[:4]
            # amps against the currents' norm, volts against the voltages'
            scale = np.hypot(x_next[0:4:2], x_next[1:4:2]).repeat(2)
            with np.errstate(all="ignore"):
                rho = d / d_prev
                r = np.maximum(rho, rho_prev)   # NaN until two ratios exist
                if np.all((d == 0.0) | ((r < 1.0) & (
                        d * r <= steady_tol * (1.0 - r) * scale))):
                    steady = True
                    break
            d_prev = d
            rho_prev = rho
        x = x_next

    # the last cycle's trace: each interval adds its samples after the first
    X = segs[0][1][:1]
    times = [np.array([segs[0][3]])]
    states = [X]
    v0 = [X @ G[ON][0]]
    spans = []
    for interval, X, _, t_from, h, t_end in segs:
        t = t_from + np.arange(1, len(X)) * h
        t[-1] = t_end
        first = sum(map(len, times)) - 1
        spans.append((cycle, interval, first, first + len(t)))
        times.append(t)
        states.append(X[1:])
        v0.append(X[1:] @ G[interval][0])
    return SwitchedWaveform(
        spec=spec, D=D, steps_per_cycle=steps, times=np.concatenate(times),
        states=np.concatenate(states)[:, :4], v0=np.concatenate(v0),
        segments=spans, summaries=summaries, cycles_run=len(summaries),
        steady=steady)


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
