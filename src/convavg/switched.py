"""Cycle-by-cycle switched reference simulation.

Every switching interval of either converter is an affine LTI system
dx/dt = A x + b, integrated with a fixed-step trapezoidal rule whose
one-step map x' = M x + c is Z = [[M, c], [0, 1]] on the state augmented
with a constant 1.  There is no per-step loop.  The ON and DIODE stacks
of the powers Z**k, built by doubling, are made once per run, and from
each the end map Z**n and the trapezoid integral map
h (sum_k Z**k - (I + Z**n) / 2), so a cycle is a few 5x5 products.  The
diode-opening instant is the first DIODE sample whose summed inductor
current is negative, found as one row block of the DIODE stack times the
entry state and interpolated linearly inside that step; the rest of the
period then runs on the constrained dynamics of the isolated series
loop, which preserve i_L1 + i_L2 = 0 exactly.  That OPEN step changes
every DCM cycle, so its end state and running sum are one matrix power
of [[Z, 0], [I, I]] applied to (x, 0).  Only the final cycle's samples
are built: every cycle records its plan (each interval's entry state,
step count, step and times from the cycle start) and, after the loop,
the last plan is expanded on the same stacks.  No cycle depends on its
index, so a run is exactly n_cycles applications of one cycle map.

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
from numbers import Integral

import numpy as np

from .converter import ConverterSpec, SEPIC, ValidationError
from .dc import SolverError, StateVector, state_values
from .switchcell import CCM, DCM, SwitchIntervalDuties

ON, DIODE, OPEN = 1, 2, 3


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
        for name in ("n_cycles", "steps_per_cycle"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, Integral):
                raise ValidationError("%s must be an integer, got %r" % (name, count))
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


def _integral_map(P, h):
    """h (sum_k P[k] - (P[0] + P[-1]) / 2): the trapezoid integral of the
    samples P[k] x, spaced h apart, as one map of x."""
    n, m = len(P), len(P[0])
    return h * ((np.ones(n) @ P.reshape(n, -1)).reshape(m, m) - 0.5 * (P[0] + P[-1]))


def run_switched(config: SwitchedRunConfig, steady_tol: float = 0.0) -> SwitchedWaveform:
    """Integrate the switched converter for exactly n_cycles cycles.

    Every cycle is the same map of its start state, timed from its own
    start, so a run continued from another run's last sample repeats
    that run's next cycle exactly.  Samples of the final cycle are
    retained; every cycle gets a summary of its averages.  steady_tol
    is accepted only as 0: runs never stop early.
    """
    if steady_tol != 0.0:
        raise ValueError("steady_tol must be 0, got %r" % (steady_tol,))
    spec, D = config.spec, config.D
    Ts = 1.0 / spec.f_s
    steps = config.steps_per_cycle

    n_on = min(max(int(round(D * steps)), 1), steps - 1)
    h_on = D * Ts / n_on
    n_off = steps - n_on
    h_off = (1.0 - D) * Ts / n_off

    sys_open = _interval_system(spec, OPEN)
    # SG[k] = [[I], [G]] takes an interval's state integral S to (S, G S)
    SG = {k: np.vstack((np.eye(5), _output_map(spec, k, sys_open)))
          for k in (ON, DIODE, OPEN)}
    # Z**k of the fixed-length intervals for every step k, and the 15x5
    # map of the entry state to (end state, S, G S)
    stacks = {k: _powers(_affine(_interval_system(spec, k), h), n)
              for k, h, n in ((ON, h_on, n_on), (DIODE, h_off, n_off))}
    map_on, map_d = (np.vstack((stacks[k][-1], SG[k] @ _integral_map(stacks[k], h)))
                     for k, h in ((ON, h_on), (DIODE, h_off)))
    P_d = stacks[DIODE]
    # x @ i_sum_d is i_L1 + i_L2 at DIODE samples 1..n_off of an entry x
    i_sum_d = np.ascontiguousarray((P_d[1:, 0] + P_d[1:, 1]).T)
    W = np.eye(10)                      # OPEN's [[Z, 0], [I, I]]
    W[5:, :5] = np.eye(5)
    t_sw = D * Ts                       # switching instant within a cycle

    def run_cycle(x):
        """One period from x = (i_L1, i_L2, v_C1, v_C2, 1): the summary and
        the plan, one (interval, entry state, steps, step, start time, end
        time, end state) per interval, its times from the cycle start."""
        y = map_on @ x
        x1, parts = y[:5], y[5:]
        plan = [(ON, x, n_on, h_on, 0.0, n_on * h_on, x1)]
        d2 = 1.0 - D
        d3 = 0.0
        mode = CCM

        if x1[0] + x1[1] <= 0.0:
            # no current to hand over: the whole off-time is open
            n_open, x_open = n_off, x1
            d2, d3 = 0.0, 1.0 - D
            mode = DCM
        else:
            s = x1 @ i_sum_d
            below = s < 0.0
            j = int(below.argmax()) + 1     # first sample below zero
            if not below[j - 1]:
                y = map_d @ x1
                parts = parts + y[5:]
                plan.append((DIODE, x1, n_off, h_off, t_sw,
                             t_sw + n_off * h_off, y[:5]))
            else:
                # interpolate the crossing inside step j, make the event
                # sample the last one and cut the integral there
                sa = s[j - 2] if j > 1 else x1[0] + x1[1]
                sb = s[j - 1]
                if sa <= 0.0:
                    raise EventDetectionError(
                        "summed inductor current not positive entering the "
                        "step that crossed zero; reduce the step size")
                theta = float(sa / (sa - sb))
                xa = P_d[j - 1] @ x1
                x_ev = xa + theta * (P_d[j] @ x1 - xa)
                S = (_integral_map(P_d[:j], h_off) @ x1
                     + 0.5 * theta * h_off * (xa + x_ev))
                parts = parts + SG[DIODE] @ S
                d2 = (j - 1 + theta) * h_off / Ts
                d3 = 1.0 - D - d2
                plan.append((DIODE, x1, j, h_off, t_sw, t_sw + d2 * Ts, x_ev))
                n_open, x_open = n_off - j + 1, x_ev     # j <= n_off
                mode = DCM

        # --- open interval (discontinuous tail), its step per cycle ----
        if d3 > 0.0:
            t_open = t_sw + d2 * Ts
            h3 = d3 * Ts / n_open
            W[:5, :5] = _affine(sys_open, h3)
            # W**n (x, 0) = (Z**n x, sum_{k<n} Z**k x)
            y = np.linalg.matrix_power(W, n_open)[:, :5] @ x_open
            end, acc = y[:5], y[5:]
            parts = parts + SG[OPEN] @ (h3 * (acc + 0.5 * (end - x_open)))
            plan.append((OPEN, x_open, n_open, h3, t_open,
                         t_open + n_open * h3, end))

        # v0 and the ports are affine in the state within an interval, so
        # the trapezoid of each is G applied to the trapezoid S of the state
        iL1, iL2, vC1, vC2, _, v0_avg, V1, V2, I1, I2 = (parts / Ts).tolist()
        summary = CycleSummary(
            duties=SwitchIntervalDuties(D1=D, D2=d2, D3=d3),
            v0_avg=v0_avg, i_L1_avg=iL1, i_L2_avg=iL2, v_C1_avg=vC1,
            v_C2_avg=vC2, I1_avg=I1, I2_avg=I2, V1_avg=V1, V2_avg=V2,
            mode=mode)
        return summary, plan

    x = np.append(np.zeros(4) if config.initial is None else config.initial, 1.0)
    summaries = []
    for _ in range(config.n_cycles):
        summary, plan = run_cycle(x)
        summaries.append(summary)
        x = plan[-1][-1]

    # the last cycle's trace, expanded from its plan on the same stacks
    # and shifted to the cycle's start: each interval adds its samples
    # after the first
    cycle = config.n_cycles - 1
    x = plan[0][1]
    times = [np.array([plan[0][4]])]
    states = [x[None]]
    v0 = [np.array([SG[ON][5] @ x])]
    spans = []
    first = 0
    for interval, x_in, n, h, t_from, t_end, x_end in plan:
        P = (_powers(_affine(sys_open, h), n) if interval == OPEN
             else stacks[interval][:n + 1])
        X = (P[1:].reshape(-1, 5) @ x_in).reshape(-1, 5)
        X[-1] = x_end
        t = t_from + np.arange(1, n + 1) * h
        t[-1] = t_end
        spans.append((cycle, interval, first, first + n))
        first += n
        times.append(t)
        states.append(X)
        v0.append(X @ SG[interval][5])
    return SwitchedWaveform(
        spec=spec, D=D, steps_per_cycle=steps,
        times=cycle * Ts + np.concatenate(times),
        states=np.concatenate(states)[:, :4], v0=np.concatenate(v0),
        segments=spans, summaries=summaries, cycles_run=len(summaries))


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
