"""Cycle-by-cycle switched reference simulation.

Every switching interval of either converter is an affine LTI system
dx/dt = A x + b, integrated with a fixed-step trapezoidal rule whose
one-step map x' = M x + c is Z = [[M, c], [0, 1]] on the state augmented
with a constant 1.  There is no per-step loop.  One cycle map per
(spec, D, steps) holds the ON and DIODE stacks of the powers Z**k, built
by doubling.  The diode-opening instant is the first DIODE sample whose
summed inductor current is negative, found as one row block of the
DIODE stack times the entry state and interpolated linearly inside that
step, so a sample exactly at zero before it is itself the crossing; the
rest of the period then runs on the constrained dynamics of the
isolated series loop, which preserve i_L1 + i_L2 = 0 exactly.  That
OPEN interval stays on the DIODE grid of step h_off: one trapezoid step
over the rest of the crossing step, solved on floats from the zeros of
the OPEN system, takes it back onto the grid, and its remaining whole
steps come from an OPEN stack at h_off, built on the map's first DCM
cycle.

A cycle is split in two.  advance(x) is the sequential part, the map
P(x) from a start state to the next: a few 5x5 products, the crossing
search and the partial step, and a small record of the states it
passed.  run_switched turns the records into cycle summaries in blocks
of _BLOCK cycles, off that path: v0 and the switch ports (V1, V2, I1,
I2) are affine in the augmented state within an interval, one output
map G per interval, so a cycle's averages follow from each interval's
trapezoid state integral S as S and G S.  S comes from the integral
maps h (sum_k Z**k - (I + Z**n) / 2), which for the off-time stacks are
their running sums for every step count.  Each record is contracted on
its own row, so its summary does not depend on its block.  Only the last
record is expanded into samples, on the same stacks.  No cycle depends
on its index.

This module is the verification counterpart of the averaged model and
deliberately shares no circuit algebra with it: the interval systems are
written out element by element from each sub-circuit, each entry the
SEPIC and Cuk share in an interval set once.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .converter import ConverterSpec, SEPIC, ValidationError, _check_duty
from .dc import StateVector, state_values
from .switchcell import CCM, DCM

ON, DIODE, OPEN = 1, 2, 3


@dataclass(frozen=True)
class SwitchedRunConfig:
    spec: ConverterSpec
    D: float
    n_cycles: int
    steps_per_cycle: int = 1000
    initial: StateVector = None

    def __post_init__(self):
        _check_duty(self.D)
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


class SwitchIntervalDuties(NamedTuple):
    """Fractions of the switching period spent in each interval.

    D1: transistor conducting, D2: diode conducting, D3: both off.
    """

    D1: float
    D2: float
    D3: float


class CycleSummary(NamedTuple):
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


def _interval_system(spec, interval):
    """F = [[A, b], [0, 0]] of one switch interval: dx/dt = A x + b,
    written as d/dt (x, 1) = F (x, 1) on the state augmented with 1.

    State order (i_L1, i_L2, v_C1, v_C2); i_L2 is taken positive into
    the coupling node for the SEPIC and positive out of the load node
    for the Cuk, matching the averaged model's conventions.  Each
    interval sets the entries both topologies share once, then each
    topology's own.
    """
    L1, L2, C1, C2 = spec.L1, spec.L2, spec.C1, spec.C2
    R, R_C2 = spec.R, spec.R_C2
    alpha = R / (R + R_C2)          # load-node divider
    Rk = R * R_C2 / (R + R_C2)      # load || ESR
    gC2 = 1.0 / ((R + R_C2) * C2)
    A = np.zeros((5, 5))
    A[3][3] = -gC2
    sepic = spec.kind == SEPIC
    if interval == ON:
        A[0][0] = -(spec.R_L1 + spec.R_on1) / L1
        A[0][1] = -spec.R_on1 / L1
        A[0][4] = spec.Vg / L1
        A[1][0] = -spec.R_on1 / L2
        A[1][2] = 1.0 / L2
        A[2][1] = -1.0 / C1
        if sepic:
            A[1][1] = -(spec.R_on1 + spec.R_C1 + spec.R_L2) / L2
        else:
            A[1][1] = -(Rk + spec.R_on1 + spec.R_C1 + spec.R_L2) / L2
            A[1][3] = alpha / L2
            A[3][1] = -R * gC2
    elif interval == DIODE:
        r_node = Rk + spec.R_d if sepic else spec.R_d     # diode-side node per amp
        A[0][0] = -(spec.R_L1 + spec.R_C1 + r_node) / L1
        A[0][1] = -r_node / L1
        A[0][2] = -1.0 / L1
        A[0][4] = (spec.Vg - spec.V_d) / L1
        A[1][0] = -r_node / L2
        A[1][1] = -(Rk + spec.R_d + spec.R_L2) / L2
        A[1][4] = -spec.V_d / L2
        A[2][0] = 1.0 / C1
        if sepic:
            A[0][3] = -alpha / L1
            A[1][3] = -alpha / L2
            A[3][0] = R * gC2
            A[3][1] = R * gC2
        else:
            A[1][3] = alpha / L2
            A[3][1] = -R * gC2
    else:
        Lt = L1 + L2
        rs = spec.R_L1 + spec.R_C1 + spec.R_L2
        A[0][2] = -1.0 / Lt
        A[0][4] = spec.Vg / Lt
        A[2][0] = 1.0 / C1
        if sepic:
            A[0][0] = -rs / Lt
        else:
            A[0][0] = -(rs + Rk) / Lt
            A[0][3] = -alpha / Lt
            A[3][0] = R * gC2
        # the series loop: d i_L2/dt = -d i_L1/dt; -= keeps the zeros +0.0
        A[1] -= A[0]
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


def _integral_maps(P, h):
    """_integral_map(P[:k + 1], h) for every k, from the running sums of
    the stack P (with P[0] = I), computed in place.  They round otherwise
    than _integral_map, which the CCM maps keep for their output bits and
    for speed: at 1000 steps per cycle one full-interval sum takes about
    7-14 us, all the running sums of a stack 39-90 us (2-core Xeon, numpy
    2.4.6)."""
    K = np.cumsum(P, axis=0)
    K *= 2.0
    K -= P
    K -= P[0]
    K *= 0.5 * h
    return K


def _open_step(sys_open):
    """step(x, a) -> (x_in, S): the trapezoid step of length 2a on the
    OPEN system F = sys_open from the state x, x_in = 2 y - x with
    (I - aF) y = x, and its state integral S = 2a y, on floats.

    It relies on the zeros of F: no row reads i_L2, the last row is zero,
    v_C1 follows i_L1 alone and v_C2 i_L1 and itself.  So y_4 = x_4,
    y_2 and y_3 are affine in y_0, and y_0 solves one scalar equation;
    y_1 follows from the others.
    """
    (f00, _, f02, f03, f04), (f10, _, f12, f13, f14), (f20, *_), (f30, _, _, f33, _), _ = \
        sys_open.tolist()

    def step(x, a):
        x0, x1, x2, x3, x4 = x
        g = 1.0 / (1.0 - a * f33)
        y0 = ((x0 + a * (f02 * x2 + f03 * g * x3 + f04 * x4))
              / (1.0 - a * (f00 + a * (f02 * f20 + f03 * g * f30))))
        y2 = x2 + a * f20 * y0
        y3 = g * (x3 + a * f30 * y0)
        y1 = x1 + a * (f10 * y0 + f12 * y2 + f13 * y3 + f14 * x4)
        b = 2.0 * a
        return ((2.0 * y0 - x0, 2.0 * y1 - x1, 2.0 * y2 - x2, 2.0 * y3 - x3, x4),
                (b * y0, b * y1, b * y2, b * y3, b * x4))

    return step


class _Cycle(NamedTuple):
    """What a cycle's summary and trace need besides its end state.

    x: start state; x1: state at the end of ON; j: the DIODE step in
    which i_L1 + i_L2 crossed zero (None in CCM, 0 with no current left
    at the end of ON); theta: the fraction of step j before the
    crossing; xa: the DIODE sample before it; x_open: the state at the
    crossing; x_in: the OPEN entry state on the DIODE grid (None when the
    crossing leaves no OPEN time); S: the state integral of the partial
    OPEN step that led to x_in.
    """

    x: np.ndarray
    x1: np.ndarray
    j: int = None
    theta: float = None
    xa: list = None
    x_open: list = None
    x_in: np.ndarray = None
    S: tuple = (0.0,) * 5


# cycles whose summaries are built together: it bounds the memory the
# records take, and a summary's bits do not depend on it
_BLOCK = 128


def _cycle_map(spec, D, steps):
    """(advance, summarize, trace) of one (spec, D, steps).

    advance(x) maps a start state x = (i_L1, i_L2, v_C1, v_C2, 1) to the
    cycle's end state and its _Cycle record; it is the whole of the
    cycle-to-cycle map P(x).  summarize(records) turns a block of
    records into their CycleSummary list, contracting each record's
    interval integral maps and output maps on its own row.
    trace(summaries, record, x_end) is the run's waveform, with the
    samples of the last cycle expanded from its record on the same
    stacks.
    """
    Ts = 1.0 / spec.f_s
    n_on = min(max(int(round(D * steps)), 1), steps - 1)
    h_on = D * Ts / n_on
    n_off = steps - n_on
    h_off = (1.0 - D) * Ts / n_off

    sys_open = _interval_system(spec, OPEN)
    open_step = _open_step(sys_open)
    # SG[k] = [[I], [G]] takes an interval's state integral S to (S, G S)
    SG = {k: np.vstack((np.eye(5), _output_map(spec, k, sys_open)))
          for k in (ON, DIODE, OPEN)}
    # Z**k of each interval for every step k (OPEN's on the first DCM
    # cycle), and the 10x5 map of an entry state to (S, G S) of the
    # whole interval
    stacks = {k: _powers(_affine(_interval_system(spec, k), h), n)
              for k, h, n in ((ON, h_on, n_on), (DIODE, h_off, n_off))}
    parts_on, parts_d = (SG[k] @ _integral_map(stacks[k], h)
                         for k, h in ((ON, h_on), (DIODE, h_off)))
    Z_on, P_d = stacks[ON][-1], stacks[DIODE]
    Z_d = P_d[-1]
    # x @ i_sum_d is i_L1 + i_L2 at DIODE samples 1..n_off of an entry x
    i_sum_d = np.ascontiguousarray((P_d[1:, 0] + P_d[1:, 1]).T)
    t_sw = D * Ts                       # switching instant within a cycle
    t_off = t_sw + n_off * h_off        # the last sample of the off-time grid
    K = {}      # DIODE and OPEN integral maps at h_off, for every step count,
                # built with the OPEN stack on the first DCM cycle

    def diode_duty(j, theta):
        return (j - 1 + theta) * h_off / Ts

    def advance(x):
        x1 = Z_on @ x
        j = 0                               # the DIODE step that crosses zero
        if x1[0] + x1[1] > 0.0:
            s = x1 @ i_sum_d
            below = s < 0.0
            j = int(below.argmax()) + 1     # first sample below zero
            if not below[j - 1]:
                return Z_d @ x1, _Cycle(x, x1)
        if not K:
            stacks[OPEN] = _powers(_affine(sys_open, h_off), n_off)
            K[DIODE], K[OPEN] = (_integral_maps(stacks[k], h_off) for k in (DIODE, OPEN))
        if not j:                           # no current: the whole off-time is open
            return stacks[OPEN][n_off] @ x1, _Cycle(x, x1, 0, x_in=x1)
        # interpolate the crossing inside step j; the event sample is the
        # DIODE interval's last one
        sa = s[j - 2] if j > 1 else x1[0] + x1[1]
        sb = s[j - 1]
        theta = float(sa / (sa - sb))
        xa, xb = (P_d[j - 1:j + 1] @ x1).tolist()
        x_open = [a + theta * (b - a) for a, b in zip(xa, xb)]
        if not 1.0 - D - diode_duty(j, theta) > 0.0:
            return np.array(x_open), _Cycle(x, x1, j, theta, xa, x_open)
        # the OPEN interval on the DIODE grid: the rest of step j in one
        # trapezoid step, then n_off - j whole steps
        x_in, S = open_step(x_open, 0.5 * (1.0 - theta) * h_off)
        x_in = np.array(x_in)
        return (stacks[OPEN][n_off - j] @ x_in,
                _Cycle(x, x1, j, theta, xa, x_open, x_in, S))

    def summarize(records):
        # v0 and the ports are affine in the state within an interval, so
        # the trapezoid of each is G applied to the trapezoid S of the
        # state.  einsum contracts each record's row on its own, where a
        # BLAS product over the rows could round a row by its neighbours.
        c = _Cycle(*zip(*records))          # each field over the block

        def rows(which, field):
            return np.array([field[n] for n in which])

        def add(which, maps, S):
            parts[which] += np.einsum("ij,nj->ni", maps, S)

        X1 = np.array(c.x1)
        parts = np.einsum("ij,nj->ni", parts_on, np.array(c.x))
        d2 = np.full(len(records), 1.0 - D)
        modes = [CCM if j is None else DCM for j in c.j]
        ccm = [n for n, j in enumerate(c.j) if j is None]
        if ccm:
            add(ccm, parts_d, X1[ccm])
        d2[[n for n, j in enumerate(c.j) if j == 0]] = 0.0     # no current left
        cut = [n for n, j in enumerate(c.j) if j]
        if cut:
            j, theta = rows(cut, c.j), rows(cut, c.theta)
            d2[cut] = diode_duty(j, theta)
            add(cut, SG[DIODE], np.einsum("nij,nj->ni", K[DIODE][j - 1], X1[cut])
                + (0.5 * theta * h_off)[:, None] * (rows(cut, c.xa) + rows(cut, c.x_open)))
        tail = [n for n, x_in in enumerate(c.x_in) if x_in is not None]
        if tail:
            add(tail, SG[OPEN], np.einsum("nij,nj->ni", K[OPEN][n_off - rows(tail, c.j)],
                                          rows(tail, c.x_in))
                + rows(tail, c.S))
        return [CycleSummary(SwitchIntervalDuties(D, D2, D3), v0_avg, iL1, iL2, vC1, vC2,
                             I1, I2, V1, V2, mode)
                for (iL1, iL2, vC1, vC2, _, v0_avg, V1, V2, I1, I2), D2, D3, mode
                in zip((parts / Ts).tolist(), d2.tolist(), (1.0 - D - d2).tolist(), modes)]

    def trace(summaries, r, x_end):
        # the record's intervals as (interval, entry state, first and last
        # stack index, step, start and end time from the cycle start, end state)
        plan = [(ON, r.x, 1, n_on, h_on, 0.0, n_on * h_on, r.x1)]
        if r.j is None:
            plan.append((DIODE, r.x1, 1, n_off, h_off, t_sw, t_off, x_end))
        elif r.j:
            plan.append((DIODE, r.x1, 1, r.j, h_off, t_sw,
                         t_sw + diode_duty(r.j, r.theta) * Ts, r.x_open))
        if r.x_in is not None:
            plan.append((OPEN, r.x_in, 0 if r.j else 1, n_off - r.j, h_off,
                         t_sw + r.j * h_off, t_off, x_end))
        # each interval adds its samples from its first stack index on
        index = len(summaries) - 1
        samples = [(np.array([0.0]), r.x[None], np.array([SG[ON][5] @ r.x]))]
        spans = []
        first = 0
        for interval, x_in, k0, n, h, t_from, t_end, x_last in plan:
            X = (stacks[interval][k0:n + 1].reshape(-1, 5) @ x_in).reshape(-1, 5)
            X[-1] = x_last
            t = t_from + np.arange(k0, n + 1) * h
            t[-1] = t_end
            spans.append((index, interval, first, first + n + 1 - k0))
            first += n + 1 - k0
            samples.append((t, X, X @ SG[interval][5]))
        times, states, v0 = (np.concatenate(a) for a in zip(*samples))
        return SwitchedWaveform(
            spec=spec, D=D, steps_per_cycle=steps, times=index * Ts + times,
            states=states[:, :4], v0=v0, segments=spans, summaries=summaries,
            cycles_run=len(summaries))

    return advance, summarize, trace


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
    advance, summarize, trace = _cycle_map(config.spec, config.D, config.steps_per_cycle)
    x = np.append(np.zeros(4) if config.initial is None else config.initial, 1.0)
    summaries = []
    for start in range(0, config.n_cycles, _BLOCK):
        records = []
        for _ in range(min(_BLOCK, config.n_cycles - start)):
            x, record = advance(x)
            records.append(record)
        summaries += summarize(records)
    return trace(summaries, record, x)


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
