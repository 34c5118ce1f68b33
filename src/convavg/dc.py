"""DC operating-point solver for the averaged converter model.

Finds the state (i_L1, i_L2, v_C1, v_C2) at which every averaged
inductor voltage and capacitor current vanishes, with the effective duty
mu resolved inside the residual at every evaluation so the solver walks
freely across the CCM/DCM boundary.  It runs on plain floats, its 4x4
Newton system included, so only the ndarray returns here import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import NamedTuple

from .avgmodel import derivative, jacobian_columns, resolve_ports
from .converter import (CUK, ConverterSpec, OperatingPointRequest, ValidationError,
                        dcm_predicted, equivalent_inductance)

_MAX_ITERATIONS = 200
_TOL = 1e-9
_MAX_HALVINGS = 20
# Largest duty grid sweep_duty builds: a tiny step must not ask for
# unbounded work.
MAX_SWEEP_POINTS = 100_001


class SolverError(RuntimeError):
    pass


class NonConvergence(SolverError):
    """Newton iteration exhausted its budget without meeting tolerance."""

    def __init__(self, message, iterations, residual_norm):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class SingularJacobian(SolverError):
    """The Newton matrix of the DC residual could not be factored."""


class StateVector(NamedTuple):
    """Averaged converter state."""

    i_L1: float
    i_L2: float
    v_C1: float
    v_C2: float

    def as_array(self):
        import numpy as np
        return np.array(self)


def state_values(x):
    """An initial state, a StateVector or four numbers, as a list of four
    finite floats; anything else is a ValidationError."""
    try:
        values = [float(v) for v in x]
    except (TypeError, ValueError):
        values = []
    if len(values) != 4:
        raise ValidationError("initial state must have four entries")
    if not all(map(isfinite, values)):
        raise ValidationError("initial state must be finite")
    return values


@dataclass(frozen=True)
class OperatingPoint:
    """Solved DC operating point of one converter at one duty cycle."""

    D: float
    state: StateVector
    V0: float
    mu: float
    mode: str
    residual_norm: float
    iterations: int = 0
    converged: bool = True


def _residual_and_norm(spec, d, x):
    """Averaged branch residuals at x in physical units (volts, amps) as
    a 4-tuple, their scaled maximum norm, and the port solution they
    came from."""
    ports = resolve_ports(spec, d, x)
    f0, f1, f2, f3 = derivative(spec, d, x, ports)
    r0, r1, r2, r3 = f0 * spec.L1, f1 * spec.L2, f2 * spec.C1, f3 * spec.C2
    x0, x1, x2, x3 = x
    v_scale = abs(spec.Vg) + abs(x2) + abs(x3) + 1.0
    i_scale = abs(x0) + abs(x1) + 1.0
    return (r0, r1, r2, r3), max(abs(r0) / v_scale, abs(r1) / v_scale,
                                 abs(r2) / i_scale, abs(r3) / i_scale), ports


def _solve4(a):
    """Solve the 4x4 system in augmented rows [A | b] by Gaussian
    elimination with partial pivoting; None at an exactly zero pivot.

    Written out, it is the row loop kept in the tests as its reference:
    at column k the first row with the largest |entry| (strict >) trades
    places with row k, each update is r[j] - f*q[j], and back-substitution
    sums left to right, so the solution is the same to the bit.
    """
    r0, r1, r2, r3 = a
    # column 0: the pivot row and row 0 trade places
    p, m = 0, abs(r0[0])
    if abs(r1[0]) > m:
        p, m = 1, abs(r1[0])
    if abs(r2[0]) > m:
        p, m = 2, abs(r2[0])
    if abs(r3[0]) > m:
        p = 3
    rows = [r0, r1, r2, r3]
    rows[0], rows[p] = rows[p], r0
    (q0, q1, q2, q3, q4), (e0, e1, e2, e3, e4), (g0, g1, g2, g3, g4), \
        (h0, h1, h2, h3, h4) = rows
    if q0 == 0.0:
        return None
    f = e0 / q0
    r1 = (e1 - f * q1, e2 - f * q2, e3 - f * q3, e4 - f * q4)
    f = g0 / q0
    r2 = (g1 - f * q1, g2 - f * q2, g3 - f * q3, g4 - f * q4)
    f = h0 / q0
    r3 = (h1 - f * q1, h2 - f * q2, h3 - f * q3, h4 - f * q4)
    # column 1, rows 1-3
    p, m = 0, abs(r1[0])
    if abs(r2[0]) > m:
        p, m = 1, abs(r2[0])
    if abs(r3[0]) > m:
        p = 2
    rows = [r1, r2, r3]
    rows[0], rows[p] = rows[p], r1
    (u1, u2, u3, u4), (e1, e2, e3, e4), (g1, g2, g3, g4) = rows
    if u1 == 0.0:
        return None
    f = e1 / u1
    r2 = (e2 - f * u2, e3 - f * u3, e4 - f * u4)
    f = g1 / u1
    r3 = (g2 - f * u2, g3 - f * u3, g4 - f * u4)
    # column 2, rows 2-3; then column 3
    if abs(r3[0]) > abs(r2[0]):
        r2, r3 = r3, r2
    (v2, v3, v4), (e2, e3, e4) = r2, r3
    if v2 == 0.0:
        return None
    f = e2 / v2
    w3, w4 = e3 - f * v3, e4 - f * v4
    if w3 == 0.0:
        return None
    x3 = w4 / w3
    x2 = (v4 - v3 * x3) / v2
    x1 = (u4 - u2 * x2 - u3 * x3) / u1
    return (q4 - q1 * x1 - q2 * x2 - q3 * x3) / q0, x1, x2, x3


def _guess_values(spec, D):
    """Closed-form lossless starting state for the Newton iteration, as a
    list of four floats."""
    if spec.Vg <= 0.0:
        return [0.0, 0.0, max(spec.Vg, 0.0), 0.0]
    if dcm_predicted(spec, D):
        v0 = spec.Vg * D * sqrt(spec.R / (2.0 * equivalent_inductance(spec) * spec.f_s))
    else:
        v0 = spec.Vg * D / (1.0 - D)
    i_out = v0 / spec.R
    i_in = v0 * v0 / (spec.R * spec.Vg)
    if spec.kind == CUK:
        return [i_in, i_out, spec.Vg + v0, -v0]
    return [i_in, i_out, spec.Vg, v0]


def solve_dc(request: OperatingPointRequest) -> OperatingPoint:
    """Solve for the DC operating point of the averaged model.

    Damped Newton iteration on the four averaged branch equations, from
    the closed-form lossless estimate.  The iteration converges when the
    scaled residual norm drops below _TOL, within _MAX_ITERATIONS; a
    residual that is not finite never counts as converged.

    Raises:
        NonConvergence: iteration budget exhausted.
        SingularJacobian: the residual Jacobian lost rank.
    """
    spec, d = request.spec, request.D
    L1, L2, C1, C2 = spec.L1, spec.L2, spec.C1, spec.C2
    x = _guess_values(spec, d)

    r, norm, ports = _residual_and_norm(spec, d, x)
    iterations = 0
    while not norm <= _TOL:     # a NaN norm stays in the loop
        if iterations >= _MAX_ITERATIONS:
            raise NonConvergence(
                "no convergence after %d iterations (residual %.3e)"
                % (iterations, norm), iterations, norm)
        (a00, a10, a20, a30), (a01, a11, a21, a31), (a02, a12, a22, a32), \
            (a03, a13, a23, a33) = jacobian_columns(spec, d, x, ports, 4)
        r0, r1, r2, r3 = r
        step = _solve4([[L1 * a00, L1 * a01, L1 * a02, L1 * a03, -r0],
                        [L2 * a10, L2 * a11, L2 * a12, L2 * a13, -r1],
                        [C1 * a20, C1 * a21, C1 * a22, C1 * a23, -r2],
                        [C2 * a30, C2 * a31, C2 * a32, C2 * a33, -r3]])
        if step is None:    # J step = -r, in volts and amps, lost rank
            raise SingularJacobian("Jacobian singular at iteration %d" % iterations)
        if not all(map(isfinite, step)):
            raise SingularJacobian(
                "Jacobian produced a non-finite step at iteration %d" % iterations)
        s0, s1, s2, s3 = step
        x0, x1, x2, x3 = x

        # Halve the step until the residual falls; the last, smallest one
        # is taken anyway so kinked regions cannot stall the iteration.
        lam = 1.0
        for _ in range(_MAX_HALVINGS + 2):
            trial = (x0 + lam * s0, x1 + lam * s1, x2 + lam * s2, x3 + lam * s3)
            trial_r, trial_norm, trial_ports = _residual_and_norm(spec, d, trial)
            if trial_norm < norm or not isfinite(norm):
                break
            lam *= 0.5

        x, r, norm, ports = trial, trial_r, trial_norm, trial_ports
        iterations += 1

    return OperatingPoint(d, StateVector(*x), ports.v_out, ports.mu, ports.mode,
                          norm, iterations, True)


def _failed_point(d, exc):
    nan = float("nan")
    residual = getattr(exc, "residual_norm", nan)
    iterations = getattr(exc, "iterations", 0)
    return OperatingPoint(D=d, state=StateVector(nan, nan, nan, nan), V0=nan,
                          mu=nan, mode="none", residual_norm=residual,
                          iterations=iterations, converged=False)


def sweep_duty(spec: ConverterSpec, D_from: float, D_to: float,
               D_step: float) -> list:
    """Operating points on an inclusive duty grid, each solved as
    solve_dc solves it, from the closed-form guess at its own duty.

    A point that fails to converge is recorded with ``converged=False``
    (NaN state) and the sweep goes on.  A non-positive or infinite step,
    a non-finite bound, a reversed range or a grid above MAX_SWEEP_POINTS
    raises ValueError first.
    """
    if not (D_step > 0.0):
        raise ValueError("duty step must be positive")
    if not isfinite(D_step):        # 0 * inf would make a NaN duty
        raise ValueError("duty step must be finite")
    if not (isfinite(D_from) and isfinite(D_to)):
        raise ValueError("duty bounds must be finite")
    span = (D_to - D_from) / D_step
    if not (abs(span) < MAX_SWEEP_POINTS - 0.5):    # round(span) + 1 points
        raise ValueError("duty grid exceeds %d points" % MAX_SWEEP_POINTS)
    n = int(round(span))
    if n < 0:
        raise ValueError("empty duty range")
    duties = [D_from + k * D_step for k in range(n + 1)]
    points = []
    for d in duties:
        try:
            points.append(solve_dc(OperatingPointRequest(spec=spec, D=d)))
        except SolverError as exc:
            points.append(_failed_point(d, exc))
    return points
