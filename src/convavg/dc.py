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


@dataclass(frozen=True)
class StateVector:
    """Averaged converter state."""

    i_L1: float
    i_L2: float
    v_C1: float
    v_C2: float

    def as_array(self):
        import numpy as np
        return np.array([self.i_L1, self.i_L2, self.v_C1, self.v_C2])


def state_values(x):
    """An initial state, a StateVector or four numbers, as a list of four
    finite floats; anything else is a ValidationError."""
    if isinstance(x, StateVector):
        values = [x.i_L1, x.i_L2, x.v_C1, x.v_C2]
    else:
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


def _scales(spec, x):
    v_scale = abs(spec.Vg) + abs(x[2]) + abs(x[3]) + 1.0
    i_scale = abs(x[0]) + abs(x[1]) + 1.0
    return v_scale, i_scale


def _residual_and_norm(spec, d, x):
    """Averaged branch residuals at x in physical units (volts, amps),
    their scaled maximum norm, and the port solution they came from."""
    ports = resolve_ports(spec, d, x)
    f0, f1, f2, f3 = derivative(spec, d, x, ports)
    r = [f0 * spec.L1, f1 * spec.L2, f2 * spec.C1, f3 * spec.C2]
    v_scale, i_scale = _scales(spec, x)
    return r, max(abs(r[0]) / v_scale, abs(r[1]) / v_scale,
                  abs(r[2]) / i_scale, abs(r[3]) / i_scale), ports


def _solve4(a):
    """Solve the 4x4 system in augmented rows [A | b] (overwritten) by
    Gaussian elimination with partial pivoting; None at a zero pivot."""
    for k in range(4):
        p = k
        for i in range(k + 1, 4):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        pivot = a[p]
        if pivot[k] == 0.0:
            return None
        a[p], a[k] = a[k], pivot
        for row in a[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k + 1, 5):
                row[j] -= f * pivot[j]
    x = [0.0] * 4
    for k in (3, 2, 1, 0):
        row = a[k]
        s = row[4]
        for j in range(k + 1, 4):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return x


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
    x = _guess_values(spec, d)

    r, norm, ports = _residual_and_norm(spec, d, x)
    iterations = 0
    while not norm <= _TOL:     # a NaN norm stays in the loop
        if iterations >= _MAX_ITERATIONS:
            raise NonConvergence(
                "no convergence after %d iterations (residual %.3e)"
                % (iterations, norm), iterations, norm)
        c0, c1, c2, c3 = jacobian_columns(spec, d, x, ports, 4)
        step = _solve4([[u * c0[i], u * c1[i], u * c2[i], u * c3[i], -r[i]]
                        for i, u in enumerate((spec.L1, spec.L2, spec.C1, spec.C2))])
        if step is None:    # J step = -r, in volts and amps, lost rank
            raise SingularJacobian("Jacobian singular at iteration %d" % iterations)
        if not all(map(isfinite, step)):
            raise SingularJacobian(
                "Jacobian produced a non-finite step at iteration %d" % iterations)

        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = [xi + lam * si for xi, si in zip(x, step)]
            trial_r, trial_norm, trial_ports = _residual_and_norm(spec, d, trial)
            if trial_norm < norm or not isfinite(norm):
                break
            lam *= 0.5
        else:
            # No damping factor reduced the residual; take the smallest
            # step anyway so kinked regions cannot stall the iteration.
            trial = [xi + lam * si for xi, si in zip(x, step)]
            trial_r, trial_norm, trial_ports = _residual_and_norm(spec, d, trial)

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
    (NaN state) and the sweep goes on.  A non-positive step, a
    non-finite bound, a reversed range or a grid above MAX_SWEEP_POINTS
    raises ValueError first.
    """
    if not (D_step > 0.0):
        raise ValueError("duty step must be positive")
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
