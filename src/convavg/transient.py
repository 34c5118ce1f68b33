"""Large-signal time-domain simulation of the averaged model.

TR-BDF2 (Bank et al., IEEE TCAD 1985; Hosea & Shampine, APNUM 1996): a
trapezoidal stage to t + gamma*h, then a BDF2 stage through the step's
start and that stage to t + h.  With gamma = 2 - sqrt(2) both stages
solve with the same Newton matrix I - (gamma/2)*h*J, and an embedded
estimate, filtered through that matrix, drives the adaptive step size.
J is the analytic Jacobian of the averaged cell.  It is kept from step
to step and rebuilt only at a segment start or when the simplified
Newton iteration fails; the step shrinks only when Newton fails with a
fresh J.  The stage derivatives are recovered from the stage equations,
so a step costs one derivative per Newton iteration plus the one that
starts the next step.  The step and the cell's derivative run on plain
floats; numpy only inverts the per-step Newton matrix and builds the
output arrays.

The effective duty is resolved algebraically inside every derivative
evaluation, so mode transitions need no special handling; parameter
steps and duty breakpoints are events at which integration restarts
with the updated values (the method is self-starting).  Each accepted
sample is labelled (v0, mu, mode) as it is accepted, and the same port
resolution gives the derivative that starts the next step.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from math import inf, isfinite, isnan, sqrt
from operator import itemgetter

import numpy as np

from .avgmodel import derivative, jacobian_columns, resolve_ports
from .converter import ConverterSpec, ValidationError
from .dc import SolverError, state_values

# Parameters that a stimulus may step during a run.
STEPPABLE = ("R_L1", "R_L2", "R")

_NEWTON_MAX = 4
_STEP_GROW = 5.0
_STEP_SHRINK = 0.2
_EYE = np.eye(4)

# TR-BDF2 stage weights: y1 - (gamma/2) h f(y1) = _B_G*y_g - _B_0*x.
_GAMMA = 2.0 - sqrt(2.0)
_B_G = 1.0 / (_GAMMA * (2.0 - _GAMMA))
_B_0 = (1.0 - _GAMMA) ** 2 / (_GAMMA * (2.0 - _GAMMA))
# Local error k*h*(f0/gamma - f_g/(gamma*(1-gamma)) + f1/(1-gamma)).
_ERR_K = (-3.0 * _GAMMA ** 2 + 4.0 * _GAMMA - 2.0) / (6.0 * (2.0 - _GAMMA))
_ERR_0 = _ERR_K / _GAMMA
_ERR_G = -_ERR_K / (_GAMMA * (1.0 - _GAMMA))
_ERR_1 = _ERR_K / (1.0 - _GAMMA)


class StepSizeUnderflow(SolverError):
    """Adaptive integration failed to meet tolerance at the minimum step."""


@dataclass(frozen=True)
class Stimulus:
    """Drive for a transient run.

    ``duty`` is either a constant or a piecewise-linear breakpoint list
    [(t0, d0), (t1, d1), ...]; the value holds flat before the first and
    after the last breakpoint.  ``parameter_steps`` lists (time, name,
    value) instantaneous component changes, names restricted to R_L1,
    R_L2 and R.
    """

    duty: object
    parameter_steps: tuple = ()

    def __post_init__(self):
        if isinstance(self.duty, (int, float)):
            points = ((0.0, float(self.duty)),)
        else:
            points = tuple((float(t), float(v)) for t, v in self.duty)
            if not points:
                raise ValidationError("duty breakpoint list is empty")
            times = [t for t, _ in points]
            if not all(map(isfinite, times)):
                raise ValidationError("duty breakpoint times must be finite")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ValidationError("duty breakpoints must be time-ordered")
        for _, v in points:
            if not (0.0 <= v < 1.0):
                raise ValidationError("duty values must lie in [0, 1), got %r" % (v,))
        object.__setattr__(self, "duty", points)
        steps = tuple((float(t), str(n), float(v)) for t, n, v in self.parameter_steps)
        for t, name, value in steps:
            if name not in STEPPABLE:
                raise ValidationError(
                    "cannot step parameter %r (one of %s)" % (name, "/".join(STEPPABLE)))
            if not (isfinite(t) and t >= 0.0):
                raise ValidationError("parameter step times must be finite and non-negative")
        object.__setattr__(self, "parameter_steps",
                           tuple(sorted(steps, key=lambda s: s[0])))

    def duty_at(self, t: float) -> float:
        points = self.duty
        if not t < points[-1][0]:       # at or after the last breakpoint, or NaN
            return points[-1][1]
        if t < points[0][0]:
            return points[0][1]
        # right-continuous at repeated breakpoints: the last value at a time wins
        k = bisect_right(points, t, 1, len(points) - 1, key=itemgetter(0))
        (t0, d0), (t1, d1) = points[k - 1], points[k]
        return d0 + (d1 - d0) * (t - t0) / (t1 - t0)


@dataclass(frozen=True)
class TransientStats:
    """Work counters of one transient run."""

    accepted: int = 0
    rejected: int = 0         # steps that failed the error test
    newton_failures: int = 0  # steps whose stage Newton iteration failed
    jacobians: int = 0
    rhs: int = 0              # derivative evaluations that resolve the cell
    h_min: float = 0.0        # smallest and largest accepted step [s]
    h_max: float = 0.0


@dataclass
class Waveform:
    """Sampled trajectory of a transient run."""

    times: np.ndarray
    states: np.ndarray        # one row per sample: i_L1, i_L2, v_C1, v_C2
    v0: np.ndarray
    mu: np.ndarray
    mode: list
    stats: TransientStats = TransientStats()


def _solve_stage(spec, d, z, rhs, dh, M, tol, work):
    """Simplified Newton on z - dh f(d, z) = rhs with the frozen inverse
    Newton matrix M; returns the stage value or None."""
    (r0, r1, r2, r3), (t0, t1, t2, t3) = rhs, tol
    prev = inf
    for _ in range(_NEWTON_MAX):
        f0, f1, f2, f3 = derivative(spec, d, z, resolve_ports(spec, d, z))
        work["rhs"] += 1
        z0, z1, z2, z3 = z
        v0, v1, v2, v3 = (r0 - z0 + dh * f0, r1 - z1 + dh * f1,
                          r2 - z2 + dh * f2, r3 - z3 + dh * f3)
        s0, s1, s2, s3 = [a * v0 + b * v1 + c * v2 + e * v3 for a, b, c, e in M]
        z = (z0 + s0, z1 + s1, z2 + s2, z3 + s3)
        # a nan residual makes every s_i nan, and max(); the error test catches the rest
        norm = max(abs(s0) / t0, abs(s1) / t1, abs(s2) / t2, abs(s3) / t3)
        if norm <= 1.0:
            return z
        if not norm < prev:     # diverging, or not finite
            return None
        prev = norm
    return None


def _integrate_segment(spec, stim, t0, t1, x, f0, h, rtol, atol, accept, work):
    """Adaptive TR-BDF2 integration over [t0, t1] from state x with
    derivative f0, each four floats; returns (x, f0, h).

    ``accept(t, x)`` records each accepted sample and returns the
    derivative there, which starts the next step.  The TransientStats
    counters in the dict ``work`` are updated in place.
    """
    t = t0
    h_min = max(1e-18, 1e-14 * max(t1, 1.0))
    J = None                # Jacobian kept across steps within the segment
    fresh = False           # J was taken at the current (t, x)
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow(
                "step size underflow at t = %.6e s" % (t,))
        if J is None:
            d = stim.duty_at(t)
            J = np.array(jacobian_columns(spec, d, x, resolve_ports(spec, d, x), 4)).T
            work["jacobians"] += 1
            fresh = True
        dh = 0.5 * _GAMMA * h
        M = np.linalg.inv(_EYE - dh * J).tolist()
        # stages are solved to a fraction of the error tolerance, not to round-off
        tol = [max(0.05 * (atol + rtol * abs(a)), 1e-14 * (1.0 + abs(a))) for a in x]
        # stage 1: trapezoid to t + gamma*h from an explicit Euler guess
        rhs = [a + dh * b for a, b in zip(x, f0)]
        y_g = _solve_stage(spec, stim.duty_at(t + _GAMMA * h),
                           [a + _GAMMA * h * b for a, b in zip(x, f0)],
                           rhs, dh, M, tol, work)
        y1 = None
        if y_g is not None:
            f_g = [(a - b) / dh for a, b in zip(y_g, rhs)]
            # stage 2: BDF2 through x, y_g to t + h, guessed by the
            # quadratic through x (slope f0) and y_g
            rhs = [_B_G * a - _B_0 * b for a, b in zip(y_g, x)]
            y1 = _solve_stage(spec, stim.duty_at(t + h),
                              [a + h * b + (c - a - _GAMMA * h * b) / _GAMMA ** 2
                               for a, b, c in zip(x, f0, y_g)],
                              rhs, dh, M, tol, work)
        if y1 is None:
            work["newton_failures"] += 1
            if fresh:
                h *= 0.25
            else:
                J = None
            continue
        r0, r1, r2, r3 = [h * (_ERR_0 * fa + _ERR_G * fg + _ERR_1 * ((y - r) / dh))
                          for fa, fg, y, r in zip(f0, f_g, y1, rhs)]
        scale = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(x, y1)]
        # |M @ r| / scale; a nan ratio, or a division by zero, fails the test
        ratios = [abs(a * r0 + b * r1 + c * r2 + e * r3) / s if s else inf
                  for (a, b, c, e), s in zip(M, scale)]
        err_norm = inf if isnan(sum(ratios)) else max(ratios)
        factor = _STEP_GROW if err_norm == 0.0 else 0.9 * err_norm ** (-1.0 / 3.0)
        if err_norm <= 1.0:
            t += h
            x = y1
            f0 = accept(t, x)
            fresh = False
            work["accepted"] += 1
            work["h_min"], work["h_max"] = min(work["h_min"], h), max(work["h_max"], h)
        else:
            work["rejected"] += 1
        h *= min(_STEP_GROW, max(_STEP_SHRINK, factor))
    return x, f0, h


def simulate(spec: ConverterSpec, stimulus: Stimulus, t_end: float,
             initial=None, *, rtol: float = 1e-6, atol: float = 1e-6) -> Waveform:
    """Integrate the averaged model from 0 to t_end under a stimulus.

    Integration restarts at every parameter-step time and duty
    breakpoint; each accepted step contributes one output sample.  A
    sample is labelled (v0, mu, mode) with the component values in
    force at its time, so the sample at a parameter step, and one at
    exactly t_end, carries the stepped values.

    ``rtol`` and ``atol`` must be finite and non-negative; zero is
    legal and asks for an exactness the error control cannot meet.
    Every parameter step, one past t_end included, must give a valid
    ConverterSpec; otherwise ValidationError is raised before the run.

    Raises StepSizeUnderflow when the error control cannot proceed.
    """
    if not (t_end > 0.0 and isfinite(t_end)):
        raise ValidationError("t_end must be positive and finite, got %r"
                              % (t_end,))
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (isfinite(value) and value >= 0.0):
            raise ValidationError("%s must be finite and non-negative, got %r"
                                  % (name, value))
    for _, name, value in stimulus.parameter_steps:
        # ConverterSpec checks the value; an ideal spec zeroes a parasitic
        if getattr(dataclasses.replace(spec, **{name: value}), name) != value:
            raise ValidationError("%s cannot step to %r on an ideal spec" % (name, value))
    x = [0.0] * 4 if initial is None else state_values(initial)

    events = sorted({t for t, _, _ in stimulus.parameter_steps if 0.0 < t < t_end}
                    | {t for t, _ in stimulus.duty if 0.0 < t < t_end})
    boundaries = [0.0] + events + [t_end]

    steps = stimulus.parameter_steps
    current = spec
    applied = 0
    times, states, v0, mu, mode = [], [], [], [], []
    work = dataclasses.asdict(TransientStats(h_min=inf))

    def accept(t, y):
        """Record a sample; return its derivative, which starts the next step."""
        nonlocal current, applied
        while applied < len(steps) and steps[applied][0] <= t:
            _, name, value = steps[applied]
            current = dataclasses.replace(current, **{name: value})
            applied += 1
        d = stimulus.duty_at(t)
        ports = resolve_ports(current, d, y)
        times.append(t)
        states.append(y)
        v0.append(ports.v_out)
        mu.append(ports.mu)
        mode.append(ports.mode)
        work["rhs"] += 1
        return derivative(current, d, y, ports)

    f0 = accept(0.0, x)
    h = min(t_end, 0.5 / spec.f_s)
    for t0, t1 in zip(boundaries, boundaries[1:]):
        x, f0, h = _integrate_segment(current, stimulus, t0, t1, x, f0, h,
                                      rtol, atol, accept, work)
    return Waveform(times=np.array(times), states=np.array(states),
                    v0=np.array(v0), mu=np.array(mu), mode=mode,
                    stats=TransientStats(**work))
