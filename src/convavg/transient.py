"""Large-signal time-domain simulation of the averaged model.

TR-BDF2 (Bank et al., IEEE TCAD 1985; Hosea & Shampine, APNUM 1996): a
trapezoidal stage to t + gamma*h, then a BDF2 stage through the step's
start and that stage to t + h.  With gamma = 2 - sqrt(2) both stages
solve with the same Newton matrix I - (gamma/2)*h*J, and an embedded
estimate, filtered through that matrix, drives the adaptive step size.
J, the cell's analytic Jacobian, and the inverse Newton matrix M are
kept across steps, after CVODE (Hindmarsh et al., ACM TOMS 2005): J is
rebuilt at a segment start and when Newton fails with a fresh M; M with
J, when dh moves over 30 % from the dh it was built at, and when Newton
fails with M built at another dh; h shrinks when Newton fails with both
fresh.  A stage also stops on the error left at its convergence rate
(Hairer & Wanner, Solving ODEs II, IV.8).  Stage derivatives come from
the stage equations, so a step costs one derivative per Newton iteration
plus the one that starts the next step.  The step, the cell and M's
inverse run on plain floats, 4-vectors as named floats and 4x4 products
summed left to right; numpy only builds the output arrays.

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
from math import inf, isfinite, isnan, nan, sqrt
from operator import itemgetter

import numpy as np

from .avgmodel import _DIRECTIONS, derivative, jacobian_columns, resolve_ports
from .converter import ConverterSpec, ValidationError
from .dc import SolverError, _solve4, state_values

# Parameters that a stimulus may step during a run.
STEPPABLE = ("R_L1", "R_L2", "R")

_NEWTON_MAX = 4
_STEP_GROW = 5.0
_STEP_SHRINK = 0.2
_DH_KEEP = 0.3          # M is kept while |dh/dh_M - 1| stays within this
_UNITS = _DIRECTIONS[:4]

# TR-BDF2 stage weights: y1 - (gamma/2) h f(y1) = _B_G*y_g - _B_0*x.
_GAMMA = 2.0 - sqrt(2.0)
_B_G = 1.0 / (_GAMMA * (2.0 - _GAMMA))
_B_0 = (1.0 - _GAMMA) ** 2 / (_GAMMA * (2.0 - _GAMMA))
_GAMMA_SQ = _GAMMA ** 2
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
    inverses: int = 0         # inverse Newton matrices built
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


def _inverse(J, dh):
    """(I - dh*J)^-1 row by row from J's columns: row i solves (I - dh*J)^T m = e_i."""
    a0, a1, a2, a3 = [[e - dh * j for e, j in zip(u, c)] for u, c in zip(_UNITS, J)]
    rows = [_solve4([a0 + [p], a1 + [q], a2 + [r], a3 + [s]]) for p, q, r, s in _UNITS]
    return (nan,) * 16 if None in rows else rows[0] + rows[1] + rows[2] + rows[3]


def _solve_stage(spec, d, z, rhs, dh, M, tol, work):
    """Simplified Newton on z - dh f(d, z) = rhs with the frozen inverse
    Newton matrix M, its 16 entries row by row; returns the stage value
    or None."""
    (r0, r1, r2, r3), (t0, t1, t2, t3) = rhs, tol
    m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = M
    prev = inf
    for _ in range(_NEWTON_MAX):
        f0, f1, f2, f3 = derivative(spec, d, z, resolve_ports(spec, d, z))
        work["rhs"] += 1
        z0, z1, z2, z3 = z
        v0 = r0 - z0 + dh * f0
        v1 = r1 - z1 + dh * f1
        v2 = r2 - z2 + dh * f2
        v3 = r3 - z3 + dh * f3
        s0 = m00 * v0 + m01 * v1 + m02 * v2 + m03 * v3
        s1 = m10 * v0 + m11 * v1 + m12 * v2 + m13 * v3
        s2 = m20 * v0 + m21 * v1 + m22 * v2 + m23 * v3
        s3 = m30 * v0 + m31 * v1 + m32 * v2 + m33 * v3
        z = (z0 + s0, z1 + s1, z2 + s2, z3 + s3)
        # a nan residual makes every s_i nan, and max(); the error test catches the rest
        norm = max(abs(s0) / t0, abs(s1) / t1, abs(s2) / t2, abs(s3) / t3)
        rate = norm / prev      # 0 on the first iteration
        if norm <= 1.0 or 0.0 < rate < 1.0 and rate / (1.0 - rate) * norm <= 1.0:
            return z            # the error left at this rate is within tol
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
    J = M = None            # J and M = (I - dh_M*J)^-1, kept across steps
    fresh = False           # J was taken at the current (t, x)
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow(
                "step size underflow at t = %.6e s" % (t,))
        if J is None:
            d = stim.duty_at(t)
            J = jacobian_columns(spec, d, x, resolve_ports(spec, d, x), 4)
            work["jacobians"] += 1
            fresh, M = True, None
        dh = 0.5 * _GAMMA * h
        gh = _GAMMA * h
        if M is None or abs(dh / dh_M - 1.0) > _DH_KEEP:
            M, dh_M = _inverse(J, dh), dh
            work["inverses"] += 1
        x0, x1, x2, x3 = x
        p0, p1, p2, p3 = f0
        # stages are solved to a fraction of the error tolerance, not to round-off
        tol = (max(0.05 * (atol + rtol * abs(x0)), 1e-14 * (1.0 + abs(x0))),
               max(0.05 * (atol + rtol * abs(x1)), 1e-14 * (1.0 + abs(x1))),
               max(0.05 * (atol + rtol * abs(x2)), 1e-14 * (1.0 + abs(x2))),
               max(0.05 * (atol + rtol * abs(x3)), 1e-14 * (1.0 + abs(x3))))
        # stage 1: trapezoid to t + gamma*h from an explicit Euler guess
        r0, r1, r2, r3 = x0 + dh * p0, x1 + dh * p1, x2 + dh * p2, x3 + dh * p3
        y_g = _solve_stage(spec, stim.duty_at(t + gh),
                           (x0 + gh * p0, x1 + gh * p1, x2 + gh * p2, x3 + gh * p3),
                           (r0, r1, r2, r3), dh, M, tol, work)
        y1 = None
        if y_g is not None:
            g0, g1, g2, g3 = y_g
            q0, q1, q2, q3 = (g0 - r0) / dh, (g1 - r1) / dh, (g2 - r2) / dh, (g3 - r3) / dh
            # stage 2: BDF2 through x, y_g to t + h, guessed by the
            # quadratic through x (slope f0) and y_g
            r0, r1, r2, r3 = (_B_G * g0 - _B_0 * x0, _B_G * g1 - _B_0 * x1,
                              _B_G * g2 - _B_0 * x2, _B_G * g3 - _B_0 * x3)
            y1 = _solve_stage(spec, stim.duty_at(t + h),
                              (x0 + h * p0 + (g0 - x0 - gh * p0) / _GAMMA_SQ,
                               x1 + h * p1 + (g1 - x1 - gh * p1) / _GAMMA_SQ,
                               x2 + h * p2 + (g2 - x2 - gh * p2) / _GAMMA_SQ,
                               x3 + h * p3 + (g3 - x3 - gh * p3) / _GAMMA_SQ),
                              (r0, r1, r2, r3), dh, M, tol, work)
        if y1 is None:
            work["newton_failures"] += 1
            if dh != dh_M:
                M = None
            elif fresh:
                h *= 0.25
            else:
                J = None
            continue
        u0, u1, u2, u3 = y1
        # local error estimate, the stage-2 derivative recovered as (y1 - rhs)/dh
        e0 = h * (_ERR_0 * p0 + _ERR_G * q0 + _ERR_1 * ((u0 - r0) / dh))
        e1 = h * (_ERR_0 * p1 + _ERR_G * q1 + _ERR_1 * ((u1 - r1) / dh))
        e2 = h * (_ERR_0 * p2 + _ERR_G * q2 + _ERR_1 * ((u2 - r2) / dh))
        e3 = h * (_ERR_0 * p3 + _ERR_G * q3 + _ERR_1 * ((u3 - r3) / dh))
        c0 = atol + rtol * max(abs(x0), abs(u0))
        c1 = atol + rtol * max(abs(x1), abs(u1))
        c2 = atol + rtol * max(abs(x2), abs(u2))
        c3 = atol + rtol * max(abs(x3), abs(u3))
        # |M @ e| / scale; a nan ratio, or a division by zero, fails the test
        m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = M
        k0 = abs(m00 * e0 + m01 * e1 + m02 * e2 + m03 * e3) / c0 if c0 else inf
        k1 = abs(m10 * e0 + m11 * e1 + m12 * e2 + m13 * e3) / c1 if c1 else inf
        k2 = abs(m20 * e0 + m21 * e1 + m22 * e2 + m23 * e3) / c2 if c2 else inf
        k3 = abs(m30 * e0 + m31 * e1 + m32 * e2 + m33 * e3) / c3 if c3 else inf
        err_norm = inf if isnan(k0 + k1 + k2 + k3) else max(k0, k1, k2, k3)
        factor = _STEP_GROW if err_norm == 0.0 else 0.9 * err_norm ** (-1.0 / 3.0)
        if err_norm <= 1.0:
            t = t1 if h == t1 - t else t + h    # the step cut to t1 ends there exactly
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
