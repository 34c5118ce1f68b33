"""Large-signal time-domain simulation of the averaged model.

Implicit trapezoidal integration with adaptive step control by
step-doubling (one full step against two half steps, Richardson error
estimate).  Each step's Newton iteration uses a forward-difference
Jacobian taken at the end-of-step duty.  The effective duty is resolved
algebraically inside every derivative evaluation, so mode transitions
need no special handling; parameter steps and duty breakpoints are
events at which integration restarts with the updated values.  Each
accepted sample is labelled (v0, mu, mode) as it is accepted, and the
same port resolution gives the derivative that starts the next step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .avgmodel import derivative, resolve_ports
from .converter import ConverterSpec, ValidationError

# Parameters that a stimulus may step during a run.
STEPPABLE = ("R_L1", "R_L2", "R")

_NEWTON_MAX = 20
_STEP_GROW = 5.0
_STEP_SHRINK = 0.2


class StepSizeUnderflow(RuntimeError):
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
            if t < 0.0:
                raise ValidationError("parameter step times must be non-negative")
        object.__setattr__(self, "parameter_steps",
                           tuple(sorted(steps, key=lambda s: s[0])))

    def duty_at(self, t: float) -> float:
        points = self.duty
        if t < points[0][0]:
            return points[0][1]
        if t >= points[-1][0]:
            return points[-1][1]
        last = len(points) - 2
        for idx in range(len(points) - 1):
            t0, d0 = points[idx]
            t1, d1 = points[idx + 1]
            if t0 <= t <= t1:
                if t == t1 and idx < last:
                    continue    # right-continuous at repeated breakpoints
                if t1 == t0:
                    return d1
                return d0 + (d1 - d0) * (t - t0) / (t1 - t0)
        return points[-1][1]


@dataclass
class Waveform:
    """Sampled trajectory of a transient run."""

    times: np.ndarray
    states: np.ndarray        # one row per sample: i_L1, i_L2, v_C1, v_C2
    v0: np.ndarray
    mu: np.ndarray
    mode: list

    def final_state(self):
        from .dc import StateVector
        return StateVector.from_array(self.states[-1])


def _newton_matrix(spec, d, y, f_y, h):
    """Trapezoidal Newton matrix I - h/2 df/dx at y, by forward
    differences against f_y = f(d, y)."""
    J = np.eye(4)
    for j in range(4):
        hj = 1e-7 * (abs(y[j]) + 1.0)
        yp = y.copy()
        yp[j] += hj
        J[:, j] -= 0.5 * h * (derivative(spec, d, yp) - f_y) / hj
    return J


def _trapezoid_step(spec, stim, t0, x0, f0, h, rtol, atol):
    """One implicit trapezoidal step; returns the new state or None."""
    t1 = t0 + h
    d1 = stim.duty_at(t1)
    y = x0 + h * f0          # explicit Euler predictor
    # frozen Jacobian of the residual F(y) = y - x0 - h/2 (f0 + f(y)),
    # differenced at the end-of-step duty on both sides
    f_base = f0 if d1 == stim.duty_at(t0) else derivative(spec, d1, x0)
    J = _newton_matrix(spec, d1, x0, f_base, h)
    refreshes = 0
    prev_norm = None
    for _ in range(_NEWTON_MAX):
        F = y - x0 - 0.5 * h * (f0 + derivative(spec, d1, y))
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        y = y + delta
        # the implicit system only needs solving to a fraction of the
        # step error tolerance, not to machine precision
        tol = 0.05 * (atol + rtol * np.abs(y))
        if np.all(np.abs(delta) <= np.maximum(tol, 1e-14 * (1.0 + np.abs(y)))):
            return y
        if not np.all(np.isfinite(y)):
            return None
        norm = float(np.max(np.abs(delta)))
        if prev_norm is not None and norm > 0.5 * prev_norm and refreshes < 2:
            # poor contraction means the Jacobian is stale; rebuild it
            # at the current iterate
            J = _newton_matrix(spec, d1, y, derivative(spec, d1, y), h)
            refreshes += 1
            prev_norm = None
        else:
            prev_norm = norm
    return None


def _integrate_segment(spec, stim, t0, t1, x, f0, h, rtol, atol, accept):
    """Adaptive trapezoidal integration over [t0, t1] from state x with
    derivative f0; returns (x, f0, h).

    ``accept(t, x)`` records each accepted sample and returns the
    derivative there, which starts the next step.
    """
    t = t0
    h_min = max(1e-18, 1e-14 * max(t1, 1.0))
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow(
                "step size underflow at t = %.6e s" % (t,))
        big = _trapezoid_step(spec, stim, t, x, f0, h, rtol, atol)
        fine = None
        if big is not None:
            half = _trapezoid_step(spec, stim, t, x, f0, 0.5 * h, rtol, atol)
            if half is not None:
                f_half = derivative(spec, stim.duty_at(t + 0.5 * h), half)
                fine = _trapezoid_step(spec, stim, t + 0.5 * h, half, f_half,
                                       0.5 * h, rtol, atol)
        if big is None or fine is None:
            h *= 0.25
            continue
        err = np.abs(big - fine) / 3.0
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(fine))
        with np.errstate(divide="ignore", invalid="ignore"):
            err_norm = float(np.max(err / scale))
        if np.isnan(err_norm):
            err_norm = np.inf
        factor = _STEP_GROW if err_norm == 0.0 else 0.9 * err_norm ** (-1.0 / 3.0)
        if err_norm <= 1.0:
            t += h
            x = fine
            f0 = accept(t, x)
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

    Raises StepSizeUnderflow when the error control cannot proceed.
    """
    if not (t_end > 0.0):
        raise ValidationError("t_end must be positive")
    if initial is None:
        x = np.zeros(4)
    elif hasattr(initial, "as_array"):
        x = initial.as_array().astype(float)
    else:
        x = np.asarray(initial, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValidationError("initial state must be finite")

    events = sorted({t for t, _, _ in stimulus.parameter_steps if 0.0 < t < t_end}
                    | {t for t, _ in stimulus.duty if 0.0 < t < t_end})
    boundaries = [0.0] + events + [t_end]

    steps = stimulus.parameter_steps
    current = spec
    applied = 0
    times, states, v0, mu, mode = [], [], [], [], []

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
        return derivative(current, d, y, ports)

    f0 = accept(0.0, x)
    h = min(t_end, 0.5 / spec.f_s)
    for t0, t1 in zip(boundaries, boundaries[1:]):
        x, f0, h = _integrate_segment(current, stimulus, t0, t1, x, f0, h,
                                      rtol, atol, accept)
    return Waveform(times=np.array(times), states=np.array(states),
                    v0=np.array(v0), mu=np.array(mu), mode=mode)
