"""Large-signal time-domain simulation of the averaged model.

ESDIRK4(3)6L[2]SA (Kennedy & Carpenter, Appl. Numer. Math. 44, 2003):
fourth order, L-stable and stiffly accurate, an explicit first stage and
five implicit ones that all solve with the Newton matrix I - (h/4)*J; an
embedded third-order estimate, filtered through it, sets the step size,
which does not grow on the step after a rejection or a Newton failure.
J, the cell's analytic Jacobian, and M = (I - (h/4)*J)^-1 are kept
across steps, after CVODE (Hindmarsh et al., ACM TOMS 2005): J is
rebuilt at a segment start and when Newton fails with a fresh M; M with
J, when h moves over 30 % from the h it was built at, and when Newton
fails with M built at another h; h shrinks when Newton fails with both
fresh.  A stage starts from the derivative extrapolated through the last
two stages and stops on the error left at its convergence rate (Hairer
& Wanner, Solving ODEs II, IV.8); its derivative comes from the stage
equation.  The step, the cell and M's inverse run on plain floats, and
the Waveform holds the lists of floats the samples are recorded in: the
module imports no numpy.

The effective duty is resolved algebraically inside every derivative
evaluation; parameter steps and duty breakpoints are events at which
integration restarts with the updated values.  Each accepted sample is
labelled (v0, mu, mode), and the same port resolution gives the
derivative that starts the next step.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, isnan, nan
from operator import itemgetter

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

# ESDIRK4(3)6L[2]SA, exact: each implicit stage's row a_ij (j < i) and node c_i,
# 1/4 on the diagonal; the last row is b (stiffly accurate), _B_HAT the embedded b.
_ROWS = tuple(tuple(map(Fraction, row.split())) for row in (
    "1/4",
    "8611/62500 -1743/31250",
    "5012029/34652500 -654441/2922500 174375/388108",
    "15267082809/155376265600 -71443401/120774400 730878875/902184768 2285395/8070912",
    "82889/524892 0 15625/83664 69875/102672 -2260/8211"))
_NODES = tuple(map(Fraction, "1/2 83/250 31/50 17/20 1".split()))
_B_HAT = tuple(map(Fraction, "4586570599/29645900160 0 178811875/945068544 "
                             "814220225/1159782912 -3700637/11593932 61727/225920".split()))
_ERR = tuple(float(b - e) for b, e in zip(_ROWS[-1] + (Fraction(1, 4),), _B_HAT))


def _guess(i, row):
    """Weights of implicit stage i's guess x + h*sum_j g_j K_j: its explicit sum plus
    h/4 times the derivative extrapolated in c through the last two stages (f0 at i = 0)."""
    if not i:
        return (row[0] + Fraction(1, 4),)
    c = (0,) + _NODES
    w = (c[i + 1] - c[i - 1]) / (c[i] - c[i - 1])
    return row[:i - 1] + (row[i - 1] + (1 - w) / 4, row[i] + w / 4)


_STAGES = tuple((tuple(map(float, row)), tuple(map(float, _guess(i, row))), float(c))
                for i, (row, c) in enumerate(zip(_ROWS, _NODES)))


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
        object.__setattr__(self, "parameter_steps", tuple(sorted(steps, key=lambda s: s[0])))

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
    """Sampled trajectory of a transient run, one entry per sample; the
    lists hold floats, which ``np.asarray`` turns into arrays."""

    times: list
    states: list              # one 4-tuple per sample: i_L1, i_L2, v_C1, v_C2
    v0: list
    mu: list
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


def _combine(x, h, w, K):
    """x + h * sum_j w_j K_j on four floats, the sum taken left to right."""
    s0 = s1 = s2 = s3 = 0.0
    for a, (k0, k1, k2, k3) in zip(w, K):
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
    return x[0] + h * s0, x[1] + h * s1, x[2] + h * s2, x[3] + h * s3


def _integrate_segment(spec, stim, t0, t1, x, f0, h, rtol, atol, accept, work):
    """Adaptive ESDIRK4(3)6L[2]SA integration over [t0, t1] from state x
    with derivative f0, each four floats; returns (x, f0, h).

    ``accept(t, x)`` records each accepted sample and returns the derivative
    there, which starts the next step; the TransientStats counters in the
    dict ``work`` are updated in place.
    """
    t = t0
    h_min = max(1e-18, 1e-14 * max(t1, 1.0))
    J = M = None            # J and M = (I - dh_M*J)^-1, kept across steps
    fresh = False           # J was taken at the current (t, x)
    grow = _STEP_GROW       # 1 after a rejected step or a Newton failure
    # a stage at t1 takes the duty from the left: a breakpoint at t1 starts the next segment
    d_end = next((v for s, v in stim.duty if s == t1), stim.duty_at(t1))
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow("step size underflow at t = %.6e s" % (t,))
        if J is None:
            d = stim.duty_at(t)
            J = jacobian_columns(spec, d, x, resolve_ports(spec, d, x), 4)
            work["jacobians"] += 1
            fresh, M = True, None
        dh = 0.25 * h
        if M is None or abs(dh / dh_M - 1.0) > _DH_KEEP:
            M, dh_M = _inverse(J, dh), dh
            work["inverses"] += 1
        # stages are solved to a fraction of the error tolerance, not to round-off
        tol = tuple(max(0.05 * (atol + rtol * abs(v)), 1e-14 * (1.0 + abs(v))) for v in x)
        K = [f0]            # stage derivatives; the explicit first stage's is f0
        for row, guess, c in _STAGES:
            r0, r1, r2, r3 = rhs = _combine(x, h, row, K)
            z = _solve_stage(spec, stim.duty_at(t + c * h) if t + c * h < t1 else d_end,
                             _combine(x, h, guess, K), rhs, dh, M, tol, work)
            if z is None:
                break
            K.append(((z[0] - r0) / dh, (z[1] - r1) / dh, (z[2] - r2) / dh, (z[3] - r3) / dh))
        if z is None:
            work["newton_failures"] += 1
            grow = 1.0
            if dh != dh_M:
                M = None
            elif fresh:
                h *= 0.25
            else:
                J = None
            continue
        e0, e1, e2, e3 = _combine((0.0, 0.0, 0.0, 0.0), h, _ERR, K)  # local error estimate
        c0, c1, c2, c3 = (atol + rtol * max(abs(a), abs(b)) for a, b in zip(x, z))
        # |M @ e| / scale; a nan ratio, or a division by zero, fails the test
        m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = M
        k0 = abs(m00 * e0 + m01 * e1 + m02 * e2 + m03 * e3) / c0 if c0 else inf
        k1 = abs(m10 * e0 + m11 * e1 + m12 * e2 + m13 * e3) / c1 if c1 else inf
        k2 = abs(m20 * e0 + m21 * e1 + m22 * e2 + m23 * e3) / c2 if c2 else inf
        k3 = abs(m30 * e0 + m31 * e1 + m32 * e2 + m33 * e3) / c3 if c3 else inf
        err_norm = inf if isnan(k0 + k1 + k2 + k3) else max(k0, k1, k2, k3)
        factor = _STEP_GROW if err_norm == 0.0 else 0.9 * err_norm ** -0.25
        if err_norm <= 1.0:
            t = t1 if h == t1 - t else t + h    # the step cut to t1 ends there exactly
            x = z           # the last stage is the step's end (stiffly accurate)
            f0 = accept(t, x)
            fresh = False
            work["accepted"] += 1
            work["h_min"], work["h_max"] = min(work["h_min"], h), max(work["h_max"], h)
        else:
            work["rejected"] += 1
        h *= min(grow, max(_STEP_SHRINK, factor))
        grow = _STEP_GROW if err_norm <= 1.0 else 1.0
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
        raise ValidationError("t_end must be positive and finite, got %r" % (t_end,))
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (isfinite(value) and value >= 0.0):
            raise ValidationError("%s must be finite and non-negative, got %r" % (name, value))
    for _, name, value in stimulus.parameter_steps:
        # ConverterSpec checks the value; an ideal spec zeroes a parasitic
        if getattr(dataclasses.replace(spec, **{name: value}), name) != value:
            raise ValidationError("%s cannot step to %r on an ideal spec" % (name, value))
    x = (0.0,) * 4 if initial is None else tuple(state_values(initial))

    events = sorted({t for t, _, _ in stimulus.parameter_steps if 0.0 < t < t_end}
                    | {t for t, _ in stimulus.duty if 0.0 < t < t_end})
    boundaries = [0.0] + events + [float(t_end)]

    steps = stimulus.parameter_steps
    current, applied = spec, 0
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
    return Waveform(times, states, v0, mu, mode, TransientStats(**work))
