"""Tests for large-signal time-domain simulation."""

import dataclasses
import functools
import math
import random

import numpy as np
import pytest

from convavg import (
    SEPIC,
    ConverterSpec,
    OperatingPointRequest,
    StateVector,
    StepSizeUnderflow,
    Stimulus,
    ValidationError,
    simulate,
    solve_dc,
)
import convavg.transient as transient
from convavg.avgmodel import derivative, jacobian_columns, resolve_ports
from strategies import CUK_BENCH, SEPIC_BENCH


# --- stimulus plumbing ----------------------------------------------

def test_constant_duty_stimulus():
    s = Stimulus(duty=0.3)
    assert s.duty_at(0.0) == 0.3
    assert s.duty_at(123.0) == 0.3


def test_piecewise_linear_duty():
    s = Stimulus(duty=((0.0, 0.2), (1.0, 0.6)))
    assert s.duty_at(-5.0) == 0.2       # flat before the first point
    assert s.duty_at(0.5) == pytest.approx(0.4)
    assert s.duty_at(2.0) == 0.6        # flat after the last point


def test_duty_step_is_right_continuous():
    s = Stimulus(duty=((0.0, 0.2), (1.0, 0.2), (1.0, 0.5), (2.0, 0.5)))
    assert s.duty_at(1.0 - 1e-12) == pytest.approx(0.2)
    assert s.duty_at(1.0) == 0.5


def scan_duty_at(points, t):
    """The breakpoint scan that duty_at's bisection replaced, kept as its
    reference."""
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


def test_duty_at_matches_the_breakpoint_scan():
    """On seeded breakpoint lists with repeated times, duty_at equals the
    scan at every breakpoint, next to each, between them, outside them,
    at the infinities and at NaN."""
    rng = random.Random(15)
    for _ in range(400):
        grid = (0.0, 0.5, 1.0, 1.5, rng.uniform(-1.0, 3.0))
        times = sorted(rng.choice(grid) for _ in range(rng.randint(1, 8)))
        stim = Stimulus(duty=[(t, rng.uniform(0.0, 0.99)) for t in times])
        probes = [rng.uniform(-2.0, 4.0) for _ in range(20)]
        probes += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        for t in times:
            probes += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        probes += [-math.inf, math.inf, math.nan]
        assert ([stim.duty_at(t) for t in probes]
                == [scan_duty_at(stim.duty, t) for t in probes])


def test_stimulus_validation():
    with pytest.raises(ValidationError):
        Stimulus(duty=1.0)                       # out of range
    with pytest.raises(ValidationError):
        Stimulus(duty=((1.0, 0.2), (0.5, 0.3)))  # unordered
    with pytest.raises(ValidationError):
        Stimulus(duty=())
    with pytest.raises(ValidationError):
        Stimulus(duty=0.3, parameter_steps=((0.1, "L1", 1e-3),))
    with pytest.raises(ValidationError):
        Stimulus(duty=0.3, parameter_steps=((-0.1, "R", 10.0),))


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_duty_breakpoint_time_is_refused(t):
    """A NaN breakpoint time once passed the ordering check, which no
    comparison with NaN can fail, and duty_at(0.0) then returned the
    NaN breakpoint's duty."""
    with pytest.raises(ValidationError, match="finite"):
        Stimulus(duty=[(0.0, 0.3), (t, 0.5)])


@pytest.mark.parametrize("steps", [
    ((1e-4, "R", float("nan")),),
    ((1e-4, "R", -5.0),),
    ((1e-4, "R", 0.0),),
    ((1e-4, "R", 26.0), (1.0, "R", -5.0)),      # past t_end
], ids=["nan", "negative", "zero", "past-t_end"])
def test_bad_parameter_step_value_is_refused_before_integrating(monkeypatch, steps):
    """Each step value meets the ConverterSpec rule before the first
    step, not when the run reaches it (or never, past t_end)."""
    def no_integration(*args):
        raise AssertionError("integrated before the parameter steps were checked")

    monkeypatch.setattr(transient, "_integrate_segment", no_integration)
    with pytest.raises(ValidationError):
        simulate(SEPIC_BENCH, Stimulus(duty=0.2, parameter_steps=steps), t_end=2e-4)


def test_parasitic_step_on_an_ideal_spec_is_refused_before_integrating(monkeypatch):
    """An ideal spec zeroes its parasitics again, so an R_L1 step on it
    was once run as no step at all.  A load step, and a parasitic step
    to zero, stay legal."""
    ideal = dataclasses.replace(SEPIC_BENCH, ideal=True)

    def no_integration(*args):
        raise AssertionError("integrated before the parameter steps were checked")

    with monkeypatch.context() as patch:
        patch.setattr(transient, "_integrate_segment", no_integration)
        with pytest.raises(ValidationError, match="R_L1"):
            simulate(ideal, Stimulus(duty=0.2, parameter_steps=((1e-3, "R_L1", 5.0),)),
                     t_end=2e-3)
    for step in ((1e-4, "R", 26.0), (1e-4, "R_L1", 0.0)):
        wf = simulate(ideal, Stimulus(duty=0.2, parameter_steps=(step,)), t_end=2e-4)
        assert wf.times[-1] == 2e-4


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_parameter_step_time_is_refused(t):
    """A NaN step time once sorted anywhere and held up every later step
    behind it, so a step after it was silently never applied."""
    with pytest.raises(ValidationError, match="finite"):
        Stimulus(duty=0.2, parameter_steps=((t, "R", 10.0), (1e-4, "R_L1", 1.0)))


# --- convergence to the DC solution ---------------------------------

def test_sepic_settles_to_dc_solution():
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    wf = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.5)
    assert abs(wf.v0[-1] - op.V0) / abs(op.V0) < 0.005
    assert wf.mode[-1] == op.mode


def test_cuk_settles_to_dc_solution():
    op = solve_dc(OperatingPointRequest(spec=CUK_BENCH, D=0.42))
    wf = simulate(CUK_BENCH, Stimulus(duty=0.42), t_end=0.4)
    assert abs(wf.v0[-1] - op.V0) / abs(op.V0) < 0.005
    assert wf.v0[-1] < 0.0


def test_final_derivative_norm_vanishes():
    # at tight tolerance the settled endpoint is a numerical equilibrium
    wf = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.35,
                  rtol=1e-8, atol=1e-8)
    f_start = derivative(SEPIC_BENCH, 0.2, np.zeros(4))
    f_end = derivative(SEPIC_BENCH, 0.2, np.asarray(wf.states[-1], dtype=float))
    assert np.linalg.norm(f_end) < 1e-6 * np.linalg.norm(f_start)


def test_tolerance_halving_changes_little():
    a = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.25,
                 rtol=1e-6, atol=1e-6)
    b = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.25,
                 rtol=5e-7, atol=5e-7)
    assert abs(a.v0[-1] - b.v0[-1]) / abs(b.v0[-1]) < 1e-6


def test_ideal_power_bookkeeping_at_settle():
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    wf = simulate(spec, Stimulus(duty=0.2), t_end=0.3)
    p_in = spec.Vg * wf.states[-1][0]
    p_out = wf.v0[-1] ** 2 / spec.R
    assert abs(p_in - p_out) / p_in < 0.005


def test_zero_excitation_stays_at_origin():
    spec = ConverterSpec(kind=SEPIC, Vg=0.0, R=52.0, L1=13e-3, L2=166e-6,
                         C1=0.5e-6, C2=1000e-6, f_s=50e3, ideal=True)
    wf = simulate(spec, Stimulus(duty=0.0), t_end=0.01)
    assert np.max(np.abs(wf.states)) == 0.0
    assert np.max(np.abs(wf.v0)) == 0.0


# --- duty ramp ------------------------------------------------------

def test_duty_ramp_raises_output_and_input_current():
    """Ramp 0.2 -> 0.9: output voltage and input inductor current climb
    monotonically once the start-up transient has passed.

    Checked on checkpoints spaced well above the coupling-capacitor ring
    period.  The second inductor's averaged current equals the load
    current at every settled duty, so it climbs as well (the
    interval-level current that falls with duty is the
    reversed-orientation one).

    The step count bounds the work: the ramp is smooth, so the adaptive
    integrator needs few steps as long as its Newton iteration keeps
    converging while the duty moves.  Newton failures that shrink the
    step instead of refreshing the Jacobian cost orders of magnitude
    more steps.
    """
    op0 = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    stim = Stimulus(duty=((0.0, 0.2), (0.12, 0.9)))
    wf = simulate(SEPIC_BENCH, stim, t_end=0.12, initial=op0.state,
                  rtol=1e-3, atol=1e-3)
    assert len(wf.times) < 1000
    t = np.asarray(wf.times)
    v0 = np.asarray(wf.v0)
    i1 = np.asarray([s[0] for s in wf.states])
    checkpoints = np.arange(0.01, 0.1201, 0.005)
    v0_c = np.interp(checkpoints, t, v0)
    i1_c = np.interp(checkpoints, t, i1)
    assert np.all(np.diff(v0_c) > 0.0)
    # allow ring-sized wiggle on the current checkpoints
    assert np.all(np.diff(i1_c) >= -5e-3 * np.abs(i1_c[:-1]))
    assert v0_c[-1] > 4.0 * v0_c[0]


# --- parameter steps ------------------------------------------------

def test_esr_steps_restart_and_reach_new_equilibria():
    """Step the inductor resistances mid-run and check each segment
    relaxes toward the equilibrium of the active parameter set."""
    start = dataclasses.replace(SEPIC_BENCH, R_L1=0.13, R_L2=1.1)
    op_start = solve_dc(OperatingPointRequest(spec=start, D=0.2))
    stim = Stimulus(duty=0.2,
                    parameter_steps=((0.060, "R_L1", 0.65),
                                     (0.120, "R_L2", 0.11)))
    wf = simulate(start, stim, t_end=0.18, initial=op_start.state)
    t = np.asarray(wf.times)
    v0 = np.asarray(wf.v0)

    # segment 1 holds the seeded equilibrium
    seg1 = v0[(t > 0.0) & (t <= 0.060)]
    assert np.max(np.abs(seg1 - op_start.V0)) / abs(op_start.V0) < 1e-4
    # final segment approaches the (R_L1 high, R_L2 low) equilibrium
    final_spec = dataclasses.replace(SEPIC_BENCH, R_L1=0.65, R_L2=0.11)
    op_final = solve_dc(OperatingPointRequest(spec=final_spec, D=0.2))
    assert abs(v0[-1] - op_final.V0) / abs(op_final.V0) < 0.002
    # frozen segment-end values
    assert v0[np.searchsorted(t, 0.060) - 1] == pytest.approx(21.63585, abs=2e-3)
    assert v0[-1] == pytest.approx(21.78789, abs=2e-3)


def test_parameter_step_at_time_zero_applies_immediately():
    stepped = dataclasses.replace(SEPIC_BENCH, R=26.0)
    op = solve_dc(OperatingPointRequest(spec=stepped, D=0.2))
    stim = Stimulus(duty=0.2, parameter_steps=((0.0, "R", 26.0),))
    wf = simulate(SEPIC_BENCH, stim, t_end=0.3, initial=op.state)
    # with the halved load active from t=0 the run stays at its
    # equilibrium instead of drifting toward the nameplate one
    assert abs(wf.v0[-1] - op.V0) / abs(op.V0) < 1e-3


def test_load_step_moves_output():
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    stim = Stimulus(duty=0.2, parameter_steps=((0.05, "R", 26.0),))
    wf = simulate(SEPIC_BENCH, stim, t_end=0.25, initial=op.state)
    halved = dataclasses.replace(SEPIC_BENCH, R=26.0)
    op2 = solve_dc(OperatingPointRequest(spec=halved, D=0.2))
    assert abs(wf.v0[-1] - op2.V0) / abs(op2.V0) < 0.005
    assert wf.v0[-1] < op.V0  # heavier load sags the DCM output


def test_samples_at_parameter_steps_carry_stepped_values():
    """A sample is labelled with the component values in force at its
    time: the one at a step time with the post-step values, the one
    before it with the pre-step values, and the final sample with a
    step at exactly t_end, which integration never uses."""
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    stim = Stimulus(duty=0.2, parameter_steps=((0.01, "R", 26.0),
                                               (0.02, "R", 13.0)))
    wf = simulate(SEPIC_BENCH, stim, t_end=0.02, initial=op.state)
    t = np.asarray(wf.times)
    k = int(np.searchsorted(t, 0.01))
    assert t[k] == 0.01 and t[-1] == 0.02
    after = dataclasses.replace(SEPIC_BENCH, R=26.0)
    final = dataclasses.replace(SEPIC_BENCH, R=13.0)
    for i, spec in ((k - 1, SEPIC_BENCH), (k, after), (-1, final)):
        ports = resolve_ports(spec, 0.2, wf.states[i])
        assert wf.v0[i] == ports.v_out
        assert wf.mu[i] == ports.mu
        assert wf.mode[i] == ports.mode
    # the labels differ: the load step moves V0 at a fixed state
    assert wf.v0[-1] != resolve_ports(after, 0.2, wf.states[-1]).v_out


# --- plain-float kernel against the numpy reference -----------------

def left_to_right(M, v):
    """M @ v summed in the order the plain-float kernel sums it."""
    return np.array([a * v[0] + b * v[1] + c * v[2] + e * v[3] for a, b, c, e in M])


def numpy_solve_stage(spec, d, z, rhs, dh, M_inv, tol, product):
    """The stage Newton iteration on numpy arrays, as the integrator ran
    it before its kernel moved to plain floats."""
    prev = np.inf
    for _ in range(transient._NEWTON_MAX):
        delta = product(M_inv, rhs - z + dh * np.array(derivative(spec, d, z)))
        z = z + delta
        norm = float(np.max(np.abs(delta) / tol))
        if norm <= 1.0:
            return z
        if not norm < prev:     # diverging, or not finite
            return None
        prev = norm
    return None


def numpy_integrate_segment(spec, stim, t0, t1, x, f0, h, rtol, atol, accept, work,
                            product=np.matmul):
    """Reference for transient._integrate_segment: the same TR-BDF2
    step on numpy arrays.  ``work`` is accepted and left alone;
    ``product`` computes the 4x4 matrix-vector products."""
    gamma, err_0, err_g, err_1 = (transient._GAMMA, transient._ERR_0,
                                  transient._ERR_G, transient._ERR_1)
    x, f0 = np.asarray(x), np.asarray(f0)
    t = t0
    h_min = max(1e-18, 1e-14 * max(t1, 1.0))
    J = None
    fresh = False
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow("step size underflow at t = %.6e s" % (t,))
        if J is None:
            d = stim.duty_at(t)
            ports = transient.resolve_ports(spec, d, x)
            J = np.array(jacobian_columns(spec, d, x, ports, 4)).T
            fresh = True
        dh = 0.5 * gamma * h
        M_inv = np.linalg.inv(np.eye(4) - dh * J)
        tol = np.maximum(0.05 * (atol + rtol * np.abs(x)), 1e-14 * (1.0 + np.abs(x)))
        rhs = x + dh * f0
        y_g = numpy_solve_stage(spec, stim.duty_at(t + gamma * h), x + gamma * h * f0,
                                rhs, dh, M_inv, tol, product)
        y1 = None
        if y_g is not None:
            f_g = (y_g - rhs) / dh
            rhs = transient._B_G * y_g - transient._B_0 * x
            y1 = numpy_solve_stage(spec, stim.duty_at(t + h),
                                   x + h * f0 + (y_g - x - gamma * h * f0) / gamma ** 2,
                                   rhs, dh, M_inv, tol, product)
        if y1 is None:
            if fresh:
                h *= 0.25
            else:
                J = None
            continue
        f1 = (y1 - rhs) / dh
        err = product(M_inv, h * (err_0 * f0 + err_g * f_g + err_1 * f1))
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(y1))
        with np.errstate(divide="ignore", invalid="ignore"):
            err_norm = float(np.max(np.abs(err) / scale))
        if np.isnan(err_norm):
            err_norm = np.inf
        factor = transient._STEP_GROW if err_norm == 0.0 else 0.9 * err_norm ** (-1.0 / 3.0)
        if err_norm <= 1.0:
            t += h
            x = y1
            f0 = np.asarray(accept(t, x))
            fresh = False
        h *= min(transient._STEP_GROW, max(transient._STEP_SHRINK, factor))
    return x, f0, h


# (spec, DCM duty, CCM duty): the bundled duties resolve in DCM, and the
# CCM targets sit just above each bench's ideal boundary 1 - sqrt(K)
KERNEL_POINTS = ((SEPIC_BENCH, 0.2, 0.48), (CUK_BENCH, 0.42, 0.6))


def kernel_drives(spec, d_dcm, d_ccm):
    """(stimulus, initial): a start-up from zero, then from the DCM point
    a DCM->CCM duty step, a duty ramp and a load plus R_L1 step."""
    start = solve_dc(OperatingPointRequest(spec=spec, D=d_dcm)).state
    hold = ((0.0, d_dcm), (5e-4, d_dcm))
    return (
        (Stimulus(duty=d_ccm), None),
        (Stimulus(duty=hold + ((5e-4, d_ccm),)), start),
        (Stimulus(duty=hold + ((1e-3, d_ccm),)), start),
        (Stimulus(duty=d_dcm, parameter_steps=((5e-4, "R", 2.0 * spec.R),
                                               (8e-4, "R_L1", 1.5 * spec.R_L1))), start),
    )


@pytest.mark.parametrize("spec,d_dcm,d_ccm", KERNEL_POINTS,
                         ids=[p[0].kind for p in KERNEL_POINTS])
def test_float_kernel_matches_numpy_reference(monkeypatch, spec, d_dcm, d_ccm):
    """The plain-float kernel is the reference's TR-BDF2 step.

    With the reference's 4x4 products summed in the kernel's order, every
    sample is the same bit for bit.  numpy sums them in another order,
    and the last-bit differences shift the sample times a little: the
    runs keep the same sample count and every time within the stage
    tolerance 0.05*(atol + rtol*|t|), and where both sample the same
    instant (the start, each event, t_end) every state and v0 is within
    0.05*(atol + rtol*|x|).  Between those instants a state is compared
    at slightly different times, which on the SEPIC's fast C1 swing after
    the duty step moves it by more than the tolerance.
    """
    rtol = atol = 1e-6
    t_end = 1.2e-3
    for stim, initial in kernel_drives(spec, d_dcm, d_ccm):
        got = simulate(spec, stim, t_end, initial, rtol=rtol, atol=atol)
        with monkeypatch.context() as patch:
            patch.setattr(transient, "_integrate_segment",
                          functools.partial(numpy_integrate_segment, product=left_to_right))
            same = simulate(spec, stim, t_end, initial, rtol=rtol, atol=atol)
            patch.setattr(transient, "_integrate_segment", numpy_integrate_segment)
            ref = simulate(spec, stim, t_end, initial, rtol=rtol, atol=atol)
        for a, b in ((got.times, same.times), (got.states, same.states),
                     (got.v0, same.v0)):
            assert np.array_equal(a, b)
        assert got.mode == same.mode
        assert len(got.times) == len(ref.times)
        assert np.all(np.abs(got.times - ref.times) <= 0.05 * (atol + rtol * ref.times))
        both = got.times == ref.times
        assert both[0] and both[-1]
        for a, b in ((got.states[both], ref.states[both]), (got.v0[both], ref.v0[both])):
            assert np.all(np.abs(a - b) <= 0.05 * (atol + rtol * np.abs(b)))


# --- work per step --------------------------------------------------

def test_startup_work_per_accepted_step(monkeypatch):
    """A start-up from zero needs a handful of cell resolutions per
    accepted step: one per Newton iteration of the two TR-BDF2 stages,
    one to label the sample, and one per Jacobian rebuild, which the
    kept Jacobian makes rare."""
    calls = [0]
    derivative_fn, resolve_fn = transient.derivative, transient.resolve_ports

    def counted_derivative(spec, d, x, ports=None):
        calls[0] += ports is None
        return derivative_fn(spec, d, x, ports)

    def counted_resolve(spec, d, x):
        calls[0] += 1
        return resolve_fn(spec, d, x)

    monkeypatch.setattr(transient, "derivative", counted_derivative)
    monkeypatch.setattr(transient, "resolve_ports", counted_resolve)
    wf = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.12)
    accepted = len(wf.times) - 1
    assert accepted > 100
    assert calls[0] <= 8 * accepted
    # the run's own counters agree with the count taken from outside
    assert wf.stats.rhs + wf.stats.jacobians == calls[0]
    assert wf.stats.accepted == accepted
    assert 0.0 < wf.stats.h_min <= wf.stats.h_max


# --- failure modes --------------------------------------------------

def test_zero_tolerance_underflows():
    with pytest.raises(StepSizeUnderflow):
        simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=1e-3,
                 rtol=0.0, atol=0.0)


def test_negative_or_non_finite_tolerance_rejected():
    for tols in ({"rtol": -1.0}, {"atol": -1e-3}, {"rtol": np.inf},
                 {"atol": np.nan}):
        with pytest.raises(ValidationError):
            simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=1e-3, **tols)


def test_t_end_must_be_positive():
    with pytest.raises(ValidationError):
        simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.0)


def test_t_end_must_be_finite():
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValidationError):
            simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=t_end)


def test_waveform_shapes_consistent():
    wf = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.01)
    n = len(wf.times)
    assert wf.states.shape == (n, 4)
    assert len(wf.v0) == n
    assert len(wf.mu) == n
    assert len(wf.mode) == n
    assert np.all(np.diff(wf.times) > 0.0)
    assert wf.times[0] == 0.0


@pytest.mark.parametrize("initial", [[1.0, 2.0, 3.0], [[1.0, 2.0, 3.0, 4.0]]])
def test_initial_state_of_wrong_shape_is_a_validation_error(initial):
    with pytest.raises(ValidationError, match="four entries"):
        simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=1e-4, initial=initial)


@pytest.mark.parametrize("initial", [StateVector(float("nan"), 0.0, 0.0, 0.0),
                                     [0.0, 0.0, float("-inf"), 0.0]])
def test_non_finite_initial_state_is_a_validation_error(initial):
    with pytest.raises(ValidationError, match="finite"):
        simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=1e-4, initial=initial)
