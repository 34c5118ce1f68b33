"""Tests for large-signal time-domain simulation."""

import dataclasses
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from convavg import (
    SEPIC,
    ConverterSpec,
    OperatingPointRequest,
    SolverError,
    StateVector,
    StepSizeUnderflow,
    Stimulus,
    ValidationError,
    simulate,
    solve_dc,
)
import convavg.transient as transient
from convavg.avgmodel import derivative, jacobian_columns, resolve_ports
from convavg.converter import equivalent_inductance
from strategies import CUK_BENCH, SEPIC_BENCH, converter_specs


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


def numpy_inverse(J, dh):
    """(I - dh*J)^-1 for J given by its columns, from numpy."""
    return np.linalg.inv(np.eye(4) - dh * np.array(J).T)


def float_inverse(J, dh):
    """The kernel's plain-float (I - dh*J)^-1, as a 4x4 array."""
    return np.array(transient._inverse(J, dh)).reshape(4, 4)


def numpy_solve_stage(spec, d, z, rhs, dh, M_inv, tol, product):
    """The stage Newton iteration on numpy arrays, as the integrator ran
    it before its kernel moved to plain floats, with the kernel's stop
    on the error left at the convergence rate."""
    prev = np.inf
    for _ in range(transient._NEWTON_MAX):
        delta = product(M_inv, rhs - z + dh * np.array(derivative(spec, d, z)))
        z = z + delta
        norm = float(np.max(np.abs(delta) / tol))
        rate = norm / prev
        if norm <= 1.0 or 0.0 < rate < 1.0 and rate / (1.0 - rate) * norm <= 1.0:
            return z
        if not norm < prev:     # diverging, or not finite
            return None
        prev = norm
    return None


def numpy_integrate_segment(spec, stim, t0, t1, x, f0, h, rtol, atol, accept, work,
                            product=np.matmul, inverse=numpy_inverse):
    """Reference for transient._integrate_segment: the same ESDIRK step,
    with the same rule for keeping J and M, on numpy arrays.  ``work`` is
    accepted and left alone; ``product`` computes the 4x4 matrix-vector
    products and ``inverse(J, dh)`` the matrix M."""
    x, f0 = np.asarray(x), np.asarray(f0)
    t = t0
    h_min = max(1e-18, 1e-14 * max(t1, 1.0))
    J = M_inv = None
    fresh = False
    grow = transient._STEP_GROW
    d_end = next((v for s, v in stim.duty if s == t1), stim.duty_at(t1))
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise StepSizeUnderflow("step size underflow at t = %.6e s" % (t,))
        if J is None:
            d = stim.duty_at(t)
            ports = transient.resolve_ports(spec, d, x)
            J = jacobian_columns(spec, d, x, ports, 4)
            fresh, M_inv = True, None
        dh = 0.25 * h
        if M_inv is None or abs(dh / dh_M - 1.0) > transient._DH_KEEP:
            M_inv, dh_M = inverse(J, dh), dh
        tol = np.maximum(0.05 * (atol + rtol * np.abs(x)), 1e-14 * (1.0 + np.abs(x)))
        K = [f0]
        for row, guess, c in transient._STAGES:
            rhs, z = [x + h * functools.reduce(lambda s, ak: s + ak[0] * ak[1], zip(w, K),
                                               np.zeros(4)) for w in (row, guess)]
            d = stim.duty_at(t + c * h) if t + c * h < t1 else d_end
            z = numpy_solve_stage(spec, d, z, rhs, dh, M_inv, tol, product)
            if z is None:
                break
            K.append((z - rhs) / dh)
        if z is None:
            grow = 1.0
            if dh != dh_M:
                M_inv = None
            elif fresh:
                h *= 0.25
            else:
                J = None
            continue
        s = np.zeros(4)
        for a, k in zip(transient._ERR, K):
            s = s + a * k
        err = product(M_inv, h * s)
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(z))
        with np.errstate(divide="ignore", invalid="ignore"):
            err_norm = float(np.max(np.abs(err) / scale))
        if np.isnan(err_norm):
            err_norm = np.inf
        factor = transient._STEP_GROW if err_norm == 0.0 else 0.9 * err_norm ** -0.25
        if err_norm <= 1.0:
            t = t1 if h == t1 - t else t + h    # the step cut to t1 ends there exactly
            x = z
            f0 = np.asarray(accept(t, x))
            fresh = False
        h *= min(grow, max(transient._STEP_SHRINK, factor))
        grow = transient._STEP_GROW if err_norm <= 1.0 else 1.0
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
    """The plain-float kernel is the reference's ESDIRK step.

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
                          functools.partial(numpy_integrate_segment, product=left_to_right,
                                            inverse=float_inverse))
            same = simulate(spec, stim, t_end, initial, rtol=rtol, atol=atol)
            patch.setattr(transient, "_integrate_segment", numpy_integrate_segment)
            ref = simulate(spec, stim, t_end, initial, rtol=rtol, atol=atol)
        for a, b in ((got.times, same.times), (got.states, same.states),
                     (got.v0, same.v0)):
            assert np.array_equal(a, b)
        assert got.mode == same.mode
        assert len(got.times) == len(ref.times)
        times, ref_times = np.asarray(got.times), np.asarray(ref.times)
        assert np.all(np.abs(times - ref_times) <= 0.05 * (atol + rtol * ref_times))
        both = times == ref_times
        assert both[0] and both[-1]
        for a, b in ((got.states, ref.states), (got.v0, ref.v0)):
            a, b = np.asarray(a)[both], np.asarray(b)[both]
            assert np.all(np.abs(a - b) <= 0.05 * (atol + rtol * np.abs(b)))


def outcome(spec, stim, t_end, initial):
    """simulate's waveform at rtol = atol = 1e-5, or the message of the
    StepSizeUnderflow it raised."""
    try:
        return simulate(spec, stim, t_end, initial, rtol=1e-5, atol=1e-5)
    except StepSizeUnderflow as exc:
        return str(exc)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(converter_specs(), st.floats(0.2, 0.8), st.floats(0.1, 0.9))
# both start-ups end on a step cut to t_end that t + h puts one ulp short
# of it; both kernels end that step at t_end
@example(ConverterSpec(kind=SEPIC, Vg=1.0, R=1.0, L1=0.1, L2=1e-6, C1=0.01, C2=0.01,
                       f_s=10.0 ** 5.46484375, ideal=True), 0.5, 0.5)
def test_float_kernel_is_the_reference_step_on_random_converters(spec, u, v):
    """On random converters with an ideal DCM region, start-ups at a DCM
    and a CCM duty and a DCM->CCM duty step from the solved DCM point
    give the same samples bit for bit from the plain-float kernel and
    from the numpy reference with its products summed in the kernel's
    order, or fail with the same step-size underflow.  The window is a
    few of the network's fastest periods (an LC resonance, or the
    switching period), so each run stays short."""
    k = 2.0 * equivalent_inductance(spec) * spec.f_s / spec.R
    assume(k < 0.64)
    boundary = 1.0 - math.sqrt(k)        # ideal CCM/DCM boundary duty
    d_dcm, d_ccm = u * boundary, boundary + v * (0.9 - boundary)
    try:
        start = solve_dc(OperatingPointRequest(spec=spec, D=d_dcm)).state
    except SolverError:
        assume(False)
    period = min([1.0 / spec.f_s] + [2.0 * math.pi * math.sqrt(ind * cap)
                                     for ind in (spec.L1, spec.L2)
                                     for cap in (spec.C1, spec.C2)])
    t_end = 8.0 * period
    drives = ((Stimulus(duty=d_dcm), None), (Stimulus(duty=d_ccm), None),
              (Stimulus(duty=((0.0, d_dcm), (0.25 * t_end, d_dcm),
                              (0.25 * t_end, d_ccm))), start))
    for stim, initial in drives:
        got = outcome(spec, stim, t_end, initial)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transient, "_integrate_segment",
                          functools.partial(numpy_integrate_segment, product=left_to_right,
                                            inverse=float_inverse))
            same = outcome(spec, stim, t_end, initial)
        if isinstance(got, str):
            assert got == same
            continue
        for a, b in ((got.times, same.times), (got.states, same.states),
                     (got.v0, same.v0), (got.mu, same.mu)):
            assert np.array_equal(a, b)
        assert got.mode == same.mode


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16), st.floats(1e-9, 1e-3))
def test_float_inverse_matches_numpy(entries, dh):
    """The kernel's (I - dh*J)^-1 from J's columns agrees with numpy's
    inverse to round-off wherever the matrix is well conditioned."""
    J = [tuple(entries[4 * k:4 * k + 4]) for k in range(4)]
    A = np.eye(4) - dh * np.array(J).T
    assume(np.linalg.cond(A) < 1e6)
    M = np.array(transient._inverse(J, dh)).reshape(4, 4)
    assert np.allclose(M @ A, np.eye(4), rtol=0.0, atol=1e-8)


def test_float_inverse_of_a_singular_matrix_is_nan():
    """An exactly singular I - dh*J gives an all-nan M, which fails the
    stage iteration instead of raising."""
    M = transient._inverse(((1.0, 0.0, 0.0, 0.0),) * 4, 1.0)
    assert all(map(math.isnan, M))
    zero = (0.0, 0.0, 0.0, 0.0)
    assert transient._solve_stage(SEPIC_BENCH, 0.2, zero, zero, 1e-6, M, (1e-6,) * 4,
                                  {"rhs": 0}) is None


# --- work per step --------------------------------------------------

def test_startup_work_per_run(monkeypatch):
    """The sepic_bench start-up to 0.12 s takes at most 5 300 cell
    resolutions in all (TR-BDF2 took 8 860): one per Newton iteration of
    the five implicit stages, one to label each sample, and one per
    Jacobian rebuild, which the kept Jacobian makes rare.  The kept
    Newton matrix makes its inverse rarer still: one per three step
    attempts at most."""
    calls, inverses = [0], [0]
    derivative_fn, resolve_fn, inverse_fn = (transient.derivative, transient.resolve_ports,
                                             transient._inverse)

    def counted_derivative(spec, d, x, ports=None):
        calls[0] += ports is None
        return derivative_fn(spec, d, x, ports)

    def counted_resolve(spec, d, x):
        calls[0] += 1
        return resolve_fn(spec, d, x)

    def counted_inverse(J, dh):
        inverses[0] += 1
        return inverse_fn(J, dh)

    monkeypatch.setattr(transient, "derivative", counted_derivative)
    monkeypatch.setattr(transient, "resolve_ports", counted_resolve)
    monkeypatch.setattr(transient, "_inverse", counted_inverse)
    wf = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=0.12)
    accepted = len(wf.times) - 1
    attempts = accepted + wf.stats.rejected + wf.stats.newton_failures
    assert accepted > 100
    assert calls[0] <= 5300
    # the run's own counters agree with the count taken from outside
    assert wf.stats.rhs + wf.stats.jacobians == calls[0]
    assert wf.stats.accepted == accepted
    assert wf.stats.inverses == inverses[0]
    assert 0 < wf.stats.inverses <= attempts / 3
    assert 0.0 < wf.stats.h_min <= wf.stats.h_max


def test_esdirk_tableau_order_conditions():
    """The exact tableau: b meets all eight order-4 conditions and b_hat
    the four order-3 ones, each node is its row sum, and b is the last
    row (stiffly accurate).  The floats the kernel uses are these
    rationals rounded."""
    g = Fraction(1, 4)
    A = [[Fraction(0)] * 6] + [list(row) + [g] + [Fraction(0)] * (4 - i)
                               for i, row in enumerate(transient._ROWS)]
    c = (Fraction(0),) + transient._NODES
    b, b_hat = A[-1], transient._B_HAT
    assert c == tuple(Fraction(v) for v in ("0", "1/2", "83/250", "31/50", "17/20", "1"))
    assert b[-1] == g
    assert all(sum(row) == ci for row, ci in zip(A, c))

    def dot(u, v):
        return sum(p * q for p, q in zip(u, v))

    def times_A(v):
        return [dot(row, v) for row in A]

    ones, c2, c3 = [1] * 6, [v * v for v in c], [v ** 3 for v in c]
    Ac = times_A(c)
    conditions = [(ones, 1), (c, Fraction(1, 2)), (c2, Fraction(1, 3)), (Ac, Fraction(1, 6)),
                  (c3, Fraction(1, 4)), ([p * q for p, q in zip(c, Ac)], Fraction(1, 8)),
                  (times_A(c2), Fraction(1, 12)), (times_A(Ac), Fraction(1, 24))]
    assert all(dot(b, v) == rhs for v, rhs in conditions)
    assert all(dot(b_hat, v) == rhs for v, rhs in conditions[:4])
    assert any(dot(b_hat, v) != rhs for v, rhs in conditions[4:])
    assert [(row, ci) for row, _, ci in transient._STAGES] == [
        (tuple(map(float, row[:i + 1])), float(ci))
        for i, (row, ci) in enumerate(zip(A[1:], c[1:]))]
    assert transient._ERR == tuple(float(p - q) for p, q in zip(b, b_hat))


def test_stage_guess_extrapolates_the_last_two_stage_derivatives():
    """Implicit stage i starts from x + h*sum_j g_j K_j, its explicit sum
    plus h/4 times a derivative extrapolated in c.  The guess is the stage
    value itself when the stage derivatives are constant, and, from the
    second implicit stage on, when they are linear in c; it moves only the
    weights of the last two known stages.  The kernel's floats are these
    rationals rounded."""
    c = (Fraction(0),) + transient._NODES
    for i, (row, (_, guess, _)) in enumerate(zip(transient._ROWS, transient._STAGES)):
        g = transient._guess(i, row)
        assert guess == tuple(map(float, g))
        assert sum(g) == sum(row) + Fraction(1, 4) == c[i + 1]
        assert list(g[:max(i - 1, 0)]) == list(row[:max(i - 1, 0)])
        if i:
            assert (sum(gj * cj for gj, cj in zip(g, c))
                    == sum(a * cj for a, cj in zip(row, c)) + c[i + 1] / 4)

def test_a_duty_step_does_not_reach_back_into_the_segment_before_it():
    """The last stage of a segment's last step sits at the segment end,
    where a duty step takes effect; it takes the duty from the left, so
    the run up to the step is the run that holds the old duty there."""
    hold = ((0.0, 0.2), (5e-4, 0.2))
    got = simulate(SEPIC_BENCH, Stimulus(duty=hold + ((5e-4, 0.48),)), 1e-3)
    held = simulate(SEPIC_BENCH, Stimulus(duty=hold), 1e-3)
    n = int(np.sum(np.asarray(got.times) <= 5e-4))
    assert got.times[n - 1] == 5e-4
    assert np.array_equal(got.times[:n], held.times[:n])
    assert np.array_equal(got.states[:n], held.states[:n])


def test_a_step_cut_to_the_segment_end_ends_the_run_there():
    """The last step is cut to t_end - t, and t + (t_end - t) rounds one
    ulp short of t_end here; the run still ends at t_end, where the
    leftover gap below h_min used to raise StepSizeUnderflow."""
    spec = ConverterSpec(kind=SEPIC, Vg=1.0, R=1.0, L1=0.1, L2=1e-6, C1=0.01, C2=0.01,
                         f_s=10.0 ** 5.46484375, ideal=True)
    t_end = 2.74e-5
    wf = simulate(spec, Stimulus(duty=0.3), t_end)
    assert wf.times[-1] == t_end
    assert wf.times[-2] + (t_end - wf.times[-2]) < t_end


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
    """Each field holds one entry per sample, each state row is a 4-tuple
    and every sample value is a plain float, not a numpy scalar, from
    rest and from a StateVector alike, and whatever type t_end has."""
    start = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2)).state
    for initial, t_end in ((None, 0.01), (start, np.float64(0.01))):
        wf = simulate(SEPIC_BENCH, Stimulus(duty=0.2), t_end=t_end, initial=initial)
        n = len(wf.times)
        assert len(wf.states) == n
        assert all(type(row) is tuple and len(row) == 4 for row in wf.states)
        assert len(wf.v0) == n
        assert len(wf.mu) == n
        assert len(wf.mode) == n
        values = [*wf.times, *(v for row in wf.states for v in row), *wf.v0, *wf.mu]
        assert all(type(v) is float for v in values)
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
