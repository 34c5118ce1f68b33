"""Tests for linearization, frequency responses and stability margins."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convavg import (
    SEPIC,
    ConverterSpec,
    DegenerateOperatingPoint,
    LinearModel,
    OperatingPoint,
    OperatingPointRequest,
    SolverError,
    StateVector,
    ValidationError,
    default_frequency_grid,
    derivative,
    frequency_response,
    linearize,
    resolve_ports,
    solve_dc,
    transfer_at,
)
from convavg.converter import equivalent_inductance
import convavg.smallsignal as smallsignal
from strategies import CUK_BENCH, SEPIC_BENCH, converter_specs


def linearized(spec, d):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    return op, linearize(spec, op)


def dc_gain(model, input="duty"):
    B, D_f = ((model.B_d, model.D_d) if input == "duty"
              else (model.B_g, model.D_g))
    return float(model.C @ np.linalg.solve(-model.A, B) + D_f)


def seeded_operating_points(seed, count):
    """Non-degenerate operating points of load-scaled bench converters."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        base = (SEPIC_BENCH, CUK_BENCH)[len(points) % 2]
        spec = dataclasses.replace(base, R=base.R * np.exp(rng.uniform(-3.0, 1.0)))
        op = solve_dc(OperatingPointRequest(spec=spec, D=rng.uniform(0.1, 0.85)))
        ports = resolve_ports(spec, op.D, op.state.as_array())
        if abs(ports.mu_candidate - op.D) > 1e-6:
            points.append((spec, op))
    return points


# --- linearization --------------------------------------------------

def test_sepic_poles_are_stable():
    _, model = linearized(SEPIC_BENCH, 0.2)
    re = np.sort(np.linalg.eigvals(model.A).real)
    assert np.all(re < 0.0)
    assert re[0] == pytest.approx(-1.77e5, rel=0.05)
    assert re[-1] == pytest.approx(-37.49, rel=0.01)


def test_cuk_poles_are_stable():
    _, model = linearized(CUK_BENCH, 0.42)
    re = np.sort(np.linalg.eigvals(model.A).real)
    assert np.all(re < 0.0)
    assert re[-1] == pytest.approx(-21.75, rel=0.01)


def test_ccm_poles_stable_across_duty():
    heavy = dataclasses.replace(SEPIC_BENCH, R=0.52)
    for d in (0.45, 0.6, 0.9):
        _, model = linearized(heavy, d)
        assert np.all(np.linalg.eigvals(model.A).real < 0.0)


def test_dc_gains_regression():
    _, ms = linearized(SEPIC_BENCH, 0.2)
    assert dc_gain(ms, "duty") == pytest.approx(110.046104, rel=1e-4)
    assert dc_gain(ms, "source") == pytest.approx(0.355266, rel=1e-4)
    _, mc = linearized(CUK_BENCH, 0.42)
    assert dc_gain(mc, "duty") == pytest.approx(-55.544509, rel=1e-4)
    assert dc_gain(mc, "source") == pytest.approx(-0.936132, rel=1e-4)


def test_duty_dc_gain_matches_finite_difference():
    # the zero-frequency duty gain must reproduce dV0/dD from the
    # nonlinear solver itself, in either mode on both topologies
    points = [(SEPIC_BENCH, 0.2), (CUK_BENCH, 0.42)]
    points += [(spec, op.D) for spec, op in seeded_operating_points(5, 16)]
    modes = set()
    for spec, d in points:
        op, model = linearized(spec, d)
        h = 1e-4
        hi = solve_dc(OperatingPointRequest(spec=spec, D=d + h))
        lo = solve_dc(OperatingPointRequest(spec=spec, D=d - h))
        if not hi.mode == lo.mode == op.mode:
            continue
        modes.add((spec.kind, op.mode))
        fd = (hi.V0 - lo.V0) / (2.0 * h)
        assert abs(dc_gain(model, "duty") - fd) / abs(fd) < 1e-5
    assert len(modes) == 4, modes


def test_ccm_source_gain_identity():
    # ideal CCM: V0/Vg = D/(1-D), so the source gain at DC is exactly that
    spec = ConverterSpec(kind=SEPIC, Vg=62.0, R=2.0, L1=13e-3, L2=166e-6,
                         C1=0.5e-6, C2=1000e-6, f_s=50e3, ideal=True)
    _, model = linearized(spec, 0.3)
    assert dc_gain(model, "source") == pytest.approx(0.3 / 0.7, rel=1e-8)


def test_dcm_source_gain_follows_square_root_law():
    # ideal DCM: V0 = Vg * D * sqrt(R / (2 L_eq f_s)), linear in Vg
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    law = np.sqrt(spec.R / (2.0 * equivalent_inductance(spec) * spec.f_s))
    for d in (0.05, 0.01):
        _, model = linearized(spec, d)
        assert dc_gain(model, "source") == pytest.approx(d * law, rel=1e-6)


def test_boundary_operating_point_is_degenerate():
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    R_star = 2.0 * equivalent_inductance(spec) * spec.f_s / (1.0 - 0.3) ** 2
    boundary = dataclasses.replace(spec, R=R_star)
    op = solve_dc(OperatingPointRequest(spec=boundary, D=0.3))
    assert op.mu == pytest.approx(0.3, abs=1e-9)
    assert op.mode == "CCM"
    with pytest.warns(DegenerateOperatingPoint):
        model = linearize(boundary, op)
    assert model.degenerate


def test_linearize_rejects_unconverged_point():
    state = StateVector(i_L1=0.0, i_L2=0.0, v_C1=0.0, v_C2=0.0)
    bad = OperatingPoint(D=0.2, state=state, V0=0.0, mu=0.5, mode="DCM",
                         residual_norm=1.0, iterations=50, converged=False)
    with pytest.raises(ValidationError):
        linearize(SEPIC_BENCH, bad)


# --- analytic linearization against a finite-difference reference ---

def _probe_eval(spec, d, x):
    ports = resolve_ports(spec, d, x)
    return np.array(derivative(spec, d, x, ports)), ports.v_out, ports.mode


def _fd_column(spec, d, x, base_mode, probe):
    """Mode-consistent difference quotient for one input direction:
    central, or one-sided on the side that stays in ``base_mode``.
    probe(s) returns the perturbed (spec, d, x) for offset s."""
    f_p, v_p, m_p = _probe_eval(*probe(+1.0))
    f_m, v_m, m_m = _probe_eval(*probe(-1.0))
    if m_p == base_mode and m_m == base_mode:
        return 0.5 * (f_p - f_m), 0.5 * (v_p - v_m)
    f_0, v_0, _ = _probe_eval(spec, d, x)
    if m_p == base_mode:
        return f_p - f_0, v_p - v_0
    if m_m == base_mode:
        return f_0 - f_m, v_0 - v_m
    return 0.5 * (f_p - f_m), 0.5 * (v_p - v_m)


def fd_linearize(spec, op):
    """(A, B_d, B_g, C, D_d, D_g) by mode-consistent differences."""
    d = op.D
    x = op.state.as_array()
    mode = resolve_ports(spec, d, x).mode
    A = np.zeros((4, 4))
    C = np.zeros(4)
    for j in range(4):
        h = 1e-6 * (abs(x[j]) + 1.0)

        def probe(s, j=j, h=h):
            xp = x.copy()
            xp[j] += s * h
            return spec, d, xp

        df, dv = _fd_column(spec, d, x, mode, probe)
        A[:, j] = df / h
        C[j] = dv / h
    h_d = 1e-6 * (abs(d) + 1.0)
    df, dv = _fd_column(spec, d, x, mode, lambda s: (spec, d + s * h_d, x))
    B_d, D_d = df / h_d, dv / h_d
    h_g = 1e-6 * (abs(spec.Vg) + 1.0)
    df, dv = _fd_column(
        spec, d, x, mode,
        lambda s: (dataclasses.replace(spec, Vg=spec.Vg + s * h_g), d, x))
    return A, B_d, df / h_g, C, D_d, dv / h_g


def test_linearize_matches_finite_difference_reference():
    modes = set()
    for spec, op in seeded_operating_points(3, 40):
        model = linearize(spec, op)
        assert not model.degenerate
        modes.add((spec.kind, op.mode))
        A, B_d, B_g, C, D_d, D_g = fd_linearize(spec, op)
        for got, ref in ((model.A, A), (model.B_d, B_d), (model.B_g, B_g),
                         (model.C, C)):
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))
        assert abs(model.D_d - D_d) <= 1e-6
        assert abs(model.D_g - D_g) <= 1e-6
    assert len(modes) == 4, modes


def test_linearize_resolves_the_cell_at_most_twice(monkeypatch):
    """Every derivative of the linear model comes from one port
    resolution at the operating point."""
    import convavg.smallsignal as smallsignal
    calls = [0]
    resolve_fn = smallsignal.resolve_ports

    def counted_resolve(spec, d, x):
        calls[0] += 1
        return resolve_fn(spec, d, x)

    def counted_derivative(spec, d, x, ports=None):
        calls[0] += ports is None
        return derivative(spec, d, x, ports)

    points = [(spec, solve_dc(OperatingPointRequest(spec=spec, D=d)))
              for spec, d in ((SEPIC_BENCH, 0.2), (SEPIC_BENCH, 0.6),
                              (CUK_BENCH, 0.42), (CUK_BENCH, 0.6))]
    monkeypatch.setattr(smallsignal, "resolve_ports", counted_resolve)
    monkeypatch.setattr(smallsignal, "derivative", counted_derivative,
                        raising=False)
    for spec, op in points:
        calls[0] = 0
        linearize(spec, op)
        assert calls[0] <= 2

# --- transfer evaluation --------------------------------------------

def synthetic_first_order(k, tau):
    return LinearModel(A=np.array([[-1.0 / tau]]),
                       B_d=np.array([k / tau]), B_g=np.array([0.0]),
                       C=np.array([1.0]), D_d=0.0, D_g=0.0,
                       spec=SEPIC_BENCH, D=0.2)


def test_transfer_matches_first_order_lag():
    k, tau = 10.0, 1e-3
    model = synthetic_first_order(k, tau)
    f = np.array([1.0, 100.0, 1 / (2 * np.pi * tau), 5e3])
    H = transfer_at(model, "duty", f)
    w = 2.0 * np.pi * f
    expected_mag = k / np.sqrt(1.0 + (w * tau) ** 2)
    assert np.abs(H) == pytest.approx(expected_mag, rel=1e-12)
    assert np.angle(H) == pytest.approx(-np.arctan(w * tau), rel=1e-12)


def test_batched_transfer_matches_per_frequency_solve():
    for spec, d in ((SEPIC_BENCH, 0.2), (CUK_BENCH, 0.42)):
        _, model = linearized(spec, d)
        f = default_frequency_grid(spec)
        H = transfer_at(model, "duty", f)
        eye = np.eye(4)
        ref = np.array([model.C @ np.linalg.solve(2j * np.pi * fk * eye - model.A,
                                                  model.B_d) + model.D_d
                        for fk in f])
        assert np.max(np.abs(H - ref) / np.abs(ref)) <= 1e-12


def test_singular_resolvent_maps_to_inf():
    # a lossless pair rings at exactly w = 2**12 rad/s, and the grid
    # holds that frequency, where sI - A has no inverse
    w = 2.0 ** 12
    A = np.array([[0.0, w, 0.0, 0.0],
                  [-w, 0.0, 0.0, 0.0],
                  [50.0, 0.0, -300.0, 0.0],
                  [0.0, 20.0, 1e3, -5e3]])
    model = LinearModel(A=A, B_d=np.array([1.0, 0.5, 2.0, -1.0]),
                        B_g=np.zeros(4), C=np.array([1.0, -1.0, 0.5, 2.0]),
                        D_d=0.1, D_g=0.0, spec=SEPIC_BENCH, D=0.2)
    f_ring = w / (2.0 * np.pi)
    f = np.sort(np.append(np.logspace(1.0, 4.0, 40), f_ring))
    k = int(np.flatnonzero(f == f_ring)[0])
    assert (2j * np.pi * f[k]).imag == w
    H = transfer_at(model, "duty", f)
    assert H[k] == complex(np.inf, 0.0)
    for j, fj in enumerate(f):
        if j == k:
            continue
        ref = model.C @ np.linalg.solve(2j * np.pi * fj * np.eye(4) - A,
                                        model.B_d) + model.D_d
        assert H[j] == pytest.approx(ref, rel=1e-12)

def test_transfer_rejects_unknown_input():
    model = synthetic_first_order(1.0, 1e-3)
    with pytest.raises(ValidationError):
        transfer_at(model, "load", [100.0])


def test_frequency_response_grid_validation():
    _, model = linearized(SEPIC_BENCH, 0.2)
    with pytest.raises(ValidationError):
        frequency_response(model, "duty", f=[0.0, 10.0])
    with pytest.raises(ValidationError):
        frequency_response(model, "duty", f=[100.0, 10.0])


def test_default_grid_spans_decade_range():
    f = default_frequency_grid(SEPIC_BENCH)
    assert f[0] == pytest.approx(10.0)
    assert f[-1] == pytest.approx(25e3)
    assert np.all(np.diff(f) > 0.0)
    lowfs = dataclasses.replace(SEPIC_BENCH, f_s=15.0)
    with pytest.raises(ValidationError):
        default_frequency_grid(lowfs)


@pytest.mark.parametrize("points_per_decade", [0, -5])
def test_default_grid_rejects_fewer_than_one_point_per_decade(points_per_decade):
    # such a count used to give a silent 2-point grid, and margins read off it
    with pytest.raises(ValidationError):
        default_frequency_grid(SEPIC_BENCH, points_per_decade)


# --- margins --------------------------------------------------------

def test_triple_integrator_margin():
    # G = (f0 / (j f))^3 crosses 0 dB at f0 with 270 degrees of lag
    f0 = 1e3
    f = np.logspace(1.0, 5.0, 400)
    H = (f0 / (1j * f)) ** 3
    m = smallsignal._gain_phase_margins(f, H, False)[2]
    assert m.phase_margin_deg == pytest.approx(-90.0, abs=1e-9)
    assert m.gain_crossover_hz == pytest.approx(f0, rel=1e-9)


def test_flat_gain_has_no_margins():
    f = np.logspace(1.0, 4.0, 50)
    H = np.full(f.shape, 10.0 + 0.0j)
    m = smallsignal._gain_phase_margins(f, H, False)[2]
    assert m.phase_margin_deg is None
    assert m.gain_crossover_hz is None
    assert m.gain_margin_db == np.inf
    assert m.phase_crossover_hz is None


def test_margins_need_two_samples():
    with pytest.raises(ValidationError):
        smallsignal._gain_phase_margins(np.array([10.0]), np.array([1.0 + 0j]), False)


def test_double_integrator_has_zero_phase_margin():
    """w0**2 / s**2 sits at -180 degrees at every frequency.  Its A is
    singular, so it has no finite DC gain and its phase is not folded;
    a sign guessed from the first phase sample read it as an inverting
    plant and reported a 180-degree margin."""
    w0 = 2.0 * np.pi * 1e3
    model = LinearModel(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                        B_d=np.array([0.0, w0 ** 2]), B_g=np.zeros(2),
                        C=np.array([1.0, 0.0]), D_d=0.0, D_g=0.0,
                        spec=SEPIC_BENCH, D=0.2)
    m = frequency_response(model, "duty", f=np.logspace(1.0, 5.0, 401)).margins
    assert m.gain_crossover_hz == pytest.approx(1e3, rel=1e-9)
    assert m.phase_margin_deg == 0.0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(converter_specs(), st.floats(0.05, 0.9))
def test_phase_fold_follows_the_dc_gain_sign(spec, d):
    """The phase is folded by 180 degrees exactly when the real DC gain
    C (-A)^-1 B + D is negative, and the reported response is
    transfer_at on the same grid, bit for bit."""
    try:
        op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    except SolverError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateOperatingPoint)
        model = linearize(spec, op)
    assume(np.linalg.cond(model.A) < 1e12)
    for input in ("duty", "source"):
        resp = frequency_response(model, input)
        np.testing.assert_array_equal(resp.response,
                                      transfer_at(model, input, resp.f))
        shift = resp.phase_deg[0] - np.degrees(np.angle(resp.response[0]))
        assert min(abs(shift - k) for k in (-360.0, -180.0, 0.0, 180.0)) < 1e-6
        assert (abs(abs(shift) - 180.0) < 1e-6) == (dc_gain(model, input) < 0.0)


def test_sepic_duty_margins_regression():
    _, model = linearized(SEPIC_BENCH, 0.2)
    resp = frequency_response(model, "duty")
    m = resp.margins
    assert m.gain_margin_db == pytest.approx(4.6251, rel=1e-3)
    assert m.phase_crossover_hz == pytest.approx(1832.65, rel=1e-3)
    assert m.phase_margin_deg == pytest.approx(97.403, rel=1e-3)
    assert m.gain_crossover_hz == pytest.approx(736.99, rel=1e-3)


def test_cuk_duty_margins_regression():
    _, model = linearized(CUK_BENCH, 0.42)
    resp = frequency_response(model, "duty")
    m = resp.margins
    assert m.gain_margin_db == np.inf
    assert m.phase_crossover_hz is None
    assert m.phase_margin_deg == pytest.approx(86.610, rel=1e-3)
    assert m.gain_crossover_hz == pytest.approx(3571.53, rel=1e-3)


def test_margins_insensitive_to_grid_density():
    _, model = linearized(SEPIC_BENCH, 0.2)
    coarse = frequency_response(model, "duty",
                                f=default_frequency_grid(SEPIC_BENCH, 50)).margins
    fine = frequency_response(model, "duty",
                              f=default_frequency_grid(SEPIC_BENCH, 100)).margins
    assert coarse.gain_margin_db == pytest.approx(fine.gain_margin_db, rel=5e-3)
    assert coarse.phase_margin_deg == pytest.approx(fine.phase_margin_deg, rel=5e-3)
    assert coarse.gain_crossover_hz == pytest.approx(fine.gain_crossover_hz, rel=5e-3)


def test_response_arrays_are_consistent():
    _, model = linearized(SEPIC_BENCH, 0.2)
    resp = frequency_response(model, "source")
    assert resp.f.shape == resp.response.shape
    assert resp.magnitude_db == pytest.approx(
        20.0 * np.log10(np.abs(resp.response)))
    # grid start matches a direct pointwise evaluation (the slowest
    # pole sits below 10 Hz, so this is not the DC gain)
    direct = transfer_at(model, "source", resp.f[0])[0]
    assert resp.response[0] == pytest.approx(direct, rel=1e-12)
    assert abs(direct) < abs(dc_gain(model, "source"))


def loop_crossings(f, y):
    """The per-sample loop that _crossings replaced, kept as its reference."""
    hits = []
    for i in range(f.size - 1):
        a, b = y[i], y[i + 1]
        if a == 0.0:
            hits.append(f[i])
        elif a * b < 0.0:
            hits.append(smallsignal._interp_log_f(f[i], f[i + 1], a, b, 0.0))
    if y[-1] == 0.0:
        hits.append(f[-1])
    return hits


def test_crossings_match_the_sample_loop():
    f = default_frequency_grid(SEPIC_BENCH)
    resp = frequency_response(linearized(SEPIC_BENCH, 0.2)[1], "duty")
    samples = [resp.magnitude_db, resp.phase_deg + 180.0]
    rng = np.random.default_rng(11)
    for k in range(40):
        y = rng.normal(size=f.size) * (1.0 + 0.5 * (k % 3))
        y[rng.integers(0, f.size, 4)] = 0.0
        y[[0, -1][k % 2]] = 0.0
        y[rng.integers(0, f.size)] = (np.nan, np.inf, -np.inf, 1.0)[k % 4]
        samples.append(y)
    with np.errstate(invalid="ignore"):     # interpolating next to an inf
        for y in samples:
            np.testing.assert_array_equal(smallsignal._crossings(f, y),
                                          loop_crossings(f, y))
