"""Tests for the DC operating-point solver.

Expected numbers were frozen from independent closed-form evaluation
(loss-free-resistor power balance) and a bisection root-finder on the
effective duty, before the Newton solver existed.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convavg import (
    CCM,
    DCM,
    NonConvergence,
    OperatingPointRequest,
    SingularJacobian,
    SolverError,
    StateVector,
    dcm_predicted,
    effective_resistance,
    equivalent_inductance,
    resolve_ports,
    solve_dc,
    sweep_duty,
)
from convavg.dc import _guess_values
from convavg.avgmodel import MU_CLAMP_EPS
from strategies import CUK_BENCH, SEPIC_BENCH, converter_specs


# loss-free-resistor closed forms, frozen:
#   sepic ideal: V0 = Vg*sqrt(R/Re) = 62*sqrt(52/409.77) = 22.086
#   cuk ideal:   |V0| = Vg*D*sqrt(R/(2*L*fs)) = 23.479
SEPIC_IDEAL_V0 = 2.2086381128e1
CUK_IDEAL_V0 = 2.3478713764e1
# bisection oracle on the effective-duty closure, frozen:
SEPIC_IDEAL_MU = 0.262663000020


def test_sepic_ideal_dc_matches_power_balance():
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    op = solve_dc(OperatingPointRequest(spec=spec, D=0.2))
    assert op.converged
    assert op.mode == DCM
    ref = 62.0 * math.sqrt(52.0 / effective_resistance(spec, 0.2))
    assert abs(ref - SEPIC_IDEAL_V0) < 1e-9
    assert op.V0 == pytest.approx(SEPIC_IDEAL_V0, rel=1e-3)
    # solver should land far tighter than the 0.1% contract
    assert op.V0 == pytest.approx(SEPIC_IDEAL_V0, rel=1e-8)


def test_sepic_ideal_effective_duty_matches_bisection_oracle():
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    op = solve_dc(OperatingPointRequest(spec=spec, D=0.2))
    assert op.mu == pytest.approx(SEPIC_IDEAL_MU, abs=1e-8)
    assert op.mu > 0.2


def test_cuk_ideal_dc_matches_conversion_law():
    spec = dataclasses.replace(CUK_BENCH, ideal=True)
    op = solve_dc(OperatingPointRequest(spec=spec, D=0.42))
    leq = equivalent_inductance(spec)
    ref = 25.0 * 0.42 * math.sqrt(100.0 / (2.0 * leq * spec.f_s))
    assert abs(ref - CUK_IDEAL_V0) < 1e-9
    assert abs(op.V0) == pytest.approx(CUK_IDEAL_V0, rel=1e-8)
    assert op.V0 < 0.0  # inverting topology
    assert op.mode == DCM


def test_sepic_nonideal_dc_point():
    op = solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    assert op.converged
    assert op.mode == DCM
    # nameplate: 22 V within 5%
    assert abs(op.V0 - 22.0) / 22.0 < 0.05
    # regression against the frozen solve
    assert op.V0 == pytest.approx(21.8363946042, rel=1e-8)
    assert op.state.i_L1 == pytest.approx(0.151245857317, rel=1e-6)
    assert op.state.i_L2 == pytest.approx(0.419930665465, rel=1e-6)
    assert op.state.v_C1 == pytest.approx(62.0265304117, rel=1e-6)
    assert op.mu == pytest.approx(0.264797048342, rel=1e-6)
    assert op.residual_norm <= 1e-9


def test_cuk_nonideal_dc_point():
    op = solve_dc(OperatingPointRequest(spec=CUK_BENCH, D=0.42))
    assert op.converged
    assert op.V0 < 0.0
    assert op.V0 == pytest.approx(-23.2398755, rel=1e-6)
    assert op.mu == pytest.approx(0.486465, abs=2e-5)
    assert op.mode == DCM


def test_load_current_identity():
    # charge balance on the output capacitor pins the averaged second
    # inductor current to the load current
    for spec, d in ((SEPIC_BENCH, 0.2), (CUK_BENCH, 0.42)):
        op = solve_dc(OperatingPointRequest(spec=spec, D=d))
        assert op.state.i_L2 == pytest.approx(abs(op.V0) / spec.R, rel=1e-8)


def test_ideal_dcm_port_identities():
    # loss-free-resistor relations at the resolved ideal equilibrium
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    op = solve_dc(OperatingPointRequest(spec=spec, D=0.2))
    ports = resolve_ports(spec, 0.2, op.state.as_array())
    re = effective_resistance(spec, 0.2)
    assert ports.I1 == pytest.approx(ports.V1 / re, rel=1e-9)
    assert ports.V1 * ports.I1 == pytest.approx(ports.V2 * ports.I2, rel=1e-9)
    # input and output power agree
    assert spec.Vg ** 2 / re == pytest.approx(op.V0 ** 2 / spec.R, rel=1e-8)


def test_ideal_volt_second_balance():
    # D1*V1 == D2*V2 at every ideal equilibrium
    for spec0, d in ((SEPIC_BENCH, 0.2), (CUK_BENCH, 0.42)):
        spec = dataclasses.replace(spec0, ideal=True)
        op = solve_dc(OperatingPointRequest(spec=spec, D=d))
        ports = resolve_ports(spec, d, op.state.as_array())
        d1 = d
        d2 = d1 * (1.0 - ports.mu) / ports.mu
        assert d1 * ports.V1 == pytest.approx(d2 * ports.V2,
                                              rel=1e-9, abs=1e-9 * abs(ports.V1))


def test_vanishing_duty_gives_vanishing_output():
    # deep-DCM output scales linearly with duty and heads to zero
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    a = solve_dc(OperatingPointRequest(spec=spec, D=1e-4))
    b = solve_dc(OperatingPointRequest(spec=spec, D=1e-5))
    assert abs(a.V0) < 0.02
    assert abs(b.V0) == pytest.approx(abs(a.V0) / 10.0, rel=1e-3)


def test_mode_agrees_with_predictor_on_ideal_spot_checks():
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    for d in (0.1, 0.3, 0.43, 0.45, 0.6, 0.85):
        op = solve_dc(OperatingPointRequest(spec=spec, D=d))
        want = DCM if dcm_predicted(spec, d) else CCM
        assert op.mode == want, "mode mismatch at D=%g" % d


def test_initial_guess_is_close_for_ideal_converter():
    spec = dataclasses.replace(SEPIC_BENCH, ideal=True)
    guess = _guess_values(spec, 0.2)
    op = solve_dc(OperatingPointRequest(spec=spec, D=0.2))
    assert abs(guess[3] - op.V0) / abs(op.V0) < 0.05
    # a dead source: the guess is the zero state, which solves at once
    op = solve_dc(OperatingPointRequest(spec=dataclasses.replace(spec, Vg=0.0), D=0.2))
    assert op.state == (0.0, 0.0, 0.0, 0.0)
    assert op.iterations == 0 and op.converged


def test_nonconvergence_raises_with_tiny_budget(monkeypatch):
    """The closed-form guess needs two Newton iterations here, so a budget
    of one runs out."""
    import convavg.dc as dc
    monkeypatch.setattr(dc, "_MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence) as info:
        solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))
    assert info.value.iterations == 1
    assert info.value.residual_norm > 0.0


def test_cold_solve_work_per_newton_iteration(monkeypatch):
    """A cold solve resolves the cell once at the start and once per
    Newton iteration: the Newton matrix comes analytically from the
    ports the residual resolved, and no damping happens at these
    points."""
    import convavg.dc as dc
    calls = [0]
    derivative_fn, resolve_fn = dc.derivative, dc.resolve_ports

    def counted_derivative(spec, d, x, ports=None):
        calls[0] += ports is None
        return derivative_fn(spec, d, x, ports)

    def counted_resolve(spec, d, x):
        calls[0] += 1
        return resolve_fn(spec, d, x)

    monkeypatch.setattr(dc, "derivative", counted_derivative)
    monkeypatch.setattr(dc, "resolve_ports", counted_resolve)
    for spec, d in ((SEPIC_BENCH, 0.2), (SEPIC_BENCH, 0.3), (SEPIC_BENCH, 0.6),
                    (CUK_BENCH, 0.42), (CUK_BENCH, 0.3), (CUK_BENCH, 0.6)):
        calls[0] = 0
        op = solve_dc(OperatingPointRequest(spec=spec, D=d))
        assert op.iterations >= 1
        assert calls[0] <= op.iterations + 1, (spec.kind, d)


def test_sweep_matches_pointwise_cold_solves():
    """A sweep point is the solve_dc point at its duty, bit for bit: no
    point depends on the one before it."""
    ops = sweep_duty(SEPIC_BENCH, 0.25, 0.45, 0.05)
    assert len(ops) == 5
    for op in ops:
        assert op == solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=op.D))


def test_single_point_sweep_equals_solve():
    ops = sweep_duty(CUK_BENCH, 0.42, 0.42, 0.01)
    assert ops == [solve_dc(OperatingPointRequest(spec=CUK_BENCH, D=0.42))]


def test_sweep_rejects_bad_step():
    with pytest.raises(ValueError):
        sweep_duty(SEPIC_BENCH, 0.2, 0.4, -0.01)


def test_sweep_rejects_an_infinite_step():
    """An infinite step once made the grid's one duty 0 * inf, a NaN that
    the converter check refused as a config error."""
    with pytest.raises(ValueError, match="step must be finite"):
        sweep_duty(SEPIC_BENCH, 0.1, 0.2, float("inf"))


def test_sweep_rejects_oversized_grid_before_solving(monkeypatch):
    import convavg.dc

    def no_solve(*args, **kwargs):
        raise AssertionError("sweep_duty solved a point of an oversized grid")

    monkeypatch.setattr(convavg.dc, "solve_dc", no_solve)
    cap = convavg.dc.MAX_SWEEP_POINTS
    for step in (1e-9, 1e-320, 0.7 / cap):      # cap + 1 points and beyond
        with pytest.raises(ValueError, match="exceeds"):
            sweep_duty(SEPIC_BENCH, 0.1, 0.8, step)


def test_sweep_records_failed_points_and_goes_on(monkeypatch):
    """With a one-iteration budget the low duties run out: each becomes a
    converged=False point with a NaN state, mode none, and the iterations
    and residual of its failure, and the duties after it are solved."""
    import convavg.dc as dc
    monkeypatch.setattr(dc, "_MAX_ITERATIONS", 1)
    for spec in (SEPIC_BENCH, CUK_BENCH):
        ops = sweep_duty(spec, 0.3, 0.7, 0.05)
        failed = [op for op in ops if not op.converged]
        assert failed and failed == ops[:len(failed)] and len(failed) < len(ops)
        for op in failed:
            with pytest.raises(NonConvergence) as info:
                solve_dc(OperatingPointRequest(spec=spec, D=op.D))
            state = (op.state.i_L1, op.state.i_L2, op.state.v_C1, op.state.v_C2)
            assert all(math.isnan(v) for v in state + (op.V0, op.mu))
            assert op.mode == "none"
            assert op.iterations == info.value.iterations == 1
            assert op.residual_norm == info.value.residual_norm > 0.0
        for op in ops[len(failed):]:
            assert op == solve_dc(OperatingPointRequest(spec=spec, D=op.D))


def test_sweep_records_a_singular_point_without_counters(monkeypatch):
    """A failure that carries no counters is recorded with 0 iterations
    and a NaN residual."""
    import convavg.dc as dc
    monkeypatch.setattr(dc, "jacobian_columns",
                        lambda spec, d, x, ports, count: [(0.0,) * 4] * count)
    ops = sweep_duty(SEPIC_BENCH, 0.2, 0.3, 0.05)
    assert len(ops) == 3
    for op in ops:
        assert not op.converged and op.mode == "none" and op.iterations == 0
        assert math.isnan(op.residual_norm) and math.isnan(op.V0)


def test_cuk_sweep_tracks_ideal_law_within_losses():
    # |V0| through the discontinuous range stays below the loss-free
    # conversion law and within 10% of it
    leq = equivalent_inductance(CUK_BENCH)
    ops = sweep_duty(CUK_BENCH, 0.2, 0.5, 0.05)
    for op in ops:
        law = 25.0 * op.D * math.sqrt(100.0 / (2.0 * leq * CUK_BENCH.f_s))
        assert op.mode == DCM
        assert abs(op.V0) < law
        assert abs(abs(op.V0) - law) / law < 0.10


def test_state_vector_round_trip():
    s = StateVector(i_L1=1.0, i_L2=-2.0, v_C1=3.5, v_C2=-4.25)
    arr = s.as_array()
    assert arr.tolist() == [1.0, -2.0, 3.5, -4.25]
    assert StateVector(*map(float, arr)) == s
    assert s == (1.0, -2.0, 3.5, -4.25)     # the state is its four floats


# --- properties over random converters ------------------------------

@settings(derandomize=True, max_examples=150, deadline=None)
@given(converter_specs(), st.floats(0.01, 0.99))
def test_solve_dc_converges_from_the_closed_form_guess(spec, d):
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    assert op.converged
    assert op.residual_norm <= 1e-9


@settings(derandomize=True, max_examples=150, deadline=None)
@given(converter_specs(ideal=True), st.floats(0.01, 0.99))
def test_ideal_dcm_port_identities_on_random_converters(spec, d):
    """At a solved DCM point off the mu clamp the transistor port is the
    effective resistance and the cell passes its power through losslessly:
    I1 = V1/Re and V1*I1 = V2*I2."""
    try:
        op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    except SolverError:
        assume(False)
    ports = resolve_ports(spec, d, op.state.as_array())
    assume(ports.mode == DCM and ports.mu < 1.0 - MU_CLAMP_EPS)
    re = effective_resistance(spec, d)
    assert ports.I1 == pytest.approx(ports.V1 / re, rel=1e-9)
    assert ports.V1 * ports.I1 == pytest.approx(ports.V2 * ports.I2, rel=1e-9)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(converter_specs(ideal=True), st.floats(0.01, 0.99))
def test_ideal_mode_matches_the_closed_form_predictor(spec, d):
    K = 2.0 * equivalent_inductance(spec) * spec.f_s / spec.R
    assume(abs(K - (1.0 - d) ** 2) > 1e-6 * (1.0 - d) ** 2)
    op = solve_dc(OperatingPointRequest(spec=spec, D=d))
    assert op.mode == (DCM if dcm_predicted(spec, d) else CCM)


# --- failure paths ---------------------------------------------------

def test_rank_deficient_newton_matrix_raises_singular(monkeypatch):
    import convavg.dc as dc
    columns = dc.jacobian_columns

    def lose_last_column(spec, d, x, ports, count):
        cols = columns(spec, d, x, ports, count)
        cols[3] = (0.0, 0.0, 0.0, 0.0)
        return cols

    monkeypatch.setattr(dc, "jacobian_columns", lose_last_column)
    with pytest.raises(SingularJacobian, match="singular at iteration 0"):
        solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))


def test_overflowing_newton_step_raises_singular(monkeypatch):
    """A Newton matrix of 1e-300 times the identity factors, but its
    second step overflows."""
    import convavg.dc as dc

    def tiny_identity(spec, d, x, ports, count):
        units = (spec.L1, spec.L2, spec.C1, spec.C2)
        return [tuple(1e-300 / u if i == j else 0.0 for i, u in enumerate(units))
                for j in range(count)]

    monkeypatch.setattr(dc, "jacobian_columns", tiny_identity)
    with pytest.raises(SingularJacobian, match="non-finite step"):
        solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))


def test_nan_residual_is_a_solver_error_not_convergence(monkeypatch):
    import convavg.dc as dc
    nan = float("nan")
    monkeypatch.setattr(dc, "derivative", lambda *args: (nan, nan, nan, nan))
    with pytest.raises(SolverError):
        solve_dc(OperatingPointRequest(spec=SEPIC_BENCH, D=0.2))


# --- the 4x4 Newton solve -------------------------------------------

def lapack_solve4(a):
    """Reference for dc._solve4: the np.linalg.solve call that solved
    the Newton system before it moved to plain Python."""
    try:
        return np.linalg.solve([row[:4] for row in a], [row[4] for row in a]).tolist()
    except np.linalg.LinAlgError:
        return None


def test_elimination_matches_lapack_over_six_decades():
    """Random systems whose rows (volts next to amps in solve_dc) span
    six decades of scale."""
    from convavg.dc import _solve4
    rng = np.random.default_rng(20261018)
    for _ in range(500):
        rows = rng.standard_normal((4, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 1))
        want = np.array(lapack_solve4(rows.tolist()))
        got = np.array(_solve4(rows.tolist()))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_elimination_reports_an_exactly_zero_pivot():
    from convavg.dc import _solve4
    zero_column = [[1.0, 0.0, 2.0, 3.0, 1.0], [4.0, 0.0, 5.0, 6.0, 1.0],
                   [7.0, 0.0, 8.0, 10.0, 1.0], [1.0, 0.0, 1.0, 1.0, 1.0]]
    doubled_row = [[1.0, 2.0, 3.0, 4.0, 1.0], [2.0, 4.0, 6.0, 8.0, 2.0],
                   [0.0, 1.0, 0.0, 2.0, 3.0], [5.0, 0.0, 1.0, 0.0, 4.0]]
    for a in (zero_column, doubled_row):
        assert lapack_solve4([row[:] for row in a]) is None
        assert _solve4(a) is None


def loop_solve4(a):
    """Bitwise reference for dc._solve4: the row loop it was written out
    from.  It overwrites the rows it is given."""
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


def random_systems(rng, count):
    """(kind, augmented 4x5 rows), cycling through four kinds: rows six
    decades apart; small integers of either sign, for pivot ties and
    exact cancellations; a zero column k, for an exactly zero pivot at
    stage k = 0..3 in turn; and one inf or NaN entry."""
    special = (math.inf, -math.inf, math.nan)
    for n in range(count):
        kind = ("decades", "ties", "zero pivot", "non-finite")[n % 4]
        if kind == "ties":
            rows = [[float(rng.choice((-2, -1, 0, 1, 2))) for _ in range(5)]
                    for _ in range(4)]
        else:
            rows = [[rng.gauss(0.0, 1.0) * scale for _ in range(5)]
                    for scale in [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(4)]]
        if kind == "zero pivot":
            for row in rows:
                row[n // 4 % 4] = 0.0
        if kind == "non-finite":
            rows[rng.randrange(4)][rng.randrange(5)] = rng.choice(special)
        yield kind, rows


def test_elimination_is_the_row_loop_bit_for_bit():
    """The written-out elimination returns the loop's floats, signed
    zeros and NaNs included, or None exactly where the loop does."""
    from convavg.dc import _solve4
    nones = dict.fromkeys(("decades", "ties", "zero pivot", "non-finite"), 0)
    for kind, rows in random_systems(random.Random(20261019), 20000):
        want = loop_solve4([row[:] for row in rows])
        got = _solve4([row[:] for row in rows])
        if want is None:
            nones[kind] += 1
            assert got is None, rows
        else:
            assert list(map(float.hex, got)) == list(map(float.hex, want)), rows
    assert nones["zero pivot"] == 5000      # every zero column ends at its stage
    assert nones["ties"] > 0 and nones["decades"] == 0


def printed_point(request):
    """What `convavg dc` prints of a solve, the residual aside (round-off
    noise near 1e-15), or the solver error it exits with."""
    from convavg.cli import _FMT
    try:
        op = solve_dc(request)
    except SolverError as exc:
        return type(exc).__name__
    values = (op.V0, op.mu, op.state.i_L1, op.state.i_L2, op.state.v_C1, op.state.v_C2)
    return tuple(_FMT % v for v in values) + (op.mode, op.iterations)


@pytest.mark.parametrize("spec", [SEPIC_BENCH, CUK_BENCH], ids=["sepic", "cuk"])
def test_elimination_prints_the_bench_points_as_lapack_does(spec):
    """Every duty the bundled-config CLI checks solve: the dc duties and
    the 0.05..0.9 sweep."""
    import convavg.dc as dc
    requests = [OperatingPointRequest(spec=spec, D=0.05 + 0.01 * k) for k in range(86)]
    requests += [OperatingPointRequest(spec=spec, D=d) for d in (0.2, 0.3, 0.42, 0.7)]
    got = [printed_point(r) for r in requests]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "_solve4", lapack_solve4)
        assert [printed_point(r) for r in requests] == got


@settings(derandomize=True, max_examples=300, deadline=None)
@given(converter_specs(), st.floats(0.01, 0.99))
def test_elimination_solves_as_lapack_does(spec, d):
    """Same outcome, conduction mode and Newton iteration count as with
    LAPACK's solve, and the same state to within the solve's rounding:
    1e-11 of the scales the Newton test uses (3000 examples came within
    7e-13).  Printed to 12 digits a value can still differ in its last
    digit; the first such example here, a SEPIC at D = 0.984375, prints
    v_C1 as 5.08122402721e-01 against 5.08122402720e-01."""
    import convavg.dc as dc
    request = OperatingPointRequest(spec=spec, D=d)

    def solve():
        try:
            return solve_dc(request)
        except SolverError as exc:
            return type(exc).__name__

    got = solve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "_solve4", lapack_solve4)
        want = solve()
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert (got.mode, got.iterations) == (want.mode, want.iterations)
    v_scale = abs(spec.Vg) + abs(want.state.v_C1) + abs(want.state.v_C2) + 1.0
    i_scale = abs(want.state.i_L1) + abs(want.state.i_L2) + 1.0
    for name, scale in (("V0", v_scale), ("mu", 1.0)):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-11 * scale, name
    for name, scale in (("i_L1", i_scale), ("i_L2", i_scale),
                        ("v_C1", v_scale), ("v_C2", v_scale)):
        assert abs(getattr(got.state, name) - getattr(want.state, name)) <= 1e-11 * scale, name


@settings(derandomize=True, max_examples=200, deadline=None)
@given(converter_specs(), st.sampled_from([DCM, CCM]), st.floats(0.0, 1.0))
def test_solve_dc_is_the_row_loop_solve_bit_for_bit(spec, mode, u):
    """With the written-out elimination or the row loop it replaced,
    solve_dc returns the same state, V0, mu, mode, iteration count and
    residual norm to the bit, or the same solver error.  The duty is
    drawn on the ``mode`` side of the ideal CCM/DCM boundary, so both
    conduction modes are covered."""
    import convavg.dc as dc
    k = 2.0 * equivalent_inductance(spec) * spec.f_s / spec.R
    boundary = 1.0 - math.sqrt(k) if k < 1.0 else 0.0   # ideal CCM/DCM boundary duty
    if mode == DCM:
        assume(boundary > 0.02)
        d = 0.01 + u * (boundary - 0.02)
    else:
        lo = max(boundary, 0.01)
        d = lo + u * (0.99 - lo)
    request = OperatingPointRequest(spec=spec, D=d)

    def solve():
        try:
            op = solve_dc(request)
        except SolverError as exc:
            return type(exc).__name__
        return (tuple(map(float.hex, (*op.state, op.V0, op.mu, op.residual_norm)))
                + (op.mode, op.iterations))

    got = solve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "_solve4", loop_solve4)
        assert solve() == got
