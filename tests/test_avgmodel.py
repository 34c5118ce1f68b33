"""Tests for the analytic state and duty derivatives of the averaged cell."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convavg import (
    CCM,
    DCM,
    SEPIC,
    ConverterSpec,
    OperatingPointRequest,
    avgmodel,
    derivative,
    effective_resistance,
    jacobian_columns,
    linearize,
    resolve_ports,
    solve_dc,
)
from convavg.dc import _guess_values
from convavg.avgmodel import MU_CLAMP_EPS
from strategies import bundled, converter_specs, decades


def state_jacobian(spec, d, x, ports):
    """(A, B_d) as arrays, from the five columns jacobian_columns gives."""
    cols = np.array(jacobian_columns(spec, d, x, ports, 5))
    return cols[:4].T, cols[4]


def central_jacobian(spec, d, x, base):
    """Central differences (A, B_d) in the state and the duty, or None
    when a probe leaves the branch (mode or fallback) that ``base``
    resolved."""
    cols = []
    for j in range(5):
        h = 1e-6 * (abs(x[j] if j < 4 else d) + 1.0)
        f = []
        for s in (+1.0, -1.0):
            xp, dp = x.copy(), d
            if j < 4:
                xp[j] += s * h
            else:
                dp += s * h
            ports = resolve_ports(spec, dp, xp)
            if (ports.mode, ports.fallback) != (base.mode, base.fallback):
                return None
            f.append(np.array(derivative(spec, dp, xp, ports)))
        cols.append((f[0] - f[1]) / (2.0 * h))
    return np.array(cols[:4]).T, cols[4]


@pytest.mark.parametrize("name", ["sepic_bench", "cuk_bench"])
def test_state_jacobian_matches_central_differences(name):
    spec = bundled(name).spec
    rng = np.random.default_rng(7)
    seen = {CCM: 0, DCM: 0, "fallback": 0}
    for d in (0.1, 0.25, 0.42, 0.6, 0.8):
        x0 = solve_dc(OperatingPointRequest(spec=spec, D=d)).state.as_array()
        for _ in range(30):
            x = x0 * rng.uniform(0.3, 1.7, 4)
            if rng.random() < 0.2:
                x[0] = -abs(x[0]) - abs(x[1])       # negative i_sum: fallback
            base = resolve_ports(spec, d, x)
            fd = central_jacobian(spec, d, x, base)
            if fd is None:
                continue
            seen["fallback" if base.fallback else base.mode] += 1
            for got, ref in zip(state_jacobian(spec, d, x, base), fd):
                assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))
    assert min(seen.values()) >= 5, seen


def test_clamped_duty_has_zero_duty_column():
    spec = bundled("sepic_bench").spec
    x = solve_dc(OperatingPointRequest(spec=spec, D=0.2)).state.as_array()
    for d in (0.0, 1.0):
        _, B_d = state_jacobian(spec, d, x, resolve_ports(spec, d, x))
        assert not np.any(B_d)


@pytest.mark.parametrize("name", ["sepic_bench", "cuk_bench"])
def test_state_jacobian_matches_linearize_at_bundled_point(name):
    parsed = bundled(name)
    op = solve_dc(OperatingPointRequest(spec=parsed.spec, D=parsed.duty))
    assert op.mode == DCM
    x = op.state.as_array()
    J, _ = state_jacobian(parsed.spec, op.D, x, resolve_ports(parsed.spec, op.D, x))
    A = linearize(parsed.spec, op).A
    assert np.max(np.abs(J - A)) <= 1e-8 * np.max(np.abs(A))


def loop_coefficients(spec, d, x):
    """a, b, c of W(mu) = a + b*mu + c*(1-mu)/mu at state x, written out
    from the spec's fields as the reference."""
    i_L1, i_L2, v_C1, v_C2 = x
    i_sum = i_L1 + i_L2
    if spec.kind == SEPIC:
        share = spec.R * spec.R_C2 / (spec.R + spec.R_C2)
        a = (v_C1 + spec.R_C1 * i_L1
             + (spec.R * v_C2) / (spec.R + spec.R_C2) + share * i_sum
             + spec.R_d * i_sum)
        b = -(spec.R_C1 + share + spec.R_d + spec.R_on1) * i_sum
    else:
        a = v_C1 + spec.R_C1 * i_L1 + spec.R_d * i_sum
        b = -(spec.R_C1 + spec.R_d + spec.R_on1) * i_sum
    c = spec.V_d * d if i_sum > 0.0 else 0.0
    return a, b, c


def root_solve_mode(spec, d, x):
    """The mode rule before the sign test, kept as the reference: solve
    the DCM root at every non-fallback point and compare it with D.
    Returns (mode, mu, mu_candidate)."""
    d = min(max(d, avgmodel._MU_FLOOR), 1.0 - MU_CLAMP_EPS)
    a, b, c = loop_coefficients(spec, d, x)
    i_sum = x[0] + x[1]
    if i_sum < 0.0 or a <= 0.0:
        return CCM, d, d
    root = avgmodel._solve_mu_dcm(a, b, c, effective_resistance(spec, d) * i_sum)
    if root > d:
        return DCM, min(root, 1.0 - MU_CLAMP_EPS), root
    return CCM, d, root


@st.composite
def cell_points(draw):
    """A random converter, a duty in [0, 1] (the clamp edges included)
    and a state, either anywhere in a box scaled by Vg and R or near the
    closed-form operating point, where the two modes meet."""
    spec = draw(converter_specs())
    d = draw(st.sampled_from([0.0, 1e-300, 1.0 - 1e-12]) | st.floats(0.0, 1.0)
             | st.floats(0.01, 0.99))
    if draw(st.booleans()):
        guess = _guess_values(spec, min(max(d, 0.01), 0.99))
        x = [v * (1.0 + draw(st.floats(-0.2, 0.2))) for v in guess]
    else:
        amps = st.floats(-0.5, 2.0).map(lambda a: a * spec.Vg / spec.R)
        volts = st.floats(-2.0, 2.0).map(lambda a: a * spec.Vg)
        x = [draw(amps), draw(amps), draw(volts), draw(volts)]
    return spec, d, x


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cell_points())
def test_sign_of_g_at_the_duty_picks_the_root_solve_mode(point):
    spec, d, x = point
    ports = resolve_ports(spec, d, x)
    assert (ports.mode, ports.mu, ports.mu_candidate) == root_solve_mode(spec, d, x)


def bits(value):
    """value with every float spelled out in hex, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(bits, value))
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def fresh(spec, **changes):
    """A spec constructed anew from spec's field values and ``changes``."""
    values = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    return ConverterSpec(**dict(values, **changes))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cell_points(), decades(-1, 4), decades(-4, 0), decades(-4, 0))
def test_replaced_and_ideal_specs_resolve_as_freshly_built_ones(point, R, R_L1, R_L2):
    """The cell's per-spec constants follow the spec: resolve_ports and
    jacobian_columns on a spec that dataclasses.replace stepped, after
    the original has been resolved, and on an ideal=True spec are the
    same bits as on a spec constructed with those field values."""
    spec, d, x = point
    resolve_ports(spec, d, x)
    for got, built in ((dataclasses.replace(spec, R=R, R_L1=R_L1, R_L2=R_L2),
                        fresh(spec, R=R, R_L1=R_L1, R_L2=R_L2)),
                       (fresh(spec, ideal=True),
                        fresh(spec, R_L1=0.0, R_L2=0.0, R_on1=0.0, V_d=0.0, R_d=0.0,
                              R_C1=0.0, R_C2=0.0))):
        ports = resolve_ports(got, d, x)
        assert bits(ports) == bits(resolve_ports(built, d, x))
        assert bits(jacobian_columns(got, d, x, ports, 5)) == \
            bits(jacobian_columns(built, d, x, resolve_ports(built, d, x), 5))
