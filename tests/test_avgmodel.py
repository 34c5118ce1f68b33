"""Tests for the analytic Jacobian of the averaged cell."""

import importlib.resources

import numpy as np
import pytest

from convavg import (
    CCM,
    DCM,
    OperatingPointRequest,
    derivative,
    linearize,
    parse_config,
    resolve_ports,
    solve_dc,
    state_jacobian,
)


def bundled(name):
    text = (importlib.resources.files("convavg") / "configs" / (name + ".conf")).read_text()
    return parse_config(text)


def central_jacobian(spec, d, x, base):
    """Central differences, or None when a probe leaves the branch
    (mode or fallback) that ``base`` resolved."""
    J = np.zeros((4, 4))
    for j in range(4):
        h = 1e-6 * (abs(x[j]) + 1.0)
        cols = []
        for s in (+1.0, -1.0):
            xp = x.copy()
            xp[j] += s * h
            ports = resolve_ports(spec, d, xp)
            if (ports.mode, ports.fallback) != (base.mode, base.fallback):
                return None
            cols.append(derivative(spec, d, xp, ports))
        J[:, j] = (cols[0] - cols[1]) / (2.0 * h)
    return J


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
            J_fd = central_jacobian(spec, d, x, base)
            if J_fd is None:
                continue
            seen["fallback" if base.fallback else base.mode] += 1
            J = state_jacobian(spec, d, x, base)
            assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J_fd))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("name", ["sepic_bench", "cuk_bench"])
def test_state_jacobian_matches_linearize_at_bundled_point(name):
    parsed = bundled(name)
    op = solve_dc(OperatingPointRequest(spec=parsed.spec, D=parsed.duty))
    assert op.mode == DCM
    x = op.state.as_array()
    J = state_jacobian(parsed.spec, op.D, x, resolve_ports(parsed.spec, op.D, x))
    A = linearize(parsed.spec, op).A
    assert np.max(np.abs(J - A)) <= 1e-8 * np.max(np.abs(A))
