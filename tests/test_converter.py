"""Tests for converter specs and the derived scalar quantities."""

import dataclasses
import math

import pytest

from convavg import (
    SEPIC,
    OperatingPointRequest,
    ValidationError,
    dcm_predicted,
    effective_resistance,
    equivalent_inductance,
)
from strategies import CUK_BENCH, SEPIC_BENCH


def sepic_bench(**overrides):
    return dataclasses.replace(SEPIC_BENCH, **overrides)


def cuk_bench(**overrides):
    return dataclasses.replace(CUK_BENCH, **overrides)


def test_equivalent_inductance_table1():
    # 13 mH || 166 uH
    leq = equivalent_inductance(sepic_bench())
    assert abs(leq - 1.6390703327e-4) < 1e-12
    assert abs(leq - 163.90e-6) / 163.90e-6 < 1e-4


def test_equivalent_inductance_symmetric_pair():
    leq = equivalent_inductance(cuk_bench())
    assert leq == pytest.approx(0.5e-3, rel=1e-12)


def test_equivalent_inductance_limit_case():
    spec = sepic_bench(L1=1.0, L2=1e9)
    assert equivalent_inductance(spec) == pytest.approx(1.0, rel=2e-9)


def test_equivalent_inductance_symmetry_and_bound():
    a = sepic_bench(L1=3e-3, L2=7e-4)
    b = sepic_bench(L1=7e-4, L2=3e-3)
    assert equivalent_inductance(a) == equivalent_inductance(b)
    assert equivalent_inductance(a) < min(a.L1, a.L2)


def test_effective_resistance_table1():
    re = effective_resistance(sepic_bench(), 0.2)
    assert abs(re - 4.0976758317e2) < 1e-7
    assert re == pytest.approx(409.76, rel=1e-4)


def test_effective_resistance_table2():
    re = effective_resistance(cuk_bench(), 0.42)
    assert re == pytest.approx(113.38, rel=1e-4)
    assert abs(re - 1.1337868481e2) < 1e-7


def test_effective_resistance_unit_duty():
    spec = sepic_bench()
    assert effective_resistance(spec, 1.0) == pytest.approx(
        2.0 * equivalent_inductance(spec) * spec.f_s, rel=1e-12)


def test_effective_resistance_rejects_zero_duty():
    with pytest.raises(ValidationError):
        effective_resistance(sepic_bench(), 0.0)


def test_effective_resistance_scaling_invariant():
    # Re(D) * D^2 is constant over D
    spec = sepic_bench()
    ref = 2.0 * equivalent_inductance(spec) * spec.f_s
    for d in (0.05, 0.2, 0.5, 0.77, 0.99):
        assert effective_resistance(spec, d) * d * d == pytest.approx(ref, rel=1e-12)


def test_effective_resistance_decreasing_in_duty():
    spec = cuk_bench()
    values = [effective_resistance(spec, d) for d in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_dcm_predicted_table1():
    # K = 2*163.9uH*50kHz/52 = 0.315 < 0.8^2
    assert dcm_predicted(sepic_bench(), 0.2) is True


def test_dcm_predicted_table2():
    # K = 0.2 < 0.58^2 = 0.336
    assert dcm_predicted(cuk_bench(), 0.42) is True


def test_dcm_predicted_heavy_load_forces_ccm():
    spec = sepic_bench(R=1e-6)
    assert dcm_predicted(spec, 0.2) is False
    assert dcm_predicted(spec, 0.9) is False


def test_dcm_predicted_monotone_in_duty():
    # once discontinuous at some duty, also discontinuous at every
    # smaller duty (deeper DCM)
    spec = sepic_bench(ideal=True)
    duties = [0.05 + 0.05 * k for k in range(18)]
    flags = [dcm_predicted(spec, d) for d in duties]
    seen_false = False
    for flag in flags:
        if not flag:
            seen_false = True
        elif seen_false:
            pytest.fail("dcm_predicted not monotone over duty")


def test_dcm_predicted_boundary_duty():
    # K = (1-D)^2 exactly: the boundary counts as CCM
    spec = sepic_bench(ideal=True)
    k = 2.0 * equivalent_inductance(spec) * spec.f_s / spec.R
    d_star = 1.0 - math.sqrt(k)
    assert abs(d_star - 0.43856805113465) < 1e-11
    assert dcm_predicted(spec, d_star) is False
    assert dcm_predicted(spec, d_star - 1e-9) is True
    for bad in (0.0, 1.0):      # outside the open duty interval
        with pytest.raises(ValidationError):
            dcm_predicted(spec, bad)


def test_ideal_flag_zeroes_parasitics():
    spec = sepic_bench(ideal=True)
    for name in ("R_L1", "R_L2", "R_on1", "V_d", "R_d", "R_C1", "R_C2"):
        assert getattr(spec, name) == 0.0


def test_kind_is_normalized():
    spec = sepic_bench(kind="SEPIC")
    assert spec.kind == SEPIC
    with pytest.raises(ValidationError):
        sepic_bench(kind="boost")


def test_positive_fields_validated():
    for name in ("L1", "L2", "C1", "C2", "f_s", "R"):
        with pytest.raises(ValidationError):
            sepic_bench(**{name: 0.0})
        with pytest.raises(ValidationError):
            sepic_bench(**{name: -1.0})


def test_negative_parasitic_rejected():
    with pytest.raises(ValidationError):
        sepic_bench(R_C1=-0.1)
    with pytest.raises(ValidationError):
        cuk_bench(V_d=-0.7)


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        sepic_bench(Vg=float("nan"))
    with pytest.raises(ValidationError):
        sepic_bench(L2=float("inf"))


def test_zero_supply_voltage_allowed():
    # Vg = 0 is a legal (dead) source; used by the no-excitation case
    spec = sepic_bench(Vg=0.0, ideal=True)
    assert spec.Vg == 0.0


def test_duty_domain():
    spec = sepic_bench()
    OperatingPointRequest(spec=spec, D=0.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            OperatingPointRequest(spec=spec, D=bad)
