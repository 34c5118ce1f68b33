"""Tests for the interval-weighted port reconstruction that the switched
tests compare against, fed the switched reference's interval-duty record
and tagged with the switch cell's conduction modes.  The duties'
invariant (D1 = D, D2 and D3 in [0, 1], sum 1, D3 = 0 in CCM) is checked
on every cycle of the switched runs in test_switched."""

import dataclasses

import pytest

from convavg import (
    CCM,
    DCM,
    SwitchIntervalDuties,
)
from convavg.dc import StateVector
from strategies import CUK_BENCH, SEPIC_BENCH
# the interval-weighted port reconstruction is a test-side reference of
# the switched circuit; it lives with the switched tests that use it
from test_switched import average_switch_waveforms


def sepic_bench(**overrides):
    return dataclasses.replace(SEPIC_BENCH, **overrides)


def cuk_bench(**overrides):
    return dataclasses.replace(CUK_BENCH, **overrides)


# --- interval duties -------------------------------------------------

def test_duties_ccm_has_zero_idle():
    d = SwitchIntervalDuties(D1=0.2, D2=0.8, D3=0.0)
    assert d.D3 == 0.0


# --- interval-weighted averages -------------------------------------

def test_ideal_sepic_currents_share_total():
    # the cell conducts the state's averaged total only during D1+D2, so
    # the port currents are conduction-weighted shares; with no idle
    # interval this reduces to the plain duty weighting
    spec = sepic_bench(ideal=True)
    duties = SwitchIntervalDuties(D1=0.2, D2=0.5, D3=0.3)
    state = StateVector(i_L1=0.4, i_L2=0.6, v_C1=62.0, v_C2=22.0)
    ap = average_switch_waveforms(spec, duties, state)
    assert ap.I1 == pytest.approx(0.2 / 0.7, rel=1e-12)
    assert ap.I2 == pytest.approx(0.5 / 0.7, rel=1e-12)
    assert ap.I1 / ap.I2 == pytest.approx(duties.D1 / duties.D2, rel=1e-12)

    ccm = SwitchIntervalDuties(D1=0.2, D2=0.8, D3=0.0)
    ap2 = average_switch_waveforms(spec, ccm, state)
    assert ap2.I1 == pytest.approx(0.2 * 1.0, rel=1e-12)
    assert ap2.I2 == pytest.approx(0.8 * 1.0, rel=1e-12)


def test_ideal_zero_total_current_gives_zero_ports():
    spec = sepic_bench(ideal=True)
    duties = SwitchIntervalDuties(D1=0.2, D2=0.5, D3=0.3)
    state = StateVector(i_L1=0.7, i_L2=-0.7, v_C1=62.0, v_C2=22.0)
    ap = average_switch_waveforms(spec, duties, state)
    assert ap.I1 == 0.0
    assert ap.I2 == 0.0


def test_nonideal_reduces_to_ideal_when_parasitics_vanish():
    duties = SwitchIntervalDuties(D1=0.3, D2=0.45, D3=0.25)
    state = StateVector(i_L1=0.9, i_L2=0.3, v_C1=40.0, v_C2=18.0)
    for make in (sepic_bench, cuk_bench):
        bare = make(R_L1=0.0, R_L2=0.0, R_on1=0.0, V_d=0.0, R_d=0.0,
                    R_C1=0.0, R_C2=0.0)
        ideal = make(ideal=True)
        a = average_switch_waveforms(bare, duties, state)
        b = average_switch_waveforms(ideal, duties, state)
        assert a.V1 == pytest.approx(b.V1, rel=1e-12, abs=1e-12)
        assert a.V2 == pytest.approx(b.V2, rel=1e-12, abs=1e-12)
        assert a.I1 == pytest.approx(b.I1, rel=1e-12, abs=1e-12)
        assert a.I2 == pytest.approx(b.I2, rel=1e-12, abs=1e-12)


def test_cuk_current_averages_nonideal():
    # conduction-weighted shares of the averaged total, independent of
    # parasitics; the D1:D2 split between the ports is exact
    spec = cuk_bench()
    duties = SwitchIntervalDuties(D1=0.42, D2=0.4, D3=0.18)
    state = StateVector(i_L1=0.22, i_L2=0.23, v_C1=48.0, v_C2=-23.0)
    ap = average_switch_waveforms(spec, duties, state)
    total = state.i_L1 + state.i_L2
    conducting = duties.D1 + duties.D2
    assert ap.I1 == pytest.approx(duties.D1 * total / conducting, rel=1e-12)
    assert ap.I2 == pytest.approx(duties.D2 * total / conducting, rel=1e-12)
    assert ap.I1 / ap.I2 == pytest.approx(duties.D1 / duties.D2, rel=1e-12)


def test_mode_tag_follows_idle_interval():
    spec = sepic_bench()
    state = StateVector(i_L1=0.15, i_L2=0.42, v_C1=62.0, v_C2=22.0)
    dcm = average_switch_waveforms(
        spec, SwitchIntervalDuties(D1=0.2, D2=0.55, D3=0.25), state)
    ccm = average_switch_waveforms(
        spec, SwitchIntervalDuties(D1=0.2, D2=0.8, D3=0.0), state)
    assert dcm.mode == DCM
    assert ccm.mode == CCM
