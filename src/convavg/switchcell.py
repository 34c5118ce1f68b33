"""Averaged two-port description of the MOSFET/diode switch cell.

Averaging the switch pair over one period turns the converter into a
continuous-time circuit in which the pair behaves as a (1-mu):mu ideal
transformer.  The effective duty mu equals the commanded duty D whenever
the cell is in continuous conduction and rises above D in discontinuous
conduction, where the transistor port looks like the effective
resistance Re = 2*L_eq*f_s/D**2 and the absorbed power reappears at the
diode port.

Port sign conventions used throughout the package:

* V1, I1 -- average voltage across / current through the transistor
  position (I1 > 0 when the cell is processing power).
* V2, I2 -- average voltage blocked by / current through the diode
  position, with V2 > 0 while the diode blocks in normal operation.

The mu-based averaged network itself lives in ``avgmodel``; this module
holds the mode tags, the effective-duty clamp and the interval-duty
record.  ``average_switch_waveforms`` reconstructs the four port
averages from a converter state and a measured set of interval duty
ratios; it is the verification-side counterpart of the mu-based model
and is compared against cycle averages of the switched circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .converter import ConverterSpec, SEPIC, ValidationError

CCM = "CCM"
DCM = "DCM"

# Effective duty is clamped below 1 by this margin so the transformer
# ratio (1-mu)/mu stays finite at vanishing load current.
MU_CLAMP_EPS = 1e-9

_DUTY_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SwitchIntervalDuties:
    """Fractions of the switching period spent in each interval.

    D1: transistor conducting, D2: diode conducting, D3: both off.
    The three must be non-negative and sum to one.
    """

    D1: float
    D2: float
    D3: float

    def __post_init__(self):
        for name in ("D1", "D2", "D3"):
            value = getattr(self, name)
            if not (-_DUTY_SUM_TOL <= value <= 1.0 + _DUTY_SUM_TOL):
                raise ValidationError("%s must lie in [0, 1], got %r" % (name, value))
        total = self.D1 + self.D2 + self.D3
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(
                "interval duties must sum to 1, got %.12g" % (total,))


@dataclass(frozen=True)
class AveragedPortState:
    """Average switch-cell port quantities over one period."""

    V1: float
    V2: float
    I1: float
    I2: float
    mu: float
    mode: str


def average_switch_waveforms(spec: ConverterSpec, duties: SwitchIntervalDuties,
                             state) -> AveragedPortState:
    """Port averages of the cell for the given interval duties.

    Interval-by-interval the blocked/conducted voltages are combinations
    of the capacitor voltages; drops on the conducting device (R_on1,
    V_d, R_d) are taken at the conduction-interval mean of the summed
    inductor current, which is what the triangular current waveform
    actually averages to over the conducting sub-period.  An ideal spec
    has these drops zeroed, which gives the lossless reconstruction.
    """
    i_L1, i_L2, v_C1, v_C2 = state.i_L1, state.i_L2, state.v_C1, state.v_C2
    D1, D2, D3 = duties.D1, duties.D2, duties.D3
    conducting = D1 + D2
    i_sum = i_L1 + i_L2
    i_cond = i_sum / conducting if conducting > 0.0 else 0.0

    I1 = D1 * i_cond
    I2 = D2 * i_cond
    drop_on = spec.R_on1 * i_cond
    drop_d = spec.V_d + spec.R_d * i_cond

    if spec.kind == SEPIC:
        V1 = D1 * drop_on + D2 * (v_C1 + v_C2 + drop_d) + D3 * v_C1
        V2 = D1 * (v_C1 + v_C2 - drop_on) - D2 * drop_d + D3 * v_C2
    else:
        # Cuk: v_C2 carries the (negative) output polarity, so the
        # signed combinations below match the magnitudes seen on the
        # physical nodes.
        V1 = D1 * drop_on + D2 * (v_C1 + drop_d) + D3 * (v_C1 + v_C2)
        V2 = D1 * (v_C1 - drop_on) - D2 * drop_d - D3 * v_C2

    mu = D1 / conducting if conducting > 0.0 else 1.0 - MU_CLAMP_EPS
    mode = DCM if D3 > 1e-9 else CCM
    return AveragedPortState(V1=V1, V2=V2, I1=I1, I2=I2, mu=mu, mode=mode)
