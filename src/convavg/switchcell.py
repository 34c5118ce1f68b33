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
record that the switched reference measures each cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .converter import ValidationError

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
