"""Converter descriptions and closed-form conduction-mode quantities.

SEPIC and Cuk converters share the same single-transistor switch cell:
one MOSFET, one diode, and two inductors whose summed current flows
through whichever switch is conducting.  This module holds the component
values for one converter instance plus the scalar quantities derived
directly from them: the parallel combination of the two inductances, the
effective resistance the cell presents at its transistor port in
discontinuous conduction, and the closed-form prediction of which
conduction mode a commanded duty cycle lands in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


SEPIC = "sepic"
CUK = "cuk"
_KINDS = (SEPIC, CUK)

# Component fields zeroed when a spec is declared ideal.
_PARASITIC_FIELDS = ("R_L1", "R_L2", "R_on1", "V_d", "R_d", "R_C1", "R_C2")


class ValidationError(ValueError):
    """A converter description violates one of its structural invariants."""


@dataclass(frozen=True)
class ConverterSpec:
    """Component values for one converter instance, all in SI units.

    Setting ``ideal=True`` forces every parasitic element (winding
    resistances, switch on-resistance, diode drop and slope resistance,
    capacitor ESRs) to zero regardless of the values passed in.
    """

    kind: str
    Vg: float            # supply voltage [V]
    R: float             # load resistance [ohm]
    L1: float            # input inductor [H]
    L2: float            # second inductor [H]
    C1: float            # coupling capacitor [F]
    C2: float            # output capacitor [F]
    f_s: float           # switching frequency [Hz]
    R_L1: float = 0.0    # L1 winding resistance [ohm]
    R_L2: float = 0.0    # L2 winding resistance [ohm]
    R_on1: float = 0.0   # MOSFET on-resistance [ohm]
    V_d: float = 0.0     # diode forward drop [V]
    R_d: float = 0.0     # diode slope resistance [ohm]
    R_C1: float = 0.0    # C1 equivalent series resistance [ohm]
    R_C2: float = 0.0    # C2 equivalent series resistance [ohm]
    ideal: bool = False

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in _KINDS:
            raise ValidationError(
                "kind must be one of %s, got %r" % ("/".join(_KINDS), self.kind))
        object.__setattr__(self, "kind", kind)
        if self.ideal:
            for name in _PARASITIC_FIELDS:
                object.__setattr__(self, name, 0.0)
        for name in ("L1", "L2", "C1", "C2", "f_s", "R"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValidationError("%s must be positive, got %r" % (name, value))
        for name in _PARASITIC_FIELDS:
            value = getattr(self, name)
            if not (value >= 0.0):
                raise ValidationError("%s must be non-negative, got %r" % (name, value))
        for f in fields(self):
            if f.name in ("kind", "ideal"):
                continue
            value = getattr(self, f.name)
            if value != value or value in (float("inf"), float("-inf")):
                raise ValidationError("%s must be finite, got %r" % (f.name, value))


def _check_duty(D):
    if not (0.0 < D < 1.0):
        raise ValidationError("duty cycle must lie in (0, 1), got %r" % (D,))


@dataclass(frozen=True)
class OperatingPointRequest:
    """A converter plus the commanded duty cycle to solve it at."""

    spec: ConverterSpec
    D: float

    def __post_init__(self):
        _check_duty(self.D)


def equivalent_inductance(spec: ConverterSpec) -> float:
    """Parallel combination L1*L2/(L1+L2) of the two inductors [H].

    During the transistor interval both inductors ramp from the same
    loop voltage, so the summed current ramps as if through this single
    equivalent inductance; it is the inductance that sets the
    discontinuous-conduction boundary for either topology.
    """
    return spec.L1 * spec.L2 / (spec.L1 + spec.L2)


def effective_resistance(spec: ConverterSpec, D: float) -> float:
    """Effective transistor-port input resistance in DCM [ohm].

    Re = 2 * L_eq * f_s / D**2.  In discontinuous conduction the averaged
    switch cell draws current from its transistor port like a resistor of
    this value, passing the absorbed power through to the diode port.
    Strictly decreasing in D; accepts 0 < D <= 1.
    """
    if not (0.0 < D <= 1.0):
        raise ValidationError(
            "effective resistance is defined for duty in (0, 1], got %r" % (D,))
    return 2.0 * equivalent_inductance(spec) * spec.f_s / (D * D)


def dcm_predicted(spec: ConverterSpec, D: float) -> bool:
    """Closed-form check whether duty D lands in discontinuous conduction.

    The summed inductor current stays positive all cycle (continuous
    conduction) exactly when the dimensionless load constant
    K = 2 * L_eq * f_s / R reaches (1 - D)**2; below that the diode
    current runs dry before the period ends.  Boundary itself counts as
    continuous conduction.
    """
    _check_duty(D)
    K = 2.0 * equivalent_inductance(spec) * spec.f_s / spec.R
    return K < (1.0 - D) ** 2
