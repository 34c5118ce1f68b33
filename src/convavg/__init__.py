"""Averaged-model simulation of two-switch DC-DC converters.

The switch pair of a SEPIC or Cuk converter is replaced by its
switching-period average — an effective-duty transformer feeding an
effective resistance — giving a continuous model that resolves CCM/DCM
operation by itself.  On top of that sit a DC operating-point solver,
a large-signal transient integrator, small-signal transfer functions
with stability margins, and a cycle-by-cycle switched reference
simulation for validation.  The transient, small-signal and switched
names are imported when first used; only the last two load numpy.
"""

import importlib

from .converter import (SEPIC, CUK, ConverterSpec, OperatingPointRequest,
                        ValidationError, dcm_predicted, effective_resistance,
                        equivalent_inductance)
from .switchcell import CCM, DCM
from .avgmodel import PortSolution, derivative, jacobian_columns, resolve_ports
from .dc import (NonConvergence, OperatingPoint, SingularJacobian,
                 SolverError, StateVector, solve_dc, sweep_duty)
from .config import ParseError, ParsedConfig, parse_config

# Names served on first access (PEP 562).  smallsignal and switched import
# numpy; transient does not, but its module and its fractions import still
# cost more than a DC solve, so it stays off the import path too.
_LAZY = {name: module for module, names in (
    ("transient", "StepSizeUnderflow Stimulus TransientStats Waveform simulate"),
    ("smallsignal", "DegenerateOperatingPoint FrequencyResponse LinearModel Margins "
     "default_frequency_grid frequency_response linearize transfer_at"),
    ("switched", "CycleSummary SwitchIntervalDuties SwitchedRunConfig SwitchedWaveform "
     "cycle_average run_switched"),
) for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "SEPIC", "CUK", "ConverterSpec", "OperatingPointRequest",
    "ValidationError", "dcm_predicted", "effective_resistance",
    "equivalent_inductance",
    "CCM", "DCM",
    "PortSolution", "derivative", "jacobian_columns", "resolve_ports",
    "NonConvergence", "OperatingPoint", "SingularJacobian", "SolverError",
    "StateVector", "solve_dc", "sweep_duty",
    *_LAZY,
    "ParseError", "ParsedConfig", "parse_config",
    "__version__",
]
