"""Averaged-model simulation of two-switch DC-DC converters.

The switch pair of a SEPIC or Cuk converter is replaced by its
switching-period average — an effective-duty transformer feeding an
effective resistance — giving a continuous model that resolves CCM/DCM
operation by itself.  On top of that sit a DC operating-point solver,
a large-signal transient integrator, small-signal transfer functions
with stability margins, and a cycle-by-cycle switched reference
simulation for validation.
"""

from .converter import (SEPIC, CUK, ConverterSpec, OperatingPointRequest,
                        ValidationError, dcm_predicted, effective_resistance,
                        equivalent_inductance)
from .switchcell import (CCM, DCM, AveragedPortState, SwitchIntervalDuties,
                         average_switch_waveforms)
from .avgmodel import PortSolution, derivative, resolve_ports, state_jacobian
from .dc import (NonConvergence, OperatingPoint, SingularJacobian,
                 SolverError, StateVector, initial_guess, solve_dc,
                 sweep_duty)
from .transient import StepSizeUnderflow, Stimulus, TransientStats, Waveform, simulate
from .smallsignal import (DegenerateOperatingPoint, FrequencyResponse,
                          LinearModel, Margins, default_frequency_grid,
                          extract_margins, frequency_response, linearize,
                          transfer_at)
from .switched import (CycleSummary, SwitchedRunConfig, SwitchedWaveform,
                       cycle_average, run_switched)
from .config import ParseError, ParsedConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "SEPIC", "CUK", "ConverterSpec", "OperatingPointRequest",
    "ValidationError", "dcm_predicted", "effective_resistance",
    "equivalent_inductance",
    "CCM", "DCM", "AveragedPortState", "SwitchIntervalDuties",
    "average_switch_waveforms",
    "PortSolution", "derivative", "resolve_ports", "state_jacobian",
    "NonConvergence", "OperatingPoint", "SingularJacobian", "SolverError",
    "StateVector", "initial_guess", "solve_dc", "sweep_duty",
    "StepSizeUnderflow", "Stimulus", "TransientStats", "Waveform", "simulate",
    "DegenerateOperatingPoint", "FrequencyResponse", "LinearModel",
    "Margins", "default_frequency_grid", "extract_margins",
    "frequency_response", "linearize", "transfer_at",
    "CycleSummary", "SwitchedRunConfig", "SwitchedWaveform",
    "cycle_average", "run_switched",
    "ParseError", "ParsedConfig", "parse_config",
    "__version__",
]
