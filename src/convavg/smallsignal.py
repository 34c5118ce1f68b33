"""Small-signal linearization and frequency responses.

The averaged model is linearized analytically around a DC operating
point into a state-space quadruple per input (duty and source voltage).
The derivatives are those of the branch the port resolution picks at
the operating point: the same chain rule through the port relations
that the DC Newton iteration and the transient use
(avgmodel.jacobian_columns).  An operating point lying on the mode
boundary is flagged as degenerate; a tie resolves to continuous
conduction.  Transfer functions are evaluated over a whole frequency
grid with one batched solve of the stacked resolvents; a sample whose
resolvent is singular reads inf, found from the LU of the same batch.
frequency_response reads the gain and phase margins off the finite
samples on one log-frequency axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .avgmodel import jacobian_columns, resolve_ports
from .converter import ConverterSpec, ValidationError
from .dc import MAX_SWEEP_POINTS, OperatingPoint

_KINK_TOL = 1e-9


class DegenerateOperatingPoint(UserWarning):
    """Operating point sits exactly on the mode-selection kink."""


@dataclass(frozen=True)
class LinearModel:
    """State-space linearization  dx/dt = A x + B_d d + B_g vg,  v0 = C x + D_d d + D_g vg."""

    A: np.ndarray
    B_d: np.ndarray
    B_g: np.ndarray
    C: np.ndarray
    D_d: float
    D_g: float
    spec: ConverterSpec
    D: float
    degenerate: bool = False


@dataclass(frozen=True)
class Margins:
    phase_margin_deg: object      # float, or None without a gain crossover
    gain_crossover_hz: object
    gain_margin_db: object        # float, inf without a phase crossover
    phase_crossover_hz: object


@dataclass(frozen=True)
class FrequencyResponse:
    f: np.ndarray
    response: np.ndarray          # complex transfer-function samples
    magnitude_db: np.ndarray
    phase_deg: np.ndarray         # unwrapped; NaN at an inf sample
    margins: Margins


def linearize(spec: ConverterSpec, op: OperatingPoint) -> LinearModel:
    """Linearize the averaged model around a solved operating point.

    The duty and the source voltage are treated as the two inputs; the
    load voltage is the output.  One port resolution feeds every
    derivative.  A degenerate operating point (mode boundary) produces a
    warning and a flagged model.
    """
    if not op.converged:
        raise ValidationError("cannot linearize an unconverged operating point")
    d = float(op.D)
    base = resolve_ports(spec, d, op.state)
    degenerate = abs(base.mu_candidate - d) <= _KINK_TOL * max(1.0, d)
    if degenerate:
        warnings.warn(
            "operating point lies on the mode boundary; "
            "linearizing the %s branch" % base.mode, DegenerateOperatingPoint)

    cols = jacobian_columns(spec, d, op.state, base, 5)
    A, B_d = np.array(cols[:4]).T, np.array(cols[4])
    # Vg drives only the L1 equation and never reaches the cell or v_out.
    B_g = np.array([1.0 / spec.L1, 0.0, 0.0, 0.0])
    # v_out = v_C2 + R_C2*i_c2 with i_c2 = C2*dv_C2/dt in both topologies
    esr = spec.R_C2 * spec.C2
    C = esr * A[3]
    C[3] += 1.0
    return LinearModel(A=A, B_d=B_d, B_g=B_g, C=C, D_d=float(esr * B_d[3]),
                       D_g=0.0, spec=spec, D=d, degenerate=bool(degenerate))


def _log_grid(f_lo, f_hi, points_per_decade):
    """Logarithmic grid from f_lo to f_hi, both included, of at most MAX_SWEEP_POINTS."""
    if not points_per_decade >= 1:
        raise ValidationError("points per decade must be at least 1, got %r"
                              % (points_per_decade,))
    if not 0.0 < f_lo < f_hi < np.inf:
        raise ValidationError("need 0 < f_lo < f_hi < inf, got %r and %r" % (f_lo, f_hi))
    span = (np.log10(f_hi) - np.log10(f_lo)) * points_per_decade
    if not span < MAX_SWEEP_POINTS - 0.5:    # round(span) + 1 points
        raise ValidationError("frequency grid exceeds %d points" % MAX_SWEEP_POINTS)
    return np.logspace(np.log10(f_lo), np.log10(f_hi), max(2, int(round(span)) + 1))


def default_frequency_grid(spec: ConverterSpec, points_per_decade: int = 100) -> np.ndarray:
    """Logarithmic grid from 10 Hz up to half the switching frequency."""
    f_lo, f_hi = 10.0, 0.5 * spec.f_s
    if f_hi <= f_lo:
        raise ValidationError("switching frequency too low for the default grid")
    return _log_grid(f_lo, f_hi, points_per_decade)


def transfer_at(model: LinearModel, input: str, f):
    """Evaluate the selected transfer function at frequencies f (Hz);
    inf where the resolvent sI - A is singular."""
    if input == "duty":
        B, D_feed = model.B_d, model.D_d
    elif input == "source":
        B, D_feed = model.B_g, model.D_g
    else:
        raise ValidationError("input must be 'duty' or 'source', got %r" % (input,))
    f = np.atleast_1d(np.asarray(f, dtype=float))
    s = 2j * np.pi * f
    resolvents = s[:, None, None] * np.eye(model.A.shape[0]) - model.A
    try:
        return np.linalg.solve(resolvents, B[:, None])[:, :, 0] @ model.C + D_feed
    except np.linalg.LinAlgError:
        pass
    # some resolvent is singular: an eigenvalue sits on the imaginary
    # axis at exactly that frequency.  slogdet factors each resolvent
    # as the solve did and reads sign 0 on the same exact zero pivot;
    # the other rows are solved and contracted in one product, as a
    # row's last bit depends on how many rows the product holds.
    out = np.full(f.shape, complex(np.inf, 0.0))
    solvable = np.linalg.slogdet(resolvents)[0] != 0
    if solvable.any():
        out[solvable] = (np.linalg.solve(resolvents[solvable], B[:, None])[:, :, 0]
                         @ model.C + D_feed)
    return out


def _normalize_phase(phase, negative_dc_gain):
    """Shift an unwrapped phase (degrees) into the reporting branch.

    The first sample is an angle in [-180, 180]; the branch puts it
    into (-360, 0] by one turn at most, so an integrator
    chain reads as accumulated lag (a flat +90 reads as -270).  A
    response with negative DC gain is folded by +180 so margins refer
    to the sign-corrected loop and a phase margin above 180 degrees
    stays representable.
    """
    shift = -360.0 if phase.size and phase[0] > 0.0 else 0.0
    if negative_dc_gain:
        shift += 180.0
    return phase + shift


def _crossings(lf, y):
    """Positions on the log-frequency axis lf where the samples y cross
    zero, in grid order.

    A sample that is exactly zero counts at its own position; a sign
    change between neighbours is interpolated linearly in lf.
    """
    hits = [lf[i] if y[i] == 0.0
            else lf[i] + (0.0 - y[i]) / (y[i + 1] - y[i]) * (lf[i + 1] - lf[i])
            for i in np.flatnonzero((y[:-1] == 0.0) | (y[:-1] * y[1:] < 0.0))]
    if y.size and y[-1] == 0.0:
        hits.append(lf[-1])
    return hits


def _gain_phase_margins(f, response, negative_dc_gain):
    """|H| in dB, the normalized phase, and the gain and phase margins
    read off them, from sampled frequency-response data.

    The phase margin is taken at the last unity-gain crossing; the gain
    margin is the worst case over all -180-degree crossings of the
    normalized phase (see _normalize_phase for the negative_dc_gain
    fold).  Crossings and the values read at them are interpolated on
    log f.
    """
    f = np.asarray(f, dtype=float)
    response = np.asarray(response, dtype=complex)
    if f.size < 2:
        raise ValidationError("margin extraction needs at least two samples")
    mag_db = 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))
    # a sample at a pole on the imaginary axis reads +inf dB and has no
    # phase: the phase is unwrapped, and the margins read, over the
    # finite samples alone
    finite = np.isfinite(mag_db)
    phase = np.full(f.shape, np.nan)
    phase[finite] = _normalize_phase(np.degrees(np.unwrap(np.angle(response[finite]))),
                                     negative_dc_gain)
    lf, mag, ph = np.log10(f[finite]), mag_db[finite], phase[finite]

    pm = None
    f_gc = None
    gain_crossings = _crossings(lf, mag)
    if gain_crossings:
        hit = gain_crossings[-1]
        f_gc = 10.0 ** hit
        pm = 180.0 + float(np.interp(hit, lf, ph))

    gm = np.inf
    f_pc = None
    for hit in _crossings(lf, ph + 180.0):
        candidate = -float(np.interp(hit, lf, mag))
        if candidate < gm:
            gm = candidate
            f_pc = 10.0 ** hit

    return mag_db, phase, Margins(
        phase_margin_deg=pm, gain_crossover_hz=f_gc,
        gain_margin_db=float(gm) if np.isfinite(gm) else np.inf,
        phase_crossover_hz=f_pc)


def frequency_response(model: LinearModel, input: str = "duty",
                       f=None) -> FrequencyResponse:
    """Transfer function samples plus stability margins over a grid."""
    if f is None:
        f = default_frequency_grid(model.spec)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f <= 0.0):
        raise ValidationError("frequencies must be positive")
    if np.any(np.diff(f) <= 0.0):
        raise ValidationError("frequency grid must be strictly increasing")
    # s = 0 rides in the same batch: its sample is the DC gain, infinite
    # (so never folded) when A is singular
    H = transfer_at(model, input, np.concatenate(([0.0], f)))
    g0, H = H[0], H[1:]
    mag_db, phase, margins = _gain_phase_margins(f, H, g0.real < 0.0)
    return FrequencyResponse(f=f, response=H, magnitude_db=mag_db,
                             phase_deg=phase, margins=margins)
