"""Large-signal averaged network: port resolution and state derivatives.

The switch pair is replaced in place by its period-average: a dependent
voltage source in the transistor position and a dependent current source
in the diode position, tied together by the (1-mu):mu transformer
relations, with the conduction drops (R_on1 on the transistor side; V_d
weighted by the diode conduction fraction, plus R_d, on the diode side)
in series.  Kirchhoff's laws around either topology then reduce the cell
to three scalars:

* ``i_sum``  -- summed inductor current entering the cell,
* ``W``      -- total voltage across the two transformer ports in
                series (the loop voltage the cell splits between its
                windings: V1 = (1-mu)*W, V2 = mu*W),
* ``mu``     -- effective duty.

In continuous conduction mu is the commanded duty D.  In discontinuous
conduction mu is pinned by the effective-resistance law
mu = V2/(V2 + Re*I1); because V2 and I1 themselves depend on mu through
the network, the value used here is the root of

    g(mu) = (mu - 1)*W(mu) + mu*Re*i_sum = 0,   W(mu) = a + b*mu + c*(1-mu)/mu

where a, b, c collect the topology's loop voltages (a: capacitor and
load-node contributions, b: current-proportional drops, c = V_d*D the
diode-drop term carrying the conduction fraction D*(1-mu)/mu).  g is
smooth and bracketed on (0, 1), so a safeguarded Newton iteration from
the c = 0 closed form converges in a handful of steps.

The larger of the two candidates wins: mu = max(D, mu_dcm), with ties
resolved to continuous conduction.  h(mu) = mu*g(mu) is a polynomial of
degree at most 3 with leading coefficient b <= 0, h(0) = -c <= 0 and
h(1) = Re*i_sum >= 0, so g has exactly one root in (0, 1), below which
it is negative: the root exceeds D exactly when g(D) < 0.  The root is
solved only then, at a D on the mu floor (a root below the floor comes
back just above it, so DCM), or when mu_candidate is read.  Degenerate
operating points (negative summed current, or no positive loop voltage
to drive the cell) fall back to mu = D and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

from .converter import ConverterSpec, SEPIC, equivalent_inductance
from .switchcell import CCM, DCM

# Effective duty is clamped below 1 by this margin so the transformer
# ratio (1-mu)/mu stays finite at vanishing load current.
MU_CLAMP_EPS = 1e-9
_MU_FLOOR = 1e-12
_DIRECTIONS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
               (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0))


@dataclass(slots=True)
class PortSolution:
    """Resolved averaged-cell operating point at one (state, duty) pair."""

    mu: float
    mode: str
    fallback: bool        # True when the degenerate-point guard tripped
    V1: float             # transformer-port voltages [V]
    V2: float
    I1: float             # port currents [A]
    I2: float
    i_c1: float           # coupling-capacitor current [A]
    i_c2: float           # output-capacitor current [A]
    v_node1: float        # voltage at the transistor node [V]
    v_node2: float        # voltage at the diode-side coupling node [V]
    v_out: float          # load-node voltage [V]
    _candidate: float = field(default=None, repr=False, compare=False)
    _loop: tuple = field(default=None, repr=False, compare=False)  # a, b, c, Re*i_sum

    @property
    def mu_candidate(self):
        """DCM-law root before comparison with D (D at a fallback point)."""
        if self._candidate is None:
            self._candidate = _solve_mu_dcm(*self._loop)
        return self._candidate


def _cell(spec):
    """Per-spec constants (sepic, R + R_C2, share R*R_C2/(R + R_C2), b_s of
    b = b_s*i_sum, 2*L_eq*f_s), kept on the spec; dataclasses.replace drops them."""
    cell = getattr(spec, "_cell", None)
    if cell is None:
        sepic, R, R_C2 = spec.kind == SEPIC, spec.R, spec.R_C2
        rr = R + R_C2
        share = R * R_C2 / rr if sepic else 0.0
        b_s = (-(spec.R_C1 + share + spec.R_d + spec.R_on1) if sepic
               else -(spec.R_C1 + spec.R_d + spec.R_on1))
        cell = (sepic, rr, share, b_s, 2.0 * equivalent_inductance(spec) * spec.f_s)
        object.__setattr__(spec, "_cell", cell)
    return cell


def _solve_mu_dcm(a, b, c, re_i):
    """Root of g(mu) = (mu-1)*W(mu) + mu*re_i on (0, 1).

    ``re_i`` is Re * i_sum.  Starts from the exact c = 0 quadratic root
    and polishes with Newton steps safeguarded by a shrinking bracket.
    """
    # c = 0 reduction: b*mu^2 + (a - b + re_i)*mu - a = 0, positive root
    # written in the cancellation-free form.
    p = a - b + re_i
    disc = p * p + 4.0 * a * b
    if disc < 0.0:
        disc = 0.0
    mu = 2.0 * a / (p + sqrt(disc))
    lo, hi = _MU_FLOOR, 1.0 - 1e-15
    if not (lo < mu < hi):
        mu = 0.5 * (lo + hi)
    scale = abs(a) + abs(b) + abs(c) + abs(re_i) + 1e-300
    for _ in range(60):
        w = a + b * mu + c * (1.0 - mu) / mu
        g = (mu - 1.0) * w + mu * re_i
        if g > 0.0:
            hi = mu
        else:
            lo = mu
        if abs(g) <= 1e-14 * scale:
            break
        dw = b - c / (mu * mu)
        dg = w + (mu - 1.0) * dw + re_i
        if dg != 0.0:
            step = g / dg
            nxt = mu - step
        else:
            nxt = 0.5 * (lo + hi)
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) <= 1e-16:
            mu = nxt
            break
        mu = nxt
    return mu


def resolve_ports(spec: ConverterSpec, d: float, x) -> PortSolution:
    """Resolve the averaged cell at state x = (i_L1, i_L2, v_C1, v_C2).

    Duty values outside (0, 1) are clamped just inside it, so callers
    integrating arbitrary stimuli never hand the cell a degenerate
    commanded duty.
    """
    i_L1, i_L2, v_C1, v_C2 = float(x[0]), float(x[1]), float(x[2]), float(x[3])
    d = min(max(d, _MU_FLOOR), 1.0 - MU_CLAMP_EPS)
    sepic, rr, share, b_s, k_re = _cell(spec)
    R, R_C1, R_C2, R_d = spec.R, spec.R_C1, spec.R_C2, spec.R_d
    i_sum = i_L1 + i_L2
    a = (v_C1 + R_C1 * i_L1 + (R * v_C2) / rr + share * i_sum + R_d * i_sum if sepic
         else v_C1 + R_C1 * i_L1 + R_d * i_sum)       # W(mu) = a + b*mu + c*(1-mu)/mu
    b = b_s * i_sum
    c = spec.V_d * d if i_sum > 0.0 else 0.0

    fallback = (i_sum < 0.0) or (a <= 0.0)
    mu, mode, mu_candidate, re_i = d, CCM, d, 0.0
    w = a + b * d + c * (1.0 - d) / d         # W(mu) at mu = d
    if not fallback:
        re_i = k_re / (d * d) * i_sum     # Re = 2*L_eq*f_s/d**2
        if d > _MU_FLOOR and (d - 1.0) * w + d * re_i >= 0.0:    # g(d) >= 0: CCM
            mu_candidate = None
        else:
            mu_candidate = _solve_mu_dcm(a, b, c, re_i)
            if mu_candidate > d:
                mu = min(mu_candidate, 1.0 - MU_CLAMP_EPS)
                mode = DCM
                w = a + b * mu + c * (1.0 - mu) / mu

    nu = 1.0 - mu
    V1 = nu * w
    V2 = mu * w
    I1 = mu * i_sum
    I2 = nu * i_sum
    i_c1 = nu * i_L1 - mu * i_L2
    v_node1 = V1 + spec.R_on1 * I1

    if sepic:
        i_c2 = (R * I2 - v_C2) / rr
        v_out = v_C2 + R_C2 * i_c2
        v_node2 = v_node1 - v_C1 - R_C1 * i_c1
    else:
        d2e = d * nu / mu     # diode conduction fraction
        diode_drop = (spec.V_d * d2e if i_sum > 0.0 else 0.0) + R_d * I2
        i_c2 = -(R * i_L2 + v_C2) / rr
        v_out = v_C2 + R_C2 * i_c2
        v_node2 = -V2 + diode_drop

    # positional: keyword parsing would cost a third of a CCM resolve
    return PortSolution(mu, mode, fallback, V1, V2, I1, I2, i_c1, i_c2,
                        v_node1, v_node2, v_out, mu_candidate, (a, b, c, re_i))


def derivative(spec: ConverterSpec, d: float, x, ports: PortSolution = None):
    """Averaged state derivative d/dt (i_L1, i_L2, v_C1, v_C2) as four
    floats.

    Pass a pre-resolved ``ports`` to avoid resolving the cell twice.
    """
    if ports is None:
        ports = resolve_ports(spec, d, x)
    i_L1, i_L2 = float(x[0]), float(x[1])
    di_L1 = (spec.Vg - spec.R_L1 * i_L1 - ports.v_node1) / spec.L1
    if spec.kind == SEPIC:
        di_L2 = -(ports.v_node2 + spec.R_L2 * i_L2) / spec.L2
    else:
        di_L2 = (ports.v_out - ports.v_node2 - spec.R_L2 * i_L2) / spec.L2
    dv_C1 = ports.i_c1 / spec.C1
    dv_C2 = ports.i_c2 / spec.C2
    return di_L1, di_L2, dv_C1, dv_C2


def jacobian_columns(spec: ConverterSpec, d: float, x, ports: PortSolution,
                     count: int):
    """The first ``count`` columns of [A | B_d], each a 4-tuple of floats,
    along _DIRECTIONS: the unit states, then the duty.

    A is the 4x4 d(derivative)/dx and B_d the 4-vector d(derivative)/dd,
    on the branch ``ports`` = resolve_ports(spec, d, x) picked (its loop
    coefficients a, b, c are reused).  Each column pushes one unit
    direction through the port relations.  a and b are linear in the
    state, so their change along a unit state direction is their value
    there; along the duty c = V_d*d moves by c/d and Re = 2*L_eq*f_s/d**2
    by -2*Re/d.  In DCM the effective duty moves by dmu = -g_p/g_mu
    (implicit function theorem on g, p the direction); in CCM and at a
    fallback point mu = d moves with the duty alone; at the mu clamp it
    stays put.  A duty that resolve_ports clamped gets a zero B_d.  The
    diode-drop switch at i_sum = 0 is piecewise constant and contributes
    nothing.
    """
    i_sum = float(x[0]) + float(x[1])
    d_in = d
    d = min(max(d, _MU_FLOOR), 1.0 - MU_CLAMP_EPS)
    a, b, c, _ = ports._loop
    sepic, rr, share, b_s, k_re = _cell(spec)
    mu = ports.mu
    w = a + b * mu + c * (1.0 - mu) / mu
    w_mu = b - c / (mu * mu)
    re = 0.0
    k_mu = 0.0              # dmu = k_mu * (change of g at fixed mu)
    if ports.mode == DCM and mu == ports.mu_candidate:
        re = k_re / (d * d)
        k_mu = -1.0 / (w + (mu - 1.0) * w_mu + re * i_sum)
    mu_d = 1.0 if ports.mode == CCM else 0.0    # mu = d: CCM and fallback
    R, R_C1, R_C2, R_L2, R_d = spec.R, spec.R_C1, spec.R_C2, spec.R_L2, spec.R_d
    R_on1, R_L1, L1, L2, C1, C2 = spec.R_on1, spec.R_L1, spec.L1, spec.L2, spec.C1, spec.C2
    nu, mu_re, mu_i, c_mu = 1.0 - mu, mu * re, mu * i_sum, c / (mu * mu)
    # resolve_ports' a along each direction, summed in its order; b along
    # a direction is b_s times the direction's summed current.
    a_dir = ((R_C1 + share + R_d, share + R_d, 1.0, R / rr, 0.0) if sepic
             else (R_C1 + R_d, R_d, 1.0, 0.0, 0.0))
    cols = []
    for j in range(count):
        e0, e1, e2, e3 = _DIRECTIONS[j]
        dc = dre = dmu = 0.0    # duty-driven changes of c, Re and mu
        if j == 4 and d == d_in:    # a duty resolve_ports clamped moves nothing
            dc, dre, dmu = c / d, -2.0 * re / d, mu_d
        ds = e0 + e1
        dw_fixed = a_dir[j] + b_s * ds * mu + dc * nu / mu
        dmu += k_mu * ((mu - 1.0) * dw_fixed + mu_re * ds + mu_i * dre)
        dw = dw_fixed + w_mu * dmu
        dI1 = mu * ds + i_sum * dmu
        dI2 = nu * ds - i_sum * dmu
        di_c1 = nu * e0 - mu * e1 - i_sum * dmu
        dv_node1 = nu * dw - w * dmu + R_on1 * dI1
        if sepic:
            di_c2 = (R * dI2 - e3) / rr
            dv_node2 = dv_node1 - e2 - R_C1 * di_c1
            df2 = -(dv_node2 + R_L2 * e1) / L2
        else:
            di_c2 = -(R * e1 + e3) / rr
            dv_node2 = (-(mu * dw + w * dmu) + dc * nu / mu
                        - c_mu * dmu + R_d * dI2)
            dv_out = e3 + R_C2 * di_c2
            df2 = (dv_out - dv_node2 - R_L2 * e1) / L2
        cols.append(((-R_L1 * e0 - dv_node1) / L1, df2, di_c1 / C1, di_c2 / C2))
    return cols
