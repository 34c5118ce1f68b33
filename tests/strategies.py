"""Shared test fixtures: the two bench converters, the bundled configs,
and the Hypothesis strategies for the property tests over random
converters."""

import importlib.resources

from hypothesis import strategies as st

from convavg import CUK, SEPIC, ConverterSpec, parse_config

# the bundled sepic_bench and cuk_bench configs, written out
SEPIC_BENCH = ConverterSpec(kind=SEPIC, Vg=62.0, R=52.0, L1=13e-3, L2=166e-6,
                            C1=0.5e-6, C2=1000e-6, f_s=50e3, R_L1=0.13, R_L2=0.11,
                            R_on1=0.031, V_d=0.7, R_d=0.12, R_C1=0.27, R_C2=0.11)
CUK_BENCH = ConverterSpec(kind=CUK, Vg=25.0, R=100.0, L1=1e-3, L2=1e-3,
                          C1=850e-6, C2=47e-6, f_s=20e3, R_L1=0.15, R_L2=0.2,
                          R_on1=0.031, V_d=0.75, R_d=0.11, R_C1=0.2, R_C2=0.3)


def bundled(name):
    """The bundled config ``name`` (sepic_bench or cuk_bench), parsed."""
    path = importlib.resources.files("convavg") / "configs" / (name + ".conf")
    return parse_config(path.read_text())


def decades(lo, hi):
    """Floats spread log-uniformly over 10**lo .. 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def converter_specs(draw, ideal=None):
    """A random valid SEPIC or Cuk converter over decades of Vg, R, L, C
    and f_s; ideal, or with parasitics, unless ``ideal`` pins which."""
    if ideal is None:
        ideal = draw(st.booleans())
    parasitics = {}
    if not ideal:
        parasitics = {name: draw(decades(-4, 0)) for name in
                      ("R_L1", "R_L2", "R_on1", "R_d", "R_C1", "R_C2")}
        parasitics["V_d"] = draw(st.floats(0.0, 1.0))
    return ConverterSpec(kind=draw(st.sampled_from([SEPIC, CUK])),
                         Vg=draw(decades(0, 3)), R=draw(decades(-1, 4)),
                         L1=draw(decades(-6, -1)), L2=draw(decades(-6, -1)),
                         C1=draw(decades(-7, -2)), C2=draw(decades(-7, -2)),
                         f_s=draw(decades(3, 6)), ideal=ideal, **parasitics)
