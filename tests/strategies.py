"""Hypothesis strategies for the property tests over random converters."""

from hypothesis import strategies as st

from convavg import CUK, SEPIC, ConverterSpec


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
