"""Tests for the key-value config format."""

import dataclasses

import pytest

from convavg import ConverterSpec, ParseError, ValidationError, parse_config
from convavg.config import _CONVERTER_KEYS
from strategies import CUK_BENCH, SEPIC_BENCH, bundled

MINIMAL = """\
[converter]
kind = sepic
Vg = 62 V
R = 52 Ohm
L1 = 13 mH
L2 = 166 uH
C1 = 0.5 uF
C2 = 1000 uF
f_s = 50 kHz
"""


def test_bench_constants_match_the_bundled_configs():
    """The tests' written-out bench specs are the bundled configs, equal
    in every field."""
    for name, spec in (("sepic_bench", SEPIC_BENCH), ("cuk_bench", CUK_BENCH)):
        parsed = bundled(name).spec
        for field in dataclasses.fields(spec):
            assert getattr(parsed, field.name) == getattr(spec, field.name), (
                name, field.name)


def test_bundled_sepic_config():
    cfg = bundled("sepic_bench")
    s = cfg.spec
    assert s.kind == "sepic"
    assert s.Vg == 62.0
    assert s.R == 52.0
    assert s.L1 == pytest.approx(13e-3)
    assert s.L2 == pytest.approx(166e-6)
    assert s.C1 == pytest.approx(0.5e-6)
    assert s.C2 == pytest.approx(1000e-6)
    assert s.f_s == pytest.approx(50e3)
    assert s.R_L1 == pytest.approx(0.13)
    assert s.R_L2 == pytest.approx(0.11)
    assert s.R_on1 == pytest.approx(0.031)
    assert s.V_d == pytest.approx(0.7)
    assert s.R_d == pytest.approx(0.12)
    assert s.R_C1 == pytest.approx(0.27)
    assert s.R_C2 == pytest.approx(0.11)
    assert not s.ideal
    assert cfg.duty == pytest.approx(0.2)
    assert cfg.t_end == pytest.approx(0.120)


def test_bundled_cuk_config():
    cfg = bundled("cuk_bench")
    s = cfg.spec
    assert s.kind == "cuk"
    assert s.Vg == 25.0
    assert s.R == 100.0
    assert s.L1 == pytest.approx(1e-3)
    assert s.L2 == pytest.approx(1e-3)
    assert s.C1 == pytest.approx(850e-6)
    assert s.C2 == pytest.approx(47e-6)
    assert s.f_s == pytest.approx(20e3)
    assert cfg.duty == pytest.approx(0.42)


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.spec.R_L1 == 0.0
    assert cfg.spec.V_d == 0.0
    assert cfg.duty is None
    assert cfg.t_end is None


def test_unit_prefixes():
    cfg = parse_config(MINIMAL.replace("L1 = 13 mH", "L1 = 0.013 H")
                              .replace("C1 = 0.5 uF", "C1 = 500 nF")
                              .replace("f_s = 50 kHz", "f_s = 0.05 MHz"))
    assert cfg.spec.L1 == pytest.approx(13e-3)
    assert cfg.spec.C1 == pytest.approx(0.5e-6)
    assert cfg.spec.f_s == pytest.approx(50e3)
    # a prefix moves the decimal exponent: the value is the literal's,
    # bit for bit (13 * 1e-3 is one ulp above 13e-3)
    for text, want in (("13 mH", 13e-3), ("0.1 mH", 0.1e-3), ("1.5e3 mH", 1.5)):
        L1 = parse_config(MINIMAL.replace("L1 = 13 mH", "L1 = " + text)).spec.L1
        assert L1 == want, text


def test_unit_sticks_to_number():
    # no space between value and unit, micro sign, ohm spellings
    cfg = parse_config(MINIMAL.replace("L2 = 166 uH", "L2 = 166uH")
                              .replace("C1 = 0.5 uF", "C1 = 0.5 µF")
                              .replace("R = 52 Ohm", "R = 52 ohm"))
    assert cfg.spec.L2 == pytest.approx(166e-6)
    assert cfg.spec.C1 == pytest.approx(0.5e-6)
    assert cfg.spec.R == 52.0


def test_bare_numbers_allowed():
    cfg = parse_config(MINIMAL.replace("Vg = 62 V", "Vg = 62")
                              .replace("L1 = 13 mH", "L1 = 13e-3"))
    assert cfg.spec.Vg == 62.0
    assert cfg.spec.L1 == pytest.approx(13e-3)


def test_ideal_flag():
    cfg = parse_config(MINIMAL + "ideal = yes\n")
    assert cfg.spec.ideal
    cfg = parse_config(MINIMAL + "ideal = off\n")
    assert not cfg.spec.ideal
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "ideal = maybe\n")


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL + "  # trailing\n\nR_L1 = 1 mOhm # inline\n"
    cfg = parse_config(text)
    assert cfg.spec.R_L1 == pytest.approx(1e-3)


def test_wrong_unit_family_rejected():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL.replace("L1 = 13 mH", "L1 = 13 mF"))
    assert "quantity" in str(err.value)


def test_unknown_unit_rejected():
    with pytest.raises(ParseError):
        parse_config(MINIMAL.replace("Vg = 62 V", "Vg = 62 W"))


def test_unknown_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL + "L3 = 1 mH\n")
    assert err.value.line == len(MINIMAL.splitlines()) + 1


def test_duplicate_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL + "Vg = 10 V\n")
    assert "duplicate" in str(err.value)


def test_error_carries_position():
    for text, line, column, message in (
        ("[converter]\nkind = sepic\nVg = volts\n", 3, 6, "number"),
        (MINIMAL.replace("L1 = 13 mH", "L1 = 13 xH"), 5, 6, "unit prefix 'x'"),
        (MINIMAL + "[analysis defaults]\nD = 0.2 s\n", 11, 5, "bare number"),
        (MINIMAL.replace("L1 = 13 mH", "L1 = 1e%s mH" % ("9" * 5000)), 5, 6, "exponent"),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_config(text)
        assert (err.value.line, err.value.column) == (line, column), text


def test_key_outside_section_rejected():
    with pytest.raises(ParseError):
        parse_config("Vg = 62 V\n")


def test_unknown_section_rejected():
    with pytest.raises(ParseError):
        parse_config("[power stage]\nVg = 62 V\n")


def test_missing_required_keys_listed():
    with pytest.raises(ParseError) as err:
        parse_config("[converter]\nkind = sepic\nVg = 62 V\n")
    msg = str(err.value)
    assert "L1" in msg and "f_s" in msg
    with pytest.raises(ParseError) as err:
        parse_config("[converter]\n")
    assert str(err.value) == (
        "line 1, column 1: missing required keys: kind, Vg, R, L1, L2, C1, C2, f_s")


def test_converter_keys_are_the_spec_fields():
    """Every ConverterSpec field has a config key, and every key a field."""
    assert sorted(_CONVERTER_KEYS) == sorted(
        f.name for f in dataclasses.fields(ConverterSpec))


def test_malformed_line_rejected():
    with pytest.raises(ParseError):
        parse_config("[converter]\nkind sepic\n")
    with pytest.raises(ParseError):
        parse_config("[converter\nkind = sepic\n")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "R_L1 =\n")


def test_component_validation_still_applies():
    with pytest.raises(ValidationError):
        parse_config(MINIMAL.replace("L1 = 13 mH", "L1 = 0 H"))


def test_analysis_duty_range_checked():
    with pytest.raises(ValidationError):
        parse_config(MINIMAL + "[analysis defaults]\nD = 1.2\n")
