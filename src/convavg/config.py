"""Key-value converter config files.

Format: `[section]` headers, `key = value` lines, `#` comments, UTF-8.
Sections are [converter] (component values) and [analysis defaults]
(default duty and run length).  Values accept SI unit suffixes such as
62 V, 13 mH, 0.5 uF, 130mOhm, 50kHz; the unit must match the quantity
the key describes.  Unknown keys, duplicate keys and malformed values
are hard errors carrying line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .converter import ConverterSpec, ValidationError


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


# decimal exponent of each unit prefix
_PREFIXES = {"p": -12, "n": -9, "u": -6, "µ": -6, "m": -3, "k": 3, "K": 3, "M": 6}
# quantity of each unit, longest first so "Ohm" wins over a prefix split
_UNIT_FAMILY = {"Ohm": "Ohm", "ohm": "Ohm", "Ω": "Ohm", "Hz": "Hz",
                "V": "V", "A": "A", "H": "H", "F": "F", "s": "s"}

# expected unit family per key; None means a bare number (or boolean/word)
_CONVERTER_KEYS = {
    "kind": None, "ideal": None,
    "Vg": "V", "V_d": "V",
    "R": "Ohm", "R_L1": "Ohm", "R_L2": "Ohm", "R_on1": "Ohm",
    "R_d": "Ohm", "R_C1": "Ohm", "R_C2": "Ohm",
    "L1": "H", "L2": "H",
    "C1": "F", "C2": "F",
    "f_s": "Hz",
}
_ANALYSIS_KEYS = {"D": None, "t_end": "s"}

_NUMBER_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?")


@dataclass
class ParsedConfig:
    spec: ConverterSpec
    duty: object = None          # default duty from [analysis defaults]
    t_end: object = None


def _parse_quantity(raw, family, line, column):
    m = _NUMBER_RE.match(raw)
    if m is None:
        raise ParseError("expected a number, got %r" % (raw,), line, column)
    value = float(m.group(0))
    suffix = raw[m.end():].strip()
    if not suffix:
        return value
    unit = None
    for u in _UNIT_FAMILY:
        if suffix.endswith(u):
            unit = u
            break
    if unit is None:
        raise ParseError("unrecognized unit %r" % (suffix,), line, column)
    prefix = suffix[: len(suffix) - len(unit)]
    # the prefix joins the decimal exponent, so 13 mH is parsed as 13e-3
    # in one rounding, not as 13 * 1e-3 (int() refuses over 4300 digits)
    if len(m.group(2) or "") > 9:
        raise ParseError("exponent out of range in %r" % (raw,), line, column)
    exponent = int(m.group(2) or 0)
    if prefix:
        if prefix not in _PREFIXES:
            raise ParseError("unrecognized unit prefix %r" % (prefix,),
                             line, column)
        exponent += _PREFIXES[prefix]
    if family is None:
        raise ParseError("this key takes a bare number, not %r" % (suffix,),
                         line, column)
    if _UNIT_FAMILY[unit] != family:
        raise ParseError("unit %r does not measure the expected quantity (%s)"
                         % (suffix, family), line, column)
    return float("%se%d" % (m.group(1), exponent))


def _parse_bool(raw, line, column):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ParseError("expected a boolean, got %r" % (raw,), line, column)


def parse_config(text: str) -> ParsedConfig:
    """Parse a config file into a validated converter description."""
    section = None
    converter = {}
    analysis = {}
    seen = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        body = stripped.strip()
        col = rawline.index(body[0]) + 1
        if body.startswith("["):
            if not body.endswith("]"):
                raise ParseError("unterminated section header", lineno, col)
            name = body[1:-1].strip().lower()
            if name not in ("converter", "analysis defaults"):
                raise ParseError("unknown section %r" % (name,), lineno, col)
            section = name
            continue
        if "=" not in body:
            raise ParseError("expected 'key = value'", lineno, col)
        if section is None:
            raise ParseError("key outside any section", lineno, col)
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        after_eq = rawline.index("=") + 1
        tail = rawline[after_eq:]
        value_col = after_eq + (len(tail) - len(tail.lstrip())) + 1
        if not value:
            raise ParseError("missing value for %r" % (key,), lineno, value_col)
        table = _CONVERTER_KEYS if section == "converter" else _ANALYSIS_KEYS
        if key not in table:
            raise ParseError("unknown key %r in [%s]" % (key, section),
                             lineno, col)
        if (section, key) in seen:
            raise ParseError("duplicate key %r" % (key,), lineno, col)
        seen.add((section, key))
        if key == "kind":
            converter["kind"] = value.lower()
        elif key == "ideal":
            converter["ideal"] = _parse_bool(value, lineno, value_col)
        else:
            parsed = _parse_quantity(value, table[key], lineno, value_col)
            if section == "converter":
                converter[key] = parsed
            else:
                analysis[key] = parsed
    missing = [k for k in ("kind", "Vg", "R", "L1", "L2", "C1", "C2", "f_s")
               if k not in converter]
    if missing:
        raise ParseError("missing required keys: %s" % ", ".join(missing),
                         len(text.splitlines()) or 1, 1)
    spec = ConverterSpec(**converter)
    duty = analysis.get("D")
    if duty is not None and not (0.0 < duty < 1.0):
        raise ValidationError("default duty must lie in (0, 1)")
    return ParsedConfig(spec=spec, duty=duty, t_end=analysis.get("t_end"))
