"""Sectioned plain-text spec files describing a doubly warped product.

Grammar: `[section]` headers followed by `key = value` lines; values are
Python literals (strings, numbers, lists) parsed with ast.literal_eval, and
expression-valued entries are quoted strings parsed by the expression
engine.  Sections: [factor.1], [factor.2] (required), [potential],
[soliton] (repeatable), [sampling].  Blank lines and lines starting with
'#' are ignored.
"""

from __future__ import annotations

import ast
import math
import re
import sys
from typing import Callable, NamedTuple

from .dwp import DoublyWarpedProduct
from .expr import (
    CONSTANTS, IDENTIFIER, ExpressionError, constant, parse_expression,
)
from .geometry import ChartManifold
from .solitons import FIELD_KEYS, SOLITON_KINDS, SolitonError, SolitonSpec

__all__ = ["SpecFileError", "load_spec", "parse_sections",
           "SOLITON_TYPE_NAMES", "SETTINGS"]


class SpecFileError(ValueError):
    pass


# accepted spec-file type names -> soliton kind: each kind, and
# gradient_<kind> for each kind that reads a potential
SOLITON_TYPE_NAMES = {
    name: kind for kind, fields in SOLITON_KINDS.items()
    for name in ((kind, f"gradient_{kind}") if "psi" in fields else (kind,))
}

_KNOWN_SECTIONS = ("factor.1", "factor.2", "potential", "soliton", "sampling")


def parse_sections(text):
    """Parse spec text into an ordered list of (section_name, dict, line)."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise SpecFileError(f"line {lineno}: unknown section [{name}]")
            current = (name, {}, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise SpecFileError(
                f"line {lineno}: 'key = value' before any [section]"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            parsed = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError) as exc:
            raise SpecFileError(
                f"line {lineno}: cannot parse value for {key!r}: {exc}"
            ) from None
        if key in current[1]:
            raise SpecFileError(
                f"line {lineno}: duplicate key {key!r} in [{current[0]}]"
            )
        current[1][key] = parsed
    return sections


def _require(table, key, section, line):
    if key not in table:
        raise SpecFileError(
            f"section [{section}] (line {line}) is missing key {key!r}"
        )
    return table[key]


def _build_factor(table, section, line, taken=()):
    """(chart, warping) of a [factor.i] section; `taken` holds [factor.1]'s
    coordinate names, which [factor.2] may not reuse."""
    dim = _require(table, "dim", section, line)
    coords = _require(table, "coords", section, line)
    metric = _require(table, "metric", section, line)
    if not isinstance(coords, (list, tuple)) or not all(
        isinstance(c, str) for c in coords
    ):
        raise SpecFileError(f"[{section}] coords must be a list of names")
    coords = tuple(coords)
    for j, name in enumerate(coords):
        # a name the expressions would read as something else
        if not re.fullmatch(IDENTIFIER, name):
            fault = "is not an identifier"
        elif name in CONSTANTS:
            fault = "is a constant of the expressions"
        elif name in coords[:j]:
            fault = "is listed twice"
        elif name in taken:
            fault = "is a coordinate of [factor.1]"
        else:
            continue
        raise SpecFileError(f"[{section}] coords: {name!r} {fault}")
    if not (_integer(dim) and dim >= 1):
        raise SpecFileError(
            f"[{section}] dim must be an integer >= 1, got {dim!r}")
    if dim != len(coords):
        raise SpecFileError(
            f"[{section}] dim = {dim} does not match {len(coords)} coords"
        )
    if (
        not isinstance(metric, (list, tuple))
        or len(metric) != dim
        or any(not isinstance(row, (list, tuple)) or len(row) != dim
               for row in metric)
    ):
        raise SpecFileError(
            f"[{section}] metric must be a {dim}x{dim} matrix of expressions"
        )
    rows = [[_expr(entry, coords, section, f"metric[{i}][{j}]", line)
             for j, entry in enumerate(row)]
            for i, row in enumerate(metric)]
    # the oracle reads only the upper triangle, so a lower entry that differs
    # would be ignored silently
    for i in range(dim):
        for j in range(i + 1, dim):
            if rows[i][j] != rows[j][i]:
                raise SpecFileError(
                    f"[{section}] metric is not symmetric: entry [{i}][{j}] "
                    f"= {metric[i][j]!r} differs from entry [{j}][{i}] = "
                    f"{metric[j][i]!r}"
                )
    return ChartManifold(coords, rows), _expr(table.get("warping", 1.0), coords, section,
                           "warping", line)


def _number(value):
    """Whether a spec value is a number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expr(value, coords, section, key, line):
    """The expression-valued entry `key` of a section: a quoted string or a
    plain number finite as a float."""
    if _number(value):
        return constant(float(_finite(value, section, key, line)), coords)
    if isinstance(value, str):
        try:
            return parse_expression(value, coords)
        except ExpressionError as exc:
            raise SpecFileError(f"[{section}]: {exc}") from None
    raise SpecFileError(
        f"[{section}]: expected a number or an expression string, "
        f"got {value!r}"
    )


def _scalar_or_expr(value, coords, section, key, line):
    """Soliton coefficients: plain numbers stay numbers (classical case);
    strings become expressions (almost case)."""
    if _number(value):
        return float(_finite(value, section, key, line))
    return _expr(value, coords, section, key, line)


def _finite(value, section, key, line):
    """The number `key`, unless it is not finite as a float; `_expr` and
    `_scalar_or_expr` read each number through it."""
    if not abs(value) <= sys.float_info.max:
        raise SpecFileError(f"[{section}] (line {line}): {key} must be "
                            f"finite, got {value!r}")
    return value


def _build_soliton(table, line, coords, default_psi):
    raw_type = _require(table, "type", "soliton", line)
    if not isinstance(raw_type, str):
        raise SpecFileError(f"[soliton] (line {line}): type must be a type "
                            f"name string, got {raw_type!r}")
    kind = SOLITON_TYPE_NAMES.get(raw_type)
    if kind is None:
        raise SpecFileError(
            f"[soliton] (line {line}): unknown type {raw_type!r}; "
            f"expected one of {sorted(SOLITON_TYPE_NAMES)}"
        )
    extra = set(table) - {"type"} - set(FIELD_KEYS.values())
    if extra:
        raise SpecFileError(
            f"[soliton] (line {line}): unknown keys {sorted(extra)}"
        )
    fields = {"kind": kind}
    if default_psi is not None and "psi" in SOLITON_KINDS[kind]:
        fields["psi"] = default_psi
    for field, key in FIELD_KEYS.items():
        if key not in table:
            continue
        value = table[key]
        if field == "eta":
            if (not isinstance(value, (list, tuple))
                    or len(value) != len(coords)):
                raise SpecFileError(
                    f"[soliton] (line {line}): eta must list {len(coords)} "
                    "covariant components"
                )
            fields[field] = tuple(
                _expr(e, coords, "soliton", f"eta[{j}]", line)
                for j, e in enumerate(value))
        elif field == "psi":
            fields[field] = _expr(value, coords, "soliton", key, line)
        else:
            fields[field] = _scalar_or_expr(value, coords, "soliton", key,
                                            line)
    try:
        return SolitonSpec(**fields)
    except SolitonError as exc:
        raise SpecFileError(f"[soliton] (line {line}): {exc}") from None


def _integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _reals(value, length):
    """Whether value is a list of `length` numbers (bools excluded), each
    finite as a float."""
    return (isinstance(value, (list, tuple)) and len(value) == length
            and all(_number(x) and abs(x) <= sys.float_info.max
                    for x in value))


def _interval(value):
    # the width must be finite too: the sampler draws lo + width * u
    return (_reals(value, 2) and value[0] < value[1]
            and math.isfinite(float(value[1]) - float(value[0])))


def _parse_box(text):
    """--box accepts 'lo,hi' (global) or 'lo,hi;lo,hi;...' (per coordinate)."""
    pairs = [chunk.split(",") for chunk in text.split(";")]
    if any(len(pair) != 2 for pair in pairs):
        # only the flag reader raises this: loading a spec needs no argparse
        import argparse

        raise argparse.ArgumentTypeError(
            "box intervals must be 'lo,hi' separated by ';'")
    return [[float(lo), float(hi)] for lo, hi in pairs]


def _parse_anchor(text):
    return [float(x) for x in text.split(",")]


class Setting(NamedTuple):
    """A run setting; its `[sampling]` key is its name in SETTINGS."""

    flag: str
    metavar: str
    parse: Callable  # the flag's text -> its value
    default: object
    rule: str  # what a value must be, {m} being the product's dimension
    test: Callable  # (value, m) -> whether the value keeps the rule
    help: str | None = None

    def check(self, value, source, m):
        """The value if it keeps the rule; else SpecFileError, naming the
        value's source."""
        if not self.test(value, m):
            raise SpecFileError(
                f"{source} must be {self.rule.format(m=m)}, got {value!r}")
        return value


SETTINGS = {
    "points": Setting("--points", "N", int, 64, "an integer >= 1",
                      lambda v, m: _integer(v) and v >= 1),
    "seed": Setting("--seed", "S", int, 42, "a non-negative integer",
                    lambda v, m: _integer(v) and v >= 0),
    "box": Setting(
        "--box", "LO,HI[;LO,HI...]", _parse_box, [-1.0, 1.0],
        "[lo, hi] or a list of 1 or {m} [lo, hi] pairs, each with lo < hi "
        "and hi - lo finite",
        lambda v, m: _interval(v) or isinstance(v, (list, tuple))
        and len(v) in (1, m) and all(map(_interval, v)),
        "sampling box, one global interval or one per coordinate"),
    "tolerance": Setting("--tol", "T", float, 1e-8, "a positive finite number",
                         lambda v, m: _reals([v], 1) and v > 0),
    "anchor": Setting(
        "--anchor", "COORDS", _parse_anchor, None,
        "a list of {m} finite numbers", _reals,
        "comma-separated point where factor restrictions are taken "
        "(default: box center)"),
}


def load_spec(path):
    """Load a spec file.

    Returns (DoublyWarpedProduct, [SolitonSpec], sampling dict, default
    potential or None).  The optional [potential] section supplies the
    default psi for solitons that do not override it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from None
    sections = parse_sections(text)
    by_name = {}
    soliton_sections = []
    for name, table, line in sections:
        if name == "soliton":
            soliton_sections.append((table, line))
        elif name in by_name:
            raise SpecFileError(f"line {line}: duplicate section [{name}]")
        else:
            by_name[name] = (table, line)
    for required in ("factor.1", "factor.2"):
        if required not in by_name:
            raise SpecFileError(f"missing required section [{required}]")
    factor1, f1 = _build_factor(by_name["factor.1"][0], "factor.1",
                                by_name["factor.1"][1])
    factor2, f2 = _build_factor(by_name["factor.2"][0], "factor.2",
                                by_name["factor.2"][1], factor1.coords)
    dwp = DoublyWarpedProduct(factor1, factor2, f1, f2)
    default_psi = None
    if "potential" in by_name:
        table, line = by_name["potential"]
        extra = set(table) - {"psi"}
        if extra:
            raise SpecFileError(
                f"[potential] (line {line}): unknown keys {sorted(extra)}"
            )
        default_psi = _expr(_require(table, "psi", "potential", line),
                            dwp.coords, "potential", "psi", line)
    solitons = [
        _build_soliton(table, line, dwp.coords, default_psi)
        for table, line in soliton_sections
    ]
    sampling, line = by_name.get("sampling", ({}, None))
    extra = set(sampling) - set(SETTINGS)
    if extra:
        raise SpecFileError(
            f"[sampling] (line {line}): unknown keys {sorted(extra)}")
    for key, value in sampling.items():
        SETTINGS[key].check(value, f"[sampling] {key}", dwp.m)
    return dwp, solitons, sampling, default_psi
