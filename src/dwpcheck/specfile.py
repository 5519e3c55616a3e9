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

from .dwp import DoublyWarpedProduct
from .expr import ExpressionError, constant, parse_expression
from .geometry import ChartManifold
from .solitons import SolitonError, SolitonSpec

__all__ = ["SpecFileError", "load_spec", "parse_sections", "SOLITON_TYPE_NAMES"]


class SpecFileError(ValueError):
    pass


# accepted spec-file type names -> internal soliton kind
SOLITON_TYPE_NAMES = {
    "yamabe": "yamabe",
    "gradient_yamabe": "yamabe",
    "conformal": "conformal",
    "gradient_conformal": "conformal",
    "ricci": "ricci",
    "gradient_ricci": "ricci",
    "riemann": "riemann",
    "gradient_riemann": "riemann",
    "eta_yamabe": "eta_yamabe",
    "gradient_eta_yamabe": "eta_yamabe",
    "eta_ricci": "eta_ricci",
    "gradient_eta_ricci": "eta_ricci",
    "f_almost_ricci": "f_almost_ricci",
    "gradient_f_almost_ricci": "f_almost_ricci",
    "f_almost_eta_ricci": "f_almost_eta_ricci",
    "gradient_f_almost_eta_ricci": "f_almost_eta_ricci",
    "einstein": "einstein",
    "quasi_einstein": "quasi_einstein",
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


def _build_factor(table, section, line):
    dim = _require(table, "dim", section, line)
    coords = _require(table, "coords", section, line)
    metric = _require(table, "metric", section, line)
    if not isinstance(coords, (list, tuple)) or not all(
        isinstance(c, str) for c in coords
    ):
        raise SpecFileError(f"[{section}] coords must be a list of names")
    coords = tuple(coords)
    if dim != len(coords):
        raise SpecFileError(
            f"[{section}] dim = {dim} does not match {len(coords)} coords"
        )
    if (
        not isinstance(metric, (list, tuple))
        or len(metric) != dim
        or any(len(row) != dim for row in metric)
    ):
        raise SpecFileError(
            f"[{section}] metric must be a {dim}x{dim} matrix of expressions"
        )
    rows = []
    for row in metric:
        rows.append([_expr(entry, coords, section) for entry in row])
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
    try:
        manifold = ChartManifold(coords, rows)
    except Exception as exc:
        raise SpecFileError(f"[{section}] invalid metric: {exc}") from None
    warping = table.get("warping", 1.0)
    return manifold, _expr(warping, coords, section)


def _expr(value, coords, section):
    """An expression-valued entry: a quoted string or a plain number."""
    if isinstance(value, (int, float)):
        return constant(float(value), coords)
    if isinstance(value, str):
        try:
            return parse_expression(value, coords)
        except ExpressionError as exc:
            raise SpecFileError(f"[{section}]: {exc}") from None
    raise SpecFileError(
        f"[{section}]: expected a number or an expression string, "
        f"got {value!r}"
    )


def _scalar_or_expr(value, coords, section):
    """Soliton coefficients: plain numbers stay numbers (classical case);
    strings become expressions (almost case)."""
    if isinstance(value, (int, float)):
        return float(value)
    return _expr(value, coords, section)


def _build_soliton(table, line, coords, default_psi):
    raw_type = _require(table, "type", "soliton", line)
    kind = SOLITON_TYPE_NAMES.get(raw_type)
    if kind is None:
        raise SpecFileError(
            f"[soliton] (line {line}): unknown type {raw_type!r}; "
            f"expected one of {sorted(set(SOLITON_TYPE_NAMES))}"
        )
    fields = {"kind": kind}
    if "psi" in table:
        fields["psi"] = _expr(table["psi"], coords, "soliton")
    elif default_psi is not None:
        fields["psi"] = default_psi
    for file_key, field in (
        ("lambda", "lam"),
        ("mu", "mu"),
        ("gamma", "gamma"),
        ("f", "f_factor"),
        ("alpha", "alpha"),
        ("beta", "beta"),
    ):
        if file_key in table:
            fields[field] = _scalar_or_expr(table[file_key], coords, "soliton")
    if "eta" in table:
        eta = table["eta"]
        if not isinstance(eta, (list, tuple)) or len(eta) != len(coords):
            raise SpecFileError(
                f"[soliton] (line {line}): eta must list {len(coords)} "
                "covariant components"
            )
        fields["eta"] = tuple(_expr(e, coords, "soliton") for e in eta)
    known = {"type", "psi", "lambda", "mu", "gamma", "f", "alpha", "beta",
             "eta"}
    extra = set(table) - known
    if extra:
        raise SpecFileError(
            f"[soliton] (line {line}): unknown keys {sorted(extra)}"
        )
    try:
        return SolitonSpec(**fields)
    except SolitonError as exc:
        raise SpecFileError(f"[soliton] (line {line}): {exc}") from None


def _numbers(value, length=None):
    """Whether value is a list of numbers (bools excluded), of `length`."""
    return (isinstance(value, (list, tuple)) and length in (None, len(value))
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value))


_SAMPLING = {  # key -> (what its value must be, test)
    "points": ("an integer >= 1",
               lambda v: _numbers([v]) and isinstance(v, int) and v >= 1),
    "seed": ("a non-negative integer",
             lambda v: _numbers([v]) and isinstance(v, int) and v >= 0),
    "tolerance": ("a positive number", lambda v: _numbers([v]) and v > 0),
    "box": ("[lo, hi] or a list of [lo, hi] pairs",
            lambda v: _numbers(v, 2) or isinstance(v, (list, tuple))
            and len(v) > 0 and all(_numbers(pair, 2) for pair in v)),
    "anchor": ("a list of numbers", _numbers),
}


def _build_sampling(table, line):
    extra = set(table) - set(_SAMPLING)
    if extra:
        raise SpecFileError(
            f"[sampling] (line {line}): unknown keys {sorted(extra)}"
        )
    for key, value in table.items():
        what, valid = _SAMPLING[key]
        if not valid(value):
            raise SpecFileError(
                f"[sampling] {key} must be {what}, got {value!r}")
    return dict(table)


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
                                by_name["factor.2"][1])
    try:
        dwp = DoublyWarpedProduct(factor1, factor2, f1, f2)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    default_psi = None
    if "potential" in by_name:
        table, line = by_name["potential"]
        extra = set(table) - {"psi"}
        if extra:
            raise SpecFileError(
                f"[potential] (line {line}): unknown keys {sorted(extra)}"
            )
        default_psi = _expr(
            _require(table, "psi", "potential", line), dwp.coords, "potential"
        )
    solitons = [
        _build_soliton(table, line, dwp.coords, default_psi)
        for table, line in soliton_sections
    ]
    sampling = {}
    if "sampling" in by_name:
        sampling = _build_sampling(*by_name["sampling"])
    return dwp, solitons, sampling, default_psi
