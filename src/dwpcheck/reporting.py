"""Residual summaries and deterministic report serialization.

Every verification in the package reduces to "evaluate an identity at sampled
points and take the worst normalized residual"; this module holds the shared
summary record, the one driver of the checks conditional on a hypothesis,
and a byte-stable serializer so that identical runs produce identical
reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResidualSummary",
    "PASS",
    "FAIL",
    "SKIP",
    "normalized_residual",
    "difference",
    "equation_residual",
    "summarize",
    "summarize_columns",
    "skipped",
    "conditional",
    "render_json",
]

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class ResidualSummary:
    """Outcome of one identity check over a sample set."""

    check_id: str
    status: str
    max_abs_residual: float | None
    worst_point: tuple | None
    points: int
    tolerance: float
    notes: str = ""

    def as_dict(self):
        return {
            "check_id": self.check_id,
            "status": self.status,
            "max_abs_residual": self.max_abs_residual,
            "worst_point": (
                None if self.worst_point is None else list(self.worst_point)
            ),
            "points": self.points,
            "tolerance": self.tolerance,
            "notes": self.notes,
        }


def normalized_residual(difference, terms, axis=None):
    """Per point (leading axis): max |difference| / (1 + max over terms of
    max |term|).

    With `axis`, the ratio is taken separately for each slice along that
    axis (for example one output vector per index triple) and the result is
    the largest of them."""
    n = len(difference)
    if axis is None:
        scale = 1.0 + np.maximum.reduce(
            [np.abs(t).reshape(n, -1).max(axis=1) for t in terms])
        return np.abs(difference).reshape(n, -1).max(axis=1) / scale
    scale = 1.0 + np.maximum.reduce([np.abs(t).max(axis=axis) for t in terms])
    return (np.abs(difference).max(axis=axis) / scale).reshape(n, -1).max(
        axis=1)


def difference(lhs, rhs):
    """sum(lhs) - sum(rhs), summed in the order the terms are listed."""
    total = sum(lhs[1:], lhs[0])
    for t in rhs:
        total = total - t
    return total


def equation_residual(lhs, rhs):
    """Per-point normalized residuals of sum(lhs) = sum(rhs), over the terms
    of both sides."""
    return normalized_residual(difference(lhs, rhs), lhs + rhs)


def summarize(check_id, residuals, points, tolerance, notes=""):
    """Max-reduce per-point residuals into a ResidualSummary.

    The reduction is deterministic regardless of evaluation order: the worst
    point is the one with the largest residual, ties broken by lexicographic
    order of the point coordinates.  A NaN residual ranks above every
    number, so it fails the check wherever it occurs.
    """
    residuals = np.asarray(residuals, dtype=float)
    if not residuals.size:
        raise ValueError("summarize needs at least one residual")
    points = np.asarray(points, dtype=float)
    top = residuals.max()  # NaN if any residual is
    worst = np.flatnonzero(np.isnan(residuals) if math.isnan(top)
                           else residuals == top)
    pick = worst[0]
    if len(worst) > 1:
        # lexsort's last key is the primary one: the first coordinate
        pick = worst[np.lexsort(points[worst].T[::-1])[0]]
    return _worst(check_id, float(residuals[pick]), points[pick].tolist(),
                  len(residuals), tolerance, notes)


def _worst(check_id, residual, point, points, tolerance, notes=""):
    """The summary of a check whose largest residual is at `point`."""
    return ResidualSummary(
        check_id=check_id,
        status=PASS if residual <= tolerance else FAIL,
        max_abs_residual=residual,
        worst_point=tuple(point),
        points=points,
        tolerance=tolerance,
        notes=notes,
    )


def summarize_columns(check_ids, residuals, points, tolerance):
    """summarize(check_ids[j], residuals[:, j], points, tolerance) for each
    column j of the per-point residuals (N, k), in one pass: a column's
    maximum held at exactly one point is read off at once, and a column
    with a NaN or a tie goes through `summarize`."""
    residuals = np.asarray(residuals, dtype=float)
    if not residuals.size:
        raise ValueError("summarize needs at least one residual")
    points = np.asarray(points, dtype=float)
    top = residuals.max(axis=0)  # NaN where a column has one
    unique = (residuals == top).sum(axis=0) == 1  # False for NaN
    worst = points[residuals.argmax(axis=0)].tolist()
    return [
        _worst(check_id, residual, point, len(residuals), tolerance)
        if single else summarize(check_id, residuals[:, j], points, tolerance)
        for j, (check_id, residual, single, point) in enumerate(
            zip(check_ids, top.tolist(), unique.tolist(), worst))
    ]


def skipped(check_id, reason, tolerance, points=0):
    return ResidualSummary(
        check_id=check_id,
        status=SKIP,
        max_abs_residual=None,
        worst_point=None,
        points=points,
        tolerance=tolerance,
        notes=reason,
    )


def conditional(d, gate, reason, factor, stem, extra=None):
    """The records of a hypothesis gate and of the checks conditional on it:
    one per factor, on the anchored restriction sets of the record d, and
    optionally one more.  The checks of a family `F` are named after its
    gate `F.<name>`: `F.<stem>1`, `F.<stem>2` and `F.<extra name>`.

    `factor(r, s)` gives (per-point residuals, notes) of factor `which`,
    with r = d.restriction(which) the record of its restriction set and
    s = r.side(which); `extra`, a (name, check) pair, adds the check whose
    `check()` gives (per-point residuals, points, notes).

    A gate that does not pass skips the gate and every check of the family:
    a skipped gate (the hypothesis, or the family's own inputs, cannot be
    evaluated) with its own reason, and a failing one with `reason`
    formatted with its residual.  A failing hypothesis is a skip, not a
    failure: the checks that carry a verdict on it run elsewhere."""
    family = gate.check_id.rpartition(".")[0]
    ids = [f"{family}.{stem}{which}" for which in (1, 2)]
    if extra is not None:
        ids.append(f"{family}.{extra[0]}")
    if gate.status != PASS:
        note = (gate.notes if gate.status == SKIP
                else reason.format(gate.max_abs_residual))
        return [skipped(gate.check_id, note, gate.tolerance,
                        points=gate.points)] + [
            skipped(check_id, note, gate.tolerance) for check_id in ids]
    out = [gate]
    for which, check_id in zip((1, 2), ids):
        r = d.restriction(which)
        values, notes = factor(r, r.side(which))
        out.append(summarize(check_id, values, r.p, gate.tolerance,
                             notes=notes))
    if extra is not None:
        values, points, notes = extra[1]()
        out.append(summarize(ids[2], values, points, gate.tolerance,
                             notes=notes))
    return out


# the string encoder that json.dumps(str) calls, without its dispatch
_string = json.encoder.encode_basestring_ascii


def _float(value):
    if math.isfinite(value):
        return format(value, ".17g")
    return f'"{value!r}"'  # JSON has no NaN or infinity


def _render(value, pad):
    """The text of a value whose closing bracket is indented by `pad`."""
    # the exact types that most values have, first
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is float:
        return _float(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float(float(value))
    if isinstance(value, str):
        return _string(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{_string(str(k))}: {_render(value[k], inner)}"
                for k in sorted(value)]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        rows = [inner + _render(v, inner) for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(document):
    """Serialize to JSON text with sorted keys and 17-significant-digit
    floats (the strings "nan", "inf" and "-inf" for non-finite ones);
    byte-identical for equal inputs."""
    return _render(document, "") + "\n"
