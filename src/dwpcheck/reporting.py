"""Residual summaries and deterministic report serialization.

Every verification in the package reduces to "evaluate an identity at sampled
points and take the worst normalized residual"; this module holds the shared
summary record and a byte-stable serializer so that identical runs produce
identical reports.
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
    "summarize",
    "skipped",
    "gated",
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
    """max |difference| / (1 + max over terms of max |term|).

    With `axis`, the ratio is taken separately for each slice along that
    axis (for example one output vector per index triple) and the result is
    the largest of them."""
    if axis is None:
        scale = 1.0 + max(float(np.abs(t).max()) for t in terms)
        return float(np.abs(difference).max()) / scale
    scale = 1.0 + np.maximum.reduce([np.abs(t).max(axis=axis) for t in terms])
    return float((np.abs(difference).max(axis=axis) / scale).max())


def summarize(check_id, residuals, points, tolerance, notes=""):
    """Max-reduce per-point residuals into a ResidualSummary.

    The reduction is deterministic regardless of evaluation order: the worst
    point is the one with the largest residual, ties broken by lexicographic
    order of the point coordinates.  A NaN residual ranks above every
    number, so it fails the check wherever it occurs.
    """
    residuals = [float(r) for r in residuals]
    if not residuals:
        raise ValueError("summarize needs at least one residual")
    worst = None
    for r, p in zip(residuals, points):
        key = ((1, 0.0) if math.isnan(r) else (0, r),
               tuple(float(x) for x in np.atleast_1d(p)))
        if worst is None or key[0] > worst[0] or (
            key[0] == worst[0] and key[1] < worst[1]
        ):
            worst = key
            residual = r
    return ResidualSummary(
        check_id=check_id,
        status=PASS if residual <= tolerance else FAIL,
        max_abs_residual=residual,
        worst_point=worst[1],
        points=len(residuals),
        tolerance=tolerance,
        notes=notes,
    )


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


def gated(check_id, gate, reason, sub_ids):
    """The records of a hypothesis gate and of the checks conditional on it,
    and whether the gate holds.  A failing hypothesis is a skip, not a
    failure (the checks that carry a verdict on it run elsewhere): the gate
    and each `check_id.<sub_id>` are skipped with `reason` formatted with the
    gate's residual."""
    if gate.status == PASS:
        return [gate], True
    reason = reason.format(gate.max_abs_residual)
    return [
        skipped(gate.check_id, reason, gate.tolerance, points=gate.points)
    ] + [
        skipped(f"{check_id}.{s}", reason, gate.tolerance) for s in sub_ids
    ], False


def _render(value, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return json.dumps(repr(value))  # JSON has no NaN or infinity
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_render(value[k], indent + 1)}"
            for k in sorted(value)
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        rows = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(document):
    """Serialize to JSON text with sorted keys and 17-significant-digit
    floats (the strings "nan", "inf" and "-inf" for non-finite ones);
    byte-identical for equal inputs."""
    return _render(document, 0) + "\n"
