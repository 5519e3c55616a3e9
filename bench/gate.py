"""Correctness gate applied to every timed verify call.

A call passes when
- its exit status is the one its expected verdicts imply,
- its structured report names exactly the expected check ids with the
  expected statuses,
- every residual agrees with its reference within 1e-13, taken as absolute
  below 1 and relative above 1; a check expected to pass compares a closed
  form with the oracle, so its reference is 0; any other check's reference
  is the residual recorded for its workload, seed and spec in
  reference_residuals.json (see references.py), and, for a seed not
  recorded there, the residual of the run's first call on the same spec,
- and, from the second call on, the report is byte-identical to the first
  one on the same spec.

`problems` never raises: a malformed or tampered report yields a list of
reasons instead.
"""

from __future__ import annotations

import json
import math
import os

RESIDUAL_TOL = 1e-13
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference_residuals.json")


def recorded(workload, seed, points):
    """spec name -> {check_id: residual} recorded in reference_residuals.json
    for this workload, seed and N, or None when they are not recorded."""
    try:
        with open(REFERENCES, encoding="utf-8") as fh:
            table = json.load(fh)["workloads"].get(workload)
    except FileNotFoundError:
        return None
    if table is None or table["N"] != points:
        return None
    return table["seeds"].get(str(seed))


def residuals(report):
    """check_id -> max_abs_residual of a parsed structured report."""
    return {c["check_id"]: c["max_abs_residual"] for c in report["checks"]}


def _agrees(value, reference):
    if reference is None or value is None:
        return value is reference
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return False
    return abs(value - reference) <= RESIDUAL_TOL * max(1.0, abs(reference))


def problems(spec, exit_code, text, first=None, recorded=None):
    """Reasons why one verify call on `spec` is wrong; empty when correct.

    `first` is (text, residuals) of the run's first call on this spec, or
    None for that first call itself. `recorded` is the spec's
    {check_id: residual} from reference_residuals.json, or None when its
    seed is not recorded.
    """
    out = []
    if exit_code != spec.exit_code:
        out.append(f"exit status {exit_code}, expected {spec.exit_code}")
    try:
        report = json.loads(text)
        got = {c["check_id"]: c["status"] for c in report["checks"]}
        values = residuals(report)
    except (ValueError, KeyError, TypeError) as exc:
        return out + [f"unreadable report: {exc!r}"]
    if got != spec.expected:
        missing = sorted(set(spec.expected) - set(got))
        extra = sorted(set(got) - set(spec.expected))
        wrong = sorted(k for k in set(got) & set(spec.expected)
                       if got[k] != spec.expected[k])
        out.append(f"verdicts differ: missing {missing[:3]}, extra "
                   f"{extra[:3]}, wrong status {wrong[:3]}")
    for check_id, status in spec.expected.items():
        if check_id not in values:
            continue
        if status == "pass":
            reference = 0.0
        elif recorded is not None:
            reference = recorded.get(check_id)
        elif first is not None:
            reference = first[1].get(check_id)
        else:
            continue
        if not _agrees(values[check_id], reference):
            out.append(f"{check_id}: residual {values[check_id]!r} vs "
                       f"reference {reference!r}")
    if first is not None and text != first[0]:
        out.append("report differs from the first call's on the same input")
    return out
