"""Check-suite orchestration: each function evaluates one family of
closed-form identities against the brute-force oracle over a sample set and
returns ResidualSummary records."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import solitons, special
from .dwp import RIEMANN_CLASSES, RICCI_CLASSES
from .reporting import normalized_residual, skipped, summarize

__all__ = [
    "CHECK_NAMES",
    "check_lemma1",
    "check_lemma2",
    "check_lemma5",
    "check_hessian",
    "check_scalar",
    "check_laplacian",
    "check_solitons",
    "check_concircular",
    "check_conharmonic",
    "run_all",
]


def _class_summaries(family, dwp, points, tolerance, closed, oracle):
    """One summary per class: closed(p) maps each class to its (1,3) block
    over the product chart, oracle(p) is the (0,4) oracle tensor; each index
    triple of a block gets its own normalized residual, max-reduced."""
    values = {}
    for p in points:
        raised = oracle(p) @ dwp.point_data(p).ginv.T
        for klass, block in closed(p).items():
            expected = raised[dwp.block(klass)]
            values.setdefault(klass, []).append(
                normalized_residual(block - expected, [block, expected],
                                    axis=-1)
            )
    return [
        summarize(f"{family}.{klass}", v, points, tolerance)
        for klass, v in values.items()
    ]


def _riemann_classes(dwp, tensor):
    return {klass: tensor[dwp.block(klass)] for klass in RIEMANN_CLASSES}


def check_lemma1(dwp, points, tolerance):
    """Closed-form curvature blocks of all six lifted index patterns
    against the product curvature oracle, plus full-tensor reconstruction."""
    points = np.atleast_2d(points)
    out = _class_summaries(
        "lemma1", dwp, points, tolerance,
        lambda p: _riemann_classes(dwp, dwp.riemann_closed(p)),
        dwp.product.riemann_oracle,
    )
    values = []
    for p in points:
        closed = dwp.riemann_closed_tensor(p)
        oracle = dwp.product.riemann_oracle(p)
        values.append(normalized_residual(closed - oracle, [closed, oracle]))
    out.append(summarize("lemma1.reconstruction", values, points, tolerance))
    return out


def check_lemma2(dwp, points, tolerance):
    """Blockwise Ricci splitting against the product Ricci oracle."""
    points = np.atleast_2d(points)
    out = []
    for klass in RICCI_CLASSES:
        values = []
        for p in points:
            oracle = dwp.product.ricci_oracle(p)[dwp.block(klass)]
            closed = dwp.ricci_closed(klass, p)
            values.append(normalized_residual(closed - oracle,
                                              [closed, oracle]))
        out.append(summarize(f"lemma2.{klass}", values, points, tolerance))
    return out


def check_lemma5(dwp, points, tolerance):
    """Blockwise Ricci-operator splitting against the raised Ricci oracle."""
    points = np.atleast_2d(points)
    out = []
    for klass in ("XX", "UU"):
        values = []
        for p in points:
            d = dwp.point_data(p)
            q = d.ginv @ dwp.product.ricci_oracle(p)
            oracle = q[dwp.block(klass)]
            closed = dwp.ricci_operator_closed(klass, p)
            values.append(normalized_residual(closed - oracle,
                                              [closed, oracle]))
        out.append(summarize(f"lemma5.{klass}", values, points, tolerance))
    return out


def check_hessian(dwp, points, tolerance, psis=None):
    """Blockwise Hessian splitting for a set of potentials (the log-warpings
    by default, plus any supplied ones)."""
    points = np.atleast_2d(points)
    fields = [("k", dwp.k_lifted), ("l", dwp.l_lifted)]
    for name, psi in psis or []:
        fields.append((name, psi))
    out = []
    for name, psi in fields:
        psi_l = dwp.lifted(psi)
        for klass in RICCI_CLASSES:
            values = []
            for p in points:
                oracle = dwp.product.hessian_field(psi_l, p)[
                    dwp.block(klass)
                ]
                closed = dwp.hessian_split_closed(psi_l, klass, p)
                values.append(normalized_residual(closed - oracle,
                                                  [closed, oracle]))
            out.append(
                summarize(f"hessian.{name}.{klass}", values, points, tolerance)
            )
    return out


def check_scalar(dwp, points, tolerance):
    points = np.atleast_2d(points)
    values = []
    for p in points:
        closed = dwp.scalar_closed(p)
        oracle = dwp.product.scalar_oracle(p)
        values.append(normalized_residual(closed - oracle, [closed, oracle]))
    return [summarize("scalar.splitting", values, points, tolerance)]


def check_laplacian(dwp, points, tolerance):
    points = np.atleast_2d(points)
    out = []
    for which in ("k", "l"):
        values = []
        for p in points:
            closed, oracle = dwp.laplacian_split(which, p)
            values.append(
                normalized_residual(closed - oracle, [closed, oracle])
            )
        out.append(summarize(f"laplacian.{which}", values, points, tolerance))
    return out


_FACTOR_STRUCTURES = {
    "yamabe": solitons.yamabe_factor_structures,
    "ricci": solitons.ricci_factor_structures,
    "riemann": solitons.riemann_factor_structures,
    "quasi_einstein": solitons.quasi_einstein_factor_structures,
}


def check_solitons(dwp, specs, points, tolerance, anchor):
    """Defining-equation residuals for each soliton spec, plus induced
    factor structures for the kinds that have them."""
    points = np.atleast_2d(points)
    out = []
    for i, spec in enumerate(specs):
        prefix = f"soliton[{i}].{spec.kind}"
        try:
            out.append(
                solitons.residual(
                    spec, dwp.product, points, tolerance, check_id=prefix
                )
            )
        except solitons.SolitonError as exc:
            out.append(skipped(prefix, f"skipped: {exc}", tolerance))
            continue
        if spec.kind == "riemann" and dwp.m >= 3:
            out.append(
                solitons.residual(
                    spec, dwp.product, points, tolerance,
                    form="contracted", check_id=f"{prefix}.contracted",
                )
            )
            consistency = solitons.contraction_consistency(
                spec, dwp.product, points, tolerance
            )
            out.append(replace(consistency, check_id=f"{prefix}.contraction"))
        builder = _FACTOR_STRUCTURES.get(spec.kind)
        if builder is None:
            continue
        try:
            structures = builder(dwp, spec, points, anchor, tolerance)
        except solitons.SolitonError as exc:
            # the structures cannot be evaluated: skip their checks, keeping
            # the defining-equation record above
            structures = [
                skipped(f"factors.{spec.kind}.{s}", f"skipped: {exc}",
                        tolerance)
                for s in solitons.FACTOR_CHECKS[spec.kind]
            ]
        for s in structures:
            out.append(replace(s, check_id=f"soliton[{i}].{s.check_id}"))
    return out


def check_concircular(dwp, points, tolerance, anchor):
    """Closed-form concircular blocks against the oracle on all six lifted
    patterns, then the flatness consequences (gated)."""
    points = np.atleast_2d(points)
    out = _class_summaries(
        "concircular", dwp, points, tolerance,
        lambda p: _riemann_classes(dwp, special.concircular_closed(dwp, p)),
        lambda p: special.concircular_oracle(dwp.product, p),
    )
    out.extend(
        special.concircular_flat_consequences(dwp, points, anchor, tolerance)
    )
    return out


def check_conharmonic(dwp, points, tolerance, anchor):
    """Closed-form conharmonic blocks (same-factor patterns only) against
    the oracle, then the flatness consequences (gated)."""
    points = np.atleast_2d(points)
    if dwp.m < 3:
        return [
            skipped(
                "conharmonic",
                "skipped: conharmonic tensor requires dim >= 3",
                tolerance,
            )
        ]
    out = _class_summaries(
        "conharmonic", dwp, points, tolerance,
        lambda p: {klass: special.conharmonic_closed(dwp, klass, p)
                   for klass in special.CONHARMONIC_CLASSES},
        lambda p: special.conharmonic_oracle(dwp.product, p),
    )
    out.extend(
        special.conharmonic_flat_consequences(dwp, points, anchor, tolerance)
    )
    return out


# (name, family) in report order; each family is called with
# (dwp, soliton specs, points, tolerance, anchor, extra potentials)
_FAMILIES = (
    ("lemma1", lambda d, s, p, t, a, psis: check_lemma1(d, p, t)),
    ("lemma2", lambda d, s, p, t, a, psis: check_lemma2(d, p, t)),
    ("lemma5", lambda d, s, p, t, a, psis: check_lemma5(d, p, t)),
    ("hessian", lambda d, s, p, t, a, psis: check_hessian(d, p, t, psis)),
    ("scalar", lambda d, s, p, t, a, psis: check_scalar(d, p, t)),
    ("laplacian", lambda d, s, p, t, a, psis: check_laplacian(d, p, t)),
    ("solitons", lambda d, s, p, t, a, psis: check_solitons(d, s, p, t, a)),
    ("concircular",
     lambda d, s, p, t, a, psis: check_concircular(d, p, t, a)),
    ("conharmonic",
     lambda d, s, p, t, a, psis: check_conharmonic(d, p, t, a)),
)

CHECK_NAMES = tuple(name for name, _ in _FAMILIES)


def run_all(dwp, specs, points, tolerance, anchor, checks=("all",), psis=None):
    """Run the selected named checks and return summaries sorted by id."""
    enabled = set(CHECK_NAMES) if "all" in checks else set(checks)
    unknown = enabled - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    out = []
    for name, family in _FAMILIES:
        if name in enabled:
            out.extend(family(dwp, specs, points, tolerance, anchor, psis))
    return sorted(out, key=lambda s: s.check_id)
