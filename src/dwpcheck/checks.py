"""Check-suite orchestration: each function evaluates one family of
closed-form identities against the brute-force oracle over a sample set and
returns ResidualSummary records."""

from __future__ import annotations

from dataclasses import replace

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


def _class_summaries(family, dwp, points, tolerance, blocks, oracle):
    """One summary per class: `blocks` maps each class to its (1,3) block
    over the product chart, `oracle` is the (0,4) oracle tensor; each index
    triple of a block gets its own normalized residual, max-reduced."""
    ginv = dwp.product.metric_at(points)[1]
    raised = oracle @ ginv.transpose(0, 2, 1)[:, None, None]
    out = []
    for klass, block in blocks.items():
        expected = raised[dwp.block(klass)]
        values = normalized_residual(block - expected, [block, expected],
                                     axis=-1)
        out.append(summarize(f"{family}.{klass}", values, points, tolerance))
    return out


def _riemann_classes(dwp, tensor):
    return {klass: tensor[dwp.block(klass)] for klass in RIEMANN_CLASSES}


def _residuals(closed, oracle):
    return normalized_residual(closed - oracle, [closed, oracle])


def check_lemma1(dwp, points, tolerance):
    """Closed-form curvature blocks of all six lifted index patterns
    against the product curvature oracle, plus full-tensor reconstruction."""
    curvature = dwp.riemann_closed(points)
    oracle = dwp.product.riemann_oracle(points)
    out = _class_summaries("lemma1", dwp, points, tolerance,
                           _riemann_classes(dwp, curvature), oracle)
    closed = curvature @ dwp.product.metric_at(points)[0][:, None, None]
    out.append(summarize("lemma1.reconstruction",
                         _residuals(closed, oracle), points, tolerance))
    return out


def check_lemma2(dwp, points, tolerance):
    """Blockwise Ricci splitting against the product Ricci oracle."""
    ricci = dwp.product.ricci_oracle(points)
    return [
        summarize(f"lemma2.{klass}",
                  _residuals(dwp.ricci_closed(klass, points),
                             ricci[dwp.block(klass)]),
                  points, tolerance)
        for klass in RICCI_CLASSES
    ]


def check_lemma5(dwp, points, tolerance):
    """Blockwise Ricci-operator splitting against the raised Ricci oracle."""
    q = dwp.product.metric_at(points)[1] @ dwp.product.ricci_oracle(points)
    return [
        summarize(f"lemma5.{klass}",
                  _residuals(dwp.ricci_operator_closed(klass, points),
                             q[dwp.block(klass)]),
                  points, tolerance)
        for klass in ("XX", "UU")
    ]


def check_hessian(dwp, points, tolerance, psis=None):
    """Blockwise Hessian splitting for a set of potentials (the log-warpings
    by default, plus any supplied ones)."""
    fields = [("k", dwp.k_lifted), ("l", dwp.l_lifted)] + list(psis or [])
    out = []
    for name, psi in fields:
        psi_l = dwp.lifted(psi)
        oracle = dwp.product.hessian_field(psi_l, points)
        for klass in RICCI_CLASSES:
            out.append(summarize(
                f"hessian.{name}.{klass}",
                _residuals(dwp.hessian_split_closed(psi_l, klass, points),
                           oracle[dwp.block(klass)]),
                points, tolerance))
    return out


def check_scalar(dwp, points, tolerance):
    values = _residuals(dwp.scalar_closed(points),
                        dwp.product.scalar_oracle(points))
    return [summarize("scalar.splitting", values, points, tolerance)]


def check_laplacian(dwp, points, tolerance):
    return [
        summarize(f"laplacian.{which}",
                  _residuals(*dwp.laplacian_split(which, points)), points,
                  tolerance)
        for which in ("k", "l")
    ]


_FACTOR_STRUCTURES = {
    "yamabe": solitons.yamabe_factor_structures,
    "ricci": solitons.ricci_factor_structures,
    "riemann": solitons.riemann_factor_structures,
    "quasi_einstein": solitons.quasi_einstein_factor_structures,
}


def check_solitons(dwp, specs, points, tolerance, anchor):
    """Defining-equation residuals for each soliton spec, plus induced
    factor structures for the kinds that have them."""
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
    out = _class_summaries(
        "concircular", dwp, points, tolerance,
        _riemann_classes(dwp, special.concircular_closed(dwp, points)),
        special.concircular_oracle(dwp.product, points),
    )
    out.extend(
        special.concircular_flat_consequences(dwp, points, anchor, tolerance)
    )
    return out


def check_conharmonic(dwp, points, tolerance, anchor):
    """Closed-form conharmonic blocks (same-factor patterns only) against
    the oracle, then the flatness consequences (gated)."""
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
        special.conharmonic_closed(dwp, points),
        special.conharmonic_oracle(dwp.product, points),
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
