"""Check-suite orchestration: each function evaluates one family of
closed-form identities against the brute-force oracle over a sample set, from
its record (`DoublyWarpedProduct.point_data`), and returns ResidualSummary
records."""

from __future__ import annotations

from dataclasses import replace

from . import solitons, special
from .dwp import RIEMANN_CLASSES, RICCI_CLASSES
from .reporting import (
    equation_residual, normalized_residual, skipped, summarize,
)

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


def _class_summaries(family, dwp, d, tolerance, blocks, oracle):
    """One summary per class: `blocks` maps each class to its (1,3) block
    over the product chart, `oracle` is the (0,4) oracle tensor; each index
    triple of a block gets its own normalized residual, max-reduced."""
    raised = oracle @ d.product.ginv.transpose(0, 2, 1)[:, None, None]
    out = []
    for klass, block in blocks.items():
        expected = raised[dwp.block(klass)]
        values = normalized_residual(block - expected, [block, expected],
                                     axis=-1)
        out.append(summarize(f"{family}.{klass}", values, d.p, tolerance))
    return out


def _riemann_classes(dwp, tensor):
    return {klass: tensor[dwp.block(klass)] for klass in RIEMANN_CLASSES}


def check_lemma1(dwp, d, tolerance):
    """Closed-form curvature blocks of all six lifted index patterns
    against the product curvature oracle, plus full-tensor reconstruction."""
    curvature = dwp.riemann_closed(d)
    oracle = d.product.curvature[0]
    out = _class_summaries("lemma1", dwp, d, tolerance,
                           _riemann_classes(dwp, curvature), oracle)
    closed = curvature @ d.gp[:, None, None]
    out.append(summarize("lemma1.reconstruction",
                         equation_residual([closed], [oracle]), d.p,
                         tolerance))
    return out


def check_lemma2(dwp, d, tolerance):
    """Blockwise Ricci splitting against the product Ricci oracle."""
    ricci = d.product.curvature[1]
    return [
        summarize(f"lemma2.{klass}",
                  equation_residual([dwp.ricci_closed(klass, d)],
                                    [ricci[dwp.block(klass)]]),
                  d.p, tolerance)
        for klass in RICCI_CLASSES
    ]


def check_lemma5(dwp, d, tolerance):
    """Blockwise Ricci-operator splitting against the raised Ricci oracle."""
    q = d.product.ginv @ d.product.curvature[1]
    return [
        summarize(f"lemma5.{klass}",
                  equation_residual([dwp.ricci_operator_closed(klass, d)],
                                    [q[dwp.block(klass)]]),
                  d.p, tolerance)
        for klass in ("XX", "UU")
    ]


def check_hessian(dwp, d, tolerance, psis=None):
    """Blockwise Hessian splitting for a set of potentials (the log-warpings
    by default, plus any supplied ones)."""
    fields = [("k", dwp.k), ("l", dwp.l)] + list(psis or [])
    out = []
    for name, psi in fields:
        psi_l = dwp.lifted(psi)
        oracle = d.product.hessian(psi_l)
        for klass in RICCI_CLASSES:
            out.append(summarize(
                f"hessian.{name}.{klass}",
                equation_residual(
                    [dwp.hessian_split_closed(psi_l, klass, d)],
                    [oracle[dwp.block(klass)]]),
                d.p, tolerance))
    return out


def check_scalar(dwp, d, tolerance):
    values = equation_residual([dwp.scalar_closed(d)],
                               [d.product.curvature[2]])
    return [summarize("scalar.splitting", values, d.p, tolerance)]


def check_laplacian(dwp, d, tolerance):
    out = []
    for which in ("k", "l"):
        closed, oracle = dwp.laplacian_split(which, d)
        out.append(summarize(f"laplacian.{which}",
                             equation_residual([closed], [oracle]), d.p,
                             tolerance))
    return out


_FACTOR_STRUCTURES = {
    "yamabe": solitons.yamabe_factor_structures,
    "ricci": solitons.ricci_factor_structures,
    "riemann": solitons.riemann_factor_structures,
    "quasi_einstein": solitons.quasi_einstein_factor_structures,
}


def check_solitons(dwp, specs, d, tolerance):
    """Defining-equation residuals for each soliton spec, plus induced
    factor structures for the kinds that have them (on the anchored
    restriction sets of d), gated on the product-level summary: the
    defining equation's, or for kind=riemann its contracted form's.  A
    defining equation that cannot be evaluated is a skip, and so are its
    factor structures."""
    out = []
    for i, spec in enumerate(specs):
        prefix = f"soliton[{i}].{spec.kind}"
        terms = (solitons.riemann_terms(spec, d.product)
                 if spec.kind == "riemann" and dwp.m >= 3 else None)
        try:
            gate = solitons.residual(spec, d.product, tolerance,
                                     check_id=prefix, terms=terms)
        except solitons.SolitonError as exc:
            gate = skipped(prefix, f"skipped: {exc}", tolerance)
        out.append(gate)
        if terms is not None:
            gate = solitons.residual(spec, d.product, tolerance,
                                     form="contracted",
                                     check_id=f"{prefix}.contracted")
            out.append(gate)
            consistency = solitons.contraction_consistency(
                spec, d.product, tolerance, terms
            )
            out.append(replace(consistency, check_id=f"{prefix}.contraction"))
        builder = _FACTOR_STRUCTURES.get(spec.kind)
        if builder is not None:
            out.extend(replace(s, check_id=f"soliton[{i}].{s.check_id}")
                       for s in builder(dwp, spec, d, tolerance, gate))
    return out


def check_concircular(dwp, d, tolerance):
    """Closed-form concircular blocks against the oracle on all six lifted
    patterns, then the flatness consequences, gated on the oracle."""
    oracle = special.concircular_oracle(d.product)
    out = _class_summaries(
        "concircular", dwp, d, tolerance,
        _riemann_classes(dwp, special.concircular_closed(dwp, d)), oracle)
    out.extend(
        special.concircular_flat_consequences(dwp, d, tolerance, oracle))
    return out


def check_conharmonic(dwp, d, tolerance):
    """Closed-form conharmonic blocks (same-factor patterns only) against
    the oracle, then the flatness consequences, gated on the oracle."""
    if dwp.m < 3:
        return [
            skipped(
                "conharmonic",
                "skipped: conharmonic tensor requires dim >= 3",
                tolerance,
            )
        ]
    oracle = special.conharmonic_oracle(d.product)
    out = _class_summaries("conharmonic", dwp, d, tolerance,
                           special.conharmonic_closed(dwp, d), oracle)
    out.extend(
        special.conharmonic_flat_consequences(dwp, d, tolerance, oracle))
    return out


# (name, family) in report order; each family is called with
# (dwp, soliton specs, record of the samples, tolerance, extra potentials)
_FAMILIES = (
    ("lemma1", lambda dwp, s, d, t, psis: check_lemma1(dwp, d, t)),
    ("lemma2", lambda dwp, s, d, t, psis: check_lemma2(dwp, d, t)),
    ("lemma5", lambda dwp, s, d, t, psis: check_lemma5(dwp, d, t)),
    ("hessian", lambda dwp, s, d, t, psis: check_hessian(dwp, d, t, psis)),
    ("scalar", lambda dwp, s, d, t, psis: check_scalar(dwp, d, t)),
    ("laplacian", lambda dwp, s, d, t, psis: check_laplacian(dwp, d, t)),
    ("solitons", lambda dwp, s, d, t, psis: check_solitons(dwp, s, d, t)),
    ("concircular",
     lambda dwp, s, d, t, psis: check_concircular(dwp, d, t)),
    ("conharmonic",
     lambda dwp, s, d, t, psis: check_conharmonic(dwp, d, t)),
)

CHECK_NAMES = tuple(name for name, _ in _FAMILIES)


def run_all(dwp, specs, d, tolerance, checks=("all",), psis=None):
    """Run the selected named checks on the record d of the sample points
    (`dwp.point_data(points, anchor)`, whose anchored restriction sets are
    built when a check first needs them) and return summaries sorted by
    id."""
    enabled = set(CHECK_NAMES) if "all" in checks else set(checks)
    unknown = enabled - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    out = []
    for name, family in _FAMILIES:
        if name in enabled:
            out.extend(family(dwp, specs, d, tolerance, psis))
    return sorted(out, key=lambda s: s.check_id)
