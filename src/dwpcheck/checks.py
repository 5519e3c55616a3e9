"""Check-suite orchestration: each function evaluates one family of
closed-form identities against the brute-force oracle over a sample set, from
its record (`DoublyWarpedProduct.point_data`), and returns ResidualSummary
records."""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from . import solitons, special
from .dwp import RIEMANN_CLASSES, RICCI_CLASSES
# summarize is not called here, but bench/test_bench.py reads it as
# checks.summarize to see that the tracer restores it
from .reporting import (  # noqa: F401
    equation_residual, skipped, summarize, summarize_columns,
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


def _compare(family, residuals, d, tolerance):
    """One summary `<family>.<name>` per (name, per-point residuals) item
    of `residuals`, in one summary pass (`summarize_columns`)."""
    return summarize_columns([f"{family}.{name}" for name in residuals],
                             np.column_stack(list(residuals.values())), d,
                             tolerance)


def _blockwise(d, classes, closed, oracle, slots=False):
    """{class: per-point residual} of two product-chart tensors
    (N, m, ..., m): the normalized residual of closed - oracle over both on
    the class's factor block (`DoublyWarpedProduct.block`), and with
    `slots` on each output vector (the last axis) of the block alone,
    max-reduced.  |closed - oracle|, |closed| and |oracle| are taken once
    over the whole tensors and max-reduced factor block by factor block
    along each index axis; max and abs are exact, so each residual is
    bitwise that of its block reduced alone."""
    t = np.stack([closed - oracle, closed, oracle])
    np.abs(t, out=t)
    if slots:
        # elementwise over the slot's slices: max(axis=-1) is slower on so
        # short an axis
        t = functools.reduce(np.maximum,
                             [t[..., c] for c in range(d.dwp.m)])
        t = t[0] / (1.0 + np.maximum(t[1], t[2]))
    for axis in range(t.ndim - len(classes[0]), t.ndim):
        t = np.maximum.reduceat(t, [0, d.dwp.m1], axis=axis)
    if not slots:
        t = t[0] / (1.0 + np.maximum(t[1], t[2]))
    # a block's cell: a binary digit per index, 1 for the second factor
    cells = [int("".join("01"[c in "UVW"] for c in klass), 2)
             for klass in classes]
    return dict(zip(classes, t.reshape(len(t), -1)[:, cells].T))


def _raised(tensor, d):
    """A (0,4) tensor raised by the oracle's inverse metric in its last
    slot: (1,3) components out[n, i, j, k, c]."""
    return tensor @ d.product.ginv.transpose(0, 2, 1)[:, None, None]


def check_lemma1(d, tolerance):
    """Closed-form curvature blocks of all six lifted index patterns
    against the product curvature oracle (each index triple's output vector
    normalized on its own), plus full-tensor reconstruction."""
    curvature = d.dwp.riemann_closed(d)
    oracle = d.product.curvature[0]
    return _compare("lemma1", {
        **_blockwise(d, RIEMANN_CLASSES, curvature, _raised(oracle, d),
                     slots=True),
        "reconstruction": equation_residual(
            [d.dwp.riemann_closed_tensor(d)], [oracle]),
    }, d, tolerance)


def check_lemma2(d, tolerance):
    """Blockwise Ricci splitting against the product Ricci oracle."""
    return _compare("lemma2", _blockwise(
        d, RICCI_CLASSES, d.dwp.ricci_closed(d), d.product.curvature[1]), d,
        tolerance)


def check_lemma5(d, tolerance):
    """Blockwise Ricci-operator splitting against the raised Ricci oracle."""
    return _compare("lemma5", _blockwise(
        d, ("XX", "UU"), d.dwp.ricci_operator_closed(d),
        d.product.ginv @ d.product.curvature[1]), d, tolerance)


def check_hessian(d, tolerance, psis=None):
    """Blockwise Hessian splitting for a set of potentials (the log-warpings
    by default, plus any supplied ones)."""
    dwp = d.dwp
    fields = [("k", dwp.k), ("l", dwp.l)] + list(psis or [])
    residuals = {}
    for name, psi in fields:
        psi = dwp.lifted(psi)
        for klass, values in _blockwise(
                d, RICCI_CLASSES, dwp.hessian_split_closed(psi, d),
                d.product.hessian(psi)).items():
            residuals[f"{name}.{klass}"] = values
    return _compare("hessian", residuals, d, tolerance)


def check_scalar(d, tolerance):
    return _compare("scalar", {"splitting": equation_residual(
        [d.dwp.scalar_closed(d)], [d.product.curvature[2]])}, d, tolerance)


def check_laplacian(d, tolerance):
    """The Laplacian splitting of k and l against the oracle's trace of
    their Hessians."""
    dwp = d.dwp
    return _compare("laplacian", {
        which: equation_residual([dwp.laplacian_split(which, d)],
                                 [d.product.laplacian(dwp.lifted(log_f))])
        for which, log_f in (("k", dwp.k), ("l", dwp.l))}, d, tolerance)


_FACTOR_STRUCTURES = {
    "yamabe": solitons.yamabe_factor_structures,
    "ricci": solitons.ricci_factor_structures,
    "riemann": solitons.riemann_factor_structures,
    "quasi_einstein": solitons.quasi_einstein_factor_structures,
}


def check_solitons(specs, d, tolerance):
    """Defining-equation residuals for each soliton spec, plus induced
    factor structures for the kinds that have them (on the anchored
    restriction sets of d), gated on the product-level summary: the
    defining equation's, or for kind=riemann at m >= 3 its contracted
    form's.  A defining equation that cannot be evaluated is a skip, and so
    are its factor structures."""
    out = []
    for i, spec in enumerate(specs):
        prefix = f"soliton[{i}].{spec.kind}"
        try:
            terms = solitons.equation_terms(spec, d.product)
        except solitons.SolitonError as exc:
            gate = skipped(prefix, f"skipped: {exc}", tolerance)
        else:
            gate = solitons.residual(spec, terms, d, tolerance, prefix)
        out.append(gate)
        # a Riemann spec's equation_terms never raises: terms is bound
        if spec.kind == "riemann" and d.dwp.m >= 3:
            contracted = solitons.contracted_terms(spec, d.product)
            gate = solitons.residual(spec, contracted, d, tolerance,
                                     f"{prefix}.contracted")
            out += [gate, solitons.contraction_consistency(
                terms, contracted, d.product, tolerance,
                f"{prefix}.contraction")]
        builder = _FACTOR_STRUCTURES.get(spec.kind)
        if builder is not None:
            out.extend(builder(spec, d, replace(
                gate, check_id=f"soliton[{i}].factors.{spec.kind}.product")))
    return out


def check_concircular(d, tolerance):
    """Closed-form concircular blocks against the oracle on all six lifted
    patterns, then the flatness consequences, gated on the oracle."""
    oracle = special.concircular_oracle(d.product)
    out = _compare("concircular", _blockwise(
        d, RIEMANN_CLASSES, special.concircular_closed(d),
        _raised(oracle, d), slots=True), d, tolerance)
    out.extend(special.concircular_flat_consequences(d, tolerance, oracle))
    return out


def check_conharmonic(d, tolerance):
    """Closed-form conharmonic blocks (same-factor patterns only) against
    the oracle, then the flatness consequences, gated on the oracle.  The
    mixed patterns, which have no closed splitting, are not compared."""
    if d.dwp.m < 3:
        return [
            skipped(
                "conharmonic",
                "skipped: conharmonic tensor requires dim >= 3",
                tolerance,
            )
        ]
    oracle = special.conharmonic_oracle(d.product)
    out = _compare("conharmonic", _blockwise(
        d, special.CONHARMONIC_CLASSES, special.conharmonic_closed(d),
        _raised(oracle, d), slots=True), d, tolerance)
    out.extend(special.conharmonic_flat_consequences(d, tolerance, oracle))
    return out


# (name, family) in report order; each family is called with
# (soliton specs, record of the samples, tolerance, extra potentials), and
# calls its check function by name, so that a check replaced on this module
# is the one run
_FAMILIES = (
    ("lemma1", lambda s, d, t, psis: check_lemma1(d, t)),
    ("lemma2", lambda s, d, t, psis: check_lemma2(d, t)),
    ("lemma5", lambda s, d, t, psis: check_lemma5(d, t)),
    ("hessian", lambda s, d, t, psis: check_hessian(d, t, psis)),
    ("scalar", lambda s, d, t, psis: check_scalar(d, t)),
    ("laplacian", lambda s, d, t, psis: check_laplacian(d, t)),
    ("solitons", lambda s, d, t, psis: check_solitons(s, d, t)),
    ("concircular", lambda s, d, t, psis: check_concircular(d, t)),
    ("conharmonic", lambda s, d, t, psis: check_conharmonic(d, t)),
)

CHECK_NAMES = tuple(name for name, _ in _FAMILIES)


def run_all(specs, d, tolerance, checks=("all",), psis=None):
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
            out.extend(family(specs, d, tolerance, psis))
    return sorted(out, key=lambda s: s.check_id)
