"""Gradient-soliton residuals and induced factor structures.

A soliton condition is a tensor equation on the manifold (for example
h^psi + Ric = lambda g), evaluated on a chart's record c of the sample points
(`ChartManifold.at`).  Each condition is evaluated as an explicit
left-hand-side / right-hand-side term list so that degenerate parameter
choices (mu identically zero, f identically one) reproduce the base
variant's residuals bitwise.  On doubly warped products the passing
conditions induce soliton structures on the factors; those induced
identities are verified here as well, gated on the product-level residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import DomainError, Expression
from .geometry import (
    GeometryError,
    covariant_hessian,
    kulkarni_nomizu,
    matvec,
    outer,
    times,
)
from .reporting import gated, normalized_residual, skipped, summarize

__all__ = [
    "SolitonSpec",
    "SolitonError",
    "FieldDomainError",
    "SOLITON_KINDS",
    "residual",
    "residual_values",
    "contraction_consistency",
    "classify_lambda",
    "yamabe_factor_structures",
    "ricci_factor_structures",
    "riemann_factor_structures",
    "quasi_einstein_factor_structures",
    "FACTOR_CHECKS",
    "log_hessian_identity",
    "mixed_yamabe_condition",
    "mixed_ricci_condition",
    "validate_fields",
]

SOLITON_KINDS = (
    "yamabe",
    "conformal",
    "ricci",
    "riemann",
    "eta_yamabe",
    "eta_ricci",
    "f_almost_ricci",
    "f_almost_eta_ricci",
    "einstein",
    "quasi_einstein",
)

_REQUIRED = {
    "yamabe": ("psi", "lam"),
    "conformal": ("psi", "gamma"),
    "ricci": ("psi", "lam"),
    "riemann": ("psi", "lam"),
    "eta_yamabe": ("psi", "lam", "mu", "eta"),
    "eta_ricci": ("psi", "lam", "mu", "eta"),
    "f_almost_ricci": ("psi", "lam", "f_factor"),
    "f_almost_eta_ricci": ("psi", "lam", "mu", "eta", "f_factor"),
    "einstein": (),
    "quasi_einstein": ("alpha", "beta", "eta"),
}


class SolitonError(GeometryError):
    pass


class FieldDomainError(GeometryError):
    """A potential or soliton coefficient leaves its domain at a point the
    checks evaluate it at."""


@dataclass(frozen=True)
class SolitonSpec:
    """Parameters of one soliton condition.

    Scalar parameters may be numbers (classical solitons) or Expressions on
    the manifold's chart ("almost" variants).  `eta` holds the covariant
    coordinate components of the 1-form eta (or of A for quasi-Einstein,
    where it is rescaled pointwise to unit generator length).
    """

    kind: str
    psi: Expression | None = None
    lam: float | Expression | None = None
    mu: float | Expression | None = None
    gamma: float | Expression | None = None
    f_factor: float | Expression | None = None
    alpha: float | Expression | None = None
    beta: float | Expression | None = None
    eta: tuple | None = None

    def __post_init__(self):
        if self.kind not in SOLITON_KINDS:
            raise SolitonError(f"unknown soliton kind {self.kind!r}")
        for name in _REQUIRED[self.kind]:
            if getattr(self, name) is None:
                raise SolitonError(
                    f"soliton kind {self.kind!r} requires field {name!r}"
                )


def _coeff(c, points):
    """A scalar parameter's values (N,) at the points."""
    if isinstance(c, Expression):
        return c.evaluate(points)
    return np.full(len(points), float(c))


def classify_lambda(lam, tolerance):
    """Shrinking / steady / expanding trichotomy with a dead band."""
    if isinstance(lam, Expression):
        return "almost (function-valued lambda)"
    lam = float(lam)
    if abs(lam) <= tolerance:
        return "steady"
    return "shrinking" if lam > 0 else "expanding"


def _eta_at(spec, points):
    return np.stack([c.evaluate(points) for c in spec.eta], axis=1)


def _unit_eta_at(spec, c):
    """A rescaled so its metric dual is a unit vector, with beta adjusted so
    beta * A (x) A is unchanged."""
    a = _eta_at(spec, c.p)
    norm_sq = np.einsum("ni,ni->n", matvec(c.ginv, a), a)
    if (norm_sq <= 0.0).any():
        p = c.p[(norm_sq <= 0.0).argmax()]
        raise SolitonError(f"quasi-Einstein 1-form vanishes at {p.tolist()}")
    beta = _coeff(spec.beta, c.p) * norm_sq
    return a / np.sqrt(norm_sq)[:, None], beta


def _terms_0_2(spec, c):
    """(lhs terms, rhs terms) of the defining (0,2) equation."""
    kind, points, g = spec.kind, c.p, c.g
    if kind == "einstein":
        _, ric, tau = c.curvature
        return [ric], [times(tau / c.chart.dim, g)]
    if kind == "quasi_einstein":
        a, beta = _unit_eta_at(spec, c)
        return [c.curvature[1]], [times(_coeff(spec.alpha, points), g),
                                  times(beta, outer(a, a))]

    h = c.hessian(spec.psi)
    if kind == "conformal":
        return [h], [times(_coeff(spec.gamma, points), g)]

    lam = _coeff(spec.lam, points)
    if kind in ("yamabe", "eta_yamabe"):
        lhs, rhs = [h], [times(c.curvature[2] - lam, g)]
    elif kind in ("ricci", "eta_ricci", "f_almost_ricci",
                  "f_almost_eta_ricci"):
        if kind.startswith("f_almost"):
            h = times(_coeff(spec.f_factor, points), h)
        lhs, rhs = [h, c.curvature[1]], [times(lam, g)]
    else:
        raise SolitonError(f"no (0,2) form for kind {kind!r}")
    if "eta" in kind:
        a = _eta_at(spec, points)
        rhs.append(times(_coeff(spec.mu, points), outer(a, a)))
    return lhs, rhs


def _terms_riemann(spec, c, h):
    """(lhs, rhs) of the (0,4) soliton equation h^psi ^ g + R = lambda G on
    the chart record c, given the Hessian h of psi."""
    big_g = 0.5 * kulkarni_nomizu(c.g, c.g)
    return [c.curvature[0], kulkarni_nomizu(h, c.g)], [
        times(_coeff(spec.lam, c.p), big_g)]


def _terms_riemann_contracted(spec, c, h):
    """(lhs, rhs) of the contracted form; for m = 2 the degenerate form
    Ric = (lambda - lap psi) g."""
    m, g = c.chart.dim, c.g
    lam = _coeff(spec.lam, c.p)
    ric = c.curvature[1]
    lap = np.einsum("nij,nij->n", c.ginv, h)
    if m == 2:
        return [ric], [times(lam - lap, g)]
    return [(m - 2) * h, ric], [times((m - 1) * lam - lap, g)]


def _equation_residual(lhs, rhs):
    """Per-point normalized residuals of sum(lhs) = sum(rhs)."""
    total = lhs[0].copy()
    for t in lhs[1:]:
        total = total + t
    for t in rhs:
        total = total - t
    return normalized_residual(total, lhs + rhs)


def residual_values(spec, c, form="primary"):
    """Per-point normalized residuals of the defining equation.

    form: "primary" uses the (0,4) equation for kind=riemann; "contracted"
    uses its trace form (only meaningful for kind=riemann).
    """
    if spec.kind != "riemann":
        return _equation_residual(*_terms_0_2(spec, c))
    terms = (_terms_riemann if form == "primary" and c.chart.dim >= 3
             else _terms_riemann_contracted)
    return _equation_residual(*terms(spec, c, c.hessian(spec.psi)))


def residual(spec, c, tolerance, form="primary", check_id=None):
    """ResidualSummary of the defining soliton equation over sampled points."""
    values = residual_values(spec, c, form=form)
    if check_id is None:
        check_id = f"soliton.{spec.kind}"
        if spec.kind == "riemann":
            check_id += ".contracted" if form == "contracted" else ".full"
    notes = ""
    if spec.lam is not None:
        notes = classify_lambda(spec.lam, tolerance)
    return summarize(check_id, values, c.p, tolerance, notes=notes)


def contraction_consistency(spec, c, tolerance):
    """Algebraic identity: contracting the (0,4) soliton equation over its
    outer slots in an orthonormal frame reproduces the trace form, for ANY
    potential and lambda (soliton validity is irrelevant)."""
    m = c.chart.dim
    if m < 3:
        raise SolitonError("contraction consistency requires dim >= 3")
    g, ginv, h = c.g, c.ginv, c.hessian(spec.psi)
    lhs, rhs = _terms_riemann(spec, c, h)
    e4 = lhs[0] + lhs[1] - rhs[0]
    contracted = np.einsum("niw,niyzw->nyz", ginv, e4)
    lam = _coeff(spec.lam, c.p)
    lap = np.einsum("nij,nij->n", ginv, h)
    expected = c.curvature[1] + (m - 2) * h + times(
        lap - (m - 1) * lam, g)
    values = normalized_residual(contracted - expected,
                                 [contracted, expected])
    return summarize("soliton.riemann.contraction", values, c.p, tolerance)


# -- input domains ------------------------------------------------------------

# SolitonSpec field -> spec-file key
_FIELD_KEYS = (("psi", "psi"), ("lam", "lambda"), ("mu", "mu"),
               ("gamma", "gamma"), ("f_factor", "f"), ("alpha", "alpha"),
               ("beta", "beta"))


def validate_fields(dwp, specs, psi, points, anchor):
    """Reject the first point, among the samples and the anchored
    restriction sets of both factors, at which the default potential `psi`
    or an expression-valued soliton field cannot be evaluated."""
    fields = [] if psi is None else [("[potential] psi", psi)]
    for i, spec in enumerate(specs):
        named = [(key, getattr(spec, attr)) for attr, key in _FIELD_KEYS]
        named += [(f"eta[{j}]", e) for j, e in enumerate(spec.eta or ())]
        for key, value in named:
            if isinstance(value, Expression) and not any(
                value is e for _, e in fields
            ):
                fields.append((f"soliton[{i}] {key}", value))
    pts = np.concatenate([points] + [
        dwp.anchored(points, anchor, which) for which in (1, 2)
    ])
    for name, expr in fields:
        try:
            expr.evaluate(pts)
        except DomainError as exc:
            raise FieldDomainError(
                f"{name} = {str(expr)!r} leaves its domain at "
                f"{pts[exc.index].tolist()}: {exc}"
            ) from None


# -- induced factor structures ------------------------------------------------


def mixed_yamabe_condition(dwp, psi, d):
    """Mixed-block condition forced on a gradient Yamabe soliton: the cross
    Hessian block of psi must vanish, i.e.
    XU(psi) - X(k)U(psi) - X(psi)U(l) = 0 on lifted coordinate fields."""
    return dwp.hessian_split_closed(psi, "XU", d)


def mixed_ricci_condition(dwp, psi, d):
    """Mixed-block condition forced on a gradient Ricci soliton:
    (m-2) X(k)U(l) - X(k)U(psi) - X(psi)U(l) + XU(psi) = 0, the mixed Ricci
    block plus the mixed Hessian block of psi."""
    return (dwp.ricci_closed("XU", d)
            + dwp.hessian_split_closed(psi, "XU", d))


# prose of a failing product-level gate, formatted with its residual
_NOT_A_SOLITON = ("skipped: product-level soliton hypothesis fails "
                  "(residual = {:.3e})")

# soliton kind -> the checks of its induced factor structures, each with id
# factors.<kind>.<name>
FACTOR_CHECKS = {
    "yamabe": ("product", "factor1", "factor2", "mixed"),
    "ricci": ("product", "factor1", "factor2", "mixed"),
    "riemann": ("product", "factor1", "factor2"),
    "quasi_einstein": ("product", "factor1", "factor2"),
}


def _factor_structures(kind, dwp, spec, d, tolerance, equation, notes,
                       mixed=None, form="primary"):
    """Induced factor structures of one soliton family, gated on the
    product-level residual (in `form`) at the samples of the record d.

    For each factor, `equation(r, s, jet)` gives (lhs terms, rhs terms,
    lambda_i) of the factor's equation on the anchored restriction set, with
    r its record, s = r.side(which) and jet the jet of the lifted potential
    there (None without one); `notes(s, lambdas)` annotates the factor's
    summary.  `mixed`, given when FACTOR_CHECKS lists a mixed check, is a
    (condition(dwp, psi, d), notes) pair whose value must vanish at each
    sample point."""
    check_id = f"factors.{kind}"
    gate = residual(spec, d.product, tolerance, form=form,
                    check_id=f"{check_id}.product")
    results, holds = gated(check_id, gate, _NOT_A_SOLITON,
                           FACTOR_CHECKS[kind][1:])
    if not holds:
        return results
    psi = None if spec.psi is None else dwp.lifted(spec.psi)
    for which in (1, 2):
        r = d.restriction(which)
        s = r.side(which)
        jet = None if psi is None else psi.jet(r.p)
        lhs, rhs, lam_i = equation(r, s, jet)
        results.append(summarize(f"{check_id}.factor{which}",
                                 _equation_residual(lhs, rhs), r.p,
                                 tolerance, notes=notes(s, lam_i)))
    if mixed is not None:
        condition, mixed_notes = mixed
        values = np.abs(condition(dwp, psi, d)).max(axis=(1, 2))
        results.append(summarize(f"{check_id}.mixed", values, d.p,
                                 tolerance, notes=mixed_notes))
    return results


def yamabe_factor_structures(dwp, spec, d, tolerance):
    """Factor consequences of a gradient Yamabe soliton on the product: each
    factor restriction is a gradient almost Yamabe soliton, and the mixed
    Hessian block of psi vanishes."""

    def equation(r, s, jet):
        s1, s2 = r.sides
        o = s.mirror
        # the Laplacian sums are symmetric in the factors: one fixed order
        lam_i = (
            -(o.f**2 / s.f**2) * o.tau
            + o.f**2 * (_coeff(spec.lam, r.p)
                        + s.opposite_pairing(jet.gradient)
                        + dwp.m1 * s2.lap + dwp.m2 * s1.lap)
            + (dwp.m2 * s1.f * s1.lap_f + dwp.m1 * s2.f * s2.lap_f)
            / s.f**2
        )
        return [s.hessian(jet)], [times(s.tau - lam_i, s.g)], lam_i

    def notes(s, lams):
        return (f"gradient almost Yamabe soliton on factor {s.which}; "
                f"lambda spread over samples = {lams.max() - lams.min():.3e}")

    return _factor_structures(
        "yamabe", dwp, spec, d, tolerance, equation, notes,
        mixed=(mixed_yamabe_condition,
               "cross Hessian block of psi must vanish"),
    )


def _eta_ricci_terms(s, hessian_coefficient, lam_i, jet):
    """(lhs, rhs, lambda_i) of the factor's gradient almost eta-Ricci
    equation with potential phi_i, h^phi_i = c h_i^psi - m_opp h_i^log f_own:
    Ric_i + h^phi_i = lambda_i g_i + m_opp d(log f_own) (x) d(log f_own)."""
    m_opp = s.mirror.m
    h_phi = hessian_coefficient * s.hessian(jet) - m_opp * s.h_log
    return ([s.ric, h_phi],
            [times(lam_i, s.g), m_opp * outer(s.dlog, s.dlog)], lam_i)


def ricci_factor_structures(dwp, spec, d, tolerance):
    """Factor consequences of a gradient Ricci soliton: each factor carries a
    gradient almost eta-Ricci soliton with potential phi_i and eta the
    differential of the log-warping, plus a mixed-derivative condition."""

    def equation(r, s, jet):
        o = s.mirror
        lam_i = o.f**2 * (_coeff(spec.lam, r.p) + o.lap
                          - s.opposite_pairing(jet.gradient))
        return _eta_ricci_terms(s, 1, lam_i, jet)

    def notes(s, lams):
        return (f"gradient almost eta-Ricci soliton on factor {s.which} with "
                f"mu = {s.mirror.m} and eta the log-warping differential")

    return _factor_structures(
        "ricci", dwp, spec, d, tolerance, equation, notes,
        mixed=(mixed_ricci_condition,
               "mixed warping/potential derivative condition"),
    )


def riemann_factor_structures(dwp, spec, d, tolerance):
    """Factor consequences of a gradient Riemann soliton (m >= 3): each
    factor carries a gradient almost eta-Ricci soliton with potential
    (m-2) psi_i - m_j log f_i."""
    m = dwp.m
    if m < 3:
        return [
            skipped(f"factors.riemann.{s}",
                    "skipped: contracted soliton form requires dim >= 3",
                    tolerance)
            for s in FACTOR_CHECKS["riemann"]
        ]

    def equation(r, s, jet):
        o = s.mirror
        lap_psi = np.einsum("nij,nij->n", r.product.ginv,
                            covariant_hessian(r.product.gamma, jet))
        lam_i = o.f**2 * (
            (m - 1) * _coeff(spec.lam, r.p) + o.lap - lap_psi
            - (m - 2) * s.opposite_pairing(jet.gradient)
        )
        return _eta_ricci_terms(s, m - 2, lam_i, jet)

    def notes(s, lams):
        return (f"gradient almost eta-Ricci soliton on factor {s.which}; the "
                "log-warping term of the potential is constant along this "
                "factor, so either log-warping choice yields the same factor "
                "Hessian")

    return _factor_structures(
        "riemann", dwp, spec, d, tolerance, equation, notes,
        form="contracted",
    )


def quasi_einstein_factor_structures(dwp, spec, d, tolerance):
    """Factor consequences of a quasi-Einstein product: each factor carries a
    gradient f-almost eta-Ricci soliton with f = -(opposite dim)/(own warping)
    and eta the restriction of the (unit-normalized) generator 1-form."""
    if (np.abs(_coeff(spec.beta, d.p)) <= tolerance).any():
        raise SolitonError(
            "beta vanishes at a sampled point: the condition degenerates "
            "to an Einstein manifold; rerun with kind=einstein"
        )

    def equation(r, s, jet):
        o = s.mirror
        a, beta = _unit_eta_at(spec, r.product)
        a_i = a[:, s.own]
        lam_i = o.f**2 * (_coeff(spec.alpha, r.p) + o.lap)
        return ([times(-o.m / s.f, s.h_f), s.ric],
                [times(lam_i, s.g), times(beta, outer(a_i, a_i))], lam_i)

    def notes(s, lams):
        return (f"gradient f-almost eta-Ricci soliton on factor {s.which} "
                f"with f = -m{3 - s.which}/f{s.which}")

    return _factor_structures(
        "quasi_einstein", dwp, spec, d, tolerance, equation, notes,
    )


def log_hessian_identity(c, f, tolerance):
    """Numeric identity (1/f) hess(f) = hess(log f) + (1/f^2) df (x) df at
    the points of the chart record c, used when rewriting factor Hessians of
    warpings."""
    jet = f.jet(c.p)
    lhs = covariant_hessian(c.gamma, jet) / jet.value[:, None, None]
    rhs = (c.hessian(f.apply("log"))
           + outer(jet.gradient, jet.gradient) / (jet.value**2)[:, None, None])
    return summarize("identity.log_hessian", _equation_residual([lhs], [rhs]),
                     c.p, tolerance)
