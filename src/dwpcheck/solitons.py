"""Gradient-soliton residuals and induced factor structures.

A soliton condition is a tensor equation on the manifold (for example
h^psi + Ric = lambda g).  Each condition is evaluated as an explicit
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
from .geometry import GeometryError, kulkarni_nomizu
from .reporting import PASS, normalized_residual, skipped, summarize

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


def _coeff(c, p):
    if isinstance(c, Expression):
        return float(c.evaluate(p))
    return float(c)


def classify_lambda(lam, tolerance):
    """Shrinking / steady / expanding trichotomy with a dead band."""
    if isinstance(lam, Expression):
        return "almost (function-valued lambda)"
    lam = float(lam)
    if abs(lam) <= tolerance:
        return "steady"
    return "shrinking" if lam > 0 else "expanding"


def _eta_at(spec, p):
    return np.array([float(c.evaluate(p)) for c in spec.eta])


def _unit_eta_at(spec, M, p, tolerance):
    """A rescaled so its metric dual is a unit vector, with beta adjusted so
    beta * A (x) A is unchanged."""
    a = _eta_at(spec, p)
    ginv = M.metric_at(p)[1].entries
    norm_sq = float(a @ ginv @ a)
    if norm_sq <= tolerance:
        raise SolitonError(f"quasi-Einstein 1-form vanishes at {tuple(p)}")
    beta = _coeff(spec.beta, p) * norm_sq
    return a / np.sqrt(norm_sq), beta


def _terms_0_2(spec, M, p):
    """(lhs terms, rhs terms) of the defining (0,2) equation at p."""
    kind = spec.kind
    g = M.metric_at(p)[0].entries
    if kind == "einstein":
        ric = M.ricci_oracle(p).entries
        tau = M.scalar_oracle(p)
        return [ric], [(tau / M.dim) * g]
    if kind == "quasi_einstein":
        ric = M.ricci_oracle(p).entries
        a, beta = _unit_eta_at(spec, M, p, 0.0)
        return [ric], [_coeff(spec.alpha, p) * g, beta * np.outer(a, a)]

    h = M.hessian_field(spec.psi, p).entries
    if kind == "conformal":
        return [h], [_coeff(spec.gamma, p) * g]

    lam = _coeff(spec.lam, p)
    if kind == "yamabe":
        return [h], [(M.scalar_oracle(p) - lam) * g]
    if kind == "eta_yamabe":
        a = _eta_at(spec, p)
        return [h], [
            (M.scalar_oracle(p) - lam) * g,
            _coeff(spec.mu, p) * np.outer(a, a),
        ]
    if kind == "ricci":
        return [h, M.ricci_oracle(p).entries], [lam * g]
    if kind == "eta_ricci":
        a = _eta_at(spec, p)
        return [h, M.ricci_oracle(p).entries], [
            lam * g,
            _coeff(spec.mu, p) * np.outer(a, a),
        ]
    if kind == "f_almost_ricci":
        return [_coeff(spec.f_factor, p) * h, M.ricci_oracle(p).entries], [
            lam * g
        ]
    if kind == "f_almost_eta_ricci":
        a = _eta_at(spec, p)
        return [_coeff(spec.f_factor, p) * h, M.ricci_oracle(p).entries], [
            lam * g,
            _coeff(spec.mu, p) * np.outer(a, a),
        ]
    raise SolitonError(f"no (0,2) form for kind {kind!r}")


def _terms_riemann(spec, M, p):
    """(lhs, rhs) of the (0,4) soliton equation h^psi ^ g + R = lambda G."""
    g = M.metric_at(p)[0].entries
    h = M.hessian_field(spec.psi, p).entries
    r4 = M.riemann_oracle(p).entries
    big_g = 0.5 * kulkarni_nomizu(g, g).entries
    return [r4, kulkarni_nomizu(h, g).entries], [_coeff(spec.lam, p) * big_g]


def _terms_riemann_contracted(spec, M, p):
    """(lhs, rhs) of the contracted form; for m = 2 the degenerate form
    Ric = (lambda - lap psi) g."""
    m = M.dim
    g = M.metric_at(p)[0].entries
    lam = _coeff(spec.lam, p)
    ric = M.ricci_oracle(p).entries
    lap = M.laplacian_field(spec.psi, p)
    if m == 2:
        return [ric], [(lam - lap) * g]
    h = M.hessian_field(spec.psi, p).entries
    return [(m - 2) * h, ric], [((m - 1) * lam - lap) * g]


def _equation_residual(lhs, rhs):
    """Normalized residual of sum(lhs) = sum(rhs)."""
    total = lhs[0].copy()
    for t in lhs[1:]:
        total = total + t
    for t in rhs:
        total = total - t
    return normalized_residual(total, lhs + rhs)


def residual_values(spec, M, points, form="primary"):
    """Per-point normalized residuals of the defining equation.

    form: "primary" uses the (0,4) equation for kind=riemann; "contracted"
    uses its trace form (only meaningful for kind=riemann).
    """
    out = []
    for p in np.atleast_2d(points):
        if spec.kind == "riemann" and form == "primary" and M.dim >= 3:
            lhs, rhs = _terms_riemann(spec, M, p)
        elif spec.kind == "riemann":
            lhs, rhs = _terms_riemann_contracted(spec, M, p)
        else:
            lhs, rhs = _terms_0_2(spec, M, p)
        out.append(_equation_residual(lhs, rhs))
    return np.array(out)


def residual(spec, M, points, tolerance, form="primary", check_id=None):
    """ResidualSummary of the defining soliton equation over sampled points."""
    points = np.atleast_2d(points)
    values = residual_values(spec, M, points, form=form)
    if check_id is None:
        check_id = f"soliton.{spec.kind}"
        if spec.kind == "riemann":
            check_id += ".contracted" if form == "contracted" else ".full"
    notes = ""
    if spec.lam is not None:
        notes = classify_lambda(spec.lam, tolerance)
    return summarize(check_id, values, points, tolerance, notes=notes)


def contraction_consistency(spec, M, points, tolerance):
    """Algebraic identity: contracting the (0,4) soliton equation over its
    outer slots in an orthonormal frame reproduces the trace form, for ANY
    potential and lambda (soliton validity is irrelevant)."""
    if M.dim < 3:
        raise SolitonError("contraction consistency requires dim >= 3")
    points = np.atleast_2d(points)
    m = M.dim
    values = []
    for p in points:
        g, ginv = (t.entries for t in M.metric_at(p))
        lhs, rhs = _terms_riemann(spec, M, p)
        e4 = lhs[0] + lhs[1] - rhs[0]
        contracted = np.einsum("iw,iyzw->yz", ginv, e4)
        h = M.hessian_field(spec.psi, p).entries
        ric = M.ricci_oracle(p).entries
        lam = _coeff(spec.lam, p)
        lap = M.laplacian_field(spec.psi, p)
        expected = ric + (m - 2) * h + (lap - (m - 1) * lam) * g
        values.append(normalized_residual(contracted - expected,
                                          [contracted, expected]))
    return summarize("soliton.riemann.contraction", values, points, tolerance)


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
    pts = np.concatenate([np.atleast_2d(points)] + [
        dwp.anchored(points, anchor, which) for which in (1, 2)
    ])
    for name, expr in fields:
        # the value depends on the used coordinates only, so one point per
        # distinct projection onto them suffices
        used = [i for i, c in enumerate(expr.coords) if c in expr.variables]
        _, first = np.unique(pts[:, used], axis=0, return_index=True)
        for p in pts[np.sort(first)]:
            try:
                expr.evaluate(p)
            except (DomainError, OverflowError) as exc:
                raise FieldDomainError(
                    f"{name} = {str(expr)!r} leaves its domain at "
                    f"{p.tolist()}: {exc}"
                ) from None


# -- induced factor structures ------------------------------------------------


def _psi_lifted(dwp, spec):
    psi = spec.psi
    return psi if psi.coords == dwp.coords else psi.lift(dwp.coords)


def _grad_pairings(dwp, psi, p):
    """g(grad l, grad psi), g(grad k, grad psi), lap psi at a product point."""
    d = dwp.point_data(p)
    jet = psi.jet(d.p)
    grad_psi = d.ginv @ jet.gradient
    gl_psi = float(d.dl2_ext @ grad_psi)
    gk_psi = float(d.dk1_ext @ grad_psi)
    lap_psi = dwp.product.laplacian_field(psi, p)
    return gl_psi, gk_psi, lap_psi


def mixed_yamabe_condition(dwp, psi, p):
    """Mixed-block condition forced on a gradient Yamabe soliton: the cross
    Hessian block of psi must vanish, i.e.
    XU(psi) - X(k)U(psi) - X(psi)U(l) = 0 on lifted coordinate fields."""
    return dwp.hessian_split_closed(psi, "XU", p)


def mixed_ricci_condition(dwp, psi, p):
    """Mixed-block condition forced on a gradient Ricci soliton:
    (m-2) X(k)U(l) - X(k)U(psi) - X(psi)U(l) + XU(psi) = 0."""
    d = dwp.point_data(p)
    psi = psi if psi.coords == dwp.coords else psi.lift(dwp.coords)
    jet = psi.jet(d.p)
    m1 = dwp.m1
    return (
        (dwp.m - 2) * np.outer(d.dk1, d.dl2)
        - np.outer(d.dk1, jet.gradient[m1:])
        - np.outer(jet.gradient[:m1], d.dl2)
        + jet.hessian[:m1, m1:]
    )


def _gate(dwp, spec, points, tolerance, check_id, form="primary"):
    """Product-level soliton residual used as a hypothesis gate.  A failing
    hypothesis is reported as a skip (the defining-equation check elsewhere
    carries the pass/fail verdict); the skip reason is returned alongside."""
    summary = residual(
        spec,
        dwp.product,
        points,
        tolerance,
        form=form,
        check_id=f"{check_id}.product",
    )
    if summary.status == PASS:
        return summary, None
    reason = (
        "skipped: product-level soliton hypothesis fails "
        f"(residual = {summary.max_abs_residual:.3e})"
    )
    return (
        skipped(f"{check_id}.product", reason, tolerance,
                points=summary.points),
        reason,
    )


def _factor_summaries(check_id, entries, tolerance):
    """entries: list of (sub_id, per-point residuals, anchored points, notes)."""
    out = []
    for sub_id, values, pts, notes in entries:
        out.append(
            summarize(f"{check_id}.{sub_id}", values, pts, tolerance, notes=notes)
        )
    return out


def yamabe_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a gradient Yamabe soliton on the product: each
    factor restriction is a gradient almost Yamabe soliton, and the mixed
    Hessian block of psi vanishes."""
    check_id = "factors.yamabe"
    points = np.atleast_2d(points)
    gate, reason = _gate(dwp, spec, points, tolerance, check_id)
    results = [gate]
    sub_ids = ("factor1", "factor2", "mixed")
    if reason is not None:
        return results + [
            skipped(f"{check_id}.{s}", reason, tolerance) for s in sub_ids
        ]
    psi = _psi_lifted(dwp, spec)
    lam_values = {1: [], 2: []}
    entries = []
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values = []
        for p in pts:
            d = dwp.point_data(p)
            gl_psi, gk_psi, _ = _grad_pairings(dwp, psi, p)
            lam = _coeff(spec.lam, p)
            if which == 1:
                lam_i = (
                    -(d.f2**2 / d.f1**2) * d.tau2
                    + d.f2**2
                    * (lam + gl_psi + dwp.m1 * d.lap_l + dwp.m2 * d.lap_k)
                    + (dwp.m2 * d.f1 * d.lap1_f1 + dwp.m1 * d.f2 * d.lap2_f2)
                    / d.f1**2
                )
                lhs = dwp.factor_hessian(1, psi, p)
                rhs = (d.tau1 - lam_i) * d.g1
            else:
                lam_i = (
                    -(d.f1**2 / d.f2**2) * d.tau1
                    + d.f1**2
                    * (lam + gk_psi + dwp.m1 * d.lap_l + dwp.m2 * d.lap_k)
                    + (dwp.m2 * d.f1 * d.lap1_f1 + dwp.m1 * d.f2 * d.lap2_f2)
                    / d.f2**2
                )
                lhs = dwp.factor_hessian(2, psi, p)
                rhs = (d.tau2 - lam_i) * d.g2
            lam_values[which].append(lam_i)
            values.append(_equation_residual([lhs], [rhs]))
        spread = max(lam_values[which]) - min(lam_values[which])
        notes = (
            f"gradient almost Yamabe soliton on factor {which}; "
            f"lambda spread over samples = {spread:.3e}"
        )
        entries.append((f"factor{which}", values, pts, notes))
    mixed = [
        float(np.abs(mixed_yamabe_condition(dwp, psi, p)).max())
        for p in points
    ]
    entries.append(
        ("mixed", mixed, points, "cross Hessian block of psi must vanish")
    )
    return results + _factor_summaries(check_id, entries, tolerance)


def ricci_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a gradient Ricci soliton: each factor carries a
    gradient almost eta-Ricci soliton with potential phi_i and eta the
    differential of the log-warping, plus a mixed-derivative condition."""
    check_id = "factors.ricci"
    points = np.atleast_2d(points)
    gate, reason = _gate(dwp, spec, points, tolerance, check_id)
    results = [gate]
    sub_ids = ("factor1", "factor2", "mixed")
    if reason is not None:
        return results + [
            skipped(f"{check_id}.{s}", reason, tolerance) for s in sub_ids
        ]
    psi = _psi_lifted(dwp, spec)
    entries = []
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values = []
        for p in pts:
            d = dwp.point_data(p)
            gl_psi, gk_psi, _ = _grad_pairings(dwp, psi, p)
            lam = _coeff(spec.lam, p)
            if which == 1:
                lam_i = d.f2**2 * (lam + d.lap_l - gl_psi)
                h_phi = dwp.factor_hessian(1, psi, p) - dwp.m2 * d.h1_k
                lhs = [d.ric1, h_phi]
                rhs = [lam_i * d.g1, dwp.m2 * np.outer(d.dk1, d.dk1)]
            else:
                lam_i = d.f1**2 * (lam + d.lap_k - gk_psi)
                h_phi = dwp.factor_hessian(2, psi, p) - dwp.m1 * d.h2_l
                lhs = [d.ric2, h_phi]
                rhs = [lam_i * d.g2, dwp.m1 * np.outer(d.dl2, d.dl2)]
            values.append(_equation_residual(lhs, rhs))
        mu = dwp.m2 if which == 1 else dwp.m1
        notes = (
            f"gradient almost eta-Ricci soliton on factor {which} with "
            f"mu = {mu} and eta the log-warping differential"
        )
        entries.append((f"factor{which}", values, pts, notes))
    mixed = [
        float(np.abs(mixed_ricci_condition(dwp, psi, p)).max())
        for p in points
    ]
    entries.append(
        ("mixed", mixed, points, "mixed warping/potential derivative condition")
    )
    return results + _factor_summaries(check_id, entries, tolerance)


def riemann_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a gradient Riemann soliton (m >= 3): each
    factor carries a gradient almost eta-Ricci soliton with potential
    (m-2) psi_i - m_j log f_i."""
    check_id = "factors.riemann"
    points = np.atleast_2d(points)
    if dwp.m < 3:
        return [
            skipped(
                f"{check_id}.{s}",
                "skipped: contracted soliton form requires dim >= 3",
                tolerance,
            )
            for s in ("product", "factor1", "factor2")
        ]
    gate, reason = _gate(dwp, spec, points, tolerance, check_id,
                         form="contracted")
    results = [gate]
    sub_ids = ("factor1", "factor2")
    if reason is not None:
        return results + [
            skipped(f"{check_id}.{s}", reason, tolerance) for s in sub_ids
        ]
    psi = _psi_lifted(dwp, spec)
    m = dwp.m
    entries = []
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values = []
        for p in pts:
            d = dwp.point_data(p)
            gl_psi, gk_psi, lap_psi = _grad_pairings(dwp, psi, p)
            lam = _coeff(spec.lam, p)
            if which == 1:
                lam_i = d.f2**2 * (
                    (m - 1) * lam + d.lap_l - lap_psi - (m - 2) * gl_psi
                )
                h_phi = (m - 2) * dwp.factor_hessian(1, psi, p) - dwp.m2 * d.h1_k
                lhs = [d.ric1, h_phi]
                rhs = [lam_i * d.g1, dwp.m2 * np.outer(d.dk1, d.dk1)]
            else:
                lam_i = d.f1**2 * (
                    (m - 1) * lam + d.lap_k - lap_psi - (m - 2) * gk_psi
                )
                h_phi = (m - 2) * dwp.factor_hessian(2, psi, p) - dwp.m1 * d.h2_l
                lhs = [d.ric2, h_phi]
                rhs = [lam_i * d.g2, dwp.m1 * np.outer(d.dl2, d.dl2)]
            values.append(_equation_residual(lhs, rhs))
        notes = (
            f"gradient almost eta-Ricci soliton on factor {which}; the "
            "log-warping term of the potential is constant along this factor, "
            "so either log-warping choice yields the same factor Hessian"
        )
        entries.append((f"factor{which}", values, pts, notes))
    return results + _factor_summaries(check_id, entries, tolerance)


def quasi_einstein_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a quasi-Einstein product: each factor carries a
    gradient f-almost eta-Ricci soliton with f = -(opposite dim)/(own warping)
    and eta the restriction of the (unit-normalized) generator 1-form."""
    check_id = "factors.quasi_einstein"
    points = np.atleast_2d(points)
    for p in points:
        if abs(_coeff(spec.beta, p)) <= tolerance:
            raise SolitonError(
                "beta vanishes at a sampled point: the condition degenerates "
                "to an Einstein manifold; rerun with kind=einstein"
            )
    gate, reason = _gate(dwp, spec, points, tolerance, check_id)
    results = [gate]
    sub_ids = ("factor1", "factor2")
    if reason is not None:
        return results + [
            skipped(f"{check_id}.{s}", reason, tolerance) for s in sub_ids
        ]
    entries = []
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values = []
        for p in pts:
            d = dwp.point_data(p)
            a, beta = _unit_eta_at(spec, dwp.product, p, 0.0)
            alpha = _coeff(spec.alpha, p)
            if which == 1:
                a_i = a[: dwp.m1]
                lam_i = d.f2**2 * (alpha + d.lap_l)
                lhs = [(-dwp.m2 / d.f1) * d.h1_f1, d.ric1]
                rhs = [lam_i * d.g1, beta * np.outer(a_i, a_i)]
            else:
                a_i = a[dwp.m1:]
                lam_i = d.f1**2 * (alpha + d.lap_k)
                lhs = [(-dwp.m1 / d.f2) * d.h2_f2, d.ric2]
                rhs = [lam_i * d.g2, beta * np.outer(a_i, a_i)]
            values.append(_equation_residual(lhs, rhs))
        f_text = "-m2/f1" if which == 1 else "-m1/f2"
        notes = f"gradient f-almost eta-Ricci soliton on factor {which} with f = {f_text}"
        entries.append((f"factor{which}", values, pts, notes))
    return results + _factor_summaries(check_id, entries, tolerance)


def log_hessian_identity(factor, f, points, tolerance):
    """Numeric identity (1/f) hess(f) = hess(log f) + (1/f^2) df (x) df on a
    single chart, used when rewriting factor Hessians of warpings."""
    points = np.atleast_2d(points)
    logf = f.apply("log")
    values = []
    for p in points:
        fv = float(f.evaluate(p))
        df = f.jet(p).gradient
        lhs = factor.hessian_field(f, p).entries / fv
        rhs = factor.hessian_field(logf, p).entries + np.outer(df, df) / fv**2
        values.append(_equation_residual([lhs], [rhs]))
    return summarize("identity.log_hessian", values, points, tolerance)
