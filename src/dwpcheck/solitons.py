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


def _unit_eta_at(spec, M, p):
    """A rescaled so its metric dual is a unit vector, with beta adjusted so
    beta * A (x) A is unchanged."""
    a = _eta_at(spec, p)
    ginv = M.metric_at(p)[1]
    norm_sq = float(a @ ginv @ a)
    if norm_sq <= 0.0:
        raise SolitonError(f"quasi-Einstein 1-form vanishes at {tuple(p)}")
    beta = _coeff(spec.beta, p) * norm_sq
    return a / np.sqrt(norm_sq), beta


def _terms_0_2(spec, M, p):
    """(lhs terms, rhs terms) of the defining (0,2) equation at p."""
    kind = spec.kind
    g = M.metric_at(p)[0]
    if kind == "einstein":
        return [M.ricci_oracle(p)], [(M.scalar_oracle(p) / M.dim) * g]
    if kind == "quasi_einstein":
        a, beta = _unit_eta_at(spec, M, p)
        return [M.ricci_oracle(p)], [_coeff(spec.alpha, p) * g,
                                     beta * np.outer(a, a)]

    h = M.hessian_field(spec.psi, p)
    if kind == "conformal":
        return [h], [_coeff(spec.gamma, p) * g]

    lam = _coeff(spec.lam, p)
    if kind in ("yamabe", "eta_yamabe"):
        lhs, rhs = [h], [(M.scalar_oracle(p) - lam) * g]
    elif kind in ("ricci", "eta_ricci", "f_almost_ricci",
                  "f_almost_eta_ricci"):
        if kind.startswith("f_almost"):
            h = _coeff(spec.f_factor, p) * h
        lhs, rhs = [h, M.ricci_oracle(p)], [lam * g]
    else:
        raise SolitonError(f"no (0,2) form for kind {kind!r}")
    if "eta" in kind:
        a = _eta_at(spec, p)
        rhs.append(_coeff(spec.mu, p) * np.outer(a, a))
    return lhs, rhs


def _terms_riemann(spec, M, p):
    """(lhs, rhs) of the (0,4) soliton equation h^psi ^ g + R = lambda G."""
    g = M.metric_at(p)[0]
    h = M.hessian_field(spec.psi, p)
    r4 = M.riemann_oracle(p)
    big_g = 0.5 * kulkarni_nomizu(g, g)
    return [r4, kulkarni_nomizu(h, g)], [_coeff(spec.lam, p) * big_g]


def _terms_riemann_contracted(spec, M, p):
    """(lhs, rhs) of the contracted form; for m = 2 the degenerate form
    Ric = (lambda - lap psi) g."""
    m = M.dim
    g = M.metric_at(p)[0]
    lam = _coeff(spec.lam, p)
    ric = M.ricci_oracle(p)
    lap = M.laplacian_field(spec.psi, p)
    if m == 2:
        return [ric], [(lam - lap) * g]
    h = M.hessian_field(spec.psi, p)
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
        g, ginv = M.metric_at(p)
        lhs, rhs = _terms_riemann(spec, M, p)
        e4 = lhs[0] + lhs[1] - rhs[0]
        contracted = np.einsum("iw,iyzw->yz", ginv, e4)
        h = M.hessian_field(spec.psi, p)
        ric = M.ricci_oracle(p)
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


def mixed_yamabe_condition(dwp, psi, p):
    """Mixed-block condition forced on a gradient Yamabe soliton: the cross
    Hessian block of psi must vanish, i.e.
    XU(psi) - X(k)U(psi) - X(psi)U(l) = 0 on lifted coordinate fields."""
    return dwp.hessian_split_closed(psi, "XU", p)


def mixed_ricci_condition(dwp, psi, p):
    """Mixed-block condition forced on a gradient Ricci soliton:
    (m-2) X(k)U(l) - X(k)U(psi) - X(psi)U(l) + XU(psi) = 0."""
    d = dwp.point_data(p)
    jet = dwp.lifted(psi).jet(d.p)
    m1 = dwp.m1
    return (
        (dwp.m - 2) * np.outer(d.dk1, d.dl2)
        - np.outer(d.dk1, jet.gradient[m1:])
        - np.outer(jet.gradient[:m1], d.dl2)
        + jet.hessian[:m1, m1:]
    )


def _opposite_pairing(d, s, psi):
    """g(grad log f_opp, grad psi) at the point of d."""
    grad_psi = d.ginv @ psi.jet(d.p).gradient
    return float(s.dlog_opp_ext @ grad_psi)


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


def _factor_structures(kind, dwp, spec, points, anchor, tolerance, equation,
                       notes, mixed=None, form="primary"):
    """Induced factor structures of one soliton family, gated on the
    product-level residual (in `form`).

    For each factor, `equation(d, s, psi, p)` gives (lhs terms, rhs terms,
    lambda_i) of the factor's equation at each anchored point p, with d its
    point data, s = d.side(which) and psi the lifted potential;
    `notes(s, lambdas)` annotates the factor's summary.  `mixed`, given
    when FACTOR_CHECKS lists a mixed check, is a (condition(dwp, psi, p),
    notes) pair whose value must vanish at each sample point."""
    check_id = f"factors.{kind}"
    points = np.atleast_2d(points)
    gate = residual(spec, dwp.product, points, tolerance, form=form,
                    check_id=f"{check_id}.product")
    results, holds = gated(check_id, gate, _NOT_A_SOLITON,
                           FACTOR_CHECKS[kind][1:])
    if not holds:
        return results
    psi = None if spec.psi is None else dwp.lifted(spec.psi)
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values, lams = [], []
        for p in pts:
            d = dwp.point_data(p)
            s = d.side(which)
            lhs, rhs, lam_i = equation(d, s, psi, p)
            values.append(_equation_residual(lhs, rhs))
            lams.append(lam_i)
        results.append(summarize(f"{check_id}.factor{which}", values, pts,
                                 tolerance, notes=notes(s, lams)))
    if mixed is not None:
        condition, mixed_notes = mixed
        values = [float(np.abs(condition(dwp, psi, p)).max()) for p in points]
        results.append(summarize(f"{check_id}.mixed", values, points,
                                 tolerance, notes=mixed_notes))
    return results


def yamabe_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a gradient Yamabe soliton on the product: each
    factor restriction is a gradient almost Yamabe soliton, and the mixed
    Hessian block of psi vanishes."""

    def equation(d, s, psi, p):
        s1, s2 = d.sides
        # the Laplacian sums are symmetric in the factors: one fixed order
        lam_i = (
            -(s.f_opp**2 / s.f_own**2) * s.tau_opp
            + s.f_opp**2 * (_coeff(spec.lam, p) + _opposite_pairing(d, s, psi)
                            + dwp.m1 * d.lap_l + dwp.m2 * d.lap_k)
            + (dwp.m2 * d.f1 * s1.lap_f + dwp.m1 * d.f2 * s2.lap_f)
            / s.f_own**2
        )
        lhs = dwp.factor_hessian(s.which, psi, p)
        return [lhs], [(s.tau_own - lam_i) * s.g], lam_i

    def notes(s, lams):
        return (f"gradient almost Yamabe soliton on factor {s.which}; "
                f"lambda spread over samples = {max(lams) - min(lams):.3e}")

    return _factor_structures(
        "yamabe", dwp, spec, points, anchor, tolerance, equation, notes,
        mixed=(mixed_yamabe_condition,
               "cross Hessian block of psi must vanish"),
    )


def _eta_ricci_terms(dwp, s, hessian_coefficient, lam_i, psi, p):
    """(lhs, rhs, lambda_i) of the factor's gradient almost eta-Ricci
    equation with potential phi_i, h^phi_i = c h_i^psi - m_opp h_i^log f_own:
    Ric_i + h^phi_i = lambda_i g_i + m_opp d(log f_own) (x) d(log f_own)."""
    h_phi = (hessian_coefficient * dwp.factor_hessian(s.which, psi, p)
             - s.m_opp * s.h_log)
    return ([s.ric, h_phi],
            [lam_i * s.g, s.m_opp * np.outer(s.dlog_own, s.dlog_own)], lam_i)


def ricci_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a gradient Ricci soliton: each factor carries a
    gradient almost eta-Ricci soliton with potential phi_i and eta the
    differential of the log-warping, plus a mixed-derivative condition."""

    def equation(d, s, psi, p):
        lam_i = s.f_opp**2 * (_coeff(spec.lam, p) + s.lap_opp
                              - _opposite_pairing(d, s, psi))
        return _eta_ricci_terms(dwp, s, 1, lam_i, psi, p)

    def notes(s, lams):
        return (f"gradient almost eta-Ricci soliton on factor {s.which} with "
                f"mu = {s.m_opp} and eta the log-warping differential")

    return _factor_structures(
        "ricci", dwp, spec, points, anchor, tolerance, equation, notes,
        mixed=(mixed_ricci_condition,
               "mixed warping/potential derivative condition"),
    )


def riemann_factor_structures(dwp, spec, points, anchor, tolerance):
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

    def equation(d, s, psi, p):
        lam_i = s.f_opp**2 * (
            (m - 1) * _coeff(spec.lam, p) + s.lap_opp
            - dwp.product.laplacian_field(psi, p)
            - (m - 2) * _opposite_pairing(d, s, psi)
        )
        return _eta_ricci_terms(dwp, s, m - 2, lam_i, psi, p)

    def notes(s, lams):
        return (f"gradient almost eta-Ricci soliton on factor {s.which}; the "
                "log-warping term of the potential is constant along this "
                "factor, so either log-warping choice yields the same factor "
                "Hessian")

    return _factor_structures(
        "riemann", dwp, spec, points, anchor, tolerance, equation, notes,
        form="contracted",
    )


def quasi_einstein_factor_structures(dwp, spec, points, anchor, tolerance):
    """Factor consequences of a quasi-Einstein product: each factor carries a
    gradient f-almost eta-Ricci soliton with f = -(opposite dim)/(own warping)
    and eta the restriction of the (unit-normalized) generator 1-form."""
    for p in np.atleast_2d(points):
        if abs(_coeff(spec.beta, p)) <= tolerance:
            raise SolitonError(
                "beta vanishes at a sampled point: the condition degenerates "
                "to an Einstein manifold; rerun with kind=einstein"
            )

    def equation(d, s, psi, p):
        a, beta = _unit_eta_at(spec, dwp.product, p)
        a_i = a[s.own]
        lam_i = s.f_opp**2 * (_coeff(spec.alpha, p) + s.lap_opp)
        return ([(-s.m_opp / s.f_own) * s.h_f, s.ric],
                [lam_i * s.g, beta * np.outer(a_i, a_i)], lam_i)

    def notes(s, lams):
        return (f"gradient f-almost eta-Ricci soliton on factor {s.which} "
                f"with f = -m{3 - s.which}/f{s.which}")

    return _factor_structures(
        "quasi_einstein", dwp, spec, points, anchor, tolerance, equation,
        notes,
    )


def log_hessian_identity(factor, f, points, tolerance):
    """Numeric identity (1/f) hess(f) = hess(log f) + (1/f^2) df (x) df on a
    single chart, used when rewriting factor Hessians of warpings."""
    points = np.atleast_2d(points)
    logf = f.apply("log")
    values = []
    for p in points:
        fv = float(f.evaluate(p))
        df = f.jet(p).gradient
        lhs = factor.hessian_field(f, p) / fv
        rhs = factor.hessian_field(logf, p) + np.outer(df, df) / fv**2
        values.append(_equation_residual([lhs], [rhs]))
    return summarize("identity.log_hessian", values, points, tolerance)
