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

from dataclasses import dataclass, replace

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
from .reporting import (
    PASS, conditional, equation_residual, skipped, summarize,
)

__all__ = [
    "SolitonSpec",
    "SolitonError",
    "FieldDomainError",
    "SOLITON_KINDS",
    "FIELD_KEYS",
    "residual",
    "residual_values",
    "riemann_terms",
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

# soliton kind -> the SolitonSpec fields its equation reads
SOLITON_KINDS = {
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

# SolitonSpec field -> spec-file key
FIELD_KEYS = {"psi": "psi", "lam": "lambda", "mu": "mu", "gamma": "gamma",
              "f_factor": "f", "alpha": "alpha", "beta": "beta", "eta": "eta"}


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
        # fields are named by their spec-file keys
        reads = SOLITON_KINDS[self.kind]
        for name in reads:
            if getattr(self, name) is None:
                raise SolitonError(f"soliton kind {self.kind!r} requires "
                                   f"field {FIELD_KEYS[name]!r}")
        unread = [key for name, key in FIELD_KEYS.items()
                  if name not in reads and getattr(self, name) is not None]
        if unread:
            raise SolitonError(
                f"soliton kind {self.kind!r} does not read fields {unread}")


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
    fields = SOLITON_KINDS[kind]
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
    else:  # the Ricci kinds
        if "f_factor" in fields:
            h = times(_coeff(spec.f_factor, points), h)
        lhs, rhs = [h, c.curvature[1]], [times(lam, g)]
    if "eta" in fields:
        a = _eta_at(spec, points)
        rhs.append(times(_coeff(spec.mu, points), outer(a, a)))
    return lhs, rhs


def riemann_terms(spec, c):
    """(lhs, rhs) of the (0,4) soliton equation h^psi ^ g + R = lambda G on
    the chart record c."""
    return [c.curvature[0], kulkarni_nomizu(c.hessian(spec.psi), c.g)], [
        times(_coeff(spec.lam, c.p), c.big_g)]


def _terms_riemann_contracted(spec, c):
    """(lhs, rhs) of the contracted form; for m = 2 the degenerate form
    Ric = (lambda - lap psi) g."""
    m, g, h = c.chart.dim, c.g, c.hessian(spec.psi)
    lam = _coeff(spec.lam, c.p)
    ric = c.curvature[1]
    lap = np.einsum("nij,nij->n", c.ginv, h)
    if m == 2:
        return [ric], [times(lam - lap, g)]
    return [(m - 2) * h, ric], [times((m - 1) * lam - lap, g)]


def residual_values(spec, c, form="primary", terms=None):
    """Per-point normalized residuals of the defining equation.

    form: "primary" uses the (0,4) equation for kind=riemann; "contracted"
    uses its trace form (only meaningful for kind=riemann).  `terms` are the
    equation's (lhs, rhs) on c when the caller has built them already (the
    (0,4) ones, `riemann_terms`, are shared with `contraction_consistency`).
    """
    if terms is None and spec.kind != "riemann":
        terms = _terms_0_2(spec, c)
    elif terms is None:
        terms = (riemann_terms if form == "primary" and c.chart.dim >= 3
                 else _terms_riemann_contracted)(spec, c)
    return equation_residual(*terms)


def residual(spec, c, tolerance, form="primary", check_id=None, terms=None):
    """ResidualSummary of the defining soliton equation over sampled points
    (`terms` as for `residual_values`)."""
    values = residual_values(spec, c, form=form, terms=terms)
    if check_id is None:
        check_id = f"soliton.{spec.kind}"
        if spec.kind == "riemann":
            check_id += ".contracted" if form == "contracted" else ".full"
    notes = ""
    if spec.lam is not None:
        notes = classify_lambda(spec.lam, tolerance)
    return summarize(check_id, values, c.p, tolerance, notes=notes)


def contraction_consistency(spec, c, tolerance, terms=None):
    """Algebraic identity: contracting the (0,4) soliton equation over its
    outer slots in an orthonormal frame reproduces the trace form, for ANY
    potential and lambda (soliton validity is irrelevant).  `terms` are the
    equation's (lhs, rhs) on c (`riemann_terms`), if already built."""
    m = c.chart.dim
    if m < 3:
        raise SolitonError("contraction consistency requires dim >= 3")
    g, ginv, h = c.g, c.ginv, c.hessian(spec.psi)
    lhs, rhs = riemann_terms(spec, c) if terms is None else terms
    e4 = lhs[0] + lhs[1] - rhs[0]
    contracted = np.einsum("niw,niyzw->nyz", ginv, e4)
    lam = _coeff(spec.lam, c.p)
    lap = np.einsum("nij,nij->n", ginv, h)
    expected = c.curvature[1] + (m - 2) * h + times(
        lap - (m - 1) * lam, g)
    return summarize("soliton.riemann.contraction",
                     equation_residual([contracted], [expected]), c.p,
                     tolerance)


# -- input domains ------------------------------------------------------------


def _named_fields(spec):
    """(spec-file key, value) of each field the spec's kind reads, in
    FIELD_KEYS order; a tuple's entries are named key[j]."""
    for attr, key in FIELD_KEYS.items():
        if attr in SOLITON_KINDS[spec.kind]:
            value = getattr(spec, attr)
            if isinstance(value, tuple):
                yield from ((f"{key}[{j}]", e) for j, e in enumerate(value))
            else:
                yield key, value


def validate_fields(dwp, specs, psi, points, anchor):
    """Reject the first point, in the order samples, anchored restriction
    set of factor 1, then of factor 2, at which the default potential `psi`
    or an expression-valued field that a soliton's kind reads cannot be
    evaluated; at a point where several fail, the first one listed."""
    fields = [] if psi is None else [("[potential] psi", psi)]
    for i, spec in enumerate(specs):
        for key, value in _named_fields(spec):
            if isinstance(value, Expression) and not any(
                value is e for _, e in fields
            ):
                fields.append((f"soliton[{i}] {key}", value))
    pts = np.concatenate([points] + [
        dwp.anchored(points, anchor, which) for which in (1, 2)
    ])
    first = None  # (row, name, expression, error) of the earliest failure
    for name, expr in fields:
        try:
            # a later field counts only where it fails strictly earlier
            expr.evaluate(pts if first is None else pts[: first[0]])
        except DomainError as exc:
            first = (exc.index, name, expr, exc)
    if first is not None:
        row, name, expr, exc = first
        raise FieldDomainError(
            f"{name} = {str(expr)!r} leaves its domain at "
            f"{pts[row].tolist()}: {exc}"
        )


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

# Each builder below takes the record d of the samples (with an anchor) and
# its gate, the summary of the product-level residual at the samples
# (`residual(spec, d.product, tolerance)`, in the contracted form for
# kind=riemann), reported as factors.<kind>.product; for each factor it
# gives the residual of the factor's equation on the anchored restriction
# set (`reporting.conditional`).


def _mixed(condition, dwp, psi, d, notes):
    """The mixed check: condition(dwp, psi, d) must vanish at each sample
    point."""
    return "mixed", lambda: (np.abs(condition(dwp, psi, d)).max(axis=(1, 2)),
                             d.p, notes)


def yamabe_factor_structures(dwp, spec, d, tolerance, gate):
    """Factor consequences of a gradient Yamabe soliton on the product: each
    factor restriction is a gradient almost Yamabe soliton, and the mixed
    Hessian block of psi vanishes."""
    psi = dwp.lifted(spec.psi)

    def factor(r, s):
        jet = r.product.jet(psi)
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
        return (equation_residual([s.hessian(jet)],
                                  [times(s.tau - lam_i, s.g)]),
                f"gradient almost Yamabe soliton on factor {s.which}; "
                f"lambda spread over samples = "
                f"{lam_i.max() - lam_i.min():.3e}")

    return conditional(
        d, replace(gate, check_id="factors.yamabe.product"), _NOT_A_SOLITON,
        factor, "factor",
        _mixed(mixed_yamabe_condition, dwp, psi, d,
               "cross Hessian block of psi must vanish"))


def _eta_ricci_terms(s, hessian_coefficient, lam_i, jet):
    """(lhs, rhs) of the factor's gradient almost eta-Ricci equation with
    potential phi_i, h^phi_i = c h_i^psi - m_opp h_i^log f_own:
    Ric_i + h^phi_i = lambda_i g_i + m_opp d(log f_own) (x) d(log f_own)."""
    m_opp = s.mirror.m
    h_phi = hessian_coefficient * s.hessian(jet) - m_opp * s.h_log
    return ([s.ric, h_phi],
            [times(lam_i, s.g), m_opp * outer(s.dlog, s.dlog)])


def ricci_factor_structures(dwp, spec, d, tolerance, gate):
    """Factor consequences of a gradient Ricci soliton: each factor carries a
    gradient almost eta-Ricci soliton with potential phi_i and eta the
    differential of the log-warping, plus a mixed-derivative condition."""
    psi = dwp.lifted(spec.psi)

    def factor(r, s):
        jet = r.product.jet(psi)
        o = s.mirror
        lam_i = o.f**2 * (_coeff(spec.lam, r.p) + o.lap
                          - s.opposite_pairing(jet.gradient))
        return (equation_residual(*_eta_ricci_terms(s, 1, lam_i, jet)),
                f"gradient almost eta-Ricci soliton on factor {s.which} with "
                f"mu = {o.m} and eta the log-warping differential")

    return conditional(
        d, replace(gate, check_id="factors.ricci.product"), _NOT_A_SOLITON,
        factor, "factor",
        _mixed(mixed_ricci_condition, dwp, psi, d,
               "mixed warping/potential derivative condition"))


def riemann_factor_structures(dwp, spec, d, tolerance, gate):
    """Factor consequences of a gradient Riemann soliton (m >= 3): each
    factor carries a gradient almost eta-Ricci soliton with potential
    (m-2) psi_i - m_j log f_i."""
    m = dwp.m
    gate = replace(gate, check_id="factors.riemann.product")
    if m < 3:
        gate = skipped(gate.check_id,
                       "skipped: contracted soliton form requires dim >= 3",
                       tolerance)
    psi = dwp.lifted(spec.psi)

    def factor(r, s):
        jet = r.product.jet(psi)
        o = s.mirror
        lap_psi = sum(  # the trace of the Hessian splitting
            np.einsum("nij,nij->n", t.ginv, dwp.hessian_split_closed(
                psi, klass, r)) / t.mirror.f**2
            for klass, t in zip(("XX", "UU"), r.sides))
        lam_i = o.f**2 * (
            (m - 1) * _coeff(spec.lam, r.p) + o.lap - lap_psi
            - (m - 2) * s.opposite_pairing(jet.gradient)
        )
        return (equation_residual(*_eta_ricci_terms(s, m - 2, lam_i,
                                                     jet)),
                f"gradient almost eta-Ricci soliton on factor {s.which}; the "
                "log-warping term of the potential is constant along this "
                "factor, so either log-warping choice yields the same factor "
                "Hessian")

    return conditional(d, gate, _NOT_A_SOLITON, factor, "factor")


def quasi_einstein_factor_structures(dwp, spec, d, tolerance, gate):
    """Factor consequences of a quasi-Einstein product: each factor carries a
    gradient f-almost eta-Ricci soliton with f = -(opposite dim)/(own warping)
    and eta the restriction of the (unit-normalized) generator 1-form.  A
    beta vanishing at a sample point skips them, and so does a 1-form
    vanishing on an anchored restriction set."""
    gate = replace(gate, check_id="factors.quasi_einstein.product")
    units = {}
    if (np.abs(_coeff(spec.beta, d.p)) <= tolerance).any():
        gate = skipped(
            gate.check_id,
            "skipped: beta vanishes at a sampled point: the condition "
            "degenerates to an Einstein manifold; rerun with kind=einstein",
            tolerance)
    elif gate.status == PASS:
        try:
            units = {which: _unit_eta_at(spec, d.anchored_product(which))
                     for which in (1, 2)}
        except SolitonError as exc:
            gate = skipped(gate.check_id, f"skipped: {exc}", tolerance)

    def factor(r, s):
        o = s.mirror
        a, beta = units[s.which]
        a_i = a[:, s.own]
        lam_i = o.f**2 * (_coeff(spec.alpha, r.p) + o.lap)
        return (equation_residual(
                    [times(-o.m / s.f, s.h_f), s.ric],
                    [times(lam_i, s.g), times(beta, outer(a_i, a_i))]),
                f"gradient f-almost eta-Ricci soliton on factor {s.which} "
                f"with f = -m{3 - s.which}/f{s.which}")

    return conditional(d, gate, _NOT_A_SOLITON, factor, "factor")


def log_hessian_identity(c, f, tolerance):
    """Numeric identity (1/f) hess(f) = hess(log f) + (1/f^2) df (x) df at
    the points of the chart record c, used when rewriting factor Hessians of
    warpings."""
    jet = c.jet(f)
    lhs = covariant_hessian(c.gamma, jet) / jet.value[:, None, None]
    rhs = (c.hessian(f.apply("log"))
           + outer(jet.gradient, jet.gradient) / (jet.value**2)[:, None, None])
    return summarize("identity.log_hessian", equation_residual([lhs], [rhs]),
                     c.p, tolerance)
