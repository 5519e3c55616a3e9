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

from .expr import Expression
from .geometry import (
    GeometryError,
    kulkarni_nomizu,
    matvec,
    outer,
    times,
)
from .reporting import (
    PASS, conditional, difference, equation_residual, skipped, summarize,
)

__all__ = [
    "SolitonSpec",
    "SolitonError",
    "SOLITON_KINDS",
    "FIELD_KEYS",
    "equation_terms",
    "contracted_terms",
    "residual",
    "residual_values",
    "contraction_consistency",
    "classify_lambda",
    "yamabe_factor_equation",
    "ricci_factor_equation",
    "riemann_factor_equation",
    "quasi_einstein_factor_equation",
    "yamabe_factor_structures",
    "ricci_factor_structures",
    "riemann_factor_structures",
    "quasi_einstein_factor_structures",
    "log_hessian_identity",
    "mixed_yamabe_condition",
    "mixed_ricci_condition",
    "named_fields",
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


def _unit_eta(spec, c):
    """`_unit_eta_at(spec, c)`, built once per chart record c and spec."""
    return c.once(("unit_eta", spec), lambda: _unit_eta_at(spec, c))


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


def equation_terms(spec, c):
    """(lhs terms, rhs terms) of the spec's defining equation on the chart
    record c: each kind's (0,2) equation, and for kind=riemann the (0,4)
    equation h^psi ^ g + R = lambda G, or at m = 2 its degenerate
    contracted form (`contracted_terms`)."""
    kind, points, g = spec.kind, c.p, c.g
    fields = SOLITON_KINDS[kind]
    if kind == "einstein":
        _, ric, tau = c.curvature
        return [ric], [times(tau / c.chart.dim, g)]
    if kind == "quasi_einstein":
        a, beta = _unit_eta(spec, c)
        return [c.curvature[1]], [times(_coeff(spec.alpha, points), g),
                                  times(beta, outer(a, a))]
    if kind == "riemann" and c.chart.dim < 3:
        return contracted_terms(spec, c)

    h = c.hessian(spec.psi)
    if kind == "conformal":
        return [h], [times(_coeff(spec.gamma, points), g)]

    lam = _coeff(spec.lam, points)
    if kind == "riemann":
        return [c.curvature[0], kulkarni_nomizu(h, g)], [times(lam, c.big_g)]
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


def contracted_terms(spec, c):
    """(lhs, rhs) of the Riemann soliton equation's contracted form
    (m-2) h^psi + Ric = ((m-1) lambda - lap psi) g; for m = 2 the degenerate
    form Ric = (lambda - lap psi) g."""
    m, g, h = c.chart.dim, c.g, c.hessian(spec.psi)
    lam = _coeff(spec.lam, c.p)
    ric = c.curvature[1]
    lap = c.laplacian(spec.psi)
    if m == 2:
        return [ric], [times(lam - lap, g)]
    return [(m - 2) * h, ric], [times((m - 1) * lam - lap, g)]


def residual_values(spec, c):
    """Per-point normalized residuals of the defining equation on c."""
    return equation_residual(*equation_terms(spec, c))


def residual(spec, terms, record, tolerance, check_id):
    """ResidualSummary `check_id` of an equation's (lhs, rhs) terms of the
    spec at the points of `record` (as `summarize` reads it), noting the
    lambda trichotomy."""
    notes = ""
    if spec.lam is not None:
        notes = classify_lambda(spec.lam, tolerance)
    return summarize(check_id, equation_residual(*terms), record, tolerance,
                     notes=notes)


def contraction_consistency(terms, contracted, c, tolerance, check_id):
    """Algebraic identity: contracting the (0,4) soliton equation (`terms`)
    over its outer slots reproduces its contracted form (`contracted`), for
    ANY potential and lambda (soliton validity is irrelevant)."""
    if c.chart.dim < 3:
        raise SolitonError("contraction consistency requires dim >= 3")
    traced = np.einsum("niw,niyzw->nyz", c.ginv, difference(*terms))
    return summarize(check_id,
                     equation_residual([traced], [difference(*contracted)]),
                     c, tolerance)


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


def named_fields(specs, psi):
    """(name, expression) of the default potential `psi` and of each
    expression-valued field that a soliton's kind reads, an expression
    listed earlier not listed again: the fields whose domains a record
    checks (`_PointData.validate`), in the order it names them."""
    fields = [] if psi is None else [("[potential] psi", psi)]
    for i, spec in enumerate(specs):
        for key, value in _named_fields(spec):
            if isinstance(value, Expression) and not any(
                value is e for _, e in fields
            ):
                fields.append((f"soliton[{i}] {key}", value))
    return fields


# -- induced factor structures ------------------------------------------------


def mixed_yamabe_condition(psi, d):
    """Mixed-block condition forced on a gradient Yamabe soliton: the cross
    Hessian block of psi must vanish, i.e.
    XU(psi) - X(k)U(psi) - X(psi)U(l) = 0 on lifted coordinate fields."""
    return d.dwp.hessian_split_closed(psi, d)[d.dwp.block("XU")]


def mixed_ricci_condition(psi, d):
    """Mixed-block condition forced on a gradient Ricci soliton:
    (m-2) X(k)U(l) - X(k)U(psi) - X(psi)U(l) + XU(psi) = 0, the mixed Ricci
    block plus the mixed Hessian block of psi."""
    dwp = d.dwp
    xu = dwp.block("XU")
    return dwp.ricci_closed(d)[xu] + dwp.hessian_split_closed(psi, d)[xu]


# prose of a failing product-level gate, formatted with its residual
_NOT_A_SOLITON = ("skipped: product-level soliton hypothesis fails "
                  "(residual = {:.3e})")

# Each factor equation below gives (lhs terms, rhs terms, notes) of the
# equation that a product-level soliton induces on factor s, on the record
# r of its anchored restriction set; an equation of a kind with a
# potential also takes that potential psi, lifted to the product chart.


def yamabe_factor_equation(spec, r, s, psi):
    """Gradient almost Yamabe soliton on factor s:
    h_i^psi = (tau_i - lambda_i) g_i."""
    dwp, o, jet = r.dwp, s.mirror, r.product.jet(psi)
    s1, s2 = r.sides
    # the Laplacian sums are symmetric in the factors: one fixed order
    lam_i = (
        -(o.f**2 / s.f**2) * o.tau
        + o.f**2 * (_coeff(spec.lam, r.p)
                    + s.opposite_pairing(jet.gradient)
                    + dwp.m1 * s2.lap + dwp.m2 * s1.lap)
        + (dwp.m2 * s1.f * s1.lap_f + dwp.m1 * s2.f * s2.lap_f)
        / s.f**2
    )
    return ([s.hessian(psi)], [times(s.tau - lam_i, s.g)],
            f"gradient almost Yamabe soliton on factor {s.which}; "
            f"lambda spread over samples = {lam_i.max() - lam_i.min():.3e}")


def _eta_ricci_terms(s, hessian_coefficient, lam_i, psi):
    """(lhs, rhs) of the factor's gradient almost eta-Ricci equation with
    potential phi_i, h^phi_i = c h_i^psi - m_opp h_i^log f_own:
    Ric_i + h^phi_i = lambda_i g_i + m_opp d(log f_own) (x) d(log f_own)."""
    m_opp = s.mirror.m
    h_phi = hessian_coefficient * s.hessian(psi) - m_opp * s.h_log
    return ([s.ric, h_phi],
            [times(lam_i, s.g), m_opp * outer(s.dlog, s.dlog)])


def ricci_factor_equation(spec, r, s, psi):
    """Gradient almost eta-Ricci soliton on factor s with potential phi_i
    and eta the differential of the log-warping."""
    o = s.mirror
    lam_i = o.f**2 * (_coeff(spec.lam, r.p) + o.lap
                      - s.opposite_pairing(r.product.jet(psi).gradient))
    return (*_eta_ricci_terms(s, 1, lam_i, psi),
            f"gradient almost eta-Ricci soliton on factor {s.which} with "
            f"mu = {o.m} and eta the log-warping differential")


def riemann_factor_equation(spec, r, s, psi):
    """Gradient almost eta-Ricci soliton on factor s with potential
    (m-2) psi_i - m_j log f_i."""
    m, o = r.dwp.m, s.mirror
    hessian = r.dwp.hessian_split_closed(spec.psi, r)
    lap_psi = sum(  # the trace of the Hessian splitting
        np.einsum("nij,nij->n", t.ginv, hessian[:, t.own, t.own])
        / t.mirror.f**2
        for t in r.sides)
    lam_i = o.f**2 * (
        (m - 1) * _coeff(spec.lam, r.p) + o.lap - lap_psi
        - (m - 2) * s.opposite_pairing(r.product.jet(psi).gradient)
    )
    return (*_eta_ricci_terms(s, m - 2, lam_i, psi),
            f"gradient almost eta-Ricci soliton on factor {s.which}; the "
            "log-warping term of the potential is constant along this "
            "factor, so either log-warping choice yields the same factor "
            "Hessian")


def quasi_einstein_factor_equation(spec, r, s):
    """Gradient f-almost eta-Ricci soliton on factor s with
    f = -(opposite dim)/(own warping) and eta the restriction of the
    unit-normalized generator 1-form (`_unit_eta` on the product chart's
    record r.product)."""
    o = s.mirror
    a, beta = _unit_eta(spec, r.product)
    a_i = a[:, s.own]
    lam_i = o.f**2 * (_coeff(spec.alpha, r.p) + o.lap)
    return ([times(-o.m / s.f, s.h_f), s.ric],
            [times(lam_i, s.g), times(beta, outer(a_i, a_i))],
            f"gradient f-almost eta-Ricci soliton on factor {s.which} "
            f"with f = -m{3 - s.which}/f{s.which}")


# Each builder below takes the record d of the samples (with an anchor) and
# its gate, the summary of the product-level residual at the samples (in
# the contracted form for kind=riemann), named F.product for the family F
# of its checks, whose tolerance its checks keep; for each factor it gives
# the residual of the factor's equation on the anchored restriction set
# (`reporting.conditional`).


def _factor_checks(equation, spec, d, gate, extra=None):
    """The gate and the checks conditional on it: per factor s, the
    residual of `equation(spec, r, s, psi)`, with psi lifted to the product
    chart (`equation(spec, r, s)` for a kind without a potential); `extra`
    as for `reporting.conditional`."""
    psi = () if spec.psi is None else (d.dwp.lifted(spec.psi),)

    def factor(r, s):
        lhs, rhs, notes = equation(spec, r, s, *psi)
        return equation_residual(lhs, rhs), notes

    return conditional(d, gate, _NOT_A_SOLITON, factor, "factor", extra)


def _mixed(condition, psi, d, notes):
    """The mixed check: condition(psi, d) must vanish at each sample
    point."""
    return "mixed", lambda: (np.abs(condition(psi, d)).max(axis=(1, 2)),
                             d, notes)


def yamabe_factor_structures(spec, d, gate):
    """Factor consequences of a gradient Yamabe soliton on the product: each
    factor restriction is a gradient almost Yamabe soliton, and the mixed
    Hessian block of psi vanishes."""
    return _factor_checks(
        yamabe_factor_equation, spec, d, gate,
        _mixed(mixed_yamabe_condition, spec.psi, d,
               "cross Hessian block of psi must vanish"))


def ricci_factor_structures(spec, d, gate):
    """Factor consequences of a gradient Ricci soliton: each factor carries a
    gradient almost eta-Ricci soliton with potential phi_i and eta the
    differential of the log-warping, plus a mixed-derivative condition."""
    return _factor_checks(
        ricci_factor_equation, spec, d, gate,
        _mixed(mixed_ricci_condition, spec.psi, d,
               "mixed warping/potential derivative condition"))


def riemann_factor_structures(spec, d, gate):
    """Factor consequences of a gradient Riemann soliton (m >= 3): each
    factor carries a gradient almost eta-Ricci soliton with potential
    (m-2) psi_i - m_j log f_i."""
    if d.dwp.m < 3:
        gate = skipped(gate.check_id,
                       "skipped: contracted soliton form requires dim >= 3",
                       gate.tolerance)
    return _factor_checks(riemann_factor_equation, spec, d, gate)


def quasi_einstein_factor_structures(spec, d, gate):
    """Factor consequences of a quasi-Einstein product
    (`quasi_einstein_factor_equation`).  A beta vanishing at a sample point
    skips them, and so does a 1-form vanishing on an anchored restriction
    set; the 1-form built for that test is the one the factor equations
    read (`_unit_eta`)."""
    tolerance = gate.tolerance
    if (np.abs(_coeff(spec.beta, d.p)) <= tolerance).any():
        gate = skipped(
            gate.check_id,
            "skipped: beta vanishes at a sampled point: the condition "
            "degenerates to an Einstein manifold; rerun with kind=einstein",
            tolerance)
    elif gate.status == PASS:
        try:
            for which in (1, 2):
                _unit_eta(spec, d.anchored_product(which))
        except SolitonError as exc:
            gate = skipped(gate.check_id, f"skipped: {exc}", tolerance)
    return _factor_checks(quasi_einstein_factor_equation, spec, d, gate)


def log_hessian_identity(c, f, tolerance):
    """Numeric identity (1/f) hess(f) = hess(log f) + (1/f^2) df (x) df at
    the points of the chart record c, used when rewriting factor Hessians of
    warpings."""
    jet = c.jet(f)
    lhs = c.hessian(f) / jet.value[:, None, None]
    rhs = (c.hessian(f.apply("log"))
           + outer(jet.gradient, jet.gradient) / (jet.value**2)[:, None, None])
    return summarize("identity.log_hessian", equation_residual([lhs], [rhs]),
                     c, tolerance)
