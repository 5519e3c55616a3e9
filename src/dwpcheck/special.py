"""Concircular and conharmonic curvature on doubly warped products.

The concircular tensor removes the scalar part of the curvature,
C = R - (tau/(m(m-1))) G with G = (1/2)(g ^ g); the conharmonic tensor
removes a Ricci combination, H = R - (1/(m-2))(Ric ^ g).  Both get a
brute-force oracle on any chart plus closed-form block tensors on doubly
warped products, and the structural consequences of their vanishing are
verified on the factors.
"""

from __future__ import annotations

import numpy as np

from .dwp import DimensionError, wedge_operator
from .geometry import kulkarni_nomizu
from .reporting import gated, normalized_residual, summarize

__all__ = [
    "DimensionError",
    "concircular_oracle",
    "concircular_closed",
    "concircular_flat_consequences",
    "conharmonic_oracle",
    "conharmonic_closed",
    "conharmonic_flat_consequences",
    "factor_block_trace",
    "einstein_defect",
    "f_almost_defect",
    "CONHARMONIC_CLASSES",
]

CONHARMONIC_CLASSES = ("XYZ", "UVW")


# -- oracles -------------------------------------------------------------------


def concircular_oracle(M, p):
    """Fully covariant concircular tensor, assembled from the curvature
    oracle; vanishes on constant-curvature spaces."""
    if M.dim < 2:
        raise DimensionError("concircular tensor requires dim >= 2")
    r4 = M.riemann_oracle(p)
    g = M.metric_at(p)[0]
    tau = M.scalar_oracle(p)
    big_g = 0.5 * kulkarni_nomizu(g, g)
    return r4 - (tau / (M.dim * (M.dim - 1))) * big_g


def conharmonic_oracle(M, p):
    """Fully covariant conharmonic tensor; vanishes exactly on conformally
    flat scalar-flat spaces."""
    if M.dim < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    r4 = M.riemann_oracle(p)
    g = M.metric_at(p)[0]
    ric = M.ricci_oracle(p)
    return r4 - kulkarni_nomizu(ric, g) / (M.dim - 2)


# -- closed forms on doubly warped products -------------------------------------


def _scalar_coefficient(dwp, p):
    """tau/(m(m-1)) with tau the product scalar curvature."""
    return dwp.product.scalar_oracle(p) / (dwp.m * (dwp.m - 1))


def concircular_closed(dwp, p):
    """Closed-form concircular tensor C[i, j, k, c] = (C(d_i, d_j) d_k)^c: the
    curvature splitting minus the scalar part c G with c = tau/(m(m-1)) and
    G_{AB}Z = g(B,Z)A - g(A,Z)B."""
    c = _scalar_coefficient(dwp, p)
    g = dwp.point_data(p).g
    return dwp.riemann_closed(p) - c * wedge_operator(g, np.eye(dwp.m))


def conharmonic_closed(dwp, klass, p):
    """Closed-form conharmonic block for same-factor lifted inputs (klass XYZ
    or UVW), as out[a, b, z, c] = (H(d_a, d_b) d_z)^c over the product chart;
    the mixed patterns have no closed splitting and are covered by the oracle
    only.

    Besides the tangential Ricci-operator insertions, the mixed Ricci block
    contributes a normal part: applying the full Ricci operator to a lifted
    field picks up (m-2) X(log f_own) grad(log f_opp), which adds
    -(g(Y,Z)X(k) - g(X,Z)Y(k)) grad l to the first-factor component (and the
    k <-> l mirror on the second factor).  Component formulas that keep only
    the tangential operator hold only after projection to the factor.
    """
    if dwp.m < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    if klass not in CONHARMONIC_CLASSES:
        raise ValueError(f"unknown conharmonic class {klass!r}")
    d = dwp.point_data(p)
    s = d.side(1 if klass == "XYZ" else 2)
    ricci_class = klass[0] * 2  # XX or UU
    own = s.own
    g_own = d.g[own, own]
    ric = dwp.ricci_closed(ricci_class, p)
    ric_op = dwp.ricci_operator_closed(ricci_class, p)
    # g(B,Z) Q(A) - g(A,Z) Q(B) + Ric(B,Z) A - Ric(A,Z) B, Q the Ricci operator
    bracket = wedge_operator(g_own, ric_op.T @ s.lift_own) + wedge_operator(
        ric, s.lift_own
    )
    normal = wedge_operator(g_own, np.outer(s.dlog_own, s.grad_opp))
    return dwp.riemann_closed(p)[own, own, own] - bracket / (dwp.m - 2) - normal


# -- factor traces and flatness consequences ------------------------------------


def factor_block_trace(dwp, tensor4, which, p):
    """Trace of a (0,4) tensor's same-factor block against the factor metric:
    sum over a factor-orthonormal frame of the factor pairing of T_{e Y}Z
    with e.  This is the contraction used to pass from component identities
    to factor Ricci statements."""
    s = dwp.point_data(p).side(which)
    own = s.own
    block = tensor4[own, own, own, own]
    return np.einsum("xt,xyzt->yz", s.ginv, block) / s.f_opp**2


def _opposite_gradient_sq(d, s):
    """g(grad log f_opp, grad log f_opp) on the product."""
    return float(s.dlog_opp_ext @ d.ginv @ s.dlog_opp_ext)


def einstein_defect(dwp, which, p):
    """(factor Ricci) - mu_i (factor metric) with the Einstein constant
    implied by concircular flatness:
    mu_i = f_opp^2 (m_i - 1)(g(grad log f_opp, grad log f_opp) + tau/(m(m-1))).
    Identically equal to the factor-block trace of the concircular tensor."""
    d = dwp.point_data(p)
    s = d.side(which)
    c = _scalar_coefficient(dwp, p)
    mu = s.f_opp**2 * (s.m_own - 1) * (_opposite_gradient_sq(d, s) + c)
    return s.ric - mu * s.g, mu


def f_almost_defect(dwp, which, p):
    """f h^{f_i} + (factor Ricci) - lambda_i (factor metric) with the
    coefficients implied by conharmonic flatness:
    lambda_i as quoted for the flatness theorem and f = (m_i - 2)/f_i.
    Identically equal to (m_j/(m-2)) times the factor-block trace of the
    conharmonic tensor."""
    d = dwp.point_data(p)
    s = d.side(which)
    lam = (s.f_opp**2 / s.m_opp) * (
        s.tau_own / s.f_opp**2
        - (s.m_opp / (s.f_own * s.f_opp**2)) * s.lap_f
        + (s.m_own - 1) * ((dwp.m - 2) * _opposite_gradient_sq(d, s)
                           - 2 * s.lap_opp)
    )
    f = (s.m_own - 2) / s.f_own
    return f * s.h_f + s.ric - lam * s.g, lam, f


# flatness is a hypothesis, not a claim: a non-flat input skips the
# conditional consequences instead of failing the run, for this reason
# (formatted with the max tensor norm)
_NOT_FLAT = "skipped: hypothesis fails (max tensor norm = {:.3e})"


def _dichotomy(dwp, points, tolerance):
    """Branches forced by vanishing mixed components, per factor as (note,
    value): each log-warping differential must vanish, or the opposing
    factor's differential spans a degenerate 2-plane field (automatic in
    dimension one)."""
    largest = [
        max(float(np.abs(dwp.point_data(p).side(which).dlog_own).max())
            for p in np.atleast_2d(points))
        for which in (1, 2)
    ]
    out = []
    for own, opp, m_own, name in ((0, 1, dwp.m1, "first"),
                                  (1, 0, dwp.m2, "second")):
        note = (
            f"{name} warping degenerate branch" if largest[opp] <= tolerance
            else "antisymmetric warping-gradient branch"
        )
        out.append((note, min(largest[opp],
                              0.0 if m_own == 1 else largest[own])))
    return out


def concircular_flat_consequences(dwp, points, anchor, tolerance):
    """If the product is numerically concircularly flat on the sampled
    region, verify that both factors are Einstein with the implied constants
    and evaluate the warping dichotomies.

    The statement's hypothesis requires both factor dimensions > 1; a
    one-dimensional factor is still processed (its Einstein condition is
    vacuous) and flagged in the notes.
    """
    check_id = "concircular"
    points = np.atleast_2d(points)
    norms = [float(np.abs(concircular_oracle(dwp.product, p)).max())
             for p in points]
    results, flat = gated(
        check_id, summarize(f"{check_id}.flat", norms, points, tolerance),
        _NOT_FLAT, ("einstein1", "einstein2", "dichotomy"),
    )
    if not flat:
        return results
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values, mus = [], []
        for p in pts:
            s = dwp.point_data(p).side(which)
            defect, mu = einstein_defect(dwp, which, p)
            values.append(normalized_residual(defect, [s.ric, mu * s.g]))
            mus.append(mu)
        notes = (
            f"Einstein constant mu = {mus[0] + 0.0:.6g}, "
            f"spread over samples = {max(mus) - min(mus):.3e}"
        )
        if s.m_own == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis " \
                     "(condition holds vacuously)"
        results.append(
            summarize(f"{check_id}.einstein{which}", values, pts, tolerance,
                      notes=notes)
        )
    notes, values = zip(*_dichotomy(dwp, points, tolerance))
    results.append(summarize(f"{check_id}.dichotomy", values,
                             [points[0], points[0]], tolerance,
                             notes="; ".join(notes)))
    return results


def conharmonic_flat_consequences(dwp, points, anchor, tolerance):
    """If the product is numerically conharmonically flat on the sampled
    region, verify that each factor carries a gradient f-almost Ricci
    soliton with potential the warping function.

    The coefficient of the factor Hessian is (m_i - 2)/f_i, obtained by
    contracting the component identity; it reduces to the often-quoted
    -m_j (1 - (m_i - 1) f_j^2)/((m - m_i) f_i f_j^2) exactly when the
    opposite warping is identically 1.
    """
    check_id = "conharmonic"
    if dwp.m < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    points = np.atleast_2d(points)
    norms = [float(np.abs(conharmonic_oracle(dwp.product, p)).max())
             for p in points]
    results, flat = gated(
        check_id, summarize(f"{check_id}.flat", norms, points, tolerance),
        _NOT_FLAT, ("soliton1", "soliton2"),
    )
    if not flat:
        return results
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values, lams = [], []
        for p in pts:
            s = dwp.point_data(p).side(which)
            defect, lam, f = f_almost_defect(dwp, which, p)
            values.append(
                normalized_residual(defect, [f * s.h_f, s.ric, lam * s.g])
            )
            lams.append(lam)
        notes = (
            f"gradient f-almost Ricci soliton with f = (m_i - 2)/f_i; "
            f"lambda spread over samples = {max(lams) - min(lams):.3e}"
        )
        if s.m_own == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis"
        results.append(
            summarize(f"{check_id}.soliton{which}", values, pts, tolerance,
                      notes=notes)
        )
    return results
