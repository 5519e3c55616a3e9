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
from .geometry import kulkarni_nomizu, outer, times
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


def concircular_oracle(M, points):
    """Fully covariant concircular tensor, assembled from the curvature
    oracle; vanishes on constant-curvature spaces."""
    if M.dim < 2:
        raise DimensionError("concircular tensor requires dim >= 2")
    r4, _, tau = M.curvature(points)
    g = M.metric_at(points)[0]
    big_g = 0.5 * kulkarni_nomizu(g, g)
    return r4 - times(tau / (M.dim * (M.dim - 1)), big_g)


def conharmonic_oracle(M, points):
    """Fully covariant conharmonic tensor; vanishes exactly on conformally
    flat scalar-flat spaces."""
    if M.dim < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    r4, ric, _ = M.curvature(points)
    g = M.metric_at(points)[0]
    return r4 - kulkarni_nomizu(ric, g) / (M.dim - 2)


# -- closed forms on doubly warped products -------------------------------------


def _scalar_coefficient(dwp, points):
    """tau/(m(m-1)) with tau the product scalar curvature."""
    return dwp.product.scalar_oracle(points) / (dwp.m * (dwp.m - 1))


def concircular_closed(dwp, points):
    """Closed-form concircular tensor C[n, i, j, k, c] = (C(d_i, d_j) d_k)^c:
    the curvature splitting minus the scalar part c G with c = tau/(m(m-1))
    and G_{AB}Z = g(B,Z)A - g(A,Z)B."""
    c = _scalar_coefficient(dwp, points)
    g = dwp.product.metric_at(points)[0]
    return dwp.riemann_closed(points) - times(
        c, wedge_operator(g, np.eye(dwp.m)))


def conharmonic_closed(dwp, points):
    """Closed-form conharmonic blocks for same-factor lifted inputs, as
    {klass: out} for klass XYZ and UVW with out[n, a, b, z, c] =
    (H(d_a, d_b) d_z)^c over the product chart; the mixed patterns have no
    closed splitting and are covered by the oracle only.

    Besides the tangential Ricci-operator insertions, the mixed Ricci block
    contributes a normal part: applying the full Ricci operator to a lifted
    field picks up (m-2) X(log f_own) grad(log f_opp), which adds
    -(g(Y,Z)X(k) - g(X,Z)Y(k)) grad l to the first-factor component (and the
    k <-> l mirror on the second factor).  Component formulas that keep only
    the tangential operator hold only after projection to the factor.
    """
    if dwp.m < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    d = dwp.point_data(points)
    curvature = dwp.riemann_closed(points)
    out = {}
    for klass, s in zip(CONHARMONIC_CLASSES, d.sides):
        ricci_class = klass[0] * 2  # XX or UU
        own = s.own
        g_own = d.g[:, own, own]
        ric = dwp.ricci_closed(ricci_class, points)
        ric_op = dwp.ricci_operator_closed(ricci_class, points)
        # g(B,Z) Q(A) - g(A,Z) Q(B) + Ric(B,Z) A - Ric(A,Z) B, Q the Ricci
        # operator
        bracket = wedge_operator(
            g_own, ric_op.transpose(0, 2, 1) @ s.lift_own
        ) + wedge_operator(ric, s.lift_own)
        normal = wedge_operator(g_own, outer(s.dlog_own, s.grad_opp))
        out[klass] = (curvature[:, own, own, own] - bracket / (dwp.m - 2)
                      - normal)
    return out


# -- factor traces and flatness consequences ------------------------------------


def factor_block_trace(dwp, tensor4, which, points):
    """Trace of a (0,4) tensor's same-factor block against the factor metric:
    sum over a factor-orthonormal frame of the factor pairing of T_{e Y}Z
    with e.  This is the contraction used to pass from component identities
    to factor Ricci statements."""
    s = dwp.point_data(points).side(which)
    own = s.own
    block = tensor4[:, own, own, own, own]
    return np.einsum("nxt,nxyzt->nyz", s.ginv, block) / (
        s.f_opp**2)[:, None, None]


def einstein_defect(dwp, which, points):
    """(factor Ricci) - mu_i (factor metric) with the Einstein constant
    implied by concircular flatness:
    mu_i = f_opp^2 (m_i - 1)(g(grad log f_opp, grad log f_opp) + tau/(m(m-1))).
    Identically equal to the factor-block trace of the concircular tensor."""
    s = dwp.point_data(points).side(which)
    c = _scalar_coefficient(dwp, points)
    grad_sq = s.opposite_pairing(s.dlog_opp_ext)  # |grad log f_opp|^2
    mu = s.f_opp**2 * (s.m_own - 1) * (grad_sq + c)
    return s.ric - times(mu, s.g), mu


def f_almost_defect(dwp, which, points):
    """f h^{f_i} + (factor Ricci) - lambda_i (factor metric) with the
    coefficients implied by conharmonic flatness:
    lambda_i as quoted for the flatness theorem and f = (m_i - 2)/f_i.
    Identically equal to (m_j/(m-2)) times the factor-block trace of the
    conharmonic tensor."""
    s = dwp.point_data(points).side(which)
    lam = (s.f_opp**2 / s.m_opp) * (
        s.tau_own / s.f_opp**2
        - (s.m_opp / (s.f_own * s.f_opp**2)) * s.lap_f
        + (s.m_own - 1) * ((dwp.m - 2) * s.opposite_pairing(s.dlog_opp_ext)
                           - 2 * s.lap_opp)
    )
    f = (s.m_own - 2) / s.f_own
    return times(f, s.h_f) + s.ric - times(lam, s.g), lam, f


# flatness is a hypothesis, not a claim: a non-flat input skips the
# conditional consequences instead of failing the run, for this reason
# (formatted with the max tensor norm)
_NOT_FLAT = "skipped: hypothesis fails (max tensor norm = {:.3e})"


def _max_norms(tensor):
    """Per point: the largest absolute component."""
    return np.abs(tensor).reshape(len(tensor), -1).max(axis=1)


def _dichotomy(dwp, points, tolerance):
    """Branches forced by vanishing mixed components, per factor as (note,
    value): each log-warping differential must vanish, or the opposing
    factor's differential spans a degenerate 2-plane field (automatic in
    dimension one)."""
    d = dwp.point_data(points)
    largest = [float(np.abs(s.dlog_own).max()) for s in d.sides]
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
    norms = _max_norms(concircular_oracle(dwp.product, points))
    results, flat = gated(
        check_id, summarize(f"{check_id}.flat", norms, points, tolerance),
        _NOT_FLAT, ("einstein1", "einstein2", "dichotomy"),
    )
    if not flat:
        return results
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        s = dwp.point_data(pts).side(which)
        defect, mu = einstein_defect(dwp, which, pts)
        values = normalized_residual(defect, [s.ric, times(mu, s.g)])
        notes = (
            f"Einstein constant mu = {mu[0] + 0.0:.6g}, "
            f"spread over samples = {mu.max() - mu.min():.3e}"
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
    norms = _max_norms(conharmonic_oracle(dwp.product, points))
    results, flat = gated(
        check_id, summarize(f"{check_id}.flat", norms, points, tolerance),
        _NOT_FLAT, ("soliton1", "soliton2"),
    )
    if not flat:
        return results
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        s = dwp.point_data(pts).side(which)
        defect, lam, f = f_almost_defect(dwp, which, pts)
        values = normalized_residual(
            defect, [times(f, s.h_f), s.ric, times(lam, s.g)])
        notes = (
            f"gradient f-almost Ricci soliton with f = (m_i - 2)/f_i; "
            f"lambda spread over samples = {lam.max() - lam.min():.3e}"
        )
        if s.m_own == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis"
        results.append(
            summarize(f"{check_id}.soliton{which}", values, pts, tolerance,
                      notes=notes)
        )
    return results
