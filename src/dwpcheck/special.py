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

from .dwp import DimensionError, coordinate_lifts, wedge_operator
from .geometry import TensorValue, kulkarni_nomizu
from .reporting import PASS, normalized_residual, skipped, summarize

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
    r4 = M.riemann_oracle(p).entries
    g = M.metric_at(p)[0].entries
    tau = M.scalar_oracle(p)
    big_g = 0.5 * kulkarni_nomizu(g, g).entries
    c4 = r4 - (tau / (M.dim * (M.dim - 1))) * big_g
    return TensorValue(c4, ("cov",) * 4)


def conharmonic_oracle(M, p):
    """Fully covariant conharmonic tensor; vanishes exactly on conformally
    flat scalar-flat spaces."""
    if M.dim < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    r4 = M.riemann_oracle(p).entries
    g = M.metric_at(p)[0].entries
    ric = M.ricci_oracle(p).entries
    h4 = r4 - kulkarni_nomizu(ric, g).entries / (M.dim - 2)
    return TensorValue(h4, ("cov",) * 4)


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
    which = 0 if klass == "XYZ" else 1
    ricci_class = ("XX", "UU")[which]
    own = dwp.block(klass)
    lifts = coordinate_lifts(dwp)[which]
    g_own = d.g[own[:2]]
    ric = dwp.ricci_closed(ricci_class, p)
    ric_op = dwp.ricci_operator_closed(ricci_class, p)
    # g(B,Z) Q(A) - g(A,Z) Q(B) + Ric(B,Z) A - Ric(A,Z) B, Q the Ricci operator
    bracket = wedge_operator(g_own, ric_op.T @ lifts) + wedge_operator(
        ric, lifts
    )
    dlog_own, grad_opp = ((d.dk1, d.grad_l), (d.dl2, d.grad_k))[which]
    normal = wedge_operator(g_own, np.outer(dlog_own, grad_opp))
    return dwp.riemann_closed(p)[own] - bracket / (dwp.m - 2) - normal


# -- factor traces and flatness consequences ------------------------------------


def factor_block_trace(dwp, tensor4, which, p):
    """Trace of a (0,4) tensor's same-factor block against the factor metric:
    sum over a factor-orthonormal frame of the factor pairing of T_{e Y}Z
    with e.  This is the contraction used to pass from component identities
    to factor Ricci statements."""
    d = dwp.point_data(p)
    m1 = dwp.m1
    if which == 1:
        block = tensor4[:m1, :m1, :m1, :m1]
        return np.einsum("xt,xyzt->yz", d.g1inv, block) / d.f2**2
    block = tensor4[m1:, m1:, m1:, m1:]
    return np.einsum("xt,xyzt->yz", d.g2inv, block) / d.f1**2


def einstein_defect(dwp, which, p):
    """(factor Ricci) - mu_i (factor metric) with the Einstein constant
    implied by concircular flatness:
    mu_i = f_opp^2 (m_i - 1)(g(grad log f_opp, grad log f_opp) + tau/(m(m-1))).
    Identically equal to the factor-block trace of the concircular tensor."""
    d = dwp.point_data(p)
    c = _scalar_coefficient(dwp, p)
    if which == 1:
        gll = float(d.dl2_ext @ d.ginv @ d.dl2_ext)
        mu = d.f2**2 * (dwp.m1 - 1) * (gll + c)
        return d.ric1 - mu * d.g1, mu
    gkk = float(d.dk1_ext @ d.ginv @ d.dk1_ext)
    mu = d.f1**2 * (dwp.m2 - 1) * (gkk + c)
    return d.ric2 - mu * d.g2, mu


def f_almost_defect(dwp, which, p):
    """f h^{f_i} + (factor Ricci) - lambda_i (factor metric) with the
    coefficients implied by conharmonic flatness:
    lambda_i as quoted for the flatness theorem and f = (m_i - 2)/f_i.
    Identically equal to (m_j/(m-2)) times the factor-block trace of the
    conharmonic tensor."""
    d = dwp.point_data(p)
    m, m1, m2 = dwp.m, dwp.m1, dwp.m2
    if which == 1:
        gll = float(d.dl2_ext @ d.ginv @ d.dl2_ext)
        lam = (d.f2**2 / m2) * (
            d.tau1 / d.f2**2
            - (m2 / (d.f1 * d.f2**2)) * d.lap1_f1
            + (m1 - 1) * ((m - 2) * gll - 2 * d.lap_l)
        )
        f = (m1 - 2) / d.f1
        return f * d.h1_f1 + d.ric1 - lam * d.g1, lam, f
    gkk = float(d.dk1_ext @ d.ginv @ d.dk1_ext)
    lam = (d.f1**2 / m1) * (
        d.tau2 / d.f1**2
        - (m1 / (d.f1**2 * d.f2)) * d.lap2_f2
        + (m2 - 1) * ((m - 2) * gkk - 2 * d.lap_k)
    )
    f = (m2 - 2) / d.f2
    return f * d.h2_f2 + d.ric2 - lam * d.g2, lam, f


def _flatness_gate(check_id, norms, points, tolerance):
    summary = summarize(f"{check_id}.flat", norms, points, tolerance)
    if summary.status != PASS:
        # flatness is a hypothesis, not a claim: a non-flat input skips the
        # conditional consequences instead of failing the run
        reason = (
            f"skipped: hypothesis fails (max tensor norm = "
            f"{summary.max_abs_residual:.3e})"
        )
        gate = skipped(f"{check_id}.flat", reason, tolerance,
                       points=len(norms))
        return gate, reason
    return summary, None


def _dichotomy(dwp, points, tolerance):
    """Branches forced by vanishing mixed components: each log-warping
    differential must vanish, or the opposing factor's differential spans a
    degenerate 2-plane field (automatic in dimension one)."""
    pts = np.atleast_2d(points)
    max_dk = max(float(np.abs(dwp.point_data(p).dk1).max()) for p in pts)
    max_dl = max(float(np.abs(dwp.point_data(p).dl2).max()) for p in pts)
    anti_k = 0.0 if dwp.m1 == 1 else max_dk
    anti_l = 0.0 if dwp.m2 == 1 else max_dl
    c_note = (
        "first warping degenerate branch" if max_dl <= tolerance
        else "antisymmetric warping-gradient branch"
    )
    d_note = (
        "second warping degenerate branch" if max_dk <= tolerance
        else "antisymmetric warping-gradient branch"
    )
    return (c_note, min(max_dl, anti_k)), (d_note, min(max_dk, anti_l))


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
    norms = [
        float(np.abs(concircular_oracle(dwp.product, p).entries).max())
        for p in points
    ]
    gate, reason = _flatness_gate(check_id, norms, points, tolerance)
    results = [gate]
    sub_ids = ("einstein1", "einstein2", "dichotomy")
    if reason is not None:
        return results + [
            skipped(f"{check_id}.{s}", reason, tolerance) for s in sub_ids
        ]
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values, mus = [], []
        for p in pts:
            d = dwp.point_data(p)
            defect, mu = einstein_defect(dwp, which, p)
            ref = [d.ric1 if which == 1 else d.ric2,
                   mu * (d.g1 if which == 1 else d.g2)]
            values.append(normalized_residual(defect, ref))
            mus.append(mu)
        m_i = dwp.m1 if which == 1 else dwp.m2
        notes = (
            f"Einstein constant mu = {mus[0] + 0.0:.6g}, "
            f"spread over samples = {max(mus) - min(mus):.3e}"
        )
        if m_i == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis " \
                     "(condition holds vacuously)"
        results.append(
            summarize(f"{check_id}.einstein{which}", values, pts, tolerance,
                      notes=notes)
        )
    (c_note, c_val), (d_note, d_val) = _dichotomy(dwp, points, tolerance)
    results.append(
        summarize(
            f"{check_id}.dichotomy",
            [c_val, d_val],
            [points[0], points[0]],
            tolerance,
            notes=f"{c_note}; {d_note}",
        )
    )
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
    norms = [
        float(np.abs(conharmonic_oracle(dwp.product, p).entries).max())
        for p in points
    ]
    gate, reason = _flatness_gate(check_id, norms, points, tolerance)
    results = [gate]
    sub_ids = ("soliton1", "soliton2")
    if reason is not None:
        return results + [
            skipped(f"{check_id}.{s}", reason, tolerance) for s in sub_ids
        ]
    for which in (1, 2):
        pts = dwp.anchored(points, anchor, which)
        values, lams = [], []
        for p in pts:
            d = dwp.point_data(p)
            defect, lam, f = f_almost_defect(dwp, which, p)
            if which == 1:
                ref = [f * d.h1_f1, d.ric1, lam * d.g1]
            else:
                ref = [f * d.h2_f2, d.ric2, lam * d.g2]
            values.append(normalized_residual(defect, ref))
            lams.append(lam)
        m_i = dwp.m1 if which == 1 else dwp.m2
        notes = (
            f"gradient f-almost Ricci soliton with f = (m_i - 2)/f_i; "
            f"lambda spread over samples = {max(lams) - min(lams):.3e}"
        )
        if m_i == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis"
        results.append(
            summarize(f"{check_id}.soliton{which}", values, pts, tolerance,
                      notes=notes)
        )
    return results
