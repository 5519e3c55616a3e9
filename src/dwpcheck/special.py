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
from .reporting import conditional, normalized_residual, summarize

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


def concircular_oracle(c):
    """Fully covariant concircular tensor, assembled from the curvature
    oracle of the chart record c; vanishes on constant-curvature spaces."""
    m = c.chart.dim
    if m < 2:
        raise DimensionError("concircular tensor requires dim >= 2")
    r4, _, tau = c.curvature
    return r4 - times(tau / (m * (m - 1)), c.big_g)


def conharmonic_oracle(c):
    """Fully covariant conharmonic tensor of the chart record c; vanishes
    exactly on conformally flat scalar-flat spaces."""
    m = c.chart.dim
    if m < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    r4, ric, _ = c.curvature
    return r4 - kulkarni_nomizu(ric, c.g) / (m - 2)


# -- closed forms on doubly warped products -------------------------------------


def _scalar_coefficient(d):
    """tau/(m(m-1)) with tau the closed-form product scalar curvature."""
    m = d.dwp.m
    return d.dwp.scalar_closed(d) / (m * (m - 1))


def concircular_closed(d):
    """Closed-form concircular tensor C[n, i, j, k, c] = (C(d_i, d_j) d_k)^c:
    the curvature splitting minus the scalar part c G with c = tau/(m(m-1))
    and G_{AB}Z = g(B,Z)A - g(A,Z)B."""
    return d.dwp.riemann_closed(d) - times(
        _scalar_coefficient(d), wedge_operator(d.gp, np.eye(d.dwp.m)))


def conharmonic_closed(d):
    """Closed-form conharmonic tensor out[n, i, j, k, c] =
    (H(d_i, d_j) d_k)^c over the product chart on its same-factor blocks
    (CONHARMONIC_CLASSES: XYZ and UVW); the mixed patterns have no closed
    splitting and are covered by the oracle only, and read 0 here.

    Besides the tangential Ricci-operator insertions, the mixed Ricci block
    contributes a normal part: applying the full Ricci operator to a lifted
    field picks up (m-2) X(log f_own) grad(log f_opp), which adds
    -(g(Y,Z)X(k) - g(X,Z)Y(k)) grad l to the first-factor component (and the
    k <-> l mirror on the second factor).  Component formulas that keep only
    the tangential operator hold only after projection to the factor.
    """
    dwp = d.dwp
    if dwp.m < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")
    curvature = dwp.riemann_closed(d)
    ric, ric_op = dwp.ricci_closed(d), dwp.ricci_operator_closed(d)
    out = np.zeros_like(curvature)
    for s in d.sides:
        own = s.own
        # g(B,Z) Q(A) - g(A,Z) Q(B) + Ric(B,Z) A - Ric(A,Z) B, Q the Ricci
        # operator
        bracket = wedge_operator(
            s.gp, ric_op[:, own, own].transpose(0, 2, 1) @ s.lift
        ) + wedge_operator(ric[:, own, own], s.lift)
        normal = wedge_operator(s.gp, outer(s.dlog, s.mirror.grad))
        out[:, own, own, own] = (curvature[:, own, own, own]
                                 - bracket / (dwp.m - 2) - normal)
    return out


# -- factor traces and flatness consequences ------------------------------------


def factor_block_trace(tensor4, which, d):
    """Trace of a (0,4) tensor's same-factor block against the factor metric:
    sum over a factor-orthonormal frame of the factor pairing of T_{e Y}Z
    with e.  This is the contraction used to pass from component identities
    to factor Ricci statements."""
    s = d.side(which)
    own = s.own
    block = tensor4[:, own, own, own, own]
    return np.einsum("nxt,nxyzt->nyz", s.ginv, block) / (
        s.mirror.f**2)[:, None, None]


def einstein_defect(which, d):
    """(factor Ricci) - mu_i (factor metric) with the Einstein constant
    implied by concircular flatness:
    mu_i = f_opp^2 (m_i - 1)(g(grad log f_opp, grad log f_opp) + tau/(m(m-1))).
    Identically equal to the factor-block trace of the concircular tensor."""
    s = d.side(which)
    o = s.mirror
    mu = o.f**2 * (s.m - 1) * (o.grad_sq + _scalar_coefficient(d))
    return s.ric - times(mu, s.g), mu


def f_almost_defect(which, d):
    """f h^{f_i} + (factor Ricci) - lambda_i (factor metric) with the
    coefficients implied by conharmonic flatness:
    lambda_i as quoted for the flatness theorem and f = (m_i - 2)/f_i.
    Identically equal to (m_j/(m-2)) times the factor-block trace of the
    conharmonic tensor."""
    s = d.side(which)
    o = s.mirror
    lam = (o.f**2 / o.m) * (
        s.tau / o.f**2
        - (o.m / (s.f * o.f**2)) * s.lap_f
        + (s.m - 1) * ((d.dwp.m - 2) * o.grad_sq - 2 * o.lap)
    )
    f = (s.m - 2) / s.f
    return times(f, s.h_f) + s.ric - times(lam, s.g), lam, f


# flatness is a hypothesis, not a claim: a non-flat input skips the
# conditional consequences instead of failing the run, for this reason
# (formatted with the max tensor norm)
_NOT_FLAT = "skipped: hypothesis fails (max tensor norm = {:.3e})"


def _max_norms(tensor):
    """Per point: the largest absolute component."""
    return np.abs(tensor).reshape(len(tensor), -1).max(axis=1)


def _dichotomy(d, tolerance):
    """Branches forced by vanishing mixed components, per factor, as
    (values, the record of their points, notes), both at the first sample
    point: each log-warping differential must vanish, or the opposing
    factor's differential spans a degenerate 2-plane field (automatic in
    dimension one)."""
    largest = [float(np.abs(s.dlog).max()) for s in d.sides]
    values, notes = [], []
    for own, opp, m_own, name in ((0, 1, d.dwp.m1, "first"),
                                  (1, 0, d.dwp.m2, "second")):
        notes.append(
            f"{name} warping degenerate branch" if largest[opp] <= tolerance
            else "antisymmetric warping-gradient branch"
        )
        values.append(min(largest[opp], 0.0 if m_own == 1 else largest[own]))
    return values, d.product.take([0, 0]), "; ".join(notes)


def concircular_flat_consequences(d, tolerance, oracle):
    """If the product is numerically concircularly flat on the samples of
    the record d (its concircular tensor there is `oracle`, as
    `concircular_oracle(d.product)` gives it), verify that both factors are
    Einstein with the implied constants and evaluate the warping
    dichotomies.

    The statement's hypothesis requires both factor dimensions > 1; a
    one-dimensional factor is still processed (its Einstein condition is
    vacuous) and flagged in the notes.
    """

    def einstein(r, s):
        defect, mu = einstein_defect(s.which, r)
        notes = (
            f"Einstein constant mu = {mu[0] + 0.0:.6g}, "
            f"spread over samples = {mu.max() - mu.min():.3e}"
        )
        if s.m == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis " \
                     "(condition holds vacuously)"
        return normalized_residual(defect, [s.ric, times(mu, s.g)]), notes

    return conditional(
        d, summarize("concircular.flat", _max_norms(oracle), d, tolerance),
        _NOT_FLAT, einstein, "einstein",
        ("dichotomy", lambda: _dichotomy(d, tolerance)))


def conharmonic_flat_consequences(d, tolerance, oracle):
    """If the product is numerically conharmonically flat on the samples of
    the record d (its conharmonic tensor there is `oracle`, as
    `conharmonic_oracle(d.product)` gives it), verify that each factor
    carries a gradient f-almost Ricci soliton with potential the warping
    function.

    The coefficient of the factor Hessian is (m_i - 2)/f_i, obtained by
    contracting the component identity; it reduces to the often-quoted
    -m_j (1 - (m_i - 1) f_j^2)/((m - m_i) f_i f_j^2) exactly when the
    opposite warping is identically 1.
    """
    if d.dwp.m < 3:
        raise DimensionError("conharmonic tensor requires dim >= 3")

    def soliton(r, s):
        defect, lam, f = f_almost_defect(s.which, r)
        notes = (
            f"gradient f-almost Ricci soliton with f = (m_i - 2)/f_i; "
            f"lambda spread over samples = {lam.max() - lam.min():.3e}"
        )
        if s.m == 1:
            notes += "; factor dimension 1 is outside the stated hypothesis"
        return normalized_residual(
            defect, [times(f, s.h_f), s.ric, times(lam, s.g)]), notes

    return conditional(
        d, summarize("conharmonic.flat", _max_norms(oracle), d, tolerance),
        _NOT_FLAT, soliton, "soliton")
