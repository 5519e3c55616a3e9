"""Doubly warped products and their closed-form curvature formulas.

A doubly warped product carries the block metric  g = f2^2 g1 (+) f1^2 g2,
with the warping function f1 living on the first factor and f2 on the
second.  Writing k = ln f1 and l = ln f2, every curvature object of the
product splits into factor-level pieces plus warping-derivative terms; this
module evaluates those closed forms so they can be compared against the
brute-force product oracle in `geometry`.
"""

from __future__ import annotations

import numpy as np

from .expr import DomainError, constant
from .geometry import (
    ChartManifold,
    GeometryError,
    covariant_hessian,
    matvec,
    outer,
    times,
)

__all__ = [
    "DoublyWarpedProduct",
    "WarpingError",
    "DimensionError",
    "coordinate_lifts",
    "wedge_operator",
]

RIEMANN_CLASSES = ("XYZ", "XYU", "UVX", "XUY", "UXV", "UVW")
RICCI_CLASSES = ("XX", "XU", "UU")


class WarpingError(GeometryError):
    pass


class DimensionError(GeometryError):
    pass


def coordinate_lifts(dwp):
    """Product-chart components of the lifted coordinate fields, as the rows
    of a (factor-1 array, factor-2 array) pair."""
    eye = np.eye(dwp.m)
    return eye[: dwp.m1], eye[dwp.m1:]


def wedge_operator(a, rows):
    """out[..., i, j, k, c] = A(X_j, X_k) B(X_i)^c - A(X_i, X_k) B(X_j)^c,
    the operator (A ^ B)(X_i, X_j)X_k of a bilinear form A and a
    vector-valued map B: `a` holds A on the inputs, row i of `rows` holds
    B(X_i); leading axes are batch axes."""
    t = np.einsum("...jk,...ic->...ijkc", a, rows)
    return t - np.swapaxes(t, -4, -3)


class DoublyWarpedProduct:
    """Points are batches: (N, m) arrays, one product point per row; every
    closed form takes their record (`point_data`) and returns arrays with a
    leading N axis."""

    def __init__(self, factor1, factor2, f1, f2):
        if set(factor1.coords) & set(factor2.coords):
            raise ValueError("factor coordinate names must be disjoint")
        if f1.coords != factor1.coords or f2.coords != factor2.coords:
            raise ValueError("warping functions must live on their own factor")
        self.factor1 = factor1
        self.factor2 = factor2
        self.f1 = f1
        self.f2 = f2
        self.k = f1.apply("log")  # on factor-1 chart
        self.l = f2.apply("log")  # on factor-2 chart
        self.coords = factor1.coords + factor2.coords
        self.k_lifted = self.k.lift(self.coords)
        self.l_lifted = self.l.lift(self.coords)
        self.product = _ProductChart(self)

    @property
    def m1(self):
        return self.factor1.dim

    @property
    def m2(self):
        return self.factor2.dim

    @property
    def m(self):
        return self.m1 + self.m2

    def _product_metric(self):
        """g = f2^2 g1 (+) f1^2 g2 as product-chart expressions."""
        coords = self.coords
        zero = constant(0.0, coords)
        rows = [[zero] * self.m for _ in range(self.m)]
        for factor, f_opp, start in ((self.factor1, self.f2, 0),
                                     (self.factor2, self.f1, self.m1)):
            f_sq = f_opp.lift(coords) ** 2
            for i, row in enumerate(factor.metric):
                for j, entry in enumerate(row):
                    rows[start + i][start + j] = f_sq * entry.lift(coords)
        return rows

    def split(self, points):
        points = np.asarray(points, dtype=float)
        return points[:, : self.m1], points[:, self.m1:]

    def block(self, klass):
        """Index of a curvature, Ricci or Hessian class in a batch of
        product-chart tensors: every point, then the first factor's slice
        for each of X, Y, Z and the second's for U, V, W."""
        return (slice(None),) + tuple(
            slice(None, self.m1) if c in "XYZ" else slice(self.m1, None)
            for c in klass
        )

    def anchored(self, points, anchor, which):
        """Copies of the sample points with the opposite factor's coordinates
        frozen at the anchor, so restrictions vary along factor `which` only."""
        opp = self.block("UX")[which]
        out = np.array(points, dtype=float, copy=True)
        out[:, opp] = np.asarray(anchor, dtype=float)[opp]
        return out

    def validate_warpings(self, points):
        """Reject the first point where a warping function is nonpositive or
        cannot be evaluated."""
        points = np.asarray(points, dtype=float)
        for name, f, pf in zip(("f1", "f2"), (self.f1, self.f2),
                               self.split(points)):
            try:
                bad = ~(f.evaluate(pf) > 0.0)
            except DomainError as exc:
                # an earlier point may fail on the other warping
                self.validate_warpings(points[: exc.index])
                raise WarpingError(
                    f"{name} = {str(f)!r} leaves its domain at "
                    f"{pf[exc.index].tolist()}: {exc}"
                ) from None
            if bad.any():
                self.validate_warpings(points[: bad.argmax()])
                raise WarpingError(
                    f"{name} nonpositive at {pf[bad.argmax()].tolist()}")

    def is_warped_product(self, points, tol=1e-12):
        c1, c2 = self._constancy(points, tol)
        return c1 or c2

    def is_direct(self, points, tol=1e-12):
        c1, c2 = self._constancy(points, tol)
        return c1 and c2

    def _constancy(self, points, tol):
        """Whether f1, and whether f2, is constant on the points."""
        out = []
        for f, pf in zip((self.f1, self.f2), self.split(points)):
            v = f.evaluate(pf)
            out.append(v.max() - v.min() <= tol * (1 + np.abs(v).max()))
        return out

    # -- the record of a point batch -----------------------------------------

    def point_data(self, points, anchor=None):
        """The record of a batch of product points (N, m); with an anchor,
        it also gives the records of the anchored restriction sets."""
        return _PointData(self, points, anchor)

    def lifted(self, psi):
        """psi as a function on the product chart (a factor-chart potential
        is lifted; a product-chart one is returned as is)."""
        return psi if psi.coords == self.coords else psi.lift(self.coords)

    # -- closed forms ---------------------------------------------------------
    #
    # Each takes the record d of a point batch.  Each block formula is written
    # once for a factor side s = d.side(which) and its mirror o = s.mirror:
    # the second factor's block is the first's under f1 <-> f2, k <-> l,
    # m1 <-> m2, which is exactly the swap of s and o.

    def covariant_closed(self, d):
        """Christoffel symbols Gamma[n, c, i, j] = (grad_{d_i} d_j)^c of the
        product from the covariant-derivative splitting:
        grad_X Y = grad1_X Y - g(X, Y) grad l on same-factor lifts (k <-> l
        on the second factor) and grad_X U = U(l) X + X(k) U on mixed ones."""
        out = np.empty((len(d.p),) + (self.m,) * 3)
        for s in d.sides:
            o = s.mirror
            out[:, :, s.own, s.own] = np.einsum(
                "nkab,kc->ncab", s.gamma, s.lift
            ) - np.einsum("nab,nc->ncab", d.product.g[:, s.own, s.own], o.grad)
            out[:, :, s.own, o.own] = np.einsum(
                "nu,ac->ncau", o.dlog, s.lift
            ) + np.einsum("na,uc->ncau", s.dlog, o.lift)
        return out

    def hessian_split_closed(self, psi, klass, d):
        """Blocks of the product Hessian of psi via the splitting formulas:
        h1^psi + g(grad l, grad psi) g on XX (k <-> l on UU), and on XU
        XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts."""
        jet = self.lifted(psi).jet(d.p)
        if klass == "XU":
            m1 = self.m1
            s1, s2 = d.sides
            return (
                jet.hessian[:, :m1, m1:]
                - outer(s1.dlog, jet.gradient[:, m1:])
                - outer(jet.gradient[:, :m1], s2.dlog)
            )
        s = d.side(_side_of(klass, "Hessian"))
        return s.hessian(jet) + times(s.opposite_pairing(jet.gradient),
                                      d.product.g[:, s.own, s.own])

    def riemann_closed(self, d):
        """Closed-form curvature V[n, i, j, k, c] = (R(d_i, d_j) d_k)^c over
        the product chart.  The six classes are built as blocks (letters X,
        Y, Z for first-factor lifts, U, V, W for second-factor ones; each
        factor's three classes mirror the other's under k <-> l):
            R(X,Y)Z = R1(X,Y)Z + g(X,Z) H^l Y - g(Y,Z) H^l X
            R(X,Y)U = U(l) (Y(k) X - X(k) Y)
            R(X,U)Y = (h1^k(X,Y) + X(k)Y(k)) U + Y(k)U(l) X
                      + g(X,Y) (H^l U + U(l) grad l)
        and R(U,X)Y, R(X,U)V follow by antisymmetry in the first pair."""
        out = np.empty((len(d.p),) + (self.m,) * 4)
        for s in d.sides:
            o = s.mirror
            own, opp = s.own, o.own
            g_own = d.product.g[:, own, own]
            h_opp = o.H.transpose(0, 2, 1)  # row c: H(d_c)
            out[:, own, own, own] = s.r @ s.lift - wedge_operator(
                g_own, h_opp[:, own]
            )
            out[:, own, own, opp] = wedge_operator(outer(s.dlog, o.dlog),
                                                   s.lift)
            mixed = (
                np.einsum("nxy,uc->nxuyc", s.h_log + outer(s.dlog, s.dlog),
                          o.lift)
                + np.einsum("ny,nu,xc->nxuyc", s.dlog, o.dlog, s.lift)
                + np.einsum("nxy,nuc->nxuyc", g_own,
                            h_opp[:, opp] + outer(o.dlog, o.grad))
            )
            out[:, own, opp, own] = mixed
            out[:, opp, own, own] = -mixed.transpose(0, 2, 1, 3, 4)
        return out

    def riemann_closed_tensor(self, d):
        """Full covariant (0,4) curvature: the closed form lowered by g."""
        return self.riemann_closed(d) @ d.product.g[:, None, None]

    def ricci_closed(self, klass, d):
        """Ricci blocks from the closed splitting formulas:
        Ric1 - (m2/f1) h1^f1 - (lap l) g on XX (mirrored on UU) and
        (m-2) X(k)U(l) on XU."""
        if klass == "XU":
            return (self.m - 2) * outer(d.sides[0].dlog, d.sides[1].dlog)
        s = d.side(_side_of(klass, "Ricci"))
        o = s.mirror
        return (
            s.ric
            - times(o.m / s.f, s.h_f)
            - times(o.lap, d.product.g[:, s.own, s.own])
        )

    def ricci_operator_closed(self, klass, d):
        """Ricci-operator blocks (1,1) from the closed splitting formulas."""
        s = d.side(_side_of(klass, "Ricci-operator"))
        o = s.mirror
        return times(1.0 / o.f**2, (
            s.ginv @ s.ric
            - times(o.m / s.f, s.ginv @ s.h_f)
            - times(o.f**2 * o.lap, np.eye(s.m)[None])
        ))

    def scalar_closed(self, d):
        """Scalar curvature of the product from the splitting formula."""
        s1, s2 = d.sides
        return (
            s1.tau / s2.f**2
            + s2.tau / s1.f**2
            - (self.m2 / (s1.f * s2.f**2)) * s1.lap_f
            - (self.m1 / (s1.f**2 * s2.f)) * s2.lap_f
            - self.m1 * s2.lap
            - self.m2 * s1.lap
        )

    def laplacian_split(self, which, d):
        """(closed, oracle) pair for the Laplacian of k or l on the product.

        The gradients inside the closed form are product-metric gradients,
        which is the reading under which the splitting is an identity."""
        if which not in ("k", "l"):
            raise ValueError("which must be 'k' or 'l'")
        s = d.side(1 if which == "k" else 2)
        o = s.mirror
        grad = s.grad[:, s.own]
        closed = s.lap_log / o.f**2 + o.m * o.f**2 * np.einsum(
            "ni,ni->n", matvec(s.g, grad), grad
        )
        return closed, s.lap

    def factor_hessian(self, which, psi, d):
        """h_i^psi of the leafwise restriction of psi, at the factor points
        carried by the product points."""
        return d.side(which).hessian(self.lifted(psi).jet(d.p))


class _ProductChart(ChartManifold):
    """The product chart; where a metric entry leaves its domain at a point
    where a warping is not valid, the warping is named instead."""

    def __init__(self, dwp):
        super().__init__(dwp.coords, dwp._product_metric())
        self._dwp = dwp

    def _domain_error(self, i, j, point, exc):
        try:
            self._dwp.validate_warpings(point[None])
        except WarpingError as warping:
            return warping
        return super()._domain_error(i, j, point, exc)


_SIDE_OF_CLASS = {"XX": 1, "UU": 2}


def _side_of(klass, kind):
    """The factor of a same-factor Ricci or Hessian class."""
    try:
        return _SIDE_OF_CLASS[klass]
    except KeyError:
        raise ValueError(f"unknown {kind} class {klass!r}") from None


class _Side:
    """One factor's ingredients of the block formulas at a batch of product
    points, read off the product's chart record and the factor's; every
    array has a leading N axis.  `mirror` is the other factor's side
    record."""

    def __init__(self, dwp, which, product, factor):
        f, log_f, log_ext = ((dwp.f1, dwp.k, dwp.k_lifted),
                             (dwp.f2, dwp.l, dwp.l_lifted))[which - 1]
        self.which = which
        self.own = dwp.block("XU"[which - 1])[1]  # product-chart indices
        self.lift = coordinate_lifts(dwp)[which - 1]  # rows: lifted fields
        self.m = factor.chart.dim
        self.factor = factor  # the factor chart's record at the points
        self.g, self.ginv, self.gamma = factor.g, factor.ginv, factor.gamma
        r4, self.ric, self.tau = factor.curvature
        # (1,3) curvature r[n, x, y, z, c] = (R(d_x, d_y) d_z)^c
        self.r = np.einsum("nxyzw,nwc->nxyzc", r4, factor.ginv)
        f_jet, log_jet = f.jet(factor.p), log_f.jet(factor.p)
        self.f = f_jet.value
        # factor Hessians and Laplacians of the warping and of its log
        self.h_f = covariant_hessian(factor.gamma, f_jet)
        self.lap_f = np.einsum("nij,nij->n", factor.ginv, self.h_f)
        self.h_log = covariant_hessian(factor.gamma, log_jet)
        self.lap_log = np.einsum("nij,nij->n", factor.ginv, self.h_log)
        # the log-warping's differential on the factor and product charts,
        # and its product gradient, Hessian operator and Laplacian
        self.dlog = log_jet.gradient
        self.dlog_ext = self.dlog @ self.lift
        self.grad = matvec(product.ginv, self.dlog_ext)
        h = covariant_hessian(product.gamma, log_ext.jet(product.p))
        self.H = product.ginv @ h
        self.lap = np.einsum("nij,nij->n", product.ginv, h)

    def opposite_pairing(self, differential):
        """g(grad log f_opp, grad psi) from the product-chart differential
        of psi."""
        return np.einsum("ni,ni->n", self.mirror.grad, differential)

    def hessian(self, jet):
        """Factor Hessian of the leafwise restriction of a product-chart
        scalar, from its jet at the product points."""
        own = self.own
        return jet.hessian[:, own, own] - np.einsum(
            "nkij,nk->nij", self.gamma, jet.gradient[:, own])


class _PointData:
    """A doubly warped product at a batch of product points: the product
    chart's record and one side record per factor.  With an anchor, the
    records of the anchored restriction sets are built on first read."""

    def __init__(self, dwp, points, anchor=None, factors=(None, None)):
        dwp.validate_warpings(points)
        self.dwp, self.anchor = dwp, anchor
        self.product = dwp.product.at(points).require_spd()
        self.p = self.product.p
        self.sides = tuple(
            _Side(dwp, which, self.product,
                  record or chart.at(pf).require_spd())
            for which, record, chart, pf in zip(
                (1, 2), factors, (dwp.factor1, dwp.factor2),
                dwp.split(self.p))
        )
        self.sides[0].mirror, self.sides[1].mirror = self.sides[::-1]
        self._restrictions = [None, None]

    def side(self, which):
        """The side record of factor `which` (1 or 2)."""
        return self.sides[which - 1]

    def restriction(self, which):
        """The record of the anchored restriction set of factor `which`; it
        shares this record's chart record of that factor."""
        if self._restrictions[which - 1] is None:
            factors = [None, None]
            factors[which - 1] = self.side(which).factor
            self._restrictions[which - 1] = _PointData(
                self.dwp, self.dwp.anchored(self.p, self.anchor, which),
                factors=factors)
        return self._restrictions[which - 1]
