"""Doubly warped products and their closed-form curvature formulas.

A doubly warped product carries the block metric  g = f2^2 g1 (+) f1^2 g2,
with the warping function f1 living on the first factor and f2 on the
second.  Writing k = ln f1 and l = ln f2, every curvature object of the
product splits into factor-level pieces plus warping-derivative terms; this
module evaluates those closed forms so they can be compared against the
brute-force product oracle in `geometry`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .expr import constant
from .geometry import ChartManifold, GeometryError

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
    """out[i, j, k, c] = A(X_j, X_k) B(X_i)^c - A(X_i, X_k) B(X_j)^c, the
    operator (A ^ B)(X_i, X_j)X_k of a bilinear form A and a vector-valued
    map B: `a` holds A on the inputs, row i of `rows` holds B(X_i)."""
    t = np.einsum("jk,ic->ijkc", a, rows)
    return t - t.transpose(1, 0, 2, 3)


class DoublyWarpedProduct:
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
        self.product = ChartManifold(self.coords, self._product_metric())
        self._data_cache = {}

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
        m1, m2, coords = self.m1, self.m2, self.coords
        f1sq = (self.f1.lift(coords)) ** 2
        f2sq = (self.f2.lift(coords)) ** 2
        zero = constant(0.0, coords)
        rows = []
        for i in range(self.m):
            row = []
            for j in range(self.m):
                if i < m1 and j < m1:
                    row.append(f2sq * self.factor1.metric[i][j].lift(coords))
                elif i >= m1 and j >= m1:
                    row.append(
                        f1sq * self.factor2.metric[i - m1][j - m1].lift(coords)
                    )
                else:
                    row.append(zero)
            rows.append(row)
        return rows

    def split(self, p):
        p = np.asarray(p, dtype=float)
        return p[: self.m1], p[self.m1:]

    def join(self, p1, p2):
        return np.concatenate([np.asarray(p1, float), np.asarray(p2, float)])

    def block(self, klass):
        """Product-chart index slices of a curvature, Ricci or Hessian class:
        the first factor's for each of X, Y, Z, the second's for U, V, W."""
        return tuple(
            slice(None, self.m1) if c in "XYZ" else slice(self.m1, None)
            for c in klass
        )

    def anchored(self, points, anchor, which):
        """Copies of the sample points with the opposite factor's coordinates
        frozen at the anchor, so restrictions vary along factor `which` only."""
        anchor = np.asarray(anchor, dtype=float)
        out = np.array(np.atleast_2d(points), dtype=float, copy=True)
        if which == 1:
            out[:, self.m1:] = anchor[self.m1:]
        else:
            out[:, : self.m1] = anchor[: self.m1]
        return out

    def validate_warpings(self, points):
        """Reject any sampled point where a warping function is nonpositive."""
        for p in np.atleast_2d(points):
            p1, p2 = self.split(p)
            if self.f1.evaluate(p1) <= 0.0:
                raise WarpingError(f"f1 nonpositive at {p1.tolist()}")
            if self.f2.evaluate(p2) <= 0.0:
                raise WarpingError(f"f2 nonpositive at {p2.tolist()}")

    def is_warped_product(self, points, tol=1e-12):
        c1, c2 = self._constancy(points, tol)
        return c1 or c2

    def is_direct(self, points, tol=1e-12):
        c1, c2 = self._constancy(points, tol)
        return c1 and c2

    def _constancy(self, points, tol):
        pts = np.atleast_2d(points)
        v1 = [self.f1.evaluate(self.split(p)[0]) for p in pts]
        v2 = [self.f2.evaluate(self.split(p)[1]) for p in pts]
        return (
            max(v1) - min(v1) <= tol * (1 + max(map(abs, v1))),
            max(v2) - min(v2) <= tol * (1 + max(map(abs, v2))),
        )

    # -- per-point ingredient bundle ----------------------------------------

    def point_data(self, p):
        key = tuple(float(x) for x in np.asarray(p, float))
        hit = self._data_cache.get(key)
        if hit is not None:
            return hit
        d = _PointData(self, np.asarray(key))
        if len(self._data_cache) > 2048:
            self._data_cache.clear()
        self._data_cache[key] = d
        return d

    # -- closed forms ---------------------------------------------------------

    def _sides(self, d):
        """Per-factor ingredients of the block formulas, as (own slice,
        opposite slice, own lifts, opposite lifts, own factor curvature
        (1,3), own and opposite log-warping differentials, own factor
        Hessian of the own log-warping, product Hessian operator and
        gradient of the opposite log-warping), first factor first."""
        s1, s2 = self.block("XU")
        lifts1, lifts2 = coordinate_lifts(self)
        return (
            (s1, s2, lifts1, lifts2, d.r1, d.dk1, d.dl2, d.h1_k, d.Hl,
             d.grad_l),
            (s2, s1, lifts2, lifts1, d.r2, d.dl2, d.dk1, d.h2_l, d.Hk,
             d.grad_k),
        )

    def covariant_closed(self, p):
        """Christoffel symbols Gamma[c, i, j] = (grad_{d_i} d_j)^c of the
        product from the covariant-derivative splitting:
        grad_X Y = grad1_X Y - g(X, Y) grad l on same-factor lifts (k <-> l
        on the second factor) and grad_X U = U(l) X + X(k) U on mixed ones."""
        d = self.point_data(p)
        factors = (self.factor1, d.p1), (self.factor2, d.p2)
        out = np.empty((self.m,) * 3)
        for (factor, pf), side in zip(factors, self._sides(d)):
            own, opp, l_own, l_opp, _, dk_own, dk_opp, _, _, grad_opp = side
            gamma = factor.christoffel(pf).entries
            out[:, own, own] = np.einsum(
                "kab,kc->cab", gamma, l_own
            ) - np.einsum("ab,c->cab", d.g[own, own], grad_opp)
            out[:, own, opp] = np.einsum(
                "u,ac->cau", dk_opp, l_own
            ) + np.einsum("a,uc->cau", dk_own, l_opp)
        return out

    def hessian_split_closed(self, psi, klass, p):
        """Blocks of the product Hessian of psi via the splitting formulas."""
        d = self.point_data(p)
        jet = psi.lift(self.coords).jet(d.p) if psi.coords != self.coords else psi.jet(d.p)
        m1 = self.m1
        grad_psi = np.linalg.solve(d.g, jet.gradient)
        if klass == "XX":
            h1 = self._factor_hessian_from_jet(self.factor1, jet, d.p1, block=1)
            inner = float(d.grad_l @ d.g @ grad_psi)
            return h1 + d.g[:m1, :m1] * inner
        if klass == "UU":
            h2 = self._factor_hessian_from_jet(self.factor2, jet, d.p2, block=2)
            inner = float(d.grad_k @ d.g @ grad_psi)
            return h2 + d.g[m1:, m1:] * inner
        if klass == "XU":
            # XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts
            return (
                jet.hessian[:m1, m1:]
                - np.outer(d.dk1, jet.gradient[m1:])
                - np.outer(jet.gradient[:m1], d.dl2)
            )
        raise ValueError(f"unknown Hessian class {klass!r}")

    def riemann_closed(self, p):
        """Closed-form curvature V[i, j, k, c] = (R(d_i, d_j) d_k)^c over the
        product chart.  The six classes are built as blocks (letters X, Y, Z
        for first-factor lifts, U, V, W for second-factor ones; each factor's
        three classes mirror the other's under k <-> l):
            R(X,Y)Z = R1(X,Y)Z + g(X,Z) H^l Y - g(Y,Z) H^l X
            R(X,Y)U = U(l) (Y(k) X - X(k) Y)
            R(X,U)Y = (h1^k(X,Y) + X(k)Y(k)) U + Y(k)U(l) X
                      + g(X,Y) (H^l U + U(l) grad l)
        and R(U,X)Y, R(X,U)V follow by antisymmetry in the first pair."""
        d = self.point_data(p)
        out = np.empty((self.m,) * 4)
        for side in self._sides(d):
            own, opp, l_own, l_opp, r_own, dk_own, dk_opp, h_own, h_opp, \
                grad_opp = side
            g_own = d.g[own, own]
            out[own, own, own] = r_own @ l_own - wedge_operator(
                g_own, h_opp[:, own].T
            )
            out[own, own, opp] = wedge_operator(np.outer(dk_own, dk_opp), l_own)
            mixed = (
                np.einsum("xy,uc->xuyc", h_own + np.outer(dk_own, dk_own),
                          l_opp)
                + np.einsum("y,u,xc->xuyc", dk_own, dk_opp, l_own)
                + np.einsum("xy,uc->xuyc", g_own,
                            h_opp[:, opp].T + np.outer(dk_opp, grad_opp))
            )
            out[own, opp, own] = mixed
            out[opp, own, own] = -mixed.transpose(1, 0, 2, 3)
        return out

    def riemann_closed_tensor(self, p):
        """Full covariant (0,4) curvature: the closed form lowered by g."""
        return self.riemann_closed(p) @ self.point_data(p).g

    def ricci_closed(self, klass, p):
        """Ricci blocks from the closed splitting formulas."""
        d = self.point_data(p)
        m1 = self.m1
        if klass == "XX":
            return (
                d.ric1
                - (self.m2 / d.f1) * d.h1_f1
                - d.g[:m1, :m1] * d.lap_l
            )
        if klass == "XU":
            return (self.m - 2) * np.outer(d.dk1, d.dl2)
        if klass == "UU":
            return (
                d.ric2
                - (self.m1 / d.f2) * d.h2_f2
                - d.g[m1:, m1:] * d.lap_k
            )
        raise ValueError(f"unknown Ricci class {klass!r}")

    def ricci_operator_closed(self, klass, p):
        """Ricci-operator blocks (1,1) from the closed splitting formulas."""
        d = self.point_data(p)
        if klass == "XX":
            q1 = d.g1inv @ d.ric1
            h1 = d.g1inv @ d.h1_f1
            eye = np.eye(self.m1)
            return (1.0 / d.f2**2) * (
                q1 - (self.m2 / d.f1) * h1 - d.f2**2 * d.lap_l * eye
            )
        if klass == "UU":
            q2 = d.g2inv @ d.ric2
            h2 = d.g2inv @ d.h2_f2
            eye = np.eye(self.m2)
            return (1.0 / d.f1**2) * (
                q2 - (self.m1 / d.f2) * h2 - d.f1**2 * d.lap_k * eye
            )
        raise ValueError(f"unknown Ricci-operator class {klass!r}")

    def scalar_closed(self, p):
        """Scalar curvature of the product from the splitting formula."""
        d = self.point_data(p)
        return (
            d.tau1 / d.f2**2
            + d.tau2 / d.f1**2
            - (self.m2 / (d.f1 * d.f2**2)) * d.lap1_f1
            - (self.m1 / (d.f1**2 * d.f2)) * d.lap2_f2
            - self.m1 * d.lap_l
            - self.m2 * d.lap_k
        )

    def laplacian_split(self, which, p):
        """(closed, oracle) pair for the Laplacian of k or l on the product.

        The gradients inside the closed form are product-metric gradients,
        which is the reading under which the splitting is an identity."""
        d = self.point_data(p)
        if which == "k":
            gk1 = d.grad_k[: self.m1]
            closed = d.lap1_k / d.f2**2 + self.m2 * d.f2**2 * float(
                gk1 @ d.g1 @ gk1
            )
            return closed, d.lap_k
        if which == "l":
            gl2 = d.grad_l[self.m1:]
            closed = d.lap2_l / d.f1**2 + self.m1 * d.f1**2 * float(
                gl2 @ d.g2 @ gl2
            )
            return closed, d.lap_l
        raise ValueError("which must be 'k' or 'l'")

    # -- helpers ---------------------------------------------------------------

    def _factor_hessian_from_jet(self, factor, jet, pf, block):
        """Factor Hessian of the restriction, from a product-chart jet."""
        m1 = self.m1
        if block == 1:
            grad = jet.gradient[:m1]
            hess = jet.hessian[:m1, :m1]
        else:
            grad = jet.gradient[m1:]
            hess = jet.hessian[m1:, m1:]
        gamma = factor.christoffel(pf).entries
        return hess - np.einsum("kij,k->ij", gamma, grad)

    def factor_hessian(self, which, psi, p):
        """h_i^psi of the leafwise restriction of psi, at the factor point
        carried by the product point p."""
        d = self.point_data(p)
        psi_l = psi.lift(self.coords) if psi.coords != self.coords else psi
        jet = psi_l.jet(d.p)
        if which == 1:
            return self._factor_hessian_from_jet(self.factor1, jet, d.p1, 1)
        return self._factor_hessian_from_jet(self.factor2, jet, d.p2, 2)


class _PointData:
    """All factor- and product-level ingredients at one product point."""

    def __init__(self, dwp, p):
        self.p = p
        self.p1, self.p2 = dwp.split(p)
        self._factor1, self._factor2 = dwp.factor1, dwp.factor2
        m1 = dwp.m1
        self.f1 = dwp.f1.evaluate(self.p1)
        self.f2 = dwp.f2.evaluate(self.p2)
        if self.f1 <= 0 or self.f2 <= 0:
            raise WarpingError(f"nonpositive warping at {p.tolist()}")
        self.g = dwp.product.metric_at(p)[0].entries
        self.ginv = np.linalg.inv(self.g)
        self.g1 = dwp.factor1.metric_at(self.p1)[0].entries
        self.g1inv = np.linalg.inv(self.g1)
        self.g2 = dwp.factor2.metric_at(self.p2)[0].entries
        self.g2inv = np.linalg.inv(self.g2)

        jet_k = dwp.k.jet(self.p1)
        jet_l = dwp.l.jet(self.p2)
        self.dk1 = jet_k.gradient  # d_a k on factor-1 chart
        self.dl2 = jet_l.gradient
        self.dk1_ext = np.concatenate([self.dk1, np.zeros(dwp.m2)])
        self.dl2_ext = np.concatenate([np.zeros(m1), self.dl2])

        # product gradients (vectors) of k and l
        self.grad_k = self.ginv @ self.dk1_ext
        self.grad_l = self.ginv @ self.dl2_ext

        # product Hessians of k and l: (0,2) and (1,1) forms, Laplacians
        self.hk = dwp.product.hessian_field(dwp.k_lifted, p).entries
        self.hl = dwp.product.hessian_field(dwp.l_lifted, p).entries
        self.Hk = self.ginv @ self.hk
        self.Hl = self.ginv @ self.hl
        self.lap_k = float(np.einsum("ij,ij->", self.ginv, self.hk))
        self.lap_l = float(np.einsum("ij,ij->", self.ginv, self.hl))

        # factor-level Hessians and Laplacians
        self.h1_f1 = dwp.factor1.hessian_field(dwp.f1, self.p1).entries
        self.h2_f2 = dwp.factor2.hessian_field(dwp.f2, self.p2).entries
        self.h1_k = dwp.factor1.hessian_field(dwp.k, self.p1).entries
        self.h2_l = dwp.factor2.hessian_field(dwp.l, self.p2).entries
        self.lap1_f1 = float(np.einsum("ij,ij->", self.g1inv, self.h1_f1))
        self.lap2_f2 = float(np.einsum("ij,ij->", self.g2inv, self.h2_f2))
        self.lap1_k = float(np.einsum("ij,ij->", self.g1inv, self.h1_k))
        self.lap2_l = float(np.einsum("ij,ij->", self.g2inv, self.h2_l))

        # factor curvature
        self.ric1 = dwp.factor1.ricci_oracle(self.p1).entries
        self.ric2 = dwp.factor2.ricci_oracle(self.p2).entries
        self.tau1 = dwp.factor1.scalar_oracle(self.p1)
        self.tau2 = dwp.factor2.scalar_oracle(self.p2)

    # factor curvature, (1,3) form r[x, y, z, c] = (R(d_x, d_y) d_z)^c; only
    # the curvature closed forms read it
    @cached_property
    def r1(self):
        return np.einsum("xyzw,wc->xyzc", self._factor1.riemann_oracle(
            self.p1).entries, self.g1inv)

    @cached_property
    def r2(self):
        return np.einsum("xyzw,wc->xyzc", self._factor2.riemann_oracle(
            self.p2).entries, self.g2inv)
