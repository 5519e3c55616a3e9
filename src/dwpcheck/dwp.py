"""Doubly warped products and their closed-form curvature formulas.

A doubly warped product carries the block metric  g = f2^2 g1 (+) f1^2 g2,
with the warping function f1 living on the first factor and f2 on the
second.  Writing k = ln f1 and l = ln f2, every curvature object of the
product splits into factor-level pieces plus warping-derivative terms; this
module evaluates those closed forms so they can be compared against the
brute-force product oracle in `geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import DomainError, constant
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

    def split(self, p):
        p = np.asarray(p, dtype=float)
        return p[: self.m1], p[self.m1:]

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
        opp = self.block("UX")[which - 1]
        out = np.array(np.atleast_2d(points), dtype=float, copy=True)
        out[:, opp] = np.asarray(anchor, dtype=float)[opp]
        return out

    def validate_warpings(self, points):
        """Reject any sampled point where a warping function is nonpositive
        or cannot be evaluated."""
        for p in np.atleast_2d(points):
            for name, f, pf in zip(("f1", "f2"), (self.f1, self.f2),
                                   self.split(p)):
                try:
                    positive = f.evaluate(pf) > 0.0
                except (DomainError, OverflowError) as exc:
                    raise WarpingError(
                        f"{name} = {str(f)!r} leaves its domain at "
                        f"{pf.tolist()}: {exc}"
                    ) from None
                if not positive:
                    raise WarpingError(f"{name} nonpositive at {pf.tolist()}")

    def is_warped_product(self, points, tol=1e-12):
        c1, c2 = self._constancy(points, tol)
        return c1 or c2

    def is_direct(self, points, tol=1e-12):
        c1, c2 = self._constancy(points, tol)
        return c1 and c2

    def _constancy(self, points, tol):
        """Whether f1, and whether f2, is constant on the points."""
        out = []
        for f, factor_points in zip(
            (self.f1, self.f2), zip(*map(self.split, np.atleast_2d(points)))
        ):
            v = [f.evaluate(pf) for pf in factor_points]
            out.append(max(v) - min(v) <= tol * (1 + max(map(abs, v))))
        return out

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

    def lifted(self, psi):
        """psi as a function on the product chart (a factor-chart potential
        is lifted; a product-chart one is returned as is)."""
        return psi if psi.coords == self.coords else psi.lift(self.coords)

    # -- closed forms ---------------------------------------------------------
    #
    # Each block formula is written once for a factor side s = d.side(which):
    # the second factor's block is the first's under f1 <-> f2, k <-> l,
    # m1 <-> m2, which is exactly the swap of own and opposite fields.

    def covariant_closed(self, p):
        """Christoffel symbols Gamma[c, i, j] = (grad_{d_i} d_j)^c of the
        product from the covariant-derivative splitting:
        grad_X Y = grad1_X Y - g(X, Y) grad l on same-factor lifts (k <-> l
        on the second factor) and grad_X U = U(l) X + X(k) U on mixed ones."""
        d = self.point_data(p)
        out = np.empty((self.m,) * 3)
        for s in d.sides:
            own, opp = s.own, s.opp
            gamma = s.factor.christoffel(s.point)
            out[:, own, own] = np.einsum(
                "kab,kc->cab", gamma, s.lift_own
            ) - np.einsum("ab,c->cab", d.g[own, own], s.grad_opp)
            out[:, own, opp] = np.einsum(
                "u,ac->cau", s.dlog_opp, s.lift_own
            ) + np.einsum("a,uc->cau", s.dlog_own, s.lift_opp)
        return out

    def hessian_split_closed(self, psi, klass, p):
        """Blocks of the product Hessian of psi via the splitting formulas:
        h1^psi + g(grad l, grad psi) g on XX (k <-> l on UU), and on XU
        XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts."""
        d = self.point_data(p)
        jet = self.lifted(psi).jet(d.p)
        if klass == "XU":
            m1 = self.m1
            return (
                jet.hessian[:m1, m1:]
                - np.outer(d.dk1, jet.gradient[m1:])
                - np.outer(jet.gradient[:m1], d.dl2)
            )
        s = d.side(_side_of(klass, "Hessian"))
        grad_psi = np.linalg.solve(d.g, jet.gradient)
        inner = float(s.grad_opp @ d.g @ grad_psi)
        return _factor_hessian_from_jet(s, jet) + d.g[s.own, s.own] * inner

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
        for s in d.sides:
            own, opp = s.own, s.opp
            dk_own, dk_opp, l_own = s.dlog_own, s.dlog_opp, s.lift_own
            g_own = d.g[own, own]
            out[own, own, own] = s.r @ l_own - wedge_operator(
                g_own, s.H_opp[:, own].T
            )
            out[own, own, opp] = wedge_operator(np.outer(dk_own, dk_opp), l_own)
            mixed = (
                np.einsum("xy,uc->xuyc", s.h_log + np.outer(dk_own, dk_own),
                          s.lift_opp)
                + np.einsum("y,u,xc->xuyc", dk_own, dk_opp, l_own)
                + np.einsum("xy,uc->xuyc", g_own,
                            s.H_opp[:, opp].T + np.outer(dk_opp, s.grad_opp))
            )
            out[own, opp, own] = mixed
            out[opp, own, own] = -mixed.transpose(1, 0, 2, 3)
        return out

    def riemann_closed_tensor(self, p):
        """Full covariant (0,4) curvature: the closed form lowered by g."""
        return self.riemann_closed(p) @ self.point_data(p).g

    def ricci_closed(self, klass, p):
        """Ricci blocks from the closed splitting formulas:
        Ric1 - (m2/f1) h1^f1 - (lap l) g on XX (mirrored on UU) and
        (m-2) X(k)U(l) on XU."""
        d = self.point_data(p)
        if klass == "XU":
            return (self.m - 2) * np.outer(d.dk1, d.dl2)
        s = d.side(_side_of(klass, "Ricci"))
        return (
            s.ric
            - (s.m_opp / s.f_own) * s.h_f
            - d.g[s.own, s.own] * s.lap_opp
        )

    def ricci_operator_closed(self, klass, p):
        """Ricci-operator blocks (1,1) from the closed splitting formulas."""
        s = self.point_data(p).side(_side_of(klass, "Ricci-operator"))
        return (1.0 / s.f_opp**2) * (
            s.ginv @ s.ric
            - (s.m_opp / s.f_own) * (s.ginv @ s.h_f)
            - s.f_opp**2 * s.lap_opp * np.eye(s.m_own)
        )

    def scalar_closed(self, p):
        """Scalar curvature of the product from the splitting formula."""
        d = self.point_data(p)
        s1, s2 = d.sides
        return (
            s1.tau_own / d.f2**2
            + s2.tau_own / d.f1**2
            - (self.m2 / (d.f1 * d.f2**2)) * s1.lap_f
            - (self.m1 / (d.f1**2 * d.f2)) * s2.lap_f
            - self.m1 * d.lap_l
            - self.m2 * d.lap_k
        )

    def laplacian_split(self, which, p):
        """(closed, oracle) pair for the Laplacian of k or l on the product.

        The gradients inside the closed form are product-metric gradients,
        which is the reading under which the splitting is an identity."""
        if which not in ("k", "l"):
            raise ValueError("which must be 'k' or 'l'")
        s = self.point_data(p).side(1 if which == "k" else 2)
        grad = s.grad_own[s.own]
        closed = s.lap_log / s.f_opp**2 + s.m_opp * s.f_opp**2 * float(
            grad @ s.g @ grad
        )
        return closed, s.lap_own

    def factor_hessian(self, which, psi, p):
        """h_i^psi of the leafwise restriction of psi, at the factor point
        carried by the product point p."""
        d = self.point_data(p)
        return _factor_hessian_from_jet(d.side(which), self.lifted(psi).jet(d.p))


_SIDE_OF_CLASS = {"XX": 1, "UU": 2}


def _side_of(klass, kind):
    """The factor of a same-factor Ricci or Hessian class."""
    try:
        return _SIDE_OF_CLASS[klass]
    except KeyError:
        raise ValueError(f"unknown {kind} class {klass!r}") from None


def _factor_hessian_from_jet(side, jet):
    """Factor Hessian of the restriction, from a product-chart jet."""
    own = side.own
    gamma = side.factor.christoffel(side.point)
    return jet.hessian[own, own] - np.einsum("kij,k->ij", gamma,
                                             jet.gradient[own])


@dataclass(frozen=True, eq=False)
class _Side:
    """One factor's ingredients of the block formulas at a product point,
    with the opposite factor's alongside.  The second factor's record is the
    first's with own and opposite swapped (f1 <-> f2, k <-> l, m1 <-> m2),
    so every mirrored formula is written once against this record."""

    which: int               # 1 or 2
    own: slice               # product-chart indices of this factor ...
    opp: slice               # ... and of the opposite one
    lift_own: np.ndarray     # rows: product components of the lifted
    lift_opp: np.ndarray     # coordinate fields (coordinate_lifts)
    m_own: int
    m_opp: int
    factor: ChartManifold
    point: np.ndarray        # the factor point
    f_own: float             # warping values
    f_opp: float
    g: np.ndarray            # factor metric, its inverse, Ricci tensor
    ginv: np.ndarray
    ric: np.ndarray
    tau_own: float           # factor scalar curvatures
    tau_opp: float
    h_f: np.ndarray          # factor Hessian and Laplacian of the own
    lap_f: float             # warping f_own ...
    h_log: np.ndarray        # ... and of its log (k on the first factor)
    lap_log: float
    dlog_own: np.ndarray     # factor-chart differentials of the own and
    dlog_opp: np.ndarray     # opposite log-warpings
    dlog_opp_ext: np.ndarray  # the opposite one on the product chart
    grad_own: np.ndarray     # product gradients of the log-warpings
    grad_opp: np.ndarray
    H_opp: np.ndarray        # product Hessian operator of the opposite one
    lap_own: float           # product Laplacians of the log-warpings
    lap_opp: float

    # factor curvature, (1,3) form r[x, y, z, c] = (R(d_x, d_y) d_z)^c; only
    # the curvature closed forms read it
    @cached_property
    def r(self):
        return np.einsum("xyzw,wc->xyzc",
                         self.factor.riemann_oracle(self.point), self.ginv)


class _PointData:
    """All factor- and product-level ingredients at one product point: the
    product-level ones as attributes, the factor-level ones in one side
    record per factor."""

    def __init__(self, dwp, p):
        self.p = p
        p1, p2 = dwp.split(p)
        self.f1 = dwp.f1.evaluate(p1)
        self.f2 = dwp.f2.evaluate(p2)
        if self.f1 <= 0 or self.f2 <= 0:
            raise WarpingError(f"nonpositive warping at {p.tolist()}")
        self.g = dwp.product.metric_at(p)[0]
        self.ginv = np.linalg.inv(self.g)

        # factor-level metric, Hessians, Laplacians and curvature, per factor
        factors = []
        for factor, f, log_f, pf in ((dwp.factor1, dwp.f1, dwp.k, p1),
                                     (dwp.factor2, dwp.f2, dwp.l, p2)):
            g = factor.metric_at(pf)[0]
            ginv = np.linalg.inv(g)
            h_f = factor.hessian_field(f, pf)
            h_log = factor.hessian_field(log_f, pf)
            factors.append(dict(
                factor=factor, point=pf, g=g, ginv=ginv,
                ric=factor.ricci_oracle(pf), tau_own=factor.scalar_oracle(pf),
                h_f=h_f, lap_f=float(np.einsum("ij,ij->", ginv, h_f)),
                h_log=h_log, lap_log=float(np.einsum("ij,ij->", ginv, h_log)),
                dlog_own=log_f.jet(pf).gradient,
            ))
        self.dk1 = factors[0]["dlog_own"]  # d_a k on factor-1 chart
        self.dl2 = factors[1]["dlog_own"]
        self.dk1_ext = np.concatenate([self.dk1, np.zeros(dwp.m2)])
        self.dl2_ext = np.concatenate([np.zeros(dwp.m1), self.dl2])

        # product gradients (vectors) of k and l
        self.grad_k = self.ginv @ self.dk1_ext
        self.grad_l = self.ginv @ self.dl2_ext

        # product Hessians of k and l: (1,1) forms and Laplacians
        hk = dwp.product.hessian_field(dwp.k_lifted, p)
        hl = dwp.product.hessian_field(dwp.l_lifted, p)
        self.Hk = self.ginv @ hk
        self.Hl = self.ginv @ hl
        self.lap_k = float(np.einsum("ij,ij->", self.ginv, hk))
        self.lap_l = float(np.einsum("ij,ij->", self.ginv, hl))

        slices = dwp.block("XU")
        lifts = coordinate_lifts(dwp)
        m = (dwp.m1, dwp.m2)
        f = (self.f1, self.f2)
        d_ext = (self.dk1_ext, self.dl2_ext)
        grad = (self.grad_k, self.grad_l)
        hess_op = (self.Hk, self.Hl)
        lap = (self.lap_k, self.lap_l)
        self.sides = tuple(
            _Side(
                which=i + 1, own=slices[i], opp=slices[j],
                lift_own=lifts[i], lift_opp=lifts[j], m_own=m[i], m_opp=m[j],
                f_own=f[i], f_opp=f[j], tau_opp=factors[j]["tau_own"],
                dlog_opp=factors[j]["dlog_own"], dlog_opp_ext=d_ext[j],
                grad_own=grad[i], grad_opp=grad[j], H_opp=hess_op[j],
                lap_own=lap[i], lap_opp=lap[j], **factors[i],
            )
            for i, j in ((0, 1), (1, 0))
        )

    def side(self, which):
        """The side record of factor `which` (1 or 2)."""
        return self.sides[which - 1]
