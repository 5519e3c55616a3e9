"""Doubly warped products and their closed-form curvature formulas.

A doubly warped product carries the block metric  g = f2^2 g1 (+) f1^2 g2,
with the warping function f1 living on the first factor and f2 on the
second.  Writing k = ln f1 and l = ln f2, every curvature object of the
product splits into factor-level pieces plus warping-derivative terms; this
module evaluates those closed forms so they can be compared against the
brute-force product oracle in `geometry`.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from .expr import DomainError, constant
from .geometry import (
    ChartBatch,
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


def _once_per_record(closed_form):
    """The closed form, built once per record d (and per potential, for one
    that takes a potential first, keyed lifted to the product chart):
    stored on d at its first call (`_PointData.closed`) and shared,
    read-only, by the later ones."""
    @functools.wraps(closed_form)
    def once(dwp, *args):
        *psi, d = args
        psi = [dwp.lifted(e) for e in psi]
        name = closed_form.__name__
        return d.closed((name, *psi) if psi else name,
                        functools.partial(closed_form, dwp, *psi))
    return once


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

    # -- the record of a point batch -----------------------------------------

    def point_data(self, points, anchor=None):
        """The record of a batch of product points (N, m), given as an array
        or as the product chart's record at them (as `sample_points` returns
        it); with an anchor, it also gives the records of the anchored
        restriction sets.  The warpings are validated at the points, then
        at the anchor; that covers the anchored sets, whose warping values
        are those of the points and of the anchor."""
        if not isinstance(points, ChartBatch):
            points = self.product.at(points)
        self.validate_warpings(points.p)
        if anchor is not None:
            self.validate_warpings([anchor])
        return _PointData(self, points, anchor)

    def lifted(self, psi):
        """psi as a function on the product chart (a factor-chart potential
        is lifted; a product-chart one is returned as is)."""
        return psi if psi.coords == self.coords else psi.lift(self.coords)

    # -- closed forms ---------------------------------------------------------
    #
    # Each takes the record d of a point batch and returns its whole tensor
    # over the product chart.  Each block formula is written once for a
    # factor side s = d.side(which) and its mirror o = s.mirror: the second
    # factor's block is the first's under f1 <-> f2, k <-> l, m1 <-> m2,
    # which is exactly the swap of s and o.  The curvature, the Ricci tensor,
    # the Ricci operator, the scalar curvature and each potential's Hessian
    # are built once per record and shared read-only.

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
            ) - np.einsum("nab,nc->ncab", s.gp, o.grad)
            out[:, :, s.own, o.own] = np.einsum(
                "nu,ac->ncau", o.dlog, s.lift
            ) + np.einsum("na,uc->ncau", s.dlog, o.lift)
        return out

    @_once_per_record
    def hessian_split_closed(self, psi, d):
        """Product Hessian of psi via the splitting formulas:
        h1^psi + g(grad l, grad psi) g on XX (k <-> l on UU), and on XU
        XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts (its mirror
        on UX).  The body reads psi lifted (`_once_per_record`)."""
        jet = d.product.jet(psi)
        out = np.empty((len(d.p), self.m, self.m))
        for s in d.sides:
            o = s.mirror
            out[:, s.own, s.own] = s.hessian(jet) + times(
                s.opposite_pairing(jet.gradient), s.gp)
            out[:, s.own, o.own] = (
                jet.hessian[:, s.own, o.own]
                - outer(s.dlog, jet.gradient[:, o.own])
                - outer(jet.gradient[:, s.own], o.dlog)
            )
        return out

    @_once_per_record
    def riemann_closed(self, d):
        """Closed-form curvature V[n, i, j, k, c] = (R(d_i, d_j) d_k)^c over
        the product chart.  The six classes are built as blocks (letters X,
        Y, Z for first-factor lifts, U, V, W for second-factor ones; each
        factor's three classes mirror the other's under k <-> l):
            R(X,Y)Z = R1(X,Y)Z + g(X,Z) H^l Y - g(Y,Z) H^l X
            R(X,Y)U = U(l) (Y(k) X - X(k) Y)
            R(X,U)Y = (h1^k(X,Y) + X(k)Y(k)) U + Y(k)U(l) X
                      + g(X,Y) (H^l U + U(l) grad l)
        and R(U,X)Y, R(X,U)V follow by antisymmetry in the first pair.  The
        Hessian operator H^l = g^-1 h^l comes from the Hessian splitting:
        H^l X = |grad l|^2 X - X(k) grad l and
        H^l U = f1^-2 (g2^-1 h2^l) U - U(l) grad k."""
        out = np.empty((len(d.p),) + (self.m,) * 4)
        for s in d.sides:
            o = s.mirror
            own, opp = s.own, o.own
            # rows: H^{log f_opp} of the own and of the opposite fields
            h_own = times(o.grad_sq, s.lift[None]) - outer(s.dlog, o.grad)
            h_opp = times(1.0 / s.f**2, o.h_log @ o.ginv) @ o.lift - outer(
                o.dlog, s.grad)
            out[:, own, own, own] = s.r @ s.lift - wedge_operator(s.gp, h_own)
            out[:, own, own, opp] = wedge_operator(outer(s.dlog, o.dlog),
                                                   s.lift)
            mixed = (
                np.einsum("nxy,uc->nxuyc", s.h_log + outer(s.dlog, s.dlog),
                          o.lift)
                + np.einsum("ny,nu,xc->nxuyc", s.dlog, o.dlog, s.lift)
                + np.einsum("nxy,nuc->nxuyc", s.gp,
                            h_opp + outer(o.dlog, o.grad))
            )
            out[:, own, opp, own] = mixed
            out[:, opp, own, own] = -mixed.transpose(0, 2, 1, 3, 4)
        return out

    def riemann_closed_tensor(self, d):
        """Full covariant (0,4) curvature: the closed form lowered by the
        closed product metric."""
        return self.riemann_closed(d) @ d.gp[:, None, None]

    @_once_per_record
    def ricci_closed(self, d):
        """Ricci tensor from the closed splitting formulas:
        Ric1 - (m2/f1) h1^f1 - (lap l) g on XX (mirrored on UU) and
        (m-2) X(k)U(l) on XU (and UX)."""
        out = np.empty((len(d.p), self.m, self.m))
        for s in d.sides:
            o = s.mirror
            out[:, s.own, s.own] = (
                s.ric
                - times(o.m / s.f, s.h_f)
                - times(o.lap, s.gp)
            )
            out[:, s.own, o.own] = (self.m - 2) * outer(s.dlog, o.dlog)
        return out

    @_once_per_record
    def ricci_operator_closed(self, d):
        """Ricci operator (1,1), out[n, a, b] = Q(d_b)^a: the closed Ricci
        tensor raised by the product metric's blocks, f_opp^-2 g_i^-1 on
        the rows of factor i."""
        ric = self.ricci_closed(d)
        out = np.empty_like(ric)
        for s in d.sides:
            out[:, s.own] = times(1.0 / s.mirror.f**2, s.ginv @ ric[:, s.own])
        return out

    @_once_per_record
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
        """Laplacian of k or l on the product from the Laplacian splitting:
        the side record's `lap`."""
        if which not in ("k", "l"):
            raise ValueError("which must be 'k' or 'l'")
        return d.side(1 if which == "k" else 2).lap

    def factor_hessian(self, which, psi, d):
        """h_i^psi of the leafwise restriction of psi, at the factor points
        carried by the product points."""
        return d.side(which).hessian(d.product.jet(self.lifted(psi)))


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


class _FactorPart:
    """One factor's ingredients of the block formulas that read its chart
    record and its own warping alone, so that every record holding the
    factor at the same points shares one part; every array has a leading N
    axis."""

    # the fields that have one row per point
    ROWS = ("g", "ginv", "gamma", "ric", "tau", "r", "f", "h_f", "lap_f",
            "h_log", "lap_log", "dlog")

    def __init__(self, dwp, which, factor):
        f, log_f = ((dwp.f1, dwp.k), (dwp.f2, dwp.l))[which - 1]
        self.which = which
        self.own = dwp.block("XU"[which - 1])[1]  # product-chart indices
        self.lift = coordinate_lifts(dwp)[which - 1]  # rows: lifted fields
        self.m = factor.chart.dim
        self.factor = factor  # the factor chart's record at the points
        self.g, self.ginv, self.gamma = factor.g, factor.ginv, factor.gamma
        r4, self.ric, self.tau = factor.curvature
        # (1,3) curvature r[n, x, y, z, c] = (R(d_x, d_y) d_z)^c
        self.r = np.einsum("nxyzw,nwc->nxyzc", r4, factor.ginv)
        # log f's tree holds f's: one memo jets f's tree once
        factor.share_jets((f, log_f))
        f_jet, log_jet = factor.jet(f), factor.jet(log_f)
        self.f = f_jet.value
        # factor Hessians and Laplacians of the warping and of its log
        self.h_f = covariant_hessian(factor.gamma, f_jet)
        self.lap_f = np.einsum("nij,nij->n", factor.ginv, self.h_f)
        self.h_log = covariant_hessian(factor.gamma, log_jet)
        self.lap_log = np.einsum("nij,nij->n", factor.ginv, self.h_log)
        self.dlog = log_jet.gradient  # the log-warping's differential

    def take(self, rows):
        """The part at a selection of its points (an index array, repeats
        allowed), read off this part's rows."""
        out = copy.copy(self)
        out.factor = self.factor.take(rows)
        for name in self.ROWS:
            setattr(out, name, getattr(self, name)[rows])
        return out


class _Side:
    """One factor's ingredients of the block formulas at a batch of product
    points: the fields of its factor part `part`, read as its own, and
    those that read the opposite warping's values `f_opp` (never the
    product chart's record); every array has a leading N axis.  `mirror`
    is the other factor's side record."""

    def __init__(self, dwp, part, f_opp):
        vars(self).update(vars(part))
        self.part = part
        # the product metric's block f_opp^2 g, and the log-warping's
        # product gradient f_opp^-2 g^-1 dlog (on its own slots), squared
        # length and product Laplacian (Laplacian splitting)
        self.gp = times(f_opp**2, self.g)
        grad = matvec(self.ginv, self.dlog) / (f_opp**2)[:, None]
        self.grad = grad @ self.lift
        self.grad_sq = np.einsum("ni,ni->n", self.dlog, grad)
        self.lap = self.lap_log / f_opp**2 + (dwp.m - self.m) * self.grad_sq

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
    chart's record (for the oracles), one side record per factor, the
    closed product metric `gp`, and the closed tensors built on it so far
    (`closed`).  With an anchor, the records of the anchored restriction
    sets are built on first read.  A given factor part (`parts`) is used
    as is; the others are built from the factor charts at the points."""

    def __init__(self, dwp, product, anchor=None, parts=(None, None)):
        self.dwp, self.anchor = dwp, anchor
        self.product = product.require_spd()
        self.p = product.p
        p1, p2 = (part or _FactorPart(dwp, which, chart.at(pf).require_spd())
                  for part, which, chart, pf in zip(
                      parts, (1, 2), (dwp.factor1, dwp.factor2),
                      dwp.split(self.p)))
        self.sides = (_Side(dwp, p1, p2.f), _Side(dwp, p2, p1.f))
        self.sides[0].mirror, self.sides[1].mirror = self.sides[::-1]
        self.gp = np.zeros((len(self.p), dwp.m, dwp.m))
        for s in self.sides:
            self.gp[:, s.own, s.own] = s.gp
        self._anchored = [None, None]
        self._restrictions = [None, None]
        self._closed = {}

    def side(self, which):
        """The side record of factor `which` (1 or 2)."""
        return self.sides[which - 1]

    def closed(self, key, build):
        """The closed tensor `key` of this record (a closed form's name, or
        its name and potential), build(self) on first request; read-only,
        since every later reader shares it."""
        out = self._closed.get(key)
        if out is None:
            out = self._closed[key] = build(self)
            out.flags.writeable = False
        return out

    def anchored_product(self, which):
        """The product chart's record at the anchored restriction set of
        factor `which`, from the metric's values alone (its derivatives
        are jetted if read; no verify path reads them).  Both sets come
        from one values pass over their 2N points, set 1's rows first, and
        share one definiteness test, which the CLI's conditioning test and
        the restriction's record read.  Where that pass raises, each set
        takes a pass of its own when read, so that set 1's record, and
        what is tested on it, come before an error of set 2."""
        if self._anchored[which - 1] is None:
            dwp, n = self.dwp, len(self.p)
            sets = [dwp.anchored(self.p, self.anchor, w) for w in (1, 2)]
            try:
                both = dwp.product.values_at(np.concatenate(sets))
            except GeometryError:
                self._anchored[which - 1] = dwp.product.values_at(
                    sets[which - 1])
            else:
                self._anchored = [both.take(slice(None, n)),
                                  both.take(slice(n, None))]
        return self._anchored[which - 1]

    def restriction(self, which):
        """The record of the anchored restriction set of factor `which`: it
        reads `anchored_product(which)` and shares this record's factor
        part of factor `which`.  On that set the opposite factor sits at
        the anchor, so its part is built at that one point and repeated."""
        if self._restrictions[which - 1] is None:
            dwp, other = self.dwp, 3 - which
            # the product's record is tested first: where the opposite
            # factor's metric fails too, the product's error is raised
            product = self.anchored_product(which).require_spd()
            at_anchor = (dwp.factor1, dwp.factor2)[other - 1].at(
                dwp.split([self.anchor])[other - 1]).require_spd()
            parts = [self.side(which).part] * 2
            parts[other - 1] = _FactorPart(dwp, other, at_anchor).take(
                np.zeros(len(self.p), int))
            self._restrictions[which - 1] = _PointData(dwp, product,
                                                       parts=parts)
        return self._restrictions[which - 1]
