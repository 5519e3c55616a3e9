"""Doubly warped products and their closed-form curvature formulas.

A doubly warped product carries the block metric  g = f2^2 g1 (+) f1^2 g2,
with the warping function f1 living on the first factor and f2 on the
second.  Writing k = ln f1 and l = ln f2, every curvature object of the
product splits into factor-level pieces plus warping-derivative terms; this
module evaluates those closed forms so they can be compared against the
brute-force product oracle in `geometry`.
"""

from __future__ import annotations

import functools

import numpy as np

from .expr import DomainError, constant
from .geometry import (
    COND_LIMIT,
    ChartBatch,
    ChartManifold,
    GeometryError,
    MetricError,
    covariant_hessian,
    matvec,
    outer,
    times,
)

__all__ = [
    "DoublyWarpedProduct",
    "WarpingError",
    "DimensionError",
    "FieldDomainError",
    "coordinate_lifts",
    "wedge_operator",
]

RIEMANN_CLASSES = ("XYZ", "XYU", "UVX", "XUY", "UXV", "UVW")
RICCI_CLASSES = ("XX", "XU", "UU")


class WarpingError(GeometryError):
    pass


class DimensionError(GeometryError):
    pass


class FieldDomainError(GeometryError):
    """A potential or soliton coefficient leaves its domain at a point the
    checks evaluate it at."""


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
    stored in d's memo at its first call (`_PointData.once`, keyed on the
    closed form's name, and the potential) and shared, read-only, by the
    later ones."""
    @functools.wraps(closed_form)
    def once(dwp, *args):
        *psi, d = args
        psi = [dwp.lifted(e) for e in psi]
        name = closed_form.__name__

        def build():
            out = closed_form(dwp, *psi, d)
            out.flags.writeable = False
            return out
        return d.once((name, *psi) if psi else name, build)
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
        are those of the points and of the anchor.  The record's `validate`
        checks the rest of a run's inputs at the samples and at both
        sets."""
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
            out[:, s.own, s.own] = s.hessian(psi) + times(
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
        return d.side(which).hessian(self.lifted(psi))


class _ProductChart(ChartManifold):
    """The product chart; where a metric entry leaves its domain, or the
    sampler gives up, at a point where a warping is not valid, the warping
    is named instead."""

    def __init__(self, dwp):
        super().__init__(dwp.coords, dwp._product_metric())
        self._dwp = dwp

    def _fault_at(self, point):
        """The WarpingError of a warping not valid at `point`, or None."""
        try:
            self._dwp.validate_warpings(point[None])
        except WarpingError as warping:
            return warping
        return None


class _Side:
    """One factor's ingredients of the block formulas at a batch of product
    points: those read off its factor chart record `factor` alone, each
    the record's memoized object, and those that read the opposite
    warping's values f_opp (`set_mirror`; never the product chart's
    record); every array has a leading N axis.  `mirror` is the other
    factor's side record, and `record` the record of product points that
    owns both (`_PointData`)."""

    def __init__(self, record, which, factor):
        dwp = record.dwp
        f, log_f = ((dwp.f1, dwp.k), (dwp.f2, dwp.l))[which - 1]
        self.record, self.which, self.factor = record, which, factor
        self.own = dwp.block("XU"[which - 1])[1]  # product-chart indices
        self.lift = coordinate_lifts(dwp)[which - 1]  # rows: lifted fields
        self.m = factor.chart.dim
        self.g, self.ginv, self.gamma = factor.g, factor.ginv, factor.gamma
        _, self.ric, self.tau = factor.curvature
        # (1,3) curvature r[n, x, y, z, c] = (R(d_x, d_y) d_z)^c
        self.r = factor.curvature_operator
        # log f's tree holds f's: one memo jets f's tree once
        factor.share_jets((f, log_f))
        self.f = factor.jet(f).value
        # factor Hessians and Laplacians of the warping and of its log
        self.h_f, self.lap_f = factor.hessian(f), factor.laplacian(f)
        self.h_log = factor.hessian(log_f)
        self.lap_log = factor.laplacian(log_f)
        # the log-warping's differential
        self.dlog = factor.jet(log_f).gradient

    def set_mirror(self, mirror):
        """The mirror, the product metric's block f_opp^2 g, and the
        log-warping's product gradient f_opp^-2 g^-1 dlog (on its own
        slots), squared length and product Laplacian (Laplacian
        splitting)."""
        self.mirror, f_opp = mirror, mirror.f
        self.gp = times(f_opp**2, self.g)
        grad = matvec(self.ginv, self.dlog) / (f_opp**2)[:, None]
        self.grad = grad @ self.lift
        self.grad_sq = np.einsum("ni,ni->n", self.dlog, grad)
        self.lap = self.lap_log / f_opp**2 + mirror.m * self.grad_sq

    def opposite_pairing(self, differential):
        """g(grad log f_opp, grad psi) from the product-chart differential
        of psi."""
        return np.einsum("ni,ni->n", self.mirror.grad, differential)

    def hessian(self, psi):
        """Factor Hessian of the leafwise restriction of a product-chart
        scalar psi, from its jet at the product points; built once per
        side and potential, through the owning record's memo (`once`)."""
        def build():
            jet, own = self.record.product.jet(psi), self.own
            return covariant_hessian(self.gamma, jet.gradient[:, own],
                                     jet.hessian[:, own, own])
        return self.record.once(("factor_hessian", self.which, psi), build)


class _PointData:
    """A doubly warped product at a batch of product points: the product
    chart's record (for the oracles), one side record per factor and the
    closed product metric `gp`.  With an anchor, it holds the points of the
    anchored restriction sets (`dwp.anchored`, set 1's rows first).  What
    is built on first read is kept in one memo (`once`, as a chart
    record's): the closed tensors, keyed on the closed form's name (and
    potential, `_once_per_record`), the anchored sets' product records
    (`"anchored"`, `("anchored", which)`), the restriction records
    (`("restriction", which)`) and the side records' factor Hessians
    (`("factor_hessian", which, psi)`, `_Side.hessian`).  A given factor
    chart record (`factors`) is used as is; the others are built from the
    factor charts at the points."""

    once = ChartBatch.once

    def __init__(self, dwp, product, anchor=None, factors=(None, None)):
        self.dwp, self.anchor = dwp, anchor
        self.product = product.require_spd()
        self.p = product.p
        # factor 1's record is built, tested and read before factor 2's
        self.sides = tuple(
            _Side(self, which, factor or chart.at(pf).require_spd())
            for which, factor, chart, pf in zip(
                (1, 2), factors, (dwp.factor1, dwp.factor2),
                dwp.split(self.p)))
        self.gp = np.zeros((len(self.p), dwp.m, dwp.m))
        for s, o in zip(self.sides, self.sides[::-1]):
            s.set_mirror(o)
            self.gp[:, s.own, s.own] = s.gp
        if anchor is not None:
            self._sets = np.concatenate(
                [dwp.anchored(self.p, anchor, which) for which in (1, 2)])
        self._memo = {}

    @property
    def rank(self):
        """The product record's `rank` of the points."""
        return self.product.rank

    def side(self, which):
        """The side record of factor `which` (1 or 2)."""
        return self.sides[which - 1]

    def validate(self, fields):
        """Reject the inputs that the checks cannot use at these points and
        at the anchored restriction sets: first the first point, in the
        order samples, set 1, then set 2, at which a field (name,
        expression) cannot be evaluated (at a point where several fail,
        the first one listed); then, set 1 before set 2, a set that fails
        the sampler's acceptance rule (`ChartBatch.well_conditioned`)."""
        pts = np.concatenate([self.p, self._sets])
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
        for which in (1, 2):
            anchored = self.anchored_product(which)
            ok = anchored.well_conditioned()
            if not ok.all():
                raise MetricError(
                    f"anchored restriction set of factor {which}: metric "
                    f"not positive definite or cond(g) > {COND_LIMIT:g} at "
                    f"{anchored.p[(~ok).argmax()].tolist()}"
                )

    def anchored_product(self, which):
        """The product chart's record at the anchored restriction set of
        factor `which`, from the metric's values alone (it holds no
        derivatives; no verify path reads them).  Both sets come from one
        values pass over their 2N points, set 1's rows first, and share
        one definiteness test, which `validate`'s conditioning test and the
        restriction's record read.  Where that pass raises, each set takes
        a pass of its own when read, so that set 1's record, and what is
        tested on it, come before an error of set 2."""
        product, n = self.dwp.product, len(self.p)

        def both():
            try:
                out = product.values_at(self._sets)
            except GeometryError:
                return ()  # each set takes a pass of its own
            return out.take(slice(None, n)), out.take(slice(n, None))

        def own():
            return product.values_at(self._sets[(which - 1) * n: which * n])

        pair = self.once("anchored", both)
        return pair[which - 1] if pair else self.once(("anchored", which), own)

    def restriction(self, which):
        """The record of the anchored restriction set of factor `which`: it
        reads `anchored_product(which)` and this record's factor chart
        record of factor `which`; the opposite factor's record is built at
        the set's points, where that factor sits at the anchor."""
        def build():
            # the product's record is tested before the opposite factor's:
            # where both metrics fail, the product's error is raised
            factors = [None, None]
            factors[which - 1] = self.side(which).factor
            return _PointData(self.dwp, self.anchored_product(which),
                              factors=factors)
        return self.once(("restriction", which), build)
