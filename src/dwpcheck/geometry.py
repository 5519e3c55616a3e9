"""Brute-force Riemannian tensor calculus on a coordinate chart.

Everything here is assembled directly from exact second-order jets of the
metric components; it is the independent oracle against which the
doubly-warped closed forms are tested.  Every method takes a batch of
points, an (N, dim) array, and returns arrays with a leading N axis.

Sign conventions, pinned once for the whole package:
    R(X,Y)Z   = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z
    R(X,Y,Z,W) = g(R(X,Y)Z, W)
    Ric(Y,Z)  = sum_i R(e_i, Y, Z, e_i)   (orthonormal frame)
    lap(psi)  = trace_g hess(psi)         (lap(|x|^2/2) = n on flat space)
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .expr import DomainError, Expression, shared_memo

__all__ = [
    "ChartBatch",
    "ChartManifold",
    "GeometryError",
    "MetricError",
    "covariant_hessian",
    "kulkarni_nomizu",
    "sample_points",
]

COND_LIMIT = 1e8


class GeometryError(Exception):
    pass


class MetricError(GeometryError):
    pass


class ChartManifold:
    """A coordinate chart with metric components given as expressions.

    Tensors are plain arrays in coordinate components, one per point along
    the leading axis, indexed as each method's docstring says."""

    def __init__(self, coords, metric):
        self.coords = tuple(coords)
        dim = len(self.coords)
        if len(metric) != dim or any(len(row) != dim for row in metric):
            raise ValueError("metric must be a dim x dim matrix of expressions")
        self.metric = tuple(tuple(row) for row in metric)
        for row in self.metric:
            for e in row:
                if not isinstance(e, Expression):
                    raise TypeError("metric entries must be Expression")
                if e.coords != self.coords:
                    raise ValueError("metric entry bound to wrong coordinates")

    @property
    def dim(self):
        return len(self.coords)

    def _metric_jets(self, points):
        """g[n,i,j], dg[n,k,i,j] = d_k g_ij, ddg[n,k,l,i,j] = d_k d_l g_ij,
        and the entries' jets keyed on the entry (`_entries`)."""
        points = np.asarray(points, dtype=float)
        jets = self._entries(points, Expression.jet)
        return (self._symmetric(lambda e: jets[e].value),
                self._symmetric(lambda e: jets[e].gradient),
                self._symmetric(lambda e: jets[e].hessian), jets)

    def _metric_values(self, points):
        """g[n,i,j] alone: the values of `_metric_jets`, bitwise, from a pass
        that jets no derivative; it raises the same errors, since every
        domain and overflow check runs on values."""
        values = self._entries(np.asarray(points, dtype=float),
                               Expression.evaluate)
        return self._symmetric(values.__getitem__)

    def _entries(self, points, read):
        """{entry: read(entry, points, memo)} over the distinct entries of
        the metric's upper triangle: equal entries (the zeros off a block
        diagonal, say) are read once, and so is a subtree that distinct
        entries share (a block's squared warping), through a memo that
        lives for this pass only.  Raises the error of the first point
        where an entry leaves its domain, the first such entry of the
        row-major upper triangle."""
        n = self.dim
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        memo = shared_memo(dict.fromkeys(self.metric[i][j] for i, j in upper))
        out = {}
        for i, j in upper:
            entry = self.metric[i][j]
            if entry in out:
                continue
            try:
                out[entry] = read(entry, points, memo)
            except DomainError as exc:
                # a later entry may fail at an earlier point; the pass
                # on those points has a memo of its own
                self._entries(points[: exc.index], read)
                raise self._domain_error(i, j, points[exc.index],
                                         exc) from None
        return out

    def _symmetric(self, entry):
        """The symmetric array out[..., i, j] = out[..., j, i] =
        entry(metric[i][j])."""
        n = self.dim
        first = entry(self.metric[0][0])
        out = np.empty(first.shape + (n, n))
        for i in range(n):
            for j in range(i, n):
                out[..., i, j] = out[..., j, i] = entry(self.metric[i][j])
        return out

    def _domain_error(self, i, j, point, exc):
        """The error of entry [i][j] leaving its domain at `point`."""
        return MetricError(
            f"metric entry [{i}][{j}] = {str(self.metric[i][j])!r} leaves "
            f"its domain at {point.tolist()}: {exc}")

    def at(self, points):
        """The chart's record at a batch of points (N, dim)."""
        p = np.asarray(points, dtype=float)
        return ChartBatch(self, p, *self._metric_jets(p))

    def values_at(self, points):
        """The chart's record at a batch of points from the metric's values
        alone: its `g` is that of `at(points)`, bitwise, and its
        derivatives are jetted if read."""
        p = np.asarray(points, dtype=float)
        return ChartBatch(self, p, self._metric_values(p))

    def metric_at(self, points):
        """Metric matrices and their inverses; raises if one is not SPD."""
        d = self.at(points).require_spd()
        return d.g, d.ginv

    def christoffel(self, points):
        """Gamma[n,k,i,j] = Gamma^k_ij."""
        return self.at(points).gamma

    def riemann_oracle(self, points):
        """Fully covariant curvature R[n,i,j,k,w] = R(d_i, d_j, d_k, d_w)."""
        return self.at(points).curvature[0]

    def ricci_oracle(self, points):
        return self.at(points).curvature[1]

    def scalar_oracle(self, points):
        return self.at(points).curvature[2]

    def hessian_field(self, psi, points):
        return self.at(points).hessian(psi)

    def gradient_field(self, psi, points):
        d = self.at(points)
        return np.linalg.solve(d.g, d.jet(psi).gradient[..., None])[..., 0]

    def laplacian_field(self, psi, points):
        d = self.at(points)
        return np.einsum("nij,nij->n", d.ginv, d.hessian(psi))

    def well_conditioned_at(self, points):
        """Per point: whether the metric is positive definite with
        cond(g) <= COND_LIMIT."""
        return self.at(points).well_conditioned()


class ChartBatch:
    """A chart at a batch of points: the metric jets from one pass, and what
    is read off them, each computed on first read.  Tensors are arrays in
    coordinate components with a leading N axis, indexed as documented.

    A record given the metric's values alone (`ChartManifold.values_at`)
    jets its derivatives, and the entries' jets, when `dg` or `ddg` is
    first read.  `jet(expr)` jets an expression at the points once per
    record, and `hessian(expr)` builds its covariant Hessian once.  The
    memos are keyed on the expression (structurally), never on points; the
    jets' memo starts from the metric entries' jets when the record is
    jetted itself.  The metrics' definiteness test runs once per record
    too (`definite`), and a record read off others carries their rows of
    it."""

    def __init__(self, chart, p, g, dg=None, ddg=None, jets=None,
                 definite=None):
        self.chart, self.p, self.g = chart, p, g
        self._derivatives = None if dg is None else (dg, ddg)
        self._jets = {} if jets is None else jets
        self._hessians = {}
        if definite is not None:
            self.definite = definite

    @property
    def dg(self):
        """dg[n,k,i,j] = d_k g_ij."""
        return self._jetted()[0]

    @property
    def ddg(self):
        """ddg[n,k,l,i,j] = d_k d_l g_ij."""
        return self._jetted()[1]

    def _jetted(self):
        """(dg, ddg), jetted with the entries' jets on first request if the
        record was given the values alone."""
        if self._derivatives is None:
            _, dg, ddg, jets = self.chart._metric_jets(self.p)
            self._derivatives = dg, ddg
            self._jets = {**jets, **self._jets}
        return self._derivatives

    def take(self, rows):
        """The record at a subset of the points (a boolean mask, an index
        array, repeats allowed, or a slice), read off this record's jets
        (its values alone, if it holds no more) and definiteness test."""
        derivatives = () if self._derivatives is None else [
            a[rows] for a in self._derivatives]
        return ChartBatch(self.chart, self.p[rows], self.g[rows],
                          *derivatives,
                          definite=tuple(a[rows] for a in self.definite))

    @staticmethod
    def concatenate(records):
        """One record of the points of several records of one chart, in
        order."""
        return ChartBatch(records[0].chart, *(
            np.concatenate([getattr(r, name) for r in records])
            for name in ("p", "g", "dg", "ddg")), definite=tuple(
                map(np.concatenate, zip(*(r.definite for r in records)))))

    def jet(self, expr):
        """The jet of an expression on the chart's coordinates at the
        points, computed on first request."""
        out = self._jets.get(expr)
        if out is None:
            out = self._jets[expr] = expr.jet(self.p)
        return out

    def share_jets(self, exprs):
        """Jet those of the expressions not jetted yet through one memo
        (`shared_memo`), so that a subtree they share is jetted once."""
        todo = [e for e in dict.fromkeys(exprs) if e not in self._jets]
        memo = shared_memo(todo)
        for e in todo:
            self._jets[e] = e.jet(self.p, memo)

    @cached_property
    def definite(self):
        """(spd, w): per point, whether the metric is finite and positive
        definite, and its ascending eigenvalues (`_positive_definite`)."""
        return _positive_definite(self.g)

    def well_conditioned(self):
        """Per point: whether the metric is positive definite with
        cond(g) <= COND_LIMIT."""
        spd, w = self.definite
        return spd & (w[:, -1] <= COND_LIMIT * w[:, 0])

    def require_spd(self):
        """The record itself; raises if a metric is not positive definite."""
        spd, _ = self.definite
        if not spd.all():
            raise MetricError("metric not positive definite at "
                              f"{self.p[(~spd).argmax()].tolist()}")
        return self

    @cached_property
    def ginv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def gamma(self):
        """Christoffel symbols Gamma[n,k,i,j] = Gamma^k_ij
        = 1/2 g^{km} (d_i g_jm + d_j g_im - d_m g_ij)."""
        return 0.5 * np.einsum("nkm,nijm->nkij", self.ginv, _sym(self.dg))

    @cached_property
    def curvature(self):
        """(R[n,i,j,k,w] = R(d_i, d_j, d_k, d_w), Ric[n,j,k], tau[n])."""
        g, dg, ddg = self.g, self.dg, self.ddg
        ginv, gamma = self.ginv, self.gamma
        # d_l g^{km} = -g^{ka} (d_l g_ab) g^{bm}
        dginv = -np.einsum("nka,nlab,nbm->nlkm", ginv, dg, ginv)
        # d_l of (d_i g_jm + d_j g_im - d_m g_ij), indexed [l,i,j,m]
        dsym = (ddg + np.einsum("nljim->nlijm", ddg)
                - np.einsum("nlmij->nlijm", ddg))
        # dGamma[n,l,k,i,j] = d_l Gamma^k_ij
        dgamma = (0.5 * np.einsum("nlkm,nijm->nlkij", dginv, _sym(dg))
                  + 0.5 * np.einsum("nkm,nlijm->nlkij", ginv, dsym))
        # (R(d_i,d_j)d_k)^m = d_i G^m_jk - d_j G^m_ik + G^m_ia G^a_jk - G^m_ja G^a_ik
        rup = (
            np.einsum("nimjk->nmijk", dgamma)
            - np.einsum("njmik->nmijk", dgamma)
            + np.einsum("nmia,najk->nmijk", gamma, gamma)
            - np.einsum("nmja,naik->nmijk", gamma, gamma)
        )
        r4 = np.einsum("nmw,nmijk->nijkw", g, rup)
        ric = np.einsum("niijk->njk", rup)
        ric = 0.5 * (ric + ric.transpose(0, 2, 1))
        tau = np.einsum("njk,njk->n", ginv, ric)
        return r4, ric, tau

    @cached_property
    def big_g(self):
        """G = (1/2) g ^ g, the (0,4) curvature tensor of unit sectional
        curvature."""
        return 0.5 * kulkarni_nomizu(self.g, self.g)

    def hessian(self, psi):
        """Covariant Hessian h[n,i,j] = d_i d_j psi - Gamma^k_ij d_k psi,
        computed on first request."""
        out = self._hessians.get(psi)
        if out is None:
            out = self._hessians[psi] = covariant_hessian(self.gamma,
                                                          self.jet(psi))
        return out


def _sym(dg):
    """sym[n,i,j,m] = d_i g_jm + d_j g_im - d_m g_ij."""
    return dg + np.einsum("njim->nijm", dg) - np.einsum("nmij->nijm", dg)


def covariant_hessian(gamma, jet):
    """Covariant Hessians from a scalar's jet and the Christoffel symbols
    gamma[n,k,i,j] at the same points."""
    h = jet.hessian - np.einsum("nkij,nk->nij", gamma, jet.gradient)
    return 0.5 * (h + h.transpose(0, 2, 1))


def _positive_definite(g):
    """Per matrix: whether it is finite and positive definite, and its
    ascending eigenvalues (those of a stand-in for a non-finite one)."""
    finite = np.isfinite(g).all(axis=(1, 2))
    w = np.linalg.eigvalsh(np.where(finite[:, None, None], g, 1.0))
    return finite & (w[:, 0] > 0), w


def outer(a, b):
    """Per-point outer products a[n, i] b[n, j] of two vector batches."""
    return a[:, :, None] * b[:, None, :]


def times(c, t):
    """Per-point scalars c[n] times the tensors t[n, ...]."""
    return c.reshape(c.shape + (1,) * (t.ndim - 1)) * t


def matvec(a, v):
    """Per-point matrix-vector products a[n] @ v[n]."""
    return (a @ v[:, :, None])[:, :, 0]


def kulkarni_nomizu(a, b):
    """(A ^ B)(X,Y,Z,W) = A(X,W)B(Y,Z) + A(Y,Z)B(X,W)
    - A(X,Z)B(Y,W) - A(Y,W)B(X,Z), for symmetric (0,2) inputs; leading
    axes are batch axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("kulkarni_nomizu needs two equally sized matrices")
    return (
        np.einsum("...xw,...yz->...xyzw", a, b)
        + np.einsum("...yz,...xw->...xyzw", a, b)
        - np.einsum("...xz,...yw->...xyzw", a, b)
        - np.einsum("...yw,...xz->...xyzw", a, b)
    )


def sample_points(manifold, box, n, seed):
    """Seeded uniform samples in a coordinate box, skipping points where the
    metric is singular or ill-conditioned; oversampling capped at 10x.
    Returns the chart's record at the accepted points (their coordinates
    are its `p`), read off the jets of the acceptance test.

    The draws come in chunks of the number of points still missing, so each
    drawn point is one that drawing and testing one at a time would reach
    too: the stream, and the first point that fails, are the same."""
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (manifold.dim, 1))
    if box.shape != (manifold.dim, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ValueError("box must be a per-coordinate [lo, hi] list")
    if n < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    accepted = []
    count = attempts = 0
    while count < n:
        if attempts >= 10 * n:
            raise GeometryError(
                f"could not find {n} well-conditioned sample points "
                f"within {attempts} draws"
            )
        k = min(n - count, 10 * n - attempts)
        p = rng.uniform(box[:, 0], box[:, 1], size=(k, manifold.dim))
        attempts += k
        record = manifold.at(p)
        ok = record.well_conditioned()
        accepted.append(record.take(ok))
        count += int(ok.sum())
    return ChartBatch.concatenate(accepted)
