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

from .expr import DomainError, Expression

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
        and the entries' jets keyed on the entry: equal entries (the zeros
        off a block diagonal, say) are jetted once."""
        points = np.asarray(points, dtype=float)
        n = self.dim
        g = np.empty((len(points), n, n))
        dg = np.empty((len(points), n, n, n))
        ddg = np.empty((len(points), n, n, n, n))
        jets = {}
        for i in range(n):
            for j in range(i, n):
                entry = self.metric[i][j]
                try:
                    jet = jets.get(entry)
                    if jet is None:
                        jet = jets[entry] = entry.jet(points)
                except DomainError as exc:
                    # a later entry may fail at an earlier point
                    self._metric_jets(points[: exc.index])
                    raise self._domain_error(i, j, points[exc.index],
                                             exc) from None
                g[:, i, j] = g[:, j, i] = jet.value
                dg[:, :, i, j] = dg[:, :, j, i] = jet.gradient
                ddg[:, :, :, i, j] = ddg[:, :, :, j, i] = jet.hessian
        return g, dg, ddg, jets

    def _domain_error(self, i, j, point, exc):
        """The error of entry [i][j] leaving its domain at `point`."""
        return MetricError(
            f"metric entry [{i}][{j}] = {str(self.metric[i][j])!r} leaves "
            f"its domain at {point.tolist()}: {exc}")

    def at(self, points):
        """The chart's record at a batch of points (N, dim)."""
        p = np.asarray(points, dtype=float)
        return ChartBatch(self, p, *self._metric_jets(p))

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

    `jet(expr)` jets an expression at the points once per record, and
    `hessian(expr)` builds its covariant Hessian once.  The memos are keyed
    on the expression (structurally), never on points; the jets' memo
    starts from the metric entries' jets when the record is jetted itself."""

    def __init__(self, chart, p, g, dg, ddg, jets=None):
        self.chart, self.p = chart, p
        self.g, self.dg, self.ddg = g, dg, ddg
        self._jets = {} if jets is None else jets
        self._hessians = {}

    def take(self, rows):
        """The record at a subset of the points (a boolean mask or an index
        array), read off this record's jets."""
        return ChartBatch(self.chart, self.p[rows], self.g[rows],
                          self.dg[rows], self.ddg[rows])

    @staticmethod
    def concatenate(records):
        """One record of the points of several records of one chart, in
        order."""
        return ChartBatch(records[0].chart, *(
            np.concatenate([getattr(r, name) for r in records])
            for name in ("p", "g", "dg", "ddg")))

    def jet(self, expr):
        """The jet of an expression on the chart's coordinates at the
        points, computed on first request."""
        out = self._jets.get(expr)
        if out is None:
            out = self._jets[expr] = expr.jet(self.p)
        return out

    def well_conditioned(self):
        """Per point: whether the metric is positive definite with
        cond(g) <= COND_LIMIT."""
        spd, w = _positive_definite(self.g)
        return spd & (w[:, -1] <= COND_LIMIT * w[:, 0])

    def require_spd(self):
        """The record itself; raises if a metric is not positive definite."""
        spd, _ = _positive_definite(self.g)
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
