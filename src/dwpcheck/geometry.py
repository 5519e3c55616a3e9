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
    the leading axis, indexed as each method's docstring says.  A chart
    whose metric entries read no coordinate (`constant_metric`) has zero
    Christoffel symbols and curvature: its records give them as exact
    zeros, without reading the metric's derivatives: its records are values
    records (`at`), which read g at their first point alone (`_read_rows`)."""

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
        self.constant_metric = not any(e.variables for row in self.metric
                                       for e in row)
        # the distinct entries of the upper triangle, and the subtrees that
        # they share (`shared_memo`), which each pass of `_entries` jets once
        n = self.dim
        self._upper = [(i, j) for i in range(n) for j in range(i, n)]
        self._shared = shared_memo(dict.fromkeys(
            self.metric[i][j] for i, j in self._upper))

    @property
    def dim(self):
        return len(self.coords)

    def _metric_jets(self, points):
        """g[n,i,j], dg[n,k,i,j] = d_k g_ij and ddg[n,k,l,i,j] =
        d_k d_l g_ij."""
        jets = self._entries(np.asarray(points, dtype=float), Expression.jet)
        return (self._symmetric(lambda e: jets[e].value),
                self._symmetric(lambda e: jets[e].gradient),
                self._symmetric(lambda e: jets[e].hessian))

    def _metric_values(self, points):
        """g[n,i,j] alone: the values of `_metric_jets`, bitwise, from a pass
        that jets no derivative; it raises the same errors, since every
        domain and overflow check runs on values.  A constant metric is read
        at the first point alone (`_read_rows`), where it fails if at all."""
        return _read_rows(lambda p: self._symmetric(self._entries(
            p, Expression.evaluate).__getitem__),
            np.asarray(points, dtype=float), self.constant_metric)

    def _entries(self, points, read):
        """{entry: read(entry, points, memo)} over the distinct entries of
        the metric's upper triangle: equal entries (the zeros off a block
        diagonal, say) are read once, and so is a subtree that distinct
        entries share (a block's squared warping), through a memo that
        lives for this pass only, a copy of the chart's table of those
        subtrees.  Raises the error of the first point where an entry
        leaves its domain, the first such entry of the row-major upper
        triangle: the chart's fault there (`_fault_at`), else one that
        names the entry."""
        memo = dict(self._shared)
        out = {}
        for i, j in self._upper:
            entry = self.metric[i][j]
            if entry in out:
                continue
            try:
                out[entry] = read(entry, points, memo)
            except DomainError as exc:
                # a later entry may fail at an earlier point; the pass
                # on those points has a memo of its own
                self._entries(points[: exc.index], read)
                point = points[exc.index]
                raise self._fault_at(point) or MetricError(
                    f"metric entry [{i}][{j}] = {str(entry)!r} leaves its "
                    f"domain at {point.tolist()}: {exc}") from None
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

    def _fault_at(self, point):
        """The error that names what is wrong with the chart at `point`,
        where a metric entry leaves its domain or the sampler gives up,
        or None to keep the error that names the entry or the draw."""
        return None

    def at(self, points):
        """The chart's record at a batch of points (N, dim); on a constant
        metric, its values record (`values_at`): no metric jet is taken."""
        if self.constant_metric:
            return self.values_at(points)
        p = np.asarray(points, dtype=float)
        return ChartBatch(self, p, *self._metric_jets(p))

    def values_at(self, points):
        """The chart's record at a batch of points from the metric's values
        alone: its `g` is that of `at(points)`, bitwise, and it holds no
        derivatives (`ChartBatch`)."""
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
        return self.at(points).laplacian(psi)

    def well_conditioned_at(self, points):
        """Per point: whether the metric is positive definite with
        cond(g) <= COND_LIMIT."""
        return self.at(points).well_conditioned()


class ChartBatch:
    """A chart at a batch of points: the metric jets from one pass, and what
    is read off them, each computed on first read.  Tensors are arrays in
    coordinate components with a leading N axis, indexed as documented.

    A record given the metric's values alone (`ChartManifold.values_at`)
    holds no derivatives (its `dg` and `ddg` are None): only a chart whose
    metric is constant gives its Christoffel symbols and curvature there,
    and its every record is one, whose `g`, `definite`, `ginv` and `big_g`
    are read at the first point and repeated (`_read_rows`).
    What else is read off a record is built once, through its one memo
    (`once`), keyed on what is read and never on points: an expression's
    jet (`jet`, keyed on the expression, structurally), a covariant Hessian
    (`("hessian", psi)`) and its trace (`("laplacian", psi)`), and what
    other readers build through `once`.
    The metrics' definiteness test runs once per record too (`definite`),
    and a record read off others carries their rows of it."""

    def __init__(self, chart, p, g, dg=None, ddg=None, definite=None):
        self.chart, self.p, self.g, self.dg, self.ddg = chart, p, g, dg, ddg
        self._memo = {}
        if definite is not None:
            self.definite = definite

    def take(self, rows):
        """The record at a subset of the points (a boolean mask, an index
        array or a slice), read off this record's jets (its values alone,
        if it holds no more) and definiteness test."""
        return ChartBatch(self.chart, self.p[rows], self.g[rows], *(
            None if a is None else a[rows] for a in (self.dg, self.ddg)),
            definite=tuple(a[rows] for a in self.definite))

    @staticmethod
    def concatenate(records):
        """One record of the points of several records of one chart, in
        order; of values records, a values record."""
        fields = zip(*((r.p, r.g, r.dg, r.ddg) for r in records))
        return ChartBatch(records[0].chart, *(
            None if a[0] is None else np.concatenate(a) for a in fields),
            definite=tuple(
                map(np.concatenate, zip(*(r.definite for r in records)))))

    def once(self, key, build):
        """build() on the first request for `key`, stored in the record's
        memo and returned to every later request."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = build()
        return out

    def jet(self, expr):
        """The jet of an expression on the chart's coordinates at the
        points, computed on first request."""
        return self.once(expr, lambda: expr.jet(self.p))

    def share_jets(self, exprs):
        """Jet those of the expressions not jetted yet through one memo
        (`shared_memo`), so that a subtree they share is jetted once."""
        todo = [e for e in dict.fromkeys(exprs) if e not in self._memo]
        memo = shared_memo(todo)
        for e in todo:
            self._memo[e] = e.jet(self.p, memo)

    @cached_property
    def rank(self):
        """rank[n]: the place of point n in the lexicographic order of the
        points' coordinates (first coordinate first), equal points in row
        order: the tie-break of the summaries (`reporting.summarize`)."""
        order = np.lexsort(self.p.T[::-1])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return rank

    @cached_property
    def definite(self):
        """(spd, w): per point, whether the metric is finite and positive
        definite, and its ascending eigenvalues (`_positive_definite`)."""
        return _read_rows(_positive_definite, self.g,
                          self.chart.constant_metric)

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
        return _read_rows(np.linalg.inv, self.g, self.chart.constant_metric)

    def _zeros(self, rank):
        """Exact zeros of a rank-`rank` tensor at each point."""
        return np.zeros((len(self.p),) + (self.chart.dim,) * rank)

    @cached_property
    def gamma(self):
        """Christoffel symbols Gamma[n,k,i,j] = Gamma^k_ij
        = 1/2 g^{km} (d_i g_jm + d_j g_im - d_m g_ij)."""
        if self.chart.constant_metric:
            return self._zeros(3)
        return 0.5 * np.einsum("nkm,nijm->nkij", self.ginv, _sym(self.dg))

    @cached_property
    def curvature(self):
        """(R[n,i,j,k,w] = R(d_i, d_j, d_k, d_w), Ric[n,j,k], tau[n]).

        Every sum over an index is a batched matrix product (`@`) of
        reshaped views, and the product of the Christoffel symbols is
        taken once: its i <-> j swap is a transpose of it."""
        if self.chart.constant_metric:
            return self._zeros(4), self._zeros(2), self._zeros(0)
        g, dg, ddg = self.g, self.dg, self.ddg
        ginv, gamma = self.ginv, self.gamma
        n, m = len(self.p), self.chart.dim
        rank4 = (n, m, m, m, m)
        # d_l g^{km} = -g^{ka} (d_l g_ab) g^{bm}, indexed [n,l,k,m]
        dginv = -(ginv[:, None] @ dg @ ginv[:, None])
        # d_l of (d_i g_jm + d_j g_im - d_m g_ij), indexed [l,i,j,m]
        dsym = (ddg + np.einsum("nljim->nlijm", ddg)
                - np.einsum("nlmij->nlijm", ddg))
        # dGamma[n,l,k,i,j] = d_l Gamma^k_ij: rows (l,k) of dginv times
        # columns (i,j) of sym, and rows (l,i,j) of dsym times g^-1
        sym_t = _sym(dg).reshape(n, m * m, m).transpose(0, 2, 1)
        dgamma = (
            0.5 * (dginv.reshape(n, m * m, m) @ sym_t).reshape(rank4)
            + 0.5 * (dsym.reshape(n, m**3, m) @ ginv.transpose(0, 2, 1))
            .reshape(rank4).transpose(0, 1, 4, 2, 3))
        # (R(d_i,d_j)d_k)^m = d_i G^m_jk - d_j G^m_ik + G^m_ia G^a_jk
        #                    - G^m_ja G^a_ik, with gg[n,m,i,j,k] =
        # G^m_ia G^a_jk (rows (m,i) times columns (j,k)) taken once
        gg = (gamma.reshape(n, m * m, m) @ gamma.reshape(n, m, m * m)
              ).reshape(rank4)
        rup = (dgamma.transpose(0, 2, 1, 3, 4)
               - dgamma.transpose(0, 2, 3, 1, 4)
               + gg - gg.transpose(0, 1, 3, 2, 4))
        # R_ijkw = g_mw rup^m_ijk: rows (i,j,k) of rup times g
        r4 = (rup.reshape(n, m, m**3).transpose(0, 2, 1) @ g).reshape(rank4)
        ric = np.trace(rup, axis1=1, axis2=2)
        ric = 0.5 * (ric + ric.transpose(0, 2, 1))
        tau = (ginv.reshape(n, 1, m * m) @ ric.reshape(n, m * m, 1)
               ).reshape(n)
        return r4, ric, tau

    @cached_property
    def curvature_operator(self):
        """The (1,3) curvature r[n,x,y,z,c] = (R(d_x, d_y) d_z)^c, the
        (0,4) one raised by g^-1."""
        if self.chart.constant_metric:
            return self._zeros(4)
        return self.curvature[0] @ self.ginv[:, None, None]

    @cached_property
    def big_g(self):
        """G = (1/2) g ^ g, the (0,4) curvature tensor of unit sectional
        curvature."""
        return _read_rows(lambda g: 0.5 * kulkarni_nomizu(g, g), self.g,
                          self.chart.constant_metric)

    def hessian(self, psi):
        """Covariant Hessian h[n,i,j] = d_i d_j psi - Gamma^k_ij d_k psi,
        computed on first request."""
        def build():
            jet = self.jet(psi)
            return covariant_hessian(self.gamma, jet.gradient, jet.hessian)
        return self.once(("hessian", psi), build)

    def laplacian(self, psi):
        """Laplacian lap[n] = g^ij h_ij, the trace of the covariant Hessian
        (`hessian`), computed on first request."""
        return self.once(("laplacian", psi), lambda: np.einsum(
            "nij,nij->n", self.ginv, self.hessian(psi)))


def _read_rows(read, x, repeated):
    """read(x) for a `read` that acts row by row along x's leading axis;
    where every row of x is the same (`repeated`), read at the first row
    alone and each array read repeated to x's rows: bitwise the same."""
    if not repeated:
        return read(x)
    out = read(x[:1])
    if isinstance(out, tuple):
        return tuple(np.repeat(a, len(x), axis=0) for a in out)
    return np.repeat(out, len(x), axis=0)


def _sym(dg):
    """sym[n,i,j,m] = d_i g_jm + d_j g_im - d_m g_ij."""
    return dg + np.einsum("njim->nijm", dg) - np.einsum("nmij->nijm", dg)


def covariant_hessian(gamma, gradient, hessian):
    """Covariant Hessians h[n,i,j] = hessian[n,i,j] - gamma[n,k,i,j]
    gradient[n,k] of a scalar, from its coordinate gradient and Hessian
    and the Christoffel symbols at the same points, symmetrized."""
    h = hessian - np.einsum("nkij,nk->nij", gamma, gradient)
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
    # t[x,y,z,w] = A(X,W)B(Y,Z); the other three terms are index swaps of it
    t = np.einsum("...xw,...yz->...xyzw", a, b)
    return (t + t.swapaxes(-4, -3).swapaxes(-2, -1) - t.swapaxes(-2, -1)
            - t.swapaxes(-4, -3))


def sample_points(manifold, box, n, seed):
    """Seeded uniform samples in a coordinate box, skipping points where the
    metric is singular or ill-conditioned; oversampling capped at 10x.
    Returns the chart's record at the accepted points (their coordinates
    are its `p`), read off the jets of the acceptance test (on a constant
    metric, a values record: the test reads one point per chunk).

    The draws come in chunks of the number of points still missing, so each
    drawn point is one that drawing and testing one at a time would reach
    too: the stream, and the first point that fails, are the same.  A
    sampler that gives up raises the chart's error for its first rejected
    draw (`ChartManifold._fault_at`), else one that names that draw."""
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (manifold.dim, 1))
    if box.shape != (manifold.dim, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ValueError("box must be a per-coordinate [lo, hi] list")
    if n < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    accepted = []
    rejected = None  # the first drawn point that failed the test
    count = attempts = 0
    while count < n:
        if attempts >= 10 * n:
            raise manifold._fault_at(rejected) or GeometryError(
                f"metric not positive definite or cond(g) > {COND_LIMIT:g} "
                f"at {rejected.tolist()}, the first rejected draw: could "
                f"not find {n} well-conditioned sample points within "
                f"{attempts} draws")
        k = min(n - count, 10 * n - attempts)
        p = rng.uniform(box[:, 0], box[:, 1], size=(k, manifold.dim))
        attempts += k
        record = manifold.at(p)
        ok = record.well_conditioned()
        if rejected is None and not ok.all():
            rejected = p[(~ok).argmax()]
        accepted.append(record.take(ok))
        count += int(ok.sum())
    return ChartBatch.concatenate(accepted)
