"""Brute-force Riemannian tensor calculus on a coordinate chart.

Everything here is assembled directly from exact second-order jets of the
metric components; it is the independent oracle against which the
doubly-warped closed forms are tested.

Sign conventions, pinned once for the whole package:
    R(X,Y)Z   = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z
    R(X,Y,Z,W) = g(R(X,Y)Z, W)
    Ric(Y,Z)  = sum_i R(e_i, Y, Z, e_i)   (orthonormal frame)
    lap(psi)  = trace_g hess(psi)         (lap(|x|^2/2) = n on flat space)
"""

from __future__ import annotations

import numpy as np

from .expr import DomainError, Expression

__all__ = [
    "ChartManifold",
    "GeometryError",
    "MetricError",
    "kulkarni_nomizu",
    "sample_points",
]

COND_LIMIT = 1e8


class GeometryError(Exception):
    pass


class MetricError(GeometryError):
    pass


def _as_tuple(point):
    return tuple(float(x) for x in np.asarray(point, dtype=float))


class ChartManifold:
    """A coordinate chart with metric components given as expressions.

    Tensors at a point are plain arrays in coordinate components, indexed
    as each method's docstring says."""

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
        self._jet_cache = {}
        self._curv_cache = {}

    @property
    def dim(self):
        return len(self.coords)

    # -- metric jets -------------------------------------------------------

    def _metric_jets(self, p):
        """g, dg[k,i,j] = d_k g_ij, ddg[k,l,i,j] = d_k d_l g_ij at p."""
        key = _as_tuple(p)
        hit = self._jet_cache.get(key)
        if hit is not None:
            return hit
        n = self.dim
        g = np.empty((n, n))
        dg = np.empty((n, n, n))
        ddg = np.empty((n, n, n, n))
        pa = np.asarray(key)
        for i in range(n):
            for j in range(i, n):
                try:
                    jet = self.metric[i][j].jet(pa)
                except (DomainError, OverflowError) as exc:
                    raise MetricError(
                        f"metric entry [{i}][{j}] = "
                        f"{str(self.metric[i][j])!r} leaves its domain at "
                        f"{list(key)}: {exc}"
                    ) from None
                g[i, j] = g[j, i] = jet.value
                dg[:, i, j] = dg[:, j, i] = jet.gradient
                ddg[:, :, i, j] = ddg[:, :, j, i] = jet.hessian
        if len(self._jet_cache) > 4096:
            self._jet_cache.clear()
        self._jet_cache[key] = (g, dg, ddg)
        return g, dg, ddg

    def metric_at(self, p):
        """Metric matrix and its inverse at p; raises if not SPD."""
        g, _, _ = self._metric_jets(p)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise MetricError(f"metric not positive definite at {_as_tuple(p)}")
        return g, np.linalg.inv(g)

    # -- connection and curvature ------------------------------------------

    def christoffel(self, p):
        """Gamma[k,i,j] = Gamma^k_ij at p."""
        g, dg, _ = self._metric_jets(p)
        ginv = np.linalg.inv(g)
        # Gamma^k_ij = 1/2 g^{km} (d_i g_jm + d_j g_im - d_m g_ij)
        sym = dg + np.einsum("jim->ijm", dg) - np.einsum("mij->ijm", dg)
        gamma = 0.5 * np.einsum("km,ijm->kij", ginv, sym)
        return gamma

    def _christoffel_jets(self, p):
        """Gamma[k,i,j] and dGamma[l,k,i,j] = d_l Gamma^k_ij at p."""
        g, dg, ddg = self._metric_jets(p)
        ginv = np.linalg.inv(g)
        sym = dg + np.einsum("jim->ijm", dg) - np.einsum("mij->ijm", dg)
        gamma = 0.5 * np.einsum("km,ijm->kij", ginv, sym)
        # d_l g^{km} = -g^{ka} (d_l g_ab) g^{bm}
        dginv = -np.einsum("ka,lab,bm->lkm", ginv, dg, ginv)
        # d_l of (d_i g_jm + d_j g_im - d_m g_ij), indexed [l,i,j,m]
        dsym = ddg + np.einsum("ljim->lijm", ddg) - np.einsum("lmij->lijm", ddg)
        dgamma = 0.5 * np.einsum("lkm,ijm->lkij", dginv, sym) + 0.5 * np.einsum(
            "km,lijm->lkij", ginv, dsym
        )
        return gamma, dgamma

    def _curvature(self, p):
        """(R[i,j,k,w], Ric[j,k], tau) at p, from one computation."""
        key = _as_tuple(p)
        hit = self._curv_cache.get(key)
        if hit is not None:
            return hit
        g, _, _ = self._metric_jets(p)
        gamma, dgamma = self._christoffel_jets(p)
        # (R(d_i,d_j)d_k)^m = d_i G^m_jk - d_j G^m_ik + G^m_ia G^a_jk - G^m_ja G^a_ik
        rup = (
            np.einsum("imjk->mijk", dgamma)
            - np.einsum("jmik->mijk", dgamma)
            + np.einsum("mia,ajk->mijk", gamma, gamma)
            - np.einsum("mja,aik->mijk", gamma, gamma)
        )
        r4 = np.einsum("mw,mijk->ijkw", g, rup)
        ric = np.einsum("iijk->jk", rup)
        ric = 0.5 * (ric + ric.T)
        tau = float(np.einsum("jk,jk->", np.linalg.inv(g), ric))
        if len(self._curv_cache) > 4096:
            self._curv_cache.clear()
        self._curv_cache[key] = (r4, ric, tau)
        return r4, ric, tau

    def riemann_oracle(self, p):
        """Fully covariant curvature R[i,j,k,w] = R(d_i, d_j, d_k, d_w)."""
        return self._curvature(p)[0]

    def ricci_oracle(self, p):
        return self._curvature(p)[1]

    def scalar_oracle(self, p):
        return self._curvature(p)[2]

    # -- scalar-field calculus ----------------------------------------------

    def hessian_field(self, psi, p):
        """Covariant Hessian h_ij = d_i d_j psi - Gamma^k_ij d_k psi."""
        jet = psi.jet(p)
        gamma = self.christoffel(p)
        h = jet.hessian - np.einsum("kij,k->ij", gamma, jet.gradient)
        return 0.5 * (h + h.T)

    def gradient_field(self, psi, p):
        g, _, _ = self._metric_jets(p)
        return np.linalg.solve(g, psi.jet(p).gradient)

    def laplacian_field(self, psi, p):
        g, _, _ = self._metric_jets(p)
        h = self.hessian_field(psi, p)
        return float(np.einsum("ij,ij->", np.linalg.inv(g), h))

    # -- frames and sampling -------------------------------------------------

    def orthonormal_frame(self, p):
        """Gram-Schmidt of the coordinate basis (inverse Cholesky factor):
        column i holds the coordinate components of the i-th frame vector."""
        g, _, _ = self._metric_jets(p)
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise MetricError(f"metric not positive definite at {_as_tuple(p)}")
        return np.linalg.inv(chol).T

    def well_conditioned_at(self, p):
        g, _, _ = self._metric_jets(p)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return False
        return np.linalg.cond(g) <= COND_LIMIT


def kulkarni_nomizu(a, b):
    """(A ^ B)(X,Y,Z,W) = A(X,W)B(Y,Z) + A(Y,Z)B(X,W)
    - A(X,Z)B(Y,W) - A(Y,W)B(X,Z), for symmetric (0,2) inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("kulkarni_nomizu needs two equally sized matrices")
    return (
        np.einsum("xw,yz->xyzw", a, b)
        + np.einsum("yz,xw->xyzw", a, b)
        - np.einsum("xz,yw->xyzw", a, b)
        - np.einsum("yw,xz->xyzw", a, b)
    )


def sample_points(manifold, box, n, seed):
    """Seeded uniform samples in a coordinate box, skipping points where the
    metric is singular or ill-conditioned; oversampling capped at 10x."""
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (manifold.dim, 1))
    if box.shape != (manifold.dim, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ValueError("box must be a per-coordinate [lo, hi] list")
    rng = np.random.default_rng(seed)
    accepted = []
    attempts = 0
    while len(accepted) < n:
        if attempts >= 10 * n:
            raise GeometryError(
                f"could not find {n} well-conditioned sample points "
                f"within {attempts} draws"
            )
        p = rng.uniform(box[:, 0], box[:, 1])
        attempts += 1
        if manifold.well_conditioned_at(p):
            accepted.append(p)
    return np.array(accepted)
