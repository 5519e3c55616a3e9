"""Closed-form curvature splittings against the product oracle."""

import numpy as np
import pytest

from conftest import (
    corpus,
    e2xe1_product,
    expr_chart,
    flat_chart,
    random_polynomial,
    seeded_points,
    singly_warped_product,
    sphere_x_hyperbolic,
)
from dwpcheck import checks
from dwpcheck.dwp import (
    RIEMANN_CLASSES,
    RICCI_CLASSES,
    DoublyWarpedProduct,
    WarpingError,
)
from dwpcheck.expr import constant, parse_expression
from dwpcheck.reporting import PASS
from dwpcheck.solitons import SolitonSpec, ricci_factor_structures
from dwpcheck.special import einstein_defect, f_almost_defect

TOL = 1e-8


@pytest.fixture(scope="module")
def products():
    return dict(corpus(), sxh=sphere_x_hyperbolic())


@pytest.fixture(scope="module")
def samples(products):
    return {
        name: seeded_points(
            dwp.product, 10, box=(0.5, 1.5) if name == "sxh" else (-1.0, 1.0)
        )
        for name, dwp in products.items()
    }


def reference_riemann(dwp, p):
    """(R(d_i, d_j) d_k)^c from the six class formulas, one index triple at
    a time on unit vectors; the loop form of the block tensor."""
    d = dwp.point_data(p)
    m1, m = dwp.m1, dwp.m
    e = np.eye(m)
    dk, dl = d.dk1_ext, d.dl2_ext
    s1, s2 = d.sides
    factors = (
        (dwp.factor1.riemann_oracle(s1.point), s1.ginv, 0),
        (dwp.factor2.riemann_oracle(s2.point), s2.ginv, m1),
    )

    def fac(i):
        return 1 if i < m1 else 2

    def g(a, b):
        return e[a] @ d.g @ e[b]

    def factor_curvature(i, j, k):
        r4, ginv, off = factors[fac(i) - 1]
        out = np.zeros(m)
        vec = r4[i - off, j - off, k - off] @ ginv
        out[off: off + len(vec)] = vec
        return out

    def vec(i, j, k):
        pattern = (fac(i), fac(j), fac(k))
        if pattern in ((2, 1, 1), (1, 2, 2)):
            return -vec(j, i, k)
        if pattern == (1, 1, 1):  # XYZ
            return (factor_curvature(i, j, k)
                    + g(i, k) * (d.Hl @ e[j]) - g(j, k) * (d.Hl @ e[i]))
        if pattern == (2, 2, 2):  # UVW
            return (factor_curvature(i, j, k)
                    + g(i, k) * (d.Hk @ e[j]) - g(j, k) * (d.Hk @ e[i]))
        if pattern == (1, 1, 2):  # XYU
            return dl[k] * (dk[j] * e[i] - dk[i] * e[j])
        if pattern == (2, 2, 1):  # UVX
            return dk[k] * (dl[j] * e[i] - dl[i] * e[j])
        if pattern == (1, 2, 1):  # XUY
            x, u, y = i, j, k
            return (
                (s1.h_log[x, y] + dk[x] * dk[y]) * e[u]
                + dk[y] * dl[u] * e[x]
                + g(x, y) * (d.Hl @ e[u] + dl[u] * d.grad_l)
            )
        u, x, v = i, j, k  # UXV
        return (
            (s2.h_log[u - m1, v - m1] + dl[u] * dl[v]) * e[x]
            + dl[v] * dk[x] * e[u]
            + g(u, v) * (d.Hk @ e[x] + dk[x] * d.grad_k)
        )

    out = np.zeros((m, m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                out[i, j, k] = vec(i, j, k)
    return out


class TestRiemannSplitting:
    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1", "sxh"])
    def test_block_tensor_matches_per_triple_reference(
        self, products, samples, name
    ):
        dwp = products[name]
        for p in samples[name][:4]:
            block = dwp.riemann_closed(p)
            reference = reference_riemann(dwp, p)
            scale = np.maximum(1.0, np.abs(reference))
            assert np.all(np.abs(block - reference) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_all_six_classes_match_oracle(self, products, samples, name):
        out = checks.check_lemma1(products[name], samples[name], TOL)
        for summary in out:
            assert summary.status == PASS, summary

    def test_covariant_derivative_splitting(self, products, samples):
        for name in ("e2xe1", "sxh"):
            dwp = products[name]
            for p in samples[name][:4]:
                closed = dwp.covariant_closed(p)
                oracle = dwp.product.christoffel(p)
                assert np.allclose(closed, oracle, atol=1e-10)

    def test_first_bianchi_on_reconstructed_tensor(self, products, samples):
        dwp = products["e2xe1"]
        for p in samples["e2xe1"][:4]:
            r4 = dwp.riemann_closed_tensor(p)
            bianchi = (
                r4
                + np.transpose(r4, (1, 2, 0, 3))
                + np.transpose(r4, (2, 0, 1, 3))
            )
            assert np.abs(bianchi).max() < 1e-12


class TestRicciAndScalar:
    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_ricci_blocks(self, products, samples, name):
        for summary in checks.check_lemma2(products[name], samples[name], TOL):
            assert summary.status == PASS, summary

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_ricci_operator_blocks(self, products, samples, name):
        for summary in checks.check_lemma5(products[name], samples[name], TOL):
            assert summary.status == PASS, summary

    def test_mixed_ricci_block_value(self, products, samples):
        # Ric(X, U) = (m - 2) X(k) U(l) on coordinate lifts
        dwp = products["e2xe1"]
        for p in samples["e2xe1"][:5]:
            d = dwp.point_data(p)
            expected = (dwp.m - 2) * np.outer(d.dk1, d.dl2)
            oracle = dwp.product.ricci_oracle(p)[: dwp.m1, dwp.m1:]
            assert np.allclose(oracle, expected, atol=1e-10)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_scalar_splitting(self, products, samples, name):
        (summary,) = checks.check_scalar(products[name], samples[name], TOL)
        assert summary.status == PASS, summary


class TestHessianAndLaplacian:
    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_log_warping_hessians(self, products, samples, name):
        for summary in checks.check_hessian(products[name], samples[name], TOL):
            assert summary.status == PASS, summary

    def test_user_potential_hessian_blocks(self, products, samples):
        dwp = products["e2xe1"]
        rng = np.random.default_rng(5)
        psis = [
            ("mixed", parse_expression("x + t^2", dwp.coords)),
            ("poly", random_polynomial(dwp.coords, rng)),
        ]
        out = checks.check_hessian(dwp, samples["e2xe1"], TOL, psis=psis)
        for summary in out:
            assert summary.status == PASS, summary

    def test_mixed_hessian_block_closed_form(self, products, samples):
        # h^psi(X, U) = XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts
        dwp = products["e2xe1"]
        psi = parse_expression("x*y + x*t + t^2", dwp.coords)
        for p in samples["e2xe1"][:5]:
            closed = dwp.hessian_split_closed(psi, "XU", p)
            oracle = dwp.product.hessian_field(psi, p)[
                : dwp.m1, dwp.m1:
            ]
            assert np.allclose(closed, oracle, atol=1e-10)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_laplacian_splitting(self, products, samples, name):
        for summary in checks.check_laplacian(
            products[name], samples[name], TOL
        ):
            assert summary.status == PASS, summary


class TestStructure:
    def test_rejects_shared_coordinates(self):
        f1c = flat_chart(("x", "y"))
        f2c = flat_chart(("y", "t"))
        with pytest.raises(ValueError):
            DoublyWarpedProduct(
                f1c, f2c, constant(1.0, f1c.coords), constant(1.0, f2c.coords)
            )

    def test_rejects_warping_on_wrong_factor(self):
        f1c = flat_chart(("x", "y"))
        f2c = flat_chart(("s", "t"))
        with pytest.raises(ValueError):
            DoublyWarpedProduct(
                f1c,
                f2c,
                parse_expression("exp(s)", f2c.coords),
                constant(1.0, f2c.coords),
            )

    def test_rejects_nonpositive_warping_at_sample(self):
        f1c = flat_chart(("x",))
        f2c = flat_chart(("t",))
        dwp = DoublyWarpedProduct(
            f1c,
            f2c,
            parse_expression("x", f1c.coords),
            constant(1.0, f2c.coords),
        )
        with pytest.raises(WarpingError):
            dwp.validate_warpings([[-0.5, 0.2]])

    def test_classification_predicates(self):
        direct = corpus()["direct"]
        warped = singly_warped_product()
        doubly = e2xe1_product()
        pts = seeded_points(doubly.product, 6)
        assert direct.is_direct(seeded_points(direct.product, 6))
        assert warped.is_warped_product(seeded_points(warped.product, 6))
        assert not warped.is_direct(seeded_points(warped.product, 6))
        assert not doubly.is_warped_product(pts)

    def test_metric_block_structure(self):
        dwp = e2xe1_product()
        p = np.array([0.3, -0.2, 0.7])
        d = dwp.point_data(p)
        assert np.allclose(d.g[: dwp.m1, : dwp.m1], d.f2**2 * d.side(1).g)
        assert np.allclose(d.g[dwp.m1:, dwp.m1:], d.f1**2 * d.side(2).g)
        assert np.abs(d.g[: dwp.m1, dwp.m1:]).max() == 0.0


# two non-flat factors with non-constant warpings: (coords, metric, warping)
MIRROR_FACTORS = (
    (("x", "y"),
     [["1 + 0.1*x^2", "0.05*x*y"], ["0.05*x*y", "1 + 0.2*sin(y)"]],
     "exp(0.3*x) + 0.1*y^2"),
    (("s", "t"), [["1", "0"], ["0", "cosh(s)^2"]], "2 + 0.5*sin(s) + 0.1*t"),
)


def mirror_product(first, second):
    (c1, g1, w1), (c2, g2, w2) = first, second
    return DoublyWarpedProduct(
        expr_chart(c1, g1), expr_chart(c2, g2),
        parse_expression(w1, c1), parse_expression(w2, c2),
    )


def assert_mirrored(a, b):
    """Equal to 1e-13, absolute below 1 and relative above."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


class TestFactorMirror:
    """Swapping the factors (f1 <-> f2, k <-> l, m1 <-> m2) gives the same
    metric in permuted coordinates, so each side-1 result of one product is
    the side-2 result of the swapped product."""

    @pytest.fixture(scope="class")
    def pair(self):
        a = mirror_product(*MIRROR_FACTORS)
        b = mirror_product(*MIRROR_FACTORS[::-1])
        pts = seeded_points(a.product, 6)
        swap = np.r_[a.m1:a.m, :a.m1]  # a-chart point -> b-chart point
        return a, b, pts, swap

    def test_closed_forms_and_defects(self, pair):
        a, b, pts, swap = pair
        for p in pts:
            q = p[swap]
            for which, klass in ((1, "XX"), (2, "UU")):
                other, mirror = 3 - which, "UU" if klass == "XX" else "XX"
                assert_mirrored(a.ricci_closed(klass, p),
                                b.ricci_closed(mirror, q))
                assert_mirrored(a.ricci_operator_closed(klass, p),
                                b.ricci_operator_closed(mirror, q))
                assert_mirrored(einstein_defect(a, which, p)[0],
                                einstein_defect(b, other, q)[0])
                assert_mirrored(f_almost_defect(a, which, p)[0],
                                f_almost_defect(b, other, q)[0])
            assert_mirrored(a.laplacian_split("k", p),
                            b.laplacian_split("l", q))

    def test_ricci_factor_structures(self, pair):
        a, b, pts, swap = pair
        psi = "0.3*x^2 + s*t - 0.2*y"
        lam = 0.3
        # the tolerance lets the product-level gate pass on this
        # non-soliton, so that both factor equations are evaluated
        tol = 10.0
        out = [
            {s.check_id: s for s in ricci_factor_structures(
                dwp, SolitonSpec(kind="ricci", lam=lam,
                                 psi=parse_expression(psi, dwp.coords)),
                points, anchor, tol)}
            for dwp, points, anchor in (
                (a, pts, pts[0]), (b, pts[:, swap], pts[0][swap]))
        ]
        for which in (1, 2):
            mine = out[0][f"factors.ricci.factor{which}"]
            theirs = out[1][f"factors.ricci.factor{3 - which}"]
            assert mine.max_abs_residual > 1e-3
            assert_mirrored(mine.max_abs_residual, theirs.max_abs_residual)
            assert_mirrored(np.array(mine.worst_point)[swap],
                            theirs.worst_point)
