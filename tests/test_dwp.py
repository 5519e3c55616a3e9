"""Closed-form curvature splittings against the product oracle."""

import json

import numpy as np
import pytest

from conftest import (
    CURVED_BOX,
    CURVED_PRODUCTS,
    corpus,
    direct_flat_product,
    e2xe1_product,
    expr_chart,
    flat_chart,
    hyperbolic_space,
    quasi_einstein_product,
    random_polynomial,
    seeded_points,
    sphere_x_hyperbolic,
    sphere_x_line,
    warped_line_spec,
)
from dwpcheck import (
    checks, dwp as dwp_module, expr, geometry, solitons, special,
)
from dwpcheck.cli import main
from dwpcheck.dwp import DoublyWarpedProduct, WarpingError
from dwpcheck.expr import Expression, constant, parse_expression
from dwpcheck.geometry import ChartManifold
from dwpcheck.reporting import PASS, normalized_residual, summarize
from dwpcheck.solitons import (
    SolitonSpec, equation_terms, residual, ricci_factor_structures,
)
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
    a time on unit vectors; the loop form of the block tensor.  The Hessian
    operators H^k, H^l and the gradients are the product oracle's."""
    d = dwp.point_data(p[None])
    m1, m = dwp.m1, dwp.m
    e = np.eye(m)
    s1, s2 = d.sides
    dk, dl = s1.dlog[0] @ s1.lift, s2.dlog[0] @ s2.lift
    ginv = d.product.ginv[0]
    hk, hl = (ginv @ d.product.hessian(dwp.lifted(log_f))[0]
              for log_f in (dwp.k, dwp.l))
    grad_k, grad_l = ginv @ dk, ginv @ dl
    factors = (
        (dwp.factor1.riemann_oracle(s1.factor.p)[0], s1.ginv[0], 0),
        (dwp.factor2.riemann_oracle(s2.factor.p)[0], s2.ginv[0], m1),
    )

    def fac(i):
        return 1 if i < m1 else 2

    def g(a, b):
        return e[a] @ d.product.g[0] @ e[b]

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
                    + g(i, k) * (hl @ e[j]) - g(j, k) * (hl @ e[i]))
        if pattern == (2, 2, 2):  # UVW
            return (factor_curvature(i, j, k)
                    + g(i, k) * (hk @ e[j]) - g(j, k) * (hk @ e[i]))
        if pattern == (1, 1, 2):  # XYU
            return dl[k] * (dk[j] * e[i] - dk[i] * e[j])
        if pattern == (2, 2, 1):  # UVX
            return dk[k] * (dl[j] * e[i] - dl[i] * e[j])
        if pattern == (1, 2, 1):  # XUY
            x, u, y = i, j, k
            return (
                (s1.h_log[0, x, y] + dk[x] * dk[y]) * e[u]
                + dk[y] * dl[u] * e[x]
                + g(x, y) * (hl @ e[u] + dl[u] * grad_l)
            )
        u, x, v = i, j, k  # UXV
        return (
            (s2.h_log[0, u - m1, v - m1] + dl[u] * dl[v]) * e[x]
            + dl[v] * dk[x] * e[u]
            + g(u, v) * (hk @ e[x] + dk[x] * grad_k)
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
            block = dwp.riemann_closed(dwp.point_data(p[None]))[0]
            reference = reference_riemann(dwp, p)
            scale = np.maximum(1.0, np.abs(reference))
            assert np.all(np.abs(block - reference) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_all_six_classes_match_oracle(self, products, samples, name):
        out = checks.check_lemma1(
            products[name].point_data(samples[name]), TOL)
        for summary in out:
            assert summary.status == PASS, summary

    def test_covariant_derivative_splitting(self, products, samples):
        for name in ("e2xe1", "sxh"):
            dwp = products[name]
            for p in samples[name][:4]:
                closed = dwp.covariant_closed(dwp.point_data(p[None]))[0]
                oracle = dwp.product.christoffel(p[None])[0]
                assert np.allclose(closed, oracle, atol=1e-10)

    def test_first_bianchi_on_reconstructed_tensor(self, products, samples):
        dwp = products["e2xe1"]
        for p in samples["e2xe1"][:4]:
            r4 = dwp.riemann_closed_tensor(dwp.point_data(p[None]))[0]
            bianchi = (
                r4
                + np.transpose(r4, (1, 2, 0, 3))
                + np.transpose(r4, (2, 0, 1, 3))
            )
            assert np.abs(bianchi).max() < 1e-12


class TestRicciAndScalar:
    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_ricci_blocks(self, products, samples, name):
        for summary in checks.check_lemma2(
            products[name].point_data(samples[name]), TOL):
            assert summary.status == PASS, summary

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_ricci_operator_blocks(self, products, samples, name):
        for summary in checks.check_lemma5(
            products[name].point_data(samples[name]), TOL):
            assert summary.status == PASS, summary

    def test_mixed_ricci_block_value(self, products, samples):
        # Ric(X, U) = (m - 2) X(k) U(l) on coordinate lifts
        dwp = products["e2xe1"]
        for p in samples["e2xe1"][:5]:
            d = dwp.point_data(p[None])
            s1, s2 = d.sides
            expected = (dwp.m - 2) * np.outer(s1.dlog[0], s2.dlog[0])
            oracle = dwp.product.ricci_oracle(p[None])[0][: dwp.m1, dwp.m1:]
            assert np.allclose(oracle, expected, atol=1e-10)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_scalar_splitting(self, products, samples, name):
        (summary,) = checks.check_scalar(
            products[name].point_data(samples[name]), TOL)
        assert summary.status == PASS, summary


class TestHessianAndLaplacian:
    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_log_warping_hessians(self, products, samples, name):
        for summary in checks.check_hessian(
            products[name].point_data(samples[name]), TOL):
            assert summary.status == PASS, summary

    def test_user_potential_hessian_blocks(self, products, samples):
        dwp = products["e2xe1"]
        rng = np.random.default_rng(5)
        psis = [
            ("mixed", parse_expression("x + t^2", dwp.coords)),
            ("poly", random_polynomial(dwp.coords, rng)),
        ]
        out = checks.check_hessian(dwp.point_data(samples["e2xe1"]), TOL,
                                   psis=psis)
        for summary in out:
            assert summary.status == PASS, summary

    def test_mixed_hessian_block_closed_form(self, products, samples):
        # h^psi(X, U) = XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts
        dwp = products["e2xe1"]
        psi = parse_expression("x*y + x*t + t^2", dwp.coords)
        for p in samples["e2xe1"][:5]:
            closed = dwp.hessian_split_closed(
                psi, dwp.point_data(p[None]))[dwp.block("XU")][0]
            oracle = dwp.product.hessian_field(psi, p[None])[0][
                : dwp.m1, dwp.m1:
            ]
            assert np.allclose(closed, oracle, atol=1e-10)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_laplacian_splitting(self, products, samples, name):
        for summary in checks.check_laplacian(
            products[name].point_data(samples[name]), TOL):
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

    def test_warping_error_names_the_first_failing_point(self):
        # f1 leaves its domain at the third point, f2 is negative at the
        # second: points are checked in order, both warpings at each
        f1c = flat_chart(("x",))
        f2c = flat_chart(("t",))
        dwp = DoublyWarpedProduct(
            f1c, f2c, parse_expression("sqrt(x)", f1c.coords),
            parse_expression("t", f2c.coords),
        )
        with pytest.raises(WarpingError, match=r"f2 nonpositive at \[-0.5\]"):
            dwp.validate_warpings([[1.0, 1.0], [1.0, -0.5], [-1.0, 1.0]])

    def test_metric_block_structure(self):
        dwp = e2xe1_product()
        p = np.array([0.3, -0.2, 0.7])
        d = dwp.point_data(p[None])
        g = d.product.g[0]
        s1, s2 = d.sides
        assert np.allclose(g[: dwp.m1, : dwp.m1], s2.f[0]**2 * s1.g[0])
        assert np.allclose(g[dwp.m1:, dwp.m1:], s1.f[0]**2 * s2.g[0])
        assert np.abs(g[: dwp.m1, dwp.m1:]).max() == 0.0


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
            da, db = a.point_data(p[None]), b.point_data(q[None])
            assert_mirrored(a.ricci_closed(da)[0][swap][:, swap],
                            b.ricci_closed(db)[0])
            assert_mirrored(a.ricci_operator_closed(da)[0][swap][:, swap],
                            b.ricci_operator_closed(db)[0])
            for which in (1, 2):
                other = 3 - which
                assert_mirrored(einstein_defect(which, da)[0][0],
                                einstein_defect(other, db)[0][0])
                assert_mirrored(f_almost_defect(which, da)[0][0],
                                f_almost_defect(other, db)[0][0])
            assert_mirrored(a.laplacian_split("k", da),
                            b.laplacian_split("l", db))
            assert_mirrored(
                np.einsum("nij,nij->n", da.product.ginv,
                          da.product.hessian(a.lifted(a.k))),
                np.einsum("nij,nij->n", db.product.ginv,
                          db.product.hessian(b.lifted(b.l))))

    def test_ricci_factor_structures(self, pair):
        a, b, pts, swap = pair
        psi = "0.3*x^2 + s*t - 0.2*y"
        lam = 0.3
        # the tolerance lets the product-level gate pass on this
        # non-soliton, so that both factor equations are evaluated
        tol = 10.0

        def structures(dwp, points, anchor):
            spec = SolitonSpec(kind="ricci", lam=lam,
                               psi=parse_expression(psi, dwp.coords))
            d = dwp.point_data(points, anchor)
            gate = residual(spec, equation_terms(spec, d.product), d, tol,
                            "factors.ricci.product")
            return {s.check_id: s for s in ricci_factor_structures(
                spec, d, gate)}

        out = [structures(a, pts, pts[0]),
               structures(b, pts[:, swap], pts[0][swap])]
        for which in (1, 2):
            mine = out[0][f"factors.ricci.factor{which}"]
            theirs = out[1][f"factors.ricci.factor{3 - which}"]
            assert mine.max_abs_residual > 1e-3
            assert_mirrored(mine.max_abs_residual, theirs.max_abs_residual)
            assert_mirrored(np.array(mine.worst_point)[swap],
                            theirs.worst_point)

    def test_mixed_conditions_match_the_oracle(self, pair):
        """For any potential on any product, the mixed Yamabe condition is
        the XU block of the oracle's Hessian, and the mixed Ricci condition
        that of Hessian + Ricci."""
        a, b, pts, swap = pair
        for dwp, points in ((a, pts), (b, pts[:, swap])):
            psi = parse_expression("x*y + sin(t)*x + s^3", dwp.coords)
            d = dwp.point_data(points)
            xu = dwp.block("XU")
            hessian = d.product.hessian(psi)[xu]
            assert_mirrored(solitons.mixed_yamabe_condition(psi, d),
                            hessian)
            assert_mirrored(solitons.mixed_ricci_condition(psi, d),
                            hessian + d.product.curvature[1][xu])


def closed_forms(dwp, d):
    """Every closed form of the product at the record d."""
    psi = parse_expression("x*y + sin(t)*x + s^3", dwp.coords)
    return [
        dwp.riemann_closed(d), dwp.riemann_closed_tensor(d),
        dwp.covariant_closed(d),
        dwp.ricci_closed(d), dwp.ricci_operator_closed(d),
        dwp.scalar_closed(d), dwp.hessian_split_closed(psi, d),
        *(dwp.laplacian_split(which, d) for which in ("k", "l")),
        special.concircular_closed(d),
        special.conharmonic_closed(d),
        *(defect(which, d)[0] for which in (1, 2)
          for defect in (einstein_defect, f_almost_defect)),
    ]


def test_closed_forms_read_the_factor_records_alone():
    """Swapping the record's product chart record for that of another
    metric at the same points changes the oracle but leaves every closed
    form bitwise unchanged: the closed forms never read the product chart's
    metric, so they are independent of the oracle they are checked
    against."""
    dwp = mirror_product(*MIRROR_FACTORS)
    (c1, _, _), (c2, _, _) = MIRROR_FACTORS
    other = DoublyWarpedProduct(
        flat_chart(c1), flat_chart(c2),
        parse_expression("1 + 0.1*x^2", c1), constant(1.0, c2))
    pts = seeded_points(dwp.product, 6)
    d, swapped = dwp.point_data(pts), dwp.point_data(pts)
    swapped.product = other.product.at(pts)
    assert not np.allclose(d.product.curvature[0],
                           swapped.product.curvature[0])
    for mine, theirs in zip(closed_forms(dwp, d),
                            closed_forms(dwp, swapped)):
        assert np.array_equal(mine, theirs)


def array_fields(record):
    return {name: value for name, value in vars(record).items()
            if isinstance(value, np.ndarray)}


def factor_reads(dwp, s):
    """{side field: the object of its factor chart record that it is}."""
    factor = s.factor
    f, log_f = ((dwp.f1, dwp.k), (dwp.f2, dwp.l))[s.which - 1]
    _, ric, tau = factor.curvature
    return {"g": factor.g, "ginv": factor.ginv, "gamma": factor.gamma,
            "ric": ric, "tau": tau, "r": factor.curvature_operator,
            "f": factor.jet(f).value, "h_f": factor.hessian(f),
            "lap_f": factor.laplacian(f), "h_log": factor.hessian(log_f),
            "lap_log": factor.laplacian(log_f),
            "dlog": factor.jet(log_f).gradient}


class TestSidesReadTheirFactorRecords:
    """Every field of a side that reads its own factor alone is its factor
    chart record's memoized object, on the samples' record and on each
    restriction record; a restriction's own side reads the samples' factor
    record, and its opposite side a record of its own at the anchor."""

    @pytest.mark.parametrize("make, box", [
        *((make, CURVED_BOX) for make in CURVED_PRODUCTS),
        (lambda: quasi_einstein_product()[0], (-1.0, 1.0)),
    ], ids=[make.__name__ for make in CURVED_PRODUCTS] + ["quasi_einstein"])
    def test_side_fields_are_the_factor_records_objects(self, make, box):
        dwp = make()
        pts = seeded_points(dwp.product, 7, box=box)
        anchor = box[0] + (box[1] - box[0]) * np.linspace(0.3, 0.7, dwp.m)
        d = dwp.point_data(pts, anchor)
        for record in (d, d.restriction(1), d.restriction(2)):
            for s in record.sides:
                for name, read in factor_reads(dwp, s).items():
                    assert getattr(s, name) is read, name
        for which in (1, 2):
            r, opposite = d.restriction(which), 3 - which
            assert r.side(which).factor is d.side(which).factor
            assert r.side(opposite).factor is not d.side(opposite).factor
            assert (r.side(opposite).factor.p
                    == anchor[dwp.block("XU")[opposite]]).all()


class TestRestrictionRecords:
    """A restriction record reads the samples' factor chart record of its
    own factor and holds the opposite factor at the anchor; its fields
    equal, bitwise, those of the record built from scratch at the anchored
    points."""

    @pytest.mark.parametrize("make, box", [
        *((make, CURVED_BOX) for make in CURVED_PRODUCTS),
        (lambda: hyperbolic_space(3), (-1.0, 1.0)),
        (lambda: quasi_einstein_product()[0], (-1.0, 1.0)),
    ], ids=[make.__name__ for make in CURVED_PRODUCTS]
        + ["hyperbolic_space", "quasi_einstein"])
    @pytest.mark.parametrize("which", (1, 2))
    def test_fields_equal_the_record_built_from_scratch(self, make, box,
                                                        which):
        dwp = make()
        pts = seeded_points(dwp.product, 13, box=box)
        anchor = box[0] + (box[1] - box[0]) * np.linspace(0.3, 0.7, dwp.m)
        d = dwp.point_data(pts, anchor)
        r = d.restriction(which)
        scratch = dwp.point_data(d.anchored_product(which).p)
        assert np.array_equal(r.p, scratch.p)
        assert np.array_equal(r.gp, scratch.gp)
        for mine, theirs in zip(r.sides, scratch.sides):
            fields = array_fields(mine)
            assert fields.keys() == array_fields(theirs).keys()
            assert {"g", "r", "h_log", "gp", "grad", "lap"} <= fields.keys()
            for name, value in fields.items():
                assert np.array_equal(value, getattr(theirs, name)), name
            assert np.array_equal(mine.factor.p, theirs.factor.p)

    @pytest.mark.parametrize("which", (1, 2))
    def test_a_second_read_returns_the_same_record(self, which):
        dwp = sphere_x_line()
        pts = seeded_points(dwp.product, 5, box=CURVED_BOX)
        d = dwp.point_data(pts, pts[0])
        for read in (d.anchored_product, d.restriction):
            assert read(which) is read(which)

    def test_a_set_read_on_its_own_is_read_once(self):
        """Where the values pass over both sets raises (the anchor leaves
        factor 1's metric domain, which only set 2 reads there), set 1
        takes a pass of its own, once, and set 2 raises on every read."""
        f1c = expr_chart(("x",), [["log(x)"]])
        f2c = flat_chart(("t",))
        dwp = DoublyWarpedProduct(f1c, f2c, constant(1.0, f1c.coords),
                                  constant(1.0, f2c.coords))
        pts = seeded_points(dwp.product, 4, box=(2.0, 3.0))
        d = dwp.point_data(pts, np.array([-1.0, 2.5]))
        assert d.anchored_product(1) is d.anchored_product(1)
        assert (d.anchored_product(1).p[:, 1] == 2.5).all()
        for _ in range(2):
            with pytest.raises(geometry.MetricError, match="leaves its domain"):
                d.anchored_product(2)


class TestSideHessian:
    """A side record's factor Hessian of a product-chart scalar is, bitwise,
    the factor block of the scalar's jet less the Christoffel term, not
    symmetrized: the jet's Hessian is symmetric, and so is the Christoffel
    term, exactly, so symmetrizing their difference changes no bit."""

    @pytest.mark.parametrize("make, box", [
        *((make, CURVED_BOX) for make in CURVED_PRODUCTS),
        (e2xe1_product, (-1.0, 1.0)),
        (direct_flat_product, (-1.0, 1.0)),
    ], ids=[make.__name__ for make in CURVED_PRODUCTS]
        + ["e2xe1", "direct_flat"])
    @pytest.mark.parametrize("which", (1, 2))
    def test_equals_the_block_formula(self, make, box, which):
        dwp = make()
        pts = seeded_points(dwp.product, 13, box=box)
        anchor = box[0] + (box[1] - box[0]) * np.linspace(0.3, 0.7, dwp.m)
        d = dwp.point_data(pts, anchor)
        psi = random_polynomial(dwp.coords, np.random.default_rng(which),
                                degree=3)
        for record in (d, d.restriction(which)):
            for e in (psi, dwp.lifted(dwp.k), dwp.lifted(dwp.l)):
                jet = record.product.jet(e)
                for s in record.sides:
                    own = s.own
                    formula = jet.hessian[:, own, own] - np.einsum(
                        "nkij,nk->nij", s.gamma, jet.gradient[:, own])
                    hessian = s.hessian(e)
                    assert np.array_equal(hessian, formula)
                    assert np.array_equal(np.signbit(hessian),
                                          np.signbit(formula))


def counting_metric_passes(monkeypatch):
    """The list of the passes over a chart's metric taken from now on,
    (kind, chart, points) with kind "jets" or "values", and the list of the
    (chart, number of rows) that each pass over its entries reads."""
    passes, rows = [], []
    entries = ChartManifold._entries

    def counting(kind, read):
        def wrapper(chart, points):
            passes.append((kind, chart, np.array(points, dtype=float)))
            return read(chart, points)
        return wrapper

    def counting_entries(chart, points, read):
        rows.append((chart, len(points)))
        return entries(chart, points, read)

    for kind, name in (("jets", "_metric_jets"), ("values", "_metric_values")):
        monkeypatch.setattr(ChartManifold, name,
                            counting(kind, getattr(ChartManifold, name)))
    monkeypatch.setattr(ChartManifold, "_entries", counting_entries)
    return passes, rows


def assert_each_metric_read_once(passes, rows):
    """No chart's metric is read twice on equal points, jets and values
    passes counted together; a constant metric is read by values passes
    alone, each of which reads its entries at one row."""
    for i, (_, chart, points) in enumerate(passes):
        assert not any(other is chart and np.array_equal(points, earlier)
                       for _, other, earlier in passes[:i])
    assert all(kind == "values" for kind, chart, _ in passes
               if chart.constant_metric)
    assert len(rows) == len(passes)
    assert any(chart.constant_metric for chart, _ in rows)
    assert all(n == 1 for chart, n in rows if chart.constant_metric)


class TestOneRecordPerPointSet:
    def test_run_all_jets_each_chart_once_per_point_set(self, monkeypatch):
        """With the flatness gates and a soliton gate passing, so that the
        anchored restriction sets are used too, no chart's metric is read
        twice on equal points, each (constant) metric's pass reads one row,
        and at most three records are built (the samples and the two
        restriction sets)."""
        dwp = direct_flat_product()  # every chart's metric is constant
        psi = parse_expression("0.3*(x^2 + y^2 + s^2 + t^2)", dwp.coords)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=0.6)
        pts = seeded_points(dwp.product, 8)
        built = []
        point_data = DoublyWarpedProduct.point_data

        def counting_point_data(self, *args, **kwargs):
            built.append(args)
            return point_data(self, *args, **kwargs)

        def counting_positive_definite(g):
            tested.append(g)
            return positive_definite(g)

        tested, positive_definite = [], geometry._positive_definite
        passes, rows = counting_metric_passes(monkeypatch)
        monkeypatch.setattr(DoublyWarpedProduct, "point_data",
                            counting_point_data)
        monkeypatch.setattr(geometry, "_positive_definite",
                            counting_positive_definite)
        anchor = np.array([0.1, -0.2, 0.3, 0.4])
        d = dwp.point_data(pts, anchor)
        out = {s.check_id: s for s in checks.run_all([spec], d, TOL)}
        for check_id in ("concircular.einstein1", "conharmonic.soliton2",
                         "soliton[0].factors.ricci.factor1"):
            assert out[check_id].status == PASS, out[check_id]
        assert_each_metric_read_once(passes, rows)
        # samples 3, both anchored sets 1, each restriction set 1
        charts = [chart for _, chart, _ in passes]
        assert charts == [dwp.product, dwp.factor1, dwp.factor2,
                          dwp.product, dwp.factor2, dwp.factor1]
        # both anchored sets: one values pass, set 1's rows first
        assert np.array_equal(passes[3][2], np.concatenate(
            [dwp.anchored(d.p, anchor, which) for which in (1, 2)]))
        assert 1 <= len(built) <= 3
        # each restriction set reads its opposite factor once, at the set's
        # points: every row holds the anchor's coordinates of that factor
        for (_, chart, points), which in zip(passes[4:], (2, 1)):
            assert points.shape == (len(d.p), chart.dim)
            assert (points == anchor[dwp.block("XU")[which]]).all()
        # one definiteness test per pass, each at one (constant) metric
        assert len(tested) == len(passes)
        assert all(len(g) == 1 for g in tested)
        for which in (1, 2):
            assert (d.restriction(which).side(which).factor
                    is d.side(which).factor)

    def test_verify_builds_each_closed_tensor_once_per_record(
            self, tmp_path, monkeypatch):
        """Through the CLI, on H^3 = R x_{cosh t} H^2 with every check: the
        closed curvature, Ricci tensor and Ricci operator are each read
        more than once on the samples' record, their bodies run once there,
        and every reader gets the one read-only tensor."""
        names = ("riemann_closed", "ricci_closed", "ricci_operator_closed")
        calls, bodies, returned = [], [], []
        once = dwp_module._PointData.once

        def counting_once(record, key, build):
            def counted():
                bodies.append((record, key))
                return build()
            out = once(record, key, counted)
            if closed_key(key):
                returned.append(out)
            return out

        def counting(name):
            method = getattr(DoublyWarpedProduct, name)

            def wrapper(dwp, d):
                calls.append(name)
                return method(dwp, d)
            return wrapper

        monkeypatch.setattr(dwp_module._PointData, "once", counting_once)
        for name in names:
            monkeypatch.setattr(DoublyWarpedProduct, name, counting(name))
        spec = tmp_path / "h3.spec"
        spec.write_text(warped_line_spec("hyperbolic-hyperbolic",
                                         line_first=True))
        assert main(["verify", str(spec), "--report",
                     str(tmp_path / "h3.txt")]) == 0
        for name in names:
            assert calls.count(name) >= 2, name
        # the closed Hessians and scalar curvature are counted below
        three = [(record, key) for record, key in bodies if key in names]
        assert sorted(key for _, key in three) == sorted(names)
        assert all(record is three[0][0] for record, _ in three)
        assert not any(out.flags.writeable for out in returned)
        with pytest.raises(ValueError):
            returned[0][...] = 0.0

    def test_verify_builds_each_quantity_once_per_record(self, tmp_path,
                                                         monkeypatch):
        """Through the CLI, on H^3 with every soliton gate and the
        concircular gate passing: no chart's metric is read twice on equal
        points (the sampler's and the conditioning test's passes included),
        a constant metric's pass reads one row, each jets pass over a
        chart's entries shares one memo and jets no node
        twice (a block's f_opp^2 is jetted once, not once per entry), no
        expression is jetted twice on equal points, no record builds the
        covariant Hessian of one expression twice, no node of a warping's
        tree is computed twice on one factor record (f and log f are jetted
        through one memo there), each soliton equation's terms are built once
        per form, each Kulkarni-Nomizu product (g ^ g, and
        the Riemann soliton's h ^ g) once per record, each flatness
        oracle once, and the warpings are validated once per point set."""
        expr_jets, residuals, wedges = [], [], []
        oracles, validated, hessians, memos, node_jets = [], [], [], [], []
        node_calls, products = [], []
        covariant_hessian = geometry.covariant_hessian
        jet = Expression.jet
        node_jet = expr._node_jet
        equation_terms = solitons.equation_terms
        contracted_terms = solitons.contracted_terms
        kulkarni_nomizu = geometry.kulkarni_nomizu
        validate_warpings = DoublyWarpedProduct.validate_warpings

        def counting_jet(e, points, memo=None):
            expr_jets.append((e, np.array(points, dtype=float)))
            if memo is not None and not any(m is memo for m in memos):
                memos.append(memo)
            return jet(e, points, memo)

        def counting_node_jet(node, x, index, dim, memo):
            node_calls.append((x, node))
            if memo is not None:
                node_jets.append((memo, node))
            return node_jet(node, x, index, dim, memo)

        def counting_equation_terms(spec, c):
            residuals.append((spec, "primary"))
            return equation_terms(spec, c)

        def counting_contracted_terms(spec, c):
            residuals.append((spec, "contracted"))
            return contracted_terms(spec, c)

        def counting_kulkarni_nomizu(a, b):
            wedges.append((np.array(a), np.array(b)))
            return kulkarni_nomizu(a, b)

        def counting_covariant_hessian(gamma, gradient, hessian):
            # a record's Christoffel symbols and an expression's jet on it
            # are each built once, so they name the (record, expression);
            # a side record's factor block of a jet is a new view per call
            hessians.append((gamma, gradient))
            return covariant_hessian(gamma, gradient, hessian)

        def counting_validate_warpings(dwp, points):
            validated.append(np.array(points, dtype=float))
            products.append(dwp)
            return validate_warpings(dwp, points)

        def counting(name):
            oracle = getattr(special, name)

            def wrapper(c):
                oracles.append(name)
                return oracle(c)
            return wrapper

        passes, rows = counting_metric_passes(monkeypatch)
        monkeypatch.setattr(DoublyWarpedProduct, "validate_warpings",
                            counting_validate_warpings)
        for name in ("concircular_oracle", "conharmonic_oracle"):
            monkeypatch.setattr(special, name, counting(name))
        monkeypatch.setattr(Expression, "jet", counting_jet)
        monkeypatch.setattr(expr, "_node_jet", counting_node_jet)
        monkeypatch.setattr(geometry, "covariant_hessian",
                            counting_covariant_hessian)
        monkeypatch.setattr(solitons, "equation_terms",
                            counting_equation_terms)
        monkeypatch.setattr(solitons, "contracted_terms",
                            counting_contracted_terms)
        for module in (geometry, solitons, special):
            monkeypatch.setattr(module, "kulkarni_nomizu",
                                counting_kulkarni_nomizu)
        spec = tmp_path / "h3.spec"
        spec.write_text(
            warped_line_spec("hyperbolic-flat", line_first=False))
        report = tmp_path / "h3.json"
        assert main(["verify", str(spec), "--format", "structured",
                     "--report", str(report)]) == 0
        status = {c["check_id"]: c["status"]
                  for c in json.loads(report.read_text())["checks"]}
        for check_id in ("concircular.einstein1", "concircular.einstein2",
                         "soliton[0].factors.ricci.factor1",
                         "soliton[1].factors.yamabe.factor2",
                         "soliton[2].factors.riemann.factor1"):
            assert status[check_id] == PASS

        def repeats(calls, same):
            return [b for i, b in enumerate(calls)
                    if any(same(a, b) for a in calls[:i])]

        assert_each_metric_read_once(passes, rows)
        assert not repeats(expr_jets, lambda a, b: a[0] == b[0]
                           and np.array_equal(a[1], b[1]))
        # one memo per jets pass over a chart's entries, and one per
        # factor record for its warping f and log f
        dwp = products[0]
        assert len(memos) == sum(kind == "jets" for kind, _, _ in passes) \
            + sum(chart.dim < dwp.m for _, chart, _ in passes)
        assert node_jets and not repeats(node_jets, lambda a, b: a[0] is b[0]
                                         and a[1] is b[1])
        warping, stack = set(), [dwp.f1.node, dwp.f2.node]
        while stack:
            node = stack.pop()
            warping.add(id(node))
            stack.extend(expr._children(node))
        on_factors = [(x, node) for x, node in node_calls
                      if id(node) in warping and x.shape[1] < dwp.m]
        assert on_factors and not repeats(
            on_factors, lambda a, b: a[0] is b[0] and a[1] is b[1])
        assert hessians and not repeats(hessians, lambda a, b: a[0] is b[0]
                                        and a[1] is b[1])
        assert sorted((spec.kind, form) for spec, form in residuals) == [
            ("ricci", "primary"), ("riemann", "contracted"),
            ("riemann", "primary"), ("yamabe", "primary")]
        assert wedges and not repeats(wedges, lambda a, b: np.array_equal(
            a[0], b[0]) and np.array_equal(a[1], b[1]))
        assert sorted(oracles) == ["concircular_oracle", "conharmonic_oracle"]
        assert len(validated) == 2  # the samples and the anchor
        assert not repeats(validated, np.array_equal)

    def test_verify_builds_each_hessian_and_scalar_once_per_record(
            self, tmp_path, monkeypatch):
        """Through the CLI, on R x_{cosh t} H^2 line-first with every check:
        the closed scalar curvature is read twice on the samples' record
        (scalar, concircular) and the soliton potential's closed Hessian
        three times (hessian, both mixed conditions), and each closed
        tensor's body runs once per (record, key), the Hessian keyed on the
        lifted potential."""
        reads, bodies = [], []
        once = dwp_module._PointData.once

        def counting_once(record, key, build):
            def counted():
                if closed_key(key):
                    bodies.append((record, key))
                return build()
            return once(record, key, counted)

        def counting(name):
            method = getattr(DoublyWarpedProduct, name)

            def wrapper(dwp, *args):
                *psi, d = args
                reads.append((d, (name, *map(dwp.lifted, psi)) if psi
                              else name))
                return method(dwp, *args)
            return wrapper

        monkeypatch.setattr(dwp_module._PointData, "once", counting_once)
        for name in ("hessian_split_closed", "scalar_closed"):
            monkeypatch.setattr(DoublyWarpedProduct, name, counting(name))
        spec = tmp_path / "h3.spec"
        spec.write_text(warped_line_spec("hyperbolic-hyperbolic",
                                         line_first=True))
        assert main(["verify", str(spec), "--report",
                     str(tmp_path / "h3.txt")]) == 0
        built = [(id(record), key) for record, key in bodies]
        assert len(set(built)) == len(built)
        assert {(id(d), key) for d, key in reads} <= set(built)
        samples = next(record for record, key in bodies
                       if key == "riemann_closed")
        on_samples = [key for d, key in reads if d is samples]
        assert on_samples.count("scalar_closed") == 2
        psi = ("hessian_split_closed", parse_expression("sinh(t)",
                                                        ("t", "x", "y")))
        assert on_samples.count(psi) == 3
        # the Hessians (the tuple keys) of the log-warpings k and l, and psi
        assert sum(isinstance(key, tuple) for record, key in bodies
                   if record is samples) == 3

    def test_verify_builds_each_factor_hessian_once_per_side(
            self, tmp_path, monkeypatch):
        """Through the CLI, on H^3 = R^2 x_{exp t} R plane-first with every
        check: a side record's factor Hessian of one potential is read
        more than once (the closed Hessian and the factor equations read
        it) and built once per (side, potential)."""
        reads, built = [], []
        side_hessian = dwp_module._Side.hessian
        covariant_hessian = dwp_module.covariant_hessian

        def counting_hessian(side, psi):
            reads.append((side, psi))
            return side_hessian(side, psi)

        def counting_covariant_hessian(gamma, gradient, hessian):
            # the side Hessian being read is the last one read
            built.append(reads[-1])
            return covariant_hessian(gamma, gradient, hessian)

        monkeypatch.setattr(dwp_module._Side, "hessian", counting_hessian)
        monkeypatch.setattr(dwp_module, "covariant_hessian",
                            counting_covariant_hessian)
        spec = tmp_path / "h3.spec"
        spec.write_text(warped_line_spec("hyperbolic-flat",
                                         line_first=False))
        assert main(["verify", str(spec), "--report",
                     str(tmp_path / "h3.txt")]) == 0
        assert len(reads) > len(set(reads))
        assert len(built) == len(set(built))
        assert set(built) == set(reads)


def closed_key(key):
    """Whether a key of a product record's memo (`_PointData.once`) is a
    closed tensor's: the closed form's name, or its name and potential."""
    return (key[0] if isinstance(key, tuple) else key).endswith("_closed")


def block_reference(dwp, d, family, classes, closed, oracle, axis=None):
    """The summaries of each class's block reduced alone."""
    return [summarize(f"{family}.{klass}", normalized_residual(
        closed[dwp.block(klass)] - oracle[dwp.block(klass)],
        [closed[dwp.block(klass)], oracle[dwp.block(klass)]], axis=axis),
        d, TOL) for klass in classes]


def line_x_plane():
    """e2xe1 with its factors swapped: the line first (1 + 2)."""
    f1c, f2c = flat_chart(("t",)), flat_chart(("x", "y"))
    return DoublyWarpedProduct(
        f1c, f2c, parse_expression("cosh(t)", f1c.coords),
        parse_expression("exp(x)", f2c.coords))


class TestBlockwiseComparison:
    """Each block family's summaries, from one reduction of the whole
    tensors and one summary pass, equal those of its blocks reduced one at
    a time, on every field."""

    @pytest.mark.parametrize("make, box", [
        *((make, CURVED_BOX) for make in CURVED_PRODUCTS),
        (e2xe1_product, (-1.0, 1.0)), (line_x_plane, (-1.0, 1.0)),
        (lambda: hyperbolic_space(3), (-1.0, 1.0)),
    ], ids=[make.__name__ for make in CURVED_PRODUCTS]
        + ["e2xe1", "line_x_plane", "hyperbolic_space"])
    def test_summaries_equal_the_block_by_block_ones(self, make, box):
        dwp = make()
        d = dwp.point_data(seeded_points(dwp.product, 9, box=box),
                           np.full(dwp.m, np.mean(box)))
        psi = dwp.lifted(random_polynomial(dwp.coords,
                                           np.random.default_rng(3), 3))
        c = d.product
        curvature = c.curvature[0]
        raised = checks._raised(curvature, d)
        concircular = special.concircular_oracle(c)
        conharmonic = special.conharmonic_oracle(c)
        expected = {
            "lemma1": block_reference(
                dwp, d, "lemma1", dwp_module.RIEMANN_CLASSES,
                dwp.riemann_closed(d), raised, axis=-1),
            "lemma2": block_reference(
                dwp, d, "lemma2", dwp_module.RICCI_CLASSES,
                dwp.ricci_closed(d), c.curvature[1]),
            "lemma5": block_reference(
                dwp, d, "lemma5", ("XX", "UU"), dwp.ricci_operator_closed(d),
                c.ginv @ c.curvature[1]),
            "hessian": [
                s for name, f in (("k", dwp.k), ("l", dwp.l), ("psi", psi))
                for s in block_reference(
                    dwp, d, f"hessian.{name}", dwp_module.RICCI_CLASSES,
                    dwp.hessian_split_closed(f, d),
                    c.hessian(dwp.lifted(f)))],
            "concircular": block_reference(
                dwp, d, "concircular", dwp_module.RIEMANN_CLASSES,
                special.concircular_closed(d),
                checks._raised(concircular, d), axis=-1),
            "conharmonic": [
                summarize(f"conharmonic.{klass}", normalized_residual(
                    block - oracle[dwp.block(klass)],
                    [block, oracle[dwp.block(klass)]], axis=-1), d, TOL)
                for oracle in [checks._raised(conharmonic, d)]
                for closed in [special.conharmonic_closed(d)]
                for klass in special.CONHARMONIC_CLASSES
                for block in [closed[dwp.block(klass)]]],
        }
        got = {
            "lemma1": checks.check_lemma1(d, TOL)[:6],
            "lemma2": checks.check_lemma2(d, TOL),
            "lemma5": checks.check_lemma5(d, TOL),
            "hessian": checks.check_hessian(d, TOL, [("psi", psi)]),
            "concircular": checks.check_concircular(d, TOL)[:6],
            "conharmonic": checks.check_conharmonic(d, TOL)[:2],
        }
        for family, summaries in expected.items():
            assert got[family] == summaries, family

    def test_whole_tensor_families_equal_the_reduction_of_each_tensor(self):
        dwp = sphere_x_line()
        d = dwp.point_data(seeded_points(dwp.product, 9, box=CURVED_BOX))
        c = d.product
        closed = dwp.riemann_closed_tensor(d)
        assert checks.check_lemma1(d, TOL)[6] == summarize(
            "lemma1.reconstruction", normalized_residual(
                closed - c.curvature[0], [closed, c.curvature[0]]), d, TOL)
        tau = dwp.scalar_closed(d)
        assert checks.check_scalar(d, TOL) == [summarize(
            "scalar.splitting", normalized_residual(
                tau - c.curvature[2], [tau, c.curvature[2]]), d, TOL)]
        laplacians = checks.check_laplacian(d, TOL)
        for which, log_f, got in zip("kl", (dwp.k, dwp.l), laplacians):
            lap = dwp.laplacian_split(which, d)
            oracle = np.einsum("nij,nij->n", c.ginv,
                               c.hessian(dwp.lifted(log_f)))
            assert got == summarize(f"laplacian.{which}", normalized_residual(
                lap - oracle, [lap, oracle]), d, TOL)

    def test_a_nan_block_stays_in_its_class(self):
        """A NaN in one block of the compared tensors makes that class's
        residual NaN at that point and leaves the other classes as they
        are."""
        dwp = sphere_x_line()
        d = dwp.point_data(seeded_points(dwp.product, 5, box=CURVED_BOX))
        closed = np.array(dwp.ricci_closed(d))
        oracle = d.product.curvature[1]
        closed[2, 0, 2] = np.nan  # an XU entry at the third point
        got = checks._blockwise(d, dwp_module.RICCI_CLASSES, closed, oracle)
        for klass, reference in zip(dwp_module.RICCI_CLASSES, block_reference(
                dwp, d, "c", dwp_module.RICCI_CLASSES, closed, oracle)):
            assert np.isnan(got[klass][2]) == (klass == "XU")
            assert repr(summarize(f"c.{klass}", got[klass], d, TOL)) \
                == repr(reference)


class TestAnchoredValuesPass:
    """The anchored restriction sets' product records come from one values
    pass, and hold no metric derivatives."""

    @pytest.mark.parametrize("make", CURVED_PRODUCTS)
    @pytest.mark.parametrize("which", (1, 2))
    def test_read_fields_equal_the_jetted_record(self, make, which):
        dwp = make()
        pts = seeded_points(dwp.product, 11, box=CURVED_BOX)
        d = dwp.point_data(pts, np.linspace(0.7, 2.2, dwp.m))
        anchored = d.anchored_product(which)
        jetted = dwp.product.at(dwp.anchored(pts, d.anchor, which))
        assert np.array_equal(anchored.p, jetted.p)
        for read in (lambda c: c.g, lambda c: c.ginv,
                     lambda c: c.definite[0], lambda c: c.definite[1]):
            assert np.array_equal(read(anchored), read(jetted))
        assert anchored.dg is None and anchored.ddg is None

    def test_verify_jets_no_anchored_point(self, tmp_path, monkeypatch):
        """Through the CLI, with every gate passing so that the restriction
        records are read: one values pass covers both anchored sets (set 1's
        rows first), no metric jet is taken at any of their points, no
        chart's metric is read twice on equal points, and the line's
        constant metric is read at one row per pass."""
        passes, rows = counting_metric_passes(monkeypatch)
        spec = tmp_path / "h3.spec"
        spec.write_text(warped_line_spec("hyperbolic-hyperbolic",
                                         line_first=True))
        report = tmp_path / "h3.json"
        assert main(["verify", str(spec), "--format", "structured",
                     "--report", str(report)]) == 0
        status = {c["check_id"]: c["status"]
                  for c in json.loads(report.read_text())["checks"]}
        assert status["soliton[0].factors.ricci.factor2"] == PASS
        assert_each_metric_read_once(passes, rows)
        [anchored] = [points for kind, _, points in passes
                      if kind == "values" and points.shape[1] == 3]
        assert len(anchored) == 16  # 2 x 8 points
        anchor = np.array([0.0, 0.0, 1.0])  # the box's centre
        assert (anchored[:8, 1:] == anchor[1:]).all()
        assert (anchored[8:, :1] == anchor[:1]).all()
        for kind, _, points in passes:
            if kind == "jets" and points.shape[1] == 3:
                assert not (points[:, None] == anchored[None]).all(
                    axis=2).any()

    def test_verify_builds_each_anchored_set_once(self, tmp_path,
                                                  monkeypatch):
        """Through the CLI, with every gate passing: the samples' record
        builds the points of each anchored set once, and the field check,
        the conditioning test and the restriction records all read them."""
        sets = []
        anchored = DoublyWarpedProduct.anchored

        def counting(dwp, points, anchor, which):
            sets.append(which)
            return anchored(dwp, points, anchor, which)

        monkeypatch.setattr(DoublyWarpedProduct, "anchored", counting)
        spec = tmp_path / "h3.spec"
        spec.write_text(warped_line_spec("hyperbolic-hyperbolic",
                                         line_first=True))
        report = tmp_path / "h3.json"
        assert main(["verify", str(spec), "--format", "structured",
                     "--report", str(report)]) == 0
        status = {c["check_id"]: c["status"]
                  for c in json.loads(report.read_text())["checks"]}
        assert status["soliton[0].factors.ricci.factor1"] == PASS
        assert status["soliton[0].factors.ricci.factor2"] == PASS
        assert sets == [1, 2]

    ERROR_ORDER_SPEC = """[factor.1]
dim = 1
coords = ["x"]
metric = [["{f1}"]]

[factor.2]
dim = 1
coords = ["t"]
metric = [["{f2}"]]

[sampling]
points = 8
box = [0.5, 1.5]
"""

    @pytest.mark.parametrize("f1, f2, message", [
        # set 2 (x at the anchor) leaves the domain of factor 1's metric,
        # set 1 (t at the anchor) is singular: set 1's failure comes first
        ("1/(x - 1)^2", "(t - 1)^2",
         "anchored restriction set of factor 1: metric not positive "
         "definite or cond(g) > 1e+08 at [{x}, 1.0]"),
        # set 2 alone fails: its domain error
        ("1/(x - 1)^2", "1",
         "metric entry [0][0] = '1^2 * 1 / (x - 1)^2' leaves its domain at "
         "[1.0, {t}]: division by zero in '1 / (x - 1)^2'"),
        # set 1 alone fails: its domain error
        ("1", "1/(t - 1)^2",
         "metric entry [1][1] = '1^2 * 1 / (t - 1)^2' leaves its domain at "
         "[{x}, 1.0]: division by zero in '1 / (t - 1)^2'"),
    ], ids=["set1-singular-set2-domain", "set2-domain", "set1-domain"])
    def test_set_one_is_tested_before_an_error_of_set_two(
            self, tmp_path, capsys, f1, f2, message):
        spec = tmp_path / "order.spec"
        spec.write_text(self.ERROR_ORDER_SPEC.format(f1=f1, f2=f2))
        # each set fails at its first row, the first sample's
        x, t = np.random.default_rng(42).uniform(0.5, 1.5, size=(8, 2))[0]
        assert main(["verify", str(spec)]) == 2
        assert capsys.readouterr().err == "error: " + message.format(
            x=x, t=t) + "\n"
