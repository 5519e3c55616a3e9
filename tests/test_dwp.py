"""Closed-form curvature splittings against the product oracle."""

import json

import numpy as np
import pytest

from conftest import (
    corpus,
    direct_flat_product,
    e2xe1_product,
    expr_chart,
    flat_chart,
    random_polynomial,
    seeded_points,
    sphere_x_hyperbolic,
    warped_line_spec,
)
from dwpcheck import checks, geometry, solitons, special
from dwpcheck.cli import main
from dwpcheck.dwp import DoublyWarpedProduct, WarpingError
from dwpcheck.expr import Expression, constant, parse_expression
from dwpcheck.geometry import ChartManifold
from dwpcheck.reporting import PASS
from dwpcheck.solitons import SolitonSpec, residual, ricci_factor_structures
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
            products[name], products[name].point_data(samples[name]), TOL)
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
            products[name], products[name].point_data(samples[name]), TOL):
            assert summary.status == PASS, summary

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_ricci_operator_blocks(self, products, samples, name):
        for summary in checks.check_lemma5(
            products[name], products[name].point_data(samples[name]), TOL):
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
            products[name], products[name].point_data(samples[name]), TOL)
        assert summary.status == PASS, summary


class TestHessianAndLaplacian:
    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_log_warping_hessians(self, products, samples, name):
        for summary in checks.check_hessian(
            products[name], products[name].point_data(samples[name]), TOL):
            assert summary.status == PASS, summary

    def test_user_potential_hessian_blocks(self, products, samples):
        dwp = products["e2xe1"]
        rng = np.random.default_rng(5)
        psis = [
            ("mixed", parse_expression("x + t^2", dwp.coords)),
            ("poly", random_polynomial(dwp.coords, rng)),
        ]
        out = checks.check_hessian(dwp, dwp.point_data(samples["e2xe1"]), TOL,
                                   psis=psis)
        for summary in out:
            assert summary.status == PASS, summary

    def test_mixed_hessian_block_closed_form(self, products, samples):
        # h^psi(X, U) = XU(psi) - X(k)U(psi) - X(psi)U(l) on coordinate lifts
        dwp = products["e2xe1"]
        psi = parse_expression("x*y + x*t + t^2", dwp.coords)
        for p in samples["e2xe1"][:5]:
            closed = dwp.hessian_split_closed(psi, "XU",
                                            dwp.point_data(p[None]))[0]
            oracle = dwp.product.hessian_field(psi, p[None])[0][
                : dwp.m1, dwp.m1:
            ]
            assert np.allclose(closed, oracle, atol=1e-10)

    @pytest.mark.parametrize("name", ["direct", "warped", "e2xe1"])
    def test_laplacian_splitting(self, products, samples, name):
        for summary in checks.check_laplacian(
            products[name], products[name].point_data(samples[name]), TOL):
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
            for which, klass in ((1, "XX"), (2, "UU")):
                other, mirror = 3 - which, "UU" if klass == "XX" else "XX"
                assert_mirrored(a.ricci_closed(klass, da)[0],
                                b.ricci_closed(mirror, db)[0])
                assert_mirrored(a.ricci_operator_closed(klass, da)[0],
                                b.ricci_operator_closed(mirror, db)[0])
                assert_mirrored(einstein_defect(a, which, da)[0][0],
                                einstein_defect(b, other, db)[0][0])
                assert_mirrored(f_almost_defect(a, which, da)[0][0],
                                f_almost_defect(b, other, db)[0][0])
            assert_mirrored(a.laplacian_split("k", da),
                            b.laplacian_split("l", db))

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
            return {s.check_id: s for s in ricci_factor_structures(
                dwp, spec, d, tol, residual(spec, d.product, tol))}

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
            assert_mirrored(solitons.mixed_yamabe_condition(dwp, psi, d),
                            hessian)
            assert_mirrored(solitons.mixed_ricci_condition(dwp, psi, d),
                            hessian + d.product.curvature[1][xu])


def closed_forms(dwp, d):
    """Every closed form of the product at the record d."""
    psi = parse_expression("x*y + sin(t)*x + s^3", dwp.coords)
    return [
        dwp.riemann_closed(d), dwp.riemann_closed_tensor(d),
        dwp.covariant_closed(d),
        *(dwp.ricci_closed(klass, d) for klass in ("XX", "XU", "UU")),
        *(dwp.ricci_operator_closed(klass, d) for klass in ("XX", "UU")),
        dwp.scalar_closed(d),
        *(dwp.hessian_split_closed(psi, klass, d)
          for klass in ("XX", "XU", "UU")),
        *(dwp.laplacian_split(which, d)[0] for which in ("k", "l")),
        special.concircular_closed(dwp, d),
        *special.conharmonic_closed(dwp, d).values(),
        *(defect(dwp, which, d)[0] for which in (1, 2)
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


class TestOneRecordPerPointSet:
    def test_run_all_jets_each_chart_once_per_point_set(self, monkeypatch):
        """With the flatness gates and a soliton gate passing, so that the
        anchored restriction sets are used too, no chart's metric is jetted
        twice on equal points, and at most three records are built (the
        samples and the two restriction sets)."""
        dwp = direct_flat_product()
        psi = parse_expression("0.3*(x^2 + y^2 + s^2 + t^2)", dwp.coords)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=0.6)
        pts = seeded_points(dwp.product, 8)
        jetted, built = [], []
        metric_jets = ChartManifold._metric_jets
        point_data = DoublyWarpedProduct.point_data

        def counting_jets(chart, points):
            jetted.append((chart, np.array(points, dtype=float)))
            return metric_jets(chart, points)

        def counting_point_data(self, *args, **kwargs):
            built.append(args)
            return point_data(self, *args, **kwargs)

        monkeypatch.setattr(ChartManifold, "_metric_jets", counting_jets)
        monkeypatch.setattr(DoublyWarpedProduct, "point_data",
                            counting_point_data)
        anchor = np.array([0.1, -0.2, 0.3, 0.4])
        out = {s.check_id: s for s in checks.run_all(
            dwp, [spec], dwp.point_data(pts, anchor), TOL)}
        for check_id in ("concircular.einstein1", "conharmonic.soliton2",
                         "soliton[0].factors.ricci.factor1"):
            assert out[check_id].status == PASS, out[check_id]
        for i, (chart, points) in enumerate(jetted):
            for other, earlier in jetted[:i]:
                assert not (other is chart and np.array_equal(points,
                                                              earlier))
        assert len(jetted) == 7  # samples 3, each restriction set 2
        assert 1 <= len(built) <= 3

    def test_verify_builds_each_quantity_once_per_record(self, tmp_path,
                                                         monkeypatch):
        """Through the CLI, on H^3 with every soliton gate and the
        concircular gate passing: no chart's metric is jetted twice on equal
        points (the sampler's and the conditioning test's jets included), no
        expression is jetted twice on equal points, no record builds the
        covariant Hessian of one expression twice, each soliton's residual
        is evaluated once per form, each Kulkarni-Nomizu product (g ^ g, and
        the Riemann soliton's h ^ g) once per record, each flatness
        oracle once, and the warpings are validated once per point set."""
        jetted, expr_jets, residuals, wedges = [], [], [], []
        oracles, validated, hessians = [], [], []
        metric_jets = ChartManifold._metric_jets
        covariant_hessian = geometry.covariant_hessian
        jet = Expression.jet
        residual_values = solitons.residual_values
        kulkarni_nomizu = geometry.kulkarni_nomizu
        validate_warpings = DoublyWarpedProduct.validate_warpings

        def counting_metric_jets(chart, points):
            jetted.append((chart, np.array(points, dtype=float)))
            return metric_jets(chart, points)

        def counting_jet(expr, points):
            expr_jets.append((expr, np.array(points, dtype=float)))
            return jet(expr, points)

        def counting_residual_values(spec, c, form="primary", **kwargs):
            residuals.append((spec, form))
            return residual_values(spec, c, form=form, **kwargs)

        def counting_kulkarni_nomizu(a, b):
            wedges.append((np.array(a), np.array(b)))
            return kulkarni_nomizu(a, b)

        def counting_covariant_hessian(gamma, jet):
            # a record's Christoffel symbols and an expression's jet on it
            # are each built once, so they name the (record, expression)
            hessians.append((gamma, jet))
            return covariant_hessian(gamma, jet)

        def counting_validate_warpings(dwp, points):
            validated.append(np.array(points, dtype=float))
            return validate_warpings(dwp, points)

        def counting(name):
            oracle = getattr(special, name)

            def wrapper(c):
                oracles.append(name)
                return oracle(c)
            return wrapper

        monkeypatch.setattr(ChartManifold, "_metric_jets",
                            counting_metric_jets)
        monkeypatch.setattr(DoublyWarpedProduct, "validate_warpings",
                            counting_validate_warpings)
        for name in ("concircular_oracle", "conharmonic_oracle"):
            monkeypatch.setattr(special, name, counting(name))
        monkeypatch.setattr(Expression, "jet", counting_jet)
        monkeypatch.setattr(geometry, "covariant_hessian",
                            counting_covariant_hessian)
        monkeypatch.setattr(solitons, "residual_values",
                            counting_residual_values)
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

        assert not repeats(jetted, lambda a, b: a[0] is b[0]
                           and np.array_equal(a[1], b[1]))
        assert not repeats(expr_jets, lambda a, b: a[0] == b[0]
                           and np.array_equal(a[1], b[1]))
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
