"""Concircular and conharmonic curvature: oracles, closed forms, traces,
and flatness consequences."""

import numpy as np
import pytest

from conftest import (
    direct_flat_product,
    e2xe1_product,
    expr_chart,
    flat_chart,
    hyperbolic_plane_chart,
    hyperbolic_space,
    seeded_points,
    sphere_chart,
    sphere_x_hyperbolic,
)
from dwpcheck import checks
from dwpcheck.dwp import DimensionError
from dwpcheck.reporting import PASS, SKIP
from dwpcheck.special import (
    concircular_flat_consequences,
    concircular_oracle,
    conharmonic_flat_consequences,
    conharmonic_oracle,
    einstein_defect,
    f_almost_defect,
    factor_block_trace,
)

TOL = 1e-8


def sphere3_chart():
    return expr_chart(
        ("u", "v", "w"),
        [
            ["1", "0", "0"],
            ["0", "sin(u)^2", "0"],
            ["0", "0", "sin(u)^2 * sin(v)^2"],
        ],
    )


class TestConcircularOracle:
    def test_vanishes_on_constant_curvature_spaces(self):
        for chart, box in [
            (sphere_chart(), (0.5, 2.5)),
            (hyperbolic_plane_chart(), (0.5, 2.0)),
            (flat_chart(("x", "y", "z")), (-1.0, 1.0)),
            (sphere3_chart(), (0.5, 2.0)),
        ]:
            for p in seeded_points(chart, 6, box=box):
                norm = np.abs(concircular_oracle(chart.at(p[None]))[0]).max()
                assert norm <= 1e-9, (chart.coords, p, norm)

    def test_nonzero_on_generic_product(self):
        dwp = e2xe1_product()
        p = seeded_points(dwp.product, 1)[0]
        assert np.abs(concircular_oracle(dwp.product.at(p[None]))[0]).max() \
            > 0.01

    def test_full_trace_vanishes(self):
        # frozen invariant: the concircular tensor is trace-free in the
        # scalar slot on any manifold; frame[:, a] is the a-th frame vector.
        # The second metric is not diagonal, so rows and columns differ.
        charts = (e2xe1_product().product, expr_chart(("x", "y", "z"), [
            ["2 + 0.3*sin(y)", "0.7", "0.1*x"],
            ["0.7", "1", "0.2*z"],
            ["0.1*x", "0.2*z", "1.5 + 0.2*x*y"],
        ]))
        for chart in charts:
            for p in seeded_points(chart, 5):
                frame = chart.orthonormal_frame(p[None])[0]
                c4 = concircular_oracle(chart.at(p[None]))[0]
                total = np.einsum("ai,bj,cj,di,abcd->", frame, frame, frame,
                                  frame, c4)
                assert abs(total) < 1e-8


class TestConharmonicOracle:
    def test_vanishes_on_flat_space(self):
        chart = flat_chart(("x", "y", "z"))
        for p in seeded_points(chart, 5):
            h4 = conharmonic_oracle(chart.at(p[None]))[0]
            assert np.abs(h4).max() == 0.0

    def test_nonzero_on_round_3_sphere(self):
        chart = sphere3_chart()
        for p in seeded_points(chart, 4, box=(0.5, 2.0)):
            assert np.abs(conharmonic_oracle(chart.at(p[None]))[0]).max() > 0.1

    def test_dimension_guard_rejects_surfaces(self):
        chart = sphere_chart()
        with pytest.raises(DimensionError):
            conharmonic_oracle(chart.at([(0.8, 0.4)]))

    def test_ricci_trace_regression(self):
        # frozen by brute-force contraction: contracting the conharmonic
        # tensor over its outer slots gives -(tau/(m-2)) g
        dwp = e2xe1_product()
        m = dwp.m
        for p in seeded_points(dwp.product, 4):
            g, ginv = (a[0] for a in dwp.product.metric_at(p[None]))
            h4 = conharmonic_oracle(dwp.product.at(p[None]))[0]
            tau = dwp.product.scalar_oracle(p[None])[0]
            contracted = np.einsum("iw,iyzw->yz", ginv, h4)
            expected = -(tau / (m - 2)) * g
            assert np.allclose(contracted, expected, atol=1e-10)


class TestClosedForms:
    def test_concircular_closed_forms_match_oracle(self):
        dwp = e2xe1_product()
        pts = seeded_points(dwp.product, 8)
        out = checks.check_concircular(
            dwp, dwp.point_data(pts, np.zeros(dwp.m)), TOL)
        classes = [s for s in out if s.check_id.split(".")[1] in
                   ("XYZ", "XYU", "UVX", "XUY", "UXV", "UVW")]
        assert len(classes) == 6
        for s in classes:
            assert s.status == PASS, s

    @pytest.mark.parametrize("make", [e2xe1_product, sphere_x_hyperbolic])
    def test_conharmonic_closed_forms_match_oracle(self, make):
        dwp = make()
        if make is sphere_x_hyperbolic:
            pts = seeded_points(dwp.product, 6, box=(0.5, 1.5))
        else:
            pts = seeded_points(dwp.product, 6)
        out = checks.check_conharmonic(dwp, dwp.point_data(pts, pts[0]), TOL)
        classes = [s for s in out if s.check_id in
                   ("conharmonic.XYZ", "conharmonic.UVW")]
        assert len(classes) == 2
        for s in classes:
            assert s.status == PASS, s

    def test_conharmonic_check_skips_in_dimension_two(self):
        f1c = flat_chart(("x",))
        f2c = flat_chart(("t",))
        from dwpcheck.dwp import DoublyWarpedProduct
        from dwpcheck.expr import constant

        dwp = DoublyWarpedProduct(
            f1c, f2c, constant(1.0, f1c.coords), constant(1.0, f2c.coords)
        )
        pts = seeded_points(dwp.product, 4)
        out = checks.check_conharmonic(
            dwp, dwp.point_data(pts, np.zeros(2)), TOL)
        assert len(out) == 1 and out[0].status == SKIP


class TestBlockTraceIdentities:
    """Frozen contraction identities that hold on ANY doubly warped
    product, regardless of flatness."""

    def test_concircular_block_trace_gives_einstein_defect(self):
        dwp = e2xe1_product()
        for p in seeded_points(dwp.product, 4):
            d = dwp.point_data(p[None])
            c4 = concircular_oracle(d.product)
            for s in d.sides:
                which, ric, g_i = s.which, s.ric[0], s.g[0]
                trace = factor_block_trace(dwp, c4, which, d)[0]
                defect, mu = (a[0] for a in einstein_defect(dwp, which, d))
                assert np.allclose(trace, ric - mu * g_i, atol=1e-12)
                assert np.allclose(trace, defect, atol=1e-12)

    def test_conharmonic_block_trace_gives_f_almost_defect(self):
        dwp = e2xe1_product()
        m = dwp.m
        for p in seeded_points(dwp.product, 4):
            d = dwp.point_data(p[None])
            h4 = conharmonic_oracle(d.product)
            for which, m_opp in ((1, dwp.m2), (2, dwp.m1)):
                trace = factor_block_trace(dwp, h4, which, d)[0]
                defect, lam, f = (a[0] for a in f_almost_defect(dwp, which,
                                                                 d))
                assert np.allclose(
                    trace, (m_opp / (m - 2)) * defect, atol=1e-12
                )


class TestFlatConsequences:
    def test_hyperbolic_space_is_concircularly_flat_with_consequences(self):
        dwp = hyperbolic_space(3)
        pts = seeded_points(dwp.product, 8)
        out = concircular_flat_consequences(
            dwp, dwp.point_data(pts, np.zeros(dwp.m)), 1e-9)
        by_id = {s.check_id: s for s in out}
        assert by_id["concircular.flat"].status == PASS
        for which in (1, 2):
            s = by_id[f"concircular.einstein{which}"]
            assert s.status == PASS, s
            assert "mu = 0" in s.notes
        assert "vacuously" in by_id["concircular.einstein1"].notes
        assert by_id["concircular.dichotomy"].status == PASS

    def test_hyperbolic_space_scalar_curvature(self):
        for n in (3, 4):
            dwp = hyperbolic_space(n)
            for p in seeded_points(dwp.product, 4):
                tau = dwp.product.scalar_oracle(p[None])[0]
                assert tau == pytest.approx(-n * (n - 1), abs=1e-6)

    def test_gating_on_non_flat_product(self):
        dwp = e2xe1_product()
        pts = seeded_points(dwp.product, 6)
        out = concircular_flat_consequences(
            dwp, dwp.point_data(pts, np.zeros(dwp.m)), TOL)
        assert all(s.status == SKIP for s in out)
        assert all("hypothesis fails" in s.notes for s in out)

    def test_sphere_x_hyperbolic_is_conharmonically_flat(self):
        dwp = sphere_x_hyperbolic()
        pts = seeded_points(dwp.product, 6, box=(0.5, 1.5))
        out = conharmonic_flat_consequences(
            dwp, dwp.point_data(pts, pts[0]), TOL)
        by_id = {s.check_id: s for s in out}
        assert by_id["conharmonic.flat"].status == PASS
        assert by_id["conharmonic.soliton1"].status == PASS
        assert by_id["conharmonic.soliton2"].status == PASS

    def test_direct_flat_product_consequences_are_trivial(self):
        dwp = direct_flat_product()
        pts = seeded_points(dwp.product, 6)
        d = dwp.point_data(pts, np.zeros(4))
        for s in concircular_flat_consequences(dwp, d, TOL):
            assert s.status == PASS, s
        for s in conharmonic_flat_consequences(dwp, d, TOL):
            assert s.status == PASS, s
