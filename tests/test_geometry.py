"""Brute-force curvature oracle against classical closed-form geometries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expr_chart, flat_chart, hyperbolic_plane_chart, sphere_chart
from dwpcheck.expr import parse_expression
from dwpcheck.geometry import (
    GeometryError,
    MetricError,
    kulkarni_nomizu,
    sample_points,
)


def constant_curvature_tensor(g, kappa):
    """R = kappa/2 * (g ^ g) for a space form of sectional curvature kappa."""
    return 0.5 * kappa * kulkarni_nomizu(g, g)


class TestOracleOnSpaceForms:
    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_sphere_curvature(self, radius):
        chart = sphere_chart(radius=radius)
        kappa = 1.0 / radius**2
        for p in [(0.7, 0.3), (1.2, -0.5), (2.0, 1.0)]:
            g = chart.metric_at([p])[0][0]
            r4 = chart.riemann_oracle([p])[0]
            assert r4 == pytest.approx(
                constant_curvature_tensor(g, kappa), abs=1e-9
            )
            assert chart.scalar_oracle([p])[0] == pytest.approx(
                2.0 * kappa, abs=1e-9
            )
            ric = chart.ricci_oracle([p])[0]
            assert ric == pytest.approx(kappa * g, abs=1e-9)

    def test_hyperbolic_plane_curvature(self):
        chart = hyperbolic_plane_chart()
        for p in [(0.6, 0.1), (1.4, 2.0)]:
            g = chart.metric_at([p])[0][0]
            r4 = chart.riemann_oracle([p])[0]
            assert r4 == pytest.approx(
                constant_curvature_tensor(g, -1.0), abs=1e-9
            )
            assert chart.scalar_oracle([p])[0] == pytest.approx(-2.0,
                                                                abs=1e-9)

    def test_flat_space_is_flat(self):
        chart = flat_chart(("x", "y", "z"))
        p = (0.3, -0.4, 0.9)
        assert np.abs(chart.riemann_oracle([p])[0]).max() == 0.0
        assert chart.scalar_oracle([p])[0] == 0.0

    def test_flat_metric_in_polar_coordinates(self):
        # ds^2 = dr^2 + r^2 dth^2 is flat but has nonzero Christoffels
        chart = expr_chart(("r", "th"), [["1", "0"], ["0", "r^2"]])
        p = (1.3, 0.4)
        assert np.abs(chart.christoffel([p])[0]).max() > 0.0
        assert np.abs(chart.riemann_oracle([p])[0]).max() < 1e-12
        assert chart.scalar_oracle([p])[0] == pytest.approx(0.0, abs=1e-12)


class TestDerivativeOperators:
    def test_hessian_on_flat_chart_is_coordinate_hessian(self):
        chart = flat_chart(("x", "y"))
        psi = parse_expression("x^2*y + y^3", chart.coords)
        p = (0.5, -0.2)
        h = chart.hessian_field(psi, [p])[0]
        assert h == pytest.approx(psi.jet([p]).hessian[0], abs=1e-12)

    def test_laplacian_in_polar_coordinates(self):
        chart = expr_chart(("r", "th"), [["1", "0"], ["0", "r^2"]])
        psi = parse_expression("r^2", chart.coords)
        # lap(r^2) = (1/r) d/dr (r * 2r) = 4 in the flat plane
        assert chart.laplacian_field(psi, [(0.8, 0.3)])[0] == pytest.approx(
            4.0, abs=1e-12
        )

    def test_gradient_raises_index_with_inverse_metric(self):
        chart = expr_chart(("r", "th"), [["1", "0"], ["0", "r^2"]])
        psi = parse_expression("th", chart.coords)
        grad = chart.gradient_field(psi, [(2.0, 0.1)])[0]
        assert np.allclose(grad, [0.0, 1.0 / 4.0], atol=1e-14)

    def test_orthonormal_frame(self):
        # the second metric is not diagonal: there F g F^T differs from the
        # identity, while F^T g F does not
        for chart in (sphere_chart(),
                      expr_chart(("x", "y"), [["2", "0.7"], ["0.7", "1"]])):
            p = (0.9, 0.2)
            frame = chart.orthonormal_frame([p])[0]
            g = chart.metric_at([p])[0][0]
            # the frame vectors are the columns of the frame matrix
            gram = frame.T @ g @ frame
            assert gram == pytest.approx(np.eye(2), abs=1e-12)


class TestKulkarniNomizu:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9
        ),
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9
        ),
    )
    def test_algebraic_curvature_symmetries(self, a_flat, b_flat):
        a = np.array(a_flat).reshape(3, 3)
        a = a + a.T
        b = np.array(b_flat).reshape(3, 3)
        b = b + b.T
        t = kulkarni_nomizu(a, b)
        assert t == pytest.approx(-np.swapaxes(t, 0, 1), abs=1e-12)
        assert t == pytest.approx(-np.swapaxes(t, 2, 3), abs=1e-12)
        assert t == pytest.approx(np.transpose(t, (2, 3, 0, 1)), abs=1e-12)
        bianchi = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(
            t, (2, 0, 1, 3)
        )
        assert np.abs(bianchi).max() < 1e-12

    def test_definition_on_basis(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 5.0])
        t = kulkarni_nomizu(a, b)
        # kn(A,B)(X,Y,Z,W) = A(X,W)B(Y,Z) + A(Y,Z)B(X,W)
        #                    - A(X,Z)B(Y,W) - A(Y,W)B(X,Z)
        assert t[0, 1, 1, 0] == pytest.approx(
            a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0]
        )
        assert t[0, 1, 0, 1] == pytest.approx(
            -a[0, 0] * b[1, 1] - a[1, 1] * b[0, 0]
        )


class TestSampling:
    def test_seeded_sampling_is_deterministic(self):
        chart = flat_chart(("x", "y"))
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        a = sample_points(chart, box, 10, 7)
        b = sample_points(chart, box, 10, 7)
        assert np.array_equal(a, b)

    def test_sampling_respects_box(self):
        chart = flat_chart(("x", "y"))
        box = np.array([[0.5, 1.0], [-2.0, -1.5]])
        pts = sample_points(chart, box, 20, 3)
        assert np.all(pts[:, 0] >= 0.5) and np.all(pts[:, 0] <= 1.0)
        assert np.all(pts[:, 1] >= -2.0) and np.all(pts[:, 1] <= -1.5)

    def test_sampling_skips_ill_conditioned_points(self):
        # metric degenerates along x = 0
        chart = expr_chart(("x", "y"), [["x^2", "0"], ["0", "1"]])
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        pts = sample_points(chart, box, 10, 11)
        for p in pts:
            assert chart.well_conditioned_at(p[None])[0]

    def test_metric_domain_error_names_the_first_failing_point(self):
        # entry [0][0] fails at the third point, entry [1][1] at the second
        chart = expr_chart(("x", "y"), [["sqrt(x)", "0"], ["0", "sqrt(y)"]])
        with pytest.raises(MetricError,
                           match=r"entry \[1\]\[1\] .* at \[1.0, -1.0\]"):
            chart.metric_at([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])

    def test_sampling_fails_loudly_when_region_is_degenerate(self):
        chart = expr_chart(("x", "y"), [["x^2", "0"], ["0", "1"]])
        box = np.array([[-1e-9, 1e-9], [-1.0, 1.0]])
        with pytest.raises(GeometryError):
            sample_points(chart, box, 5, 1)
