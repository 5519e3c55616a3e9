"""Brute-force curvature oracle against classical closed-form geometries."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    direct_flat_product, expr_chart, flat_chart, hyperbolic_plane_chart,
    hyperbolic_space, orthonormal_frame, random_polynomial, random_spd_chart,
    seeded_points, sphere_chart,
)
from dwpcheck.expr import parse_expression
from dwpcheck.geometry import (
    ChartBatch,
    ChartManifold,
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


def textbook_curvature(g, dg, ddg):
    """(R_ijkw, Ric_jk, tau, (1,3) r^c_xyz) at one point from the metric
    g_ij, dg[k,i,j] = d_k g_ij and ddg[k,l,i,j] = d_k d_l g_ij, one index
    at a time (Christoffel symbols, their derivatives, then R^m_ijk =
    d_i G^m_jk - d_j G^m_ik + G^m_ia G^a_jk - G^m_ja G^a_ik)."""
    m = len(g)
    ginv = np.linalg.inv(g)
    span = range(m)

    def sym(i, j, c):
        return dg[i][j][c] + dg[j][i][c] - dg[c][i][j]

    def dsym(l, i, j, c):
        return ddg[l][i][j][c] + ddg[l][j][i][c] - ddg[l][c][i][j]

    dginv = [[[-sum(ginv[k][a] * dg[l][a][b] * ginv[b][c]
                    for a in span for b in span) for c in span]
              for k in span] for l in span]
    gamma = [[[0.5 * sum(ginv[k][c] * sym(i, j, c) for c in span)
               for j in span] for i in span] for k in span]
    dgamma = [[[[0.5 * sum(dginv[l][k][c] * sym(i, j, c)
                           + ginv[k][c] * dsym(l, i, j, c) for c in span)
                 for j in span] for i in span] for k in span]
              for l in span]
    rup = np.array([[[[
        dgamma[i][c][j][k] - dgamma[j][c][i][k]
        + sum(gamma[c][i][a] * gamma[a][j][k]
              - gamma[c][j][a] * gamma[a][i][k] for a in span)
        for k in span] for j in span] for i in span] for c in span])
    r4 = np.array([[[[sum(g[c][w] * rup[c][i][j][k] for c in span)
                      for w in span] for k in span] for j in span]
                   for i in span])
    ric = np.array([[sum(rup[i][i][j][k] for i in span) for k in span]
                    for j in span])
    tau = sum(ginv[j][k] * ric[j][k] for j in span for k in span)
    r13 = np.array([[[[sum(r4[x][y][z][w] * ginv[w][c] for w in span)
                       for c in span] for z in span] for y in span]
                    for x in span])
    return r4, ric, tau, r13


def assert_relative(got, want, what, tol=1e-13):
    """|got - want| <= tol max|want|, elementwise."""
    assert np.abs(got - want).max() <= tol * np.abs(want).max(), what


class TestOracleIndexAlgebra:
    """The oracle's reshaped matrix products against the textbook formula
    written index by index, on metrics where no index pair is
    interchangeable: non-diagonal and non-constant, at m >= 3, where R has
    more than one independent component."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_the_formula_index_by_index(self, m):
        chart = random_spd_chart(m, np.random.default_rng(m))
        record = chart.at(seeded_points(chart, 4, seed=m))
        r4, ric, tau = record.curvature
        for n in range(len(record.p)):
            want = textbook_curvature(record.g[n], record.dg[n],
                                      record.ddg[n])
            got = (r4[n], ric[n], tau[n], record.curvature_operator[n])
            for what, a, b in zip(("R", "Ric", "tau", "(1,3)"), got, want):
                assert_relative(a, b, f"{what} at m = {m}, point {n}")

    def test_algebraic_symmetries_and_first_bianchi(self):
        chart = random_spd_chart(4, np.random.default_rng(11))
        r = chart.at(seeded_points(chart, 64, seed=11)).curvature[0]
        assert np.abs(r).max() > 1e-2  # a curved metric
        for what, other in [
            ("R_ijkl = -R_jikl", -r.transpose(0, 2, 1, 3, 4)),
            ("R_ijkl = -R_ijlk", -r.transpose(0, 1, 2, 4, 3)),
            ("R_ijkl = R_klij", r.transpose(0, 3, 4, 1, 2)),
        ]:
            assert_relative(r, other, what)
        bianchi = (r + r.transpose(0, 3, 1, 2, 4)
                   + r.transpose(0, 2, 3, 1, 4))
        assert np.abs(bianchi).max() <= 1e-13 * np.abs(r).max()

    def test_hyperbolic_space_in_a_sheared_chart(self):
        # the upper half-space (dx^2 + dy^2 + dz^2)/z^2 in u = x + 0.3y,
        # v = y, w = z: dx = du - 0.3 dv, so g_uv = -0.3/w^2
        chart = expr_chart(("u", "v", "w"), [
            ["1/w^2", "-0.3/w^2", "0"],
            ["-0.3/w^2", "1.09/w^2", "0"],
            ["0", "0", "1/w^2"]])
        record = chart.at(seeded_points(chart, 16, box=(0.5, 2.0)))
        g = record.g
        assert np.abs(g[:, 0, 1]).min() > 0.0
        r4, ric, tau = record.curvature
        assert_relative(r4, constant_curvature_tensor(g, -1.0), "R")
        assert_relative(ric, -2.0 * g, "Ric")
        assert_relative(tau, np.full(len(g), -6.0), "tau")


# The constant-metric charts of conftest: flat factor charts of each
# dimension, the product chart of the direct product of flat planes, and a
# plane whose constant metric is not diagonal.
CONSTANT_CHARTS = {
    "flat-line": lambda: flat_chart(("t",)),
    "flat-plane": lambda: flat_chart(("x", "y")),
    "flat-fibre-of-H4": lambda: hyperbolic_space(4).factor2,
    "direct-flat-product": lambda: direct_flat_product().product,
    "non-diagonal-plane": lambda: expr_chart(
        ("x", "y"), [["2", "0.7"], ["0.7", "1"]]),
}


def twin(chart):
    """The chart with each entry written "<entry> + 0*<first coordinate>":
    the same metric, bitwise, whose entries read a coordinate."""
    coords = chart.coords
    return ChartManifold(coords, [
        [parse_expression(f"{e} + 0*{coords[0]}", coords) for e in row]
        for row in chart.metric])


def assert_bitwise(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


def read_off(record, psi):
    """What a record gives zeros for on a constant metric, and a potential's
    covariant Hessian."""
    r4, ric, tau = record.curvature
    return {"gamma": record.gamma, "R": r4, "Ric": ric, "tau": tau,
            "(1,3) curvature": record.curvature_operator,
            "Hessian": record.hessian(psi)}


def counting_metric_jets(monkeypatch):
    """The list of the charts whose metric is jetted from now on."""
    jetted, metric_jets = [], ChartManifold._metric_jets

    def counting(chart, points):
        jetted.append(chart)
        return metric_jets(chart, points)

    monkeypatch.setattr(ChartManifold, "_metric_jets", counting)
    return jetted


class TestConstantMetrics:
    """A chart whose metric entries read no coordinate gives its zeros
    without contracting the metric's derivatives; they are the zeros the
    contraction gives, sign bits included."""

    @pytest.mark.parametrize("n", [1, 7, 128])
    @pytest.mark.parametrize("name", sorted(CONSTANT_CHARTS))
    def test_zeros_are_those_of_the_contraction(self, name, n):
        chart = CONSTANT_CHARTS[name]()
        other = twin(chart)
        assert chart.constant_metric and not other.constant_metric
        psi = random_polynomial(chart.coords, np.random.default_rng(n), 3)
        points = seeded_points(chart, n)
        flat, contracted = chart.at(points), other.at(points)
        assert np.array_equal(flat.g, contracted.g)
        want = read_off(contracted, psi)
        for key, got in read_off(flat, psi).items():
            assert_bitwise(got, want[key], key)
        assert not np.any(want["R"])

    @pytest.mark.parametrize("n", [1, 7, 128])
    @pytest.mark.parametrize("name", sorted(CONSTANT_CHARTS))
    def test_metric_reads_are_those_of_the_twin(self, name, n):
        """What a constant metric's record reads at its first point and
        repeats is what the twin reads at every point, sign bits included;
        so are the sampler's points and metrics."""
        chart = CONSTANT_CHARTS[name]()
        other = twin(chart)
        points = np.random.default_rng(n).uniform(-1.0, 1.0,
                                                  (n, chart.dim))
        flat, jetted = chart.at(points), other.at(points)
        assert flat.dg is None and flat.ddg is None
        reads = {"g": lambda c: c.g, "ginv": lambda c: c.ginv,
                 "spd": lambda c: c.definite[0],
                 "eigenvalues": lambda c: c.definite[1],
                 "well_conditioned": lambda c: c.well_conditioned(),
                 "big_g": lambda c: c.big_g}
        for key, read in reads.items():
            assert_bitwise(read(flat), read(jetted), key)
        box = np.tile([-1.0, 1.0], (chart.dim, 1))
        flat, jetted = (sample_points(c, box, n, 5) for c in (chart, other))
        assert flat.dg is None
        for key in ("p", "g"):
            assert_bitwise(getattr(flat, key), getattr(jetted, key), key)

    @pytest.mark.parametrize("row", [0, 1])
    def test_an_overflowing_entry_names_the_twins_entry_and_point(self, row):
        chart = expr_chart(("x", "y"), [["1", "0"], ["0", "1e300*1e300"]]
                           if row else [["1e300*1e300", "0"], ["0", "1"]])
        assert chart.constant_metric
        box = np.tile([-1.0, 1.0], (2, 1))
        first = np.random.default_rng(3).uniform(box[:, 0], box[:, 1])
        where = re.escape(f"entry [{row}][{row}] = ")
        for c in (chart, twin(chart)):
            with pytest.raises(MetricError, match=where + ".* at "
                               + re.escape(f"{first.tolist()}:")):
                sample_points(c, box, 4, 3)
            points = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2))
            with pytest.raises(MetricError, match=where + ".* at "
                               + re.escape(f"{points[0].tolist()}:")):
                c.metric_at(points)

    @pytest.mark.parametrize("name", sorted(CONSTANT_CHARTS))
    def test_no_metric_jet_is_taken(self, name, monkeypatch):
        chart = CONSTANT_CHARTS[name]()
        jetted = counting_metric_jets(monkeypatch)
        record = sample_points(chart, np.tile([-1.0, 1.0], (chart.dim, 1)),
                               9, 2)
        psi = random_polynomial(chart.coords, np.random.default_rng(2), 3)
        read_off(record, psi), record.big_g, record.require_spd()
        chart.metric_at(record.p), chart.laplacian_field(psi, record.p)
        chart.gradient_field(psi, record.p)
        assert jetted == []
        twin(chart).at(record.p)
        assert len(jetted) == 1

    def test_values_record_reads_no_metric_derivative(self, monkeypatch):
        chart = CONSTANT_CHARTS["direct-flat-product"]()
        record = chart.values_at(seeded_points(chart, 7))
        jetted = counting_metric_jets(monkeypatch)
        record.gamma, record.curvature
        assert jetted == []
        record.curvature_operator
        record.hessian(parse_expression("x*s + sin(y)", chart.coords))
        assert jetted == []

    def test_one_entry_with_a_coordinate_makes_the_metric_non_constant(
            self):
        chart = hyperbolic_plane_chart()  # only [1][1] = sinh(a)^2 reads a
        assert not chart.constant_metric
        record = chart.at([[0.6, 0.1], [1.4, 2.0]])
        assert np.abs(record.gamma).max() > 0.0
        _, _, tau = record.curvature
        assert tau == pytest.approx([-2.0, -2.0], abs=1e-9)
        assert np.abs(record.curvature_operator).max() > 0.0


class TestConcatenate:
    def test_values_records_concatenate_to_a_values_record(self):
        chart = sphere_chart()
        points = np.random.default_rng(4).uniform(0.5, 1.5, (7, 2))
        records = [chart.values_at(points[:3]), chart.values_at(points[3:])]
        joined = ChartBatch.concatenate(records)
        whole = chart.values_at(points)
        assert joined.dg is None and joined.ddg is None
        assert np.array_equal(joined.p, points)
        assert np.array_equal(joined.g, whole.g)
        for got, want in zip(joined.definite, whole.definite):
            assert np.array_equal(got, want)

    def test_jets_records_concatenate_to_a_jets_record(self):
        chart = sphere_chart()
        points = np.random.default_rng(4).uniform(0.5, 1.5, (7, 2))
        joined = ChartBatch.concatenate([chart.at(points[:3]),
                                         chart.at(points[3:])])
        whole = chart.at(points)
        for key in ("p", "g", "dg", "ddg"):
            assert np.array_equal(getattr(joined, key), getattr(whole, key))


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

    def test_laplacian_is_the_trace_of_the_hessian_built_once(self):
        """A record's Laplacian of a potential is, bitwise, the trace of
        its covariant Hessian by the inverse metric; it is built on the
        first read and shared by every later read of an equal potential,
        on that record alone."""
        chart = random_spd_chart(3, np.random.default_rng(4))
        pts = seeded_points(chart, 9)
        record = chart.at(pts)
        text = "a*b + sin(c) + b^3"
        psi = parse_expression(text, chart.coords)
        lap = record.laplacian(psi)
        trace = np.einsum("nij,nij->n", record.ginv, record.hessian(psi))
        assert np.array_equal(lap, trace)
        assert np.array_equal(np.signbit(lap), np.signbit(trace))
        assert record.laplacian(parse_expression(text, chart.coords)) is lap
        other = record.laplacian(parse_expression("a^2", chart.coords))
        assert other is not lap and not np.array_equal(other, lap)
        fresh = chart.at(pts).laplacian(psi)
        assert fresh is not lap and np.array_equal(fresh, lap)
        assert np.array_equal(chart.laplacian_field(psi, pts), lap)

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
            frame = orthonormal_frame(chart, [p])[0]
            g = chart.metric_at([p])[0][0]
            # the frame vectors are the columns of the frame matrix
            gram = frame.T @ g @ frame
            assert gram == pytest.approx(np.eye(2), abs=1e-12)


class TestKulkarniNomizu:
    @settings(max_examples=20, deadline=None, derandomize=True)
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

    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_equals_the_four_product_form_bitwise(self, m):
        """Batched symmetric inputs holding exact zeros of both signs give
        the same array, signs of zeros included, as the sum of the four
        products written out."""
        rng = np.random.default_rng(m)

        def symmetric():
            x = rng.normal(size=(16, m, m))
            for zero, share in ((0.0, 0.3), (-0.0, 0.1)):
                x[rng.random(x.shape) < share] = zero
            i, j = np.triu_indices(m)
            x[:, j, i] = x[:, i, j]
            return x

        a, b = symmetric(), symmetric()
        a[0], b[1] = 0.0, -0.0  # a whole point of zeros of either sign
        want = (np.einsum("...xw,...yz->...xyzw", a, b)
                + np.einsum("...yz,...xw->...xyzw", a, b)
                - np.einsum("...xz,...yw->...xyzw", a, b)
                - np.einsum("...yw,...xz->...xyzw", a, b))
        got = kulkarni_nomizu(a, b)
        assert np.signbit(a[a == 0]).any() and (got == 0).any()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSampling:
    def test_seeded_sampling_is_deterministic(self):
        chart = flat_chart(("x", "y"))
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        a = sample_points(chart, box, 10, 7).p
        b = sample_points(chart, box, 10, 7).p
        assert np.array_equal(a, b)

    def test_sampling_respects_box(self):
        chart = flat_chart(("x", "y"))
        box = np.array([[0.5, 1.0], [-2.0, -1.5]])
        pts = sample_points(chart, box, 20, 3).p
        assert np.all(pts[:, 0] >= 0.5) and np.all(pts[:, 0] <= 1.0)
        assert np.all(pts[:, 1] >= -2.0) and np.all(pts[:, 1] <= -1.5)

    def test_sampling_skips_ill_conditioned_points(self):
        # metric degenerates along x = 0
        chart = expr_chart(("x", "y"), [["x^2", "0"], ["0", "1"]])
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        pts = sample_points(chart, box, 10, 11).p
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

    @pytest.mark.parametrize("seed", [3, 4])
    def test_sampling_stops_at_ten_draws_per_point(self, seed):
        # cond(g) = 1/x^2 accepts |x| >= 1e-4, a few of the draws in this
        # box: at these seeds fewer than 5 of the first 50, so the last
        # chunk must be cut to what the cap leaves
        chart = expr_chart(("x", "y"), [["x^2", "0"], ["0", "1"]])
        box = np.array([[-1.05e-4, 1.05e-4], [-1.0, 1.0]])
        with pytest.raises(GeometryError, match=r"within 50 draws$"):
            sample_points(chart, box, 5, seed)
