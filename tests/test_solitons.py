"""Soliton defining equations, induced factor structures, and the
degenerate-parameter reduction lattice."""

import numpy as np
import pytest

from conftest import (
    direct_flat_product,
    flat_chart,
    quasi_einstein_product,
    seeded_points,
    sphere_chart,
)
from dwpcheck.expr import parse_expression
from dwpcheck.solitons import (
    SolitonError,
    SolitonSpec,
    classify_lambda,
    contraction_consistency,
    log_hessian_identity,
    mixed_ricci_condition,
    mixed_yamabe_condition,
    quasi_einstein_factor_structures,
    residual,
    residual_values,
    ricci_factor_structures,
    riemann_factor_structures,
    yamabe_factor_structures,
)
from dwpcheck.reporting import PASS, SKIP

TOL = 1e-8


def gaussian_potential(coords, scale):
    text = " + ".join(f"{scale}*{c}^2" for c in coords)
    return parse_expression(text, tuple(coords))


class TestDefiningEquations:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gaussian_ricci_soliton_on_flat_space(self, n):
        chart = flat_chart(tuple("xyzw"[:n]))
        lam = 0.8
        psi = gaussian_potential(chart.coords, lam / 2)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=lam)
        pts = seeded_points(chart, 10)
        summary = residual(spec, chart.at(pts), 1e-10)
        assert summary.status == PASS
        assert summary.max_abs_residual <= 1e-10

    def test_round_sphere_is_einstein(self):
        chart = sphere_chart()
        spec = SolitonSpec(kind="einstein")
        pts = seeded_points(chart, 8, box=(0.5, 2.5))
        summary = residual(spec, chart.at(pts), 1e-10)
        assert summary.status == PASS

    def test_yamabe_soliton_on_flat_space(self):
        chart = flat_chart(("x", "y"))
        lam = 0.6
        psi = gaussian_potential(chart.coords, -lam / 2)  # h = (0 - lam) g
        spec = SolitonSpec(kind="yamabe", psi=psi, lam=lam)
        summary = residual(spec, chart.at(seeded_points(chart, 8)), 1e-12)
        assert summary.status == PASS

    def test_conformal_soliton_on_flat_space(self):
        chart = flat_chart(("x", "y", "z"))
        gamma = 1.3
        psi = gaussian_potential(chart.coords, gamma / 2)
        spec = SolitonSpec(kind="conformal", psi=psi, gamma=gamma)
        summary = residual(spec, chart.at(seeded_points(chart, 8)), 1e-12)
        assert summary.status == PASS

    def test_eta_ricci_soliton_on_flat_space(self):
        chart = flat_chart(("x", "y"))
        lam, mu = 0.5, 0.3
        psi = parse_expression(
            f"{lam / 2}*(x^2 + y^2) + {mu / 2}*x^2", chart.coords
        )
        eta = tuple(
            parse_expression(e, chart.coords) for e in ("1", "0")
        )
        spec = SolitonSpec(kind="eta_ricci", psi=psi, lam=lam, mu=mu, eta=eta)
        summary = residual(spec, chart.at(seeded_points(chart, 8)), 1e-12)
        assert summary.status == PASS

    def test_f_almost_ricci_with_function_coefficients(self):
        chart = flat_chart(("x", "y"))
        psi = gaussian_potential(chart.coords, 0.5)  # h^psi = g
        f = parse_expression("1 + x^2", chart.coords)
        lam = parse_expression("1 + x^2", chart.coords)
        spec = SolitonSpec(kind="f_almost_ricci", psi=psi, lam=lam, f_factor=f)
        summary = residual(spec, chart.at(seeded_points(chart, 8)), 1e-12)
        assert summary.status == PASS
        assert "almost" in summary.notes

    @pytest.mark.parametrize("n", [3, 4])
    def test_riemann_soliton_on_flat_space(self, n):
        chart = flat_chart(tuple("xyzw"[:n]))
        lam = 0.9
        # h^psi = (lam/2) g makes h ^ g = lam G with R = 0
        psi = gaussian_potential(chart.coords, lam / 4)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=lam)
        pts = seeded_points(chart, 8)
        assert residual(spec, chart.at(pts), 1e-10).status == PASS
        assert residual(spec, chart.at(pts), 1e-10,
                        form="contracted").status == PASS

    def test_non_soliton_fails(self):
        chart = flat_chart(("x", "y"))
        psi = parse_expression("x^3", chart.coords)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=0.5)
        summary = residual(spec, chart.at(seeded_points(chart, 8)), TOL)
        assert summary.status == "fail"

    def test_contraction_identity_holds_for_arbitrary_potential(self):
        # algebraic identity: independent of soliton validity
        chart = sphere_chart()
        psi = parse_expression("u^2 + sin(v)", chart.coords)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=0.7)
        with pytest.raises(SolitonError):
            contraction_consistency(
                spec, chart.at(seeded_points(chart, 4, box=(0.5, 2.0))), TOL
            )  # dim 2 rejected
        chart3 = flat_chart(("x", "y", "z"))
        psi3 = parse_expression("x^2*y + tanh(z)", chart3.coords)
        spec3 = SolitonSpec(kind="riemann", psi=psi3, lam=-0.4)
        summary = contraction_consistency(
            spec3, chart3.at(seeded_points(chart3, 8)), TOL
        )
        assert summary.status == PASS


class TestClassification:
    def test_lambda_trichotomy(self):
        assert classify_lambda(0.5, TOL) == "shrinking"
        assert classify_lambda(-0.5, TOL) == "expanding"
        assert classify_lambda(0.0, TOL) == "steady"
        assert classify_lambda(1e-12, TOL) == "steady"
        lam = parse_expression("x", ("x",))
        assert "almost" in classify_lambda(lam, TOL)


class TestReductionLattice:
    """Degenerate-parameter variants reproduce base residuals bitwise."""

    def setup_method(self):
        self.chart = flat_chart(("x", "y"))
        self.psi = parse_expression("x^3 + x*y", self.chart.coords)
        self.pts = seeded_points(self.chart, 8)
        self.zero = tuple(
            parse_expression("0", self.chart.coords) for _ in range(2)
        )
        self.eta = tuple(
            parse_expression(e, self.chart.coords) for e in ("1", "x")
        )

    def test_eta_ricci_with_zero_mu_matches_ricci(self):
        base = SolitonSpec(kind="ricci", psi=self.psi, lam=0.7)
        variant = SolitonSpec(
            kind="eta_ricci", psi=self.psi, lam=0.7, mu=0.0, eta=self.eta
        )
        assert np.array_equal(
            residual_values(base, self.chart.at(self.pts)),
            residual_values(variant, self.chart.at(self.pts)),
        )

    def test_f_almost_ricci_with_unit_f_matches_ricci(self):
        base = SolitonSpec(kind="ricci", psi=self.psi, lam=0.7)
        variant = SolitonSpec(
            kind="f_almost_ricci", psi=self.psi, lam=0.7, f_factor=1.0
        )
        assert np.array_equal(
            residual_values(base, self.chart.at(self.pts)),
            residual_values(variant, self.chart.at(self.pts)),
        )

    def test_f_almost_eta_ricci_degenerates_both_ways(self):
        base = SolitonSpec(kind="ricci", psi=self.psi, lam=0.7)
        variant = SolitonSpec(
            kind="f_almost_eta_ricci",
            psi=self.psi,
            lam=0.7,
            mu=0.0,
            eta=self.eta,
            f_factor=1.0,
        )
        assert np.array_equal(
            residual_values(base, self.chart.at(self.pts)),
            residual_values(variant, self.chart.at(self.pts)),
        )

    def test_eta_yamabe_with_zero_mu_matches_yamabe(self):
        base = SolitonSpec(kind="yamabe", psi=self.psi, lam=0.7)
        variant = SolitonSpec(
            kind="eta_yamabe", psi=self.psi, lam=0.7, mu=0.0, eta=self.eta
        )
        assert np.array_equal(
            residual_values(base, self.chart.at(self.pts)),
            residual_values(variant, self.chart.at(self.pts)),
        )


class TestFactorStructures:
    def setup_method(self):
        self.dwp = direct_flat_product()
        self.pts = seeded_points(self.dwp.product, 8)
        self.anchor = np.zeros(self.dwp.m)

    def test_ricci_factor_structures_on_flat_gaussian(self):
        lam = 0.6
        psi = gaussian_potential(self.dwp.coords, lam / 2)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=lam)
        d = self.dwp.point_data(self.pts, self.anchor)
        out = ricci_factor_structures(
            self.dwp, spec, d, 1e-10, residual(spec, d.product, 1e-10))
        assert {s.check_id for s in out} == {
            "factors.ricci.product",
            "factors.ricci.factor1",
            "factors.ricci.factor2",
            "factors.ricci.mixed",
        }
        for s in out:
            assert s.status == PASS, s
            assert s.max_abs_residual <= 1e-10

    def test_yamabe_factor_structures_on_flat_gaussian(self):
        lam = 0.4
        psi = gaussian_potential(self.dwp.coords, -lam / 2)
        spec = SolitonSpec(kind="yamabe", psi=psi, lam=lam)
        d = self.dwp.point_data(self.pts, self.anchor)
        out = yamabe_factor_structures(
            self.dwp, spec, d, 1e-10, residual(spec, d.product, 1e-10))
        for s in out:
            assert s.status == PASS, s

    def test_riemann_factor_structures_on_flat_gaussian(self):
        lam = 0.5
        psi = gaussian_potential(self.dwp.coords, lam / 4)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=lam)
        d = self.dwp.point_data(self.pts, self.anchor)
        out = riemann_factor_structures(
            self.dwp, spec, d, 1e-10,
            residual(spec, d.product, 1e-10, form="contracted"))
        for s in out:
            assert s.status == PASS, s

    def test_gate_skips_factors_when_product_fails(self):
        psi = parse_expression("x^3", self.dwp.coords)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=0.5)
        d = self.dwp.point_data(self.pts, self.anchor)
        out = ricci_factor_structures(
            self.dwp, spec, d, TOL, residual(spec, d.product, TOL))
        assert all(s.status == SKIP for s in out)
        assert all("hypothesis fails" in s.notes for s in out)

    def test_mixed_conditions_vanish_on_direct_product(self):
        psi = gaussian_potential(self.dwp.coords, 0.3)
        for p in self.pts[:4]:
            d = self.dwp.point_data(p[None])
            yamabe = mixed_yamabe_condition(self.dwp, psi, d)[0]
            ricci = mixed_ricci_condition(self.dwp, psi, d)[0]
            assert np.abs(yamabe).max() < 1e-14
            assert np.abs(ricci).max() < 1e-14

    def test_quasi_einstein_cosh_construction(self):
        dwp, alpha, beta, eta = quasi_einstein_product()
        spec = SolitonSpec(
            kind="quasi_einstein", alpha=alpha, beta=beta, eta=eta
        )
        pts = seeded_points(dwp.product, 8)
        anchor = np.zeros(dwp.m)
        d = dwp.point_data(pts, anchor)
        gate = residual(spec, d.product, TOL)
        assert gate.status == PASS
        out = quasi_einstein_factor_structures(dwp, spec, d, TOL, gate)
        for s in out:
            assert s.status == PASS, s

    def test_quasi_einstein_rejects_vanishing_beta(self):
        dwp, alpha, _, eta = quasi_einstein_product()
        zero_beta = parse_expression("0", dwp.coords)
        spec = SolitonSpec(
            kind="quasi_einstein", alpha=alpha, beta=zero_beta, eta=eta
        )
        pts = seeded_points(dwp.product, 4)
        d = dwp.point_data(pts, np.zeros(dwp.m))
        out = quasi_einstein_factor_structures(
            dwp, spec, d, TOL, residual(spec, d.product, TOL))
        assert [s.check_id for s in out] == [
            f"factors.quasi_einstein.{sub}"
            for sub in ("product", "factor1", "factor2")]
        for s in out:
            assert s.status == SKIP
            assert "rerun with kind=einstein" in s.notes

    def test_riemann_factors_skip_in_low_dimension(self):
        f1c = flat_chart(("x",))
        f2c = flat_chart(("t",))
        from dwpcheck.dwp import DoublyWarpedProduct
        from dwpcheck.expr import constant

        dwp = DoublyWarpedProduct(
            f1c, f2c, constant(1.0, f1c.coords), constant(1.0, f2c.coords)
        )
        psi = parse_expression("x^2 + t^2", dwp.coords)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=0.5)
        pts = seeded_points(dwp.product, 4)
        d = dwp.point_data(pts, np.zeros(2))
        out = riemann_factor_structures(
            dwp, spec, d, TOL, residual(spec, d.product, TOL))
        assert all(s.status == SKIP for s in out)


class TestLogHessianIdentity:
    @pytest.mark.parametrize("text", ["exp(x)", "1 + x^2"])
    def test_identity_on_sample_warpings(self, text):
        chart = flat_chart(("x", "y"))
        f = parse_expression(text, chart.coords)
        summary = log_hessian_identity(
            chart.at(seeded_points(chart, 10)), f, 1e-10
        )
        assert summary.status == PASS
        assert summary.max_abs_residual <= 1e-10


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SolitonError):
            SolitonSpec(kind="bogus")

    def test_missing_required_field_rejected(self):
        # fields are named by their spec-file keys
        psi = parse_expression("x", ("x",))
        with pytest.raises(SolitonError, match="requires field 'lambda'$"):
            SolitonSpec(kind="ricci", psi=psi)
        with pytest.raises(SolitonError, match="requires field 'f'$"):
            SolitonSpec(kind="f_almost_ricci", psi=psi, lam=0.5)

    def test_eta_variants_require_eta(self):
        psi = parse_expression("x", ("x",))
        with pytest.raises(SolitonError, match="eta"):
            SolitonSpec(kind="eta_ricci", psi=psi, lam=0.1, mu=0.2)

    def test_fields_the_kind_does_not_read_rejected(self):
        psi = parse_expression("x", ("x",))
        with pytest.raises(SolitonError, match=r"'ricci' does not read "
                                               r"fields \['mu', 'eta'\]"):
            SolitonSpec(kind="ricci", psi=psi, lam=0.5, mu=0.3, eta=(psi,))
        with pytest.raises(SolitonError, match=r"\['psi'\]"):
            SolitonSpec(kind="einstein", psi=psi)
        with pytest.raises(SolitonError, match=r"'ricci' does not read "
                                               r"fields \['f'\]$"):
            SolitonSpec(kind="ricci", psi=psi, lam=0.5, f_factor=psi)
