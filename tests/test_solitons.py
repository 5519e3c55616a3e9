"""Soliton defining equations, induced factor structures, and the
degenerate-parameter reduction lattice."""

import numpy as np
import pytest

from conftest import (
    CURVED_BOX,
    CURVED_PRODUCTS,
    direct_flat_product,
    flat_chart,
    quasi_einstein_product,
    seeded_points,
    sphere_chart,
)
from dwpcheck import solitons
from dwpcheck.checks import check_solitons
from dwpcheck.expr import constant, parse_expression
from dwpcheck.solitons import (
    SolitonError,
    SolitonSpec,
    classify_lambda,
    contracted_terms,
    contraction_consistency,
    equation_terms,
    log_hessian_identity,
    mixed_ricci_condition,
    mixed_yamabe_condition,
    named_fields,
    quasi_einstein_factor_equation,
    quasi_einstein_factor_structures,
    residual,
    residual_values,
    ricci_factor_equation,
    ricci_factor_structures,
    riemann_factor_equation,
    riemann_factor_structures,
    yamabe_factor_equation,
    yamabe_factor_structures,
)
from dwpcheck.reporting import PASS, SKIP, difference, normalized_residual

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
        c = chart.at(seeded_points(chart, 10))
        summary = residual(spec, equation_terms(spec, c), c, 1e-10,
                           "soliton.ricci")
        assert summary.status == PASS
        assert summary.max_abs_residual <= 1e-10

    def test_round_sphere_is_einstein(self):
        chart = sphere_chart()
        spec = SolitonSpec(kind="einstein")
        c = chart.at(seeded_points(chart, 8, box=(0.5, 2.5)))
        summary = residual(spec, equation_terms(spec, c), c, 1e-10,
                           "soliton.einstein")
        assert summary.status == PASS

    def test_yamabe_soliton_on_flat_space(self):
        chart = flat_chart(("x", "y"))
        lam = 0.6
        psi = gaussian_potential(chart.coords, -lam / 2)  # h = (0 - lam) g
        spec = SolitonSpec(kind="yamabe", psi=psi, lam=lam)
        c = chart.at(seeded_points(chart, 8))
        summary = residual(spec, equation_terms(spec, c), c, 1e-12,
                           "soliton.yamabe")
        assert summary.status == PASS

    def test_conformal_soliton_on_flat_space(self):
        chart = flat_chart(("x", "y", "z"))
        gamma = 1.3
        psi = gaussian_potential(chart.coords, gamma / 2)
        spec = SolitonSpec(kind="conformal", psi=psi, gamma=gamma)
        c = chart.at(seeded_points(chart, 8))
        summary = residual(spec, equation_terms(spec, c), c, 1e-12,
                           "soliton.conformal")
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
        c = chart.at(seeded_points(chart, 8))
        summary = residual(spec, equation_terms(spec, c), c, 1e-12,
                           "soliton.eta_ricci")
        assert summary.status == PASS

    def test_f_almost_ricci_with_function_coefficients(self):
        chart = flat_chart(("x", "y"))
        psi = gaussian_potential(chart.coords, 0.5)  # h^psi = g
        f = parse_expression("1 + x^2", chart.coords)
        lam = parse_expression("1 + x^2", chart.coords)
        spec = SolitonSpec(kind="f_almost_ricci", psi=psi, lam=lam, f_factor=f)
        c = chart.at(seeded_points(chart, 8))
        summary = residual(spec, equation_terms(spec, c), c, 1e-12,
                           "soliton.f_almost_ricci")
        assert summary.status == PASS
        assert "almost" in summary.notes

    @pytest.mark.parametrize("n", [3, 4])
    def test_riemann_soliton_on_flat_space(self, n):
        chart = flat_chart(tuple("xyzw"[:n]))
        lam = 0.9
        # h^psi = (lam/2) g makes h ^ g = lam G with R = 0
        psi = gaussian_potential(chart.coords, lam / 4)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=lam)
        c = chart.at(seeded_points(chart, 8))
        assert residual(spec, equation_terms(spec, c), c, 1e-10,
                        "soliton.riemann").status == PASS
        assert residual(spec, contracted_terms(spec, c), c, 1e-10,
                        "soliton.riemann.contracted").status == PASS

    def test_non_soliton_fails(self):
        chart = flat_chart(("x", "y"))
        psi = parse_expression("x^3", chart.coords)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=0.5)
        c = chart.at(seeded_points(chart, 8))
        summary = residual(spec, equation_terms(spec, c), c, TOL,
                           "soliton.ricci")
        assert summary.status == "fail"

    def test_contraction_identity_holds_for_arbitrary_potential(self):
        # algebraic identity: independent of soliton validity
        chart = sphere_chart()
        psi = parse_expression("u^2 + sin(v)", chart.coords)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=0.7)
        c = chart.at(seeded_points(chart, 4, box=(0.5, 2.0)))
        with pytest.raises(SolitonError):
            contraction_consistency(
                equation_terms(spec, c), contracted_terms(spec, c), c, TOL,
                "soliton.riemann.contraction"
            )  # dim 2 rejected
        chart3 = flat_chart(("x", "y", "z"))
        psi3 = parse_expression("x^2*y + tanh(z)", chart3.coords)
        spec3 = SolitonSpec(kind="riemann", psi=psi3, lam=-0.4)
        c3 = chart3.at(seeded_points(chart3, 8))
        summary = contraction_consistency(
            equation_terms(spec3, c3), contracted_terms(spec3, c3), c3, TOL,
            "soliton.riemann.contraction"
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
            spec, d,
            residual(spec, equation_terms(spec, d.product), d, 1e-10,
                     "factors.ricci.product"))
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
            spec, d,
            residual(spec, equation_terms(spec, d.product), d, 1e-10,
                     "factors.yamabe.product"))
        for s in out:
            assert s.status == PASS, s

    def test_riemann_factor_structures_on_flat_gaussian(self):
        lam = 0.5
        psi = gaussian_potential(self.dwp.coords, lam / 4)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=lam)
        d = self.dwp.point_data(self.pts, self.anchor)
        out = riemann_factor_structures(
            spec, d,
            residual(spec, contracted_terms(spec, d.product), d, 1e-10,
                     "factors.riemann.product"))
        for s in out:
            assert s.status == PASS, s

    def test_gate_skips_factors_when_product_fails(self):
        psi = parse_expression("x^3", self.dwp.coords)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=0.5)
        d = self.dwp.point_data(self.pts, self.anchor)
        out = ricci_factor_structures(
            spec, d,
            residual(spec, equation_terms(spec, d.product), d, TOL,
                     "factors.ricci.product"))
        assert all(s.status == SKIP for s in out)
        assert all("hypothesis fails" in s.notes for s in out)

    def test_mixed_conditions_vanish_on_direct_product(self):
        psi = gaussian_potential(self.dwp.coords, 0.3)
        for p in self.pts[:4]:
            d = self.dwp.point_data(p[None])
            yamabe = mixed_yamabe_condition(psi, d)[0]
            ricci = mixed_ricci_condition(psi, d)[0]
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
        gate = residual(spec, equation_terms(spec, d.product), d, TOL,
                        "factors.quasi_einstein.product")
        assert gate.status == PASS
        out = quasi_einstein_factor_structures(spec, d, gate)
        for s in out:
            assert s.status == PASS, s

    def test_quasi_einstein_builds_the_unit_form_once_per_record(
            self, monkeypatch):
        """A gate-passing quasi-Einstein spec builds its unit 1-form once on
        the samples' record and once on each anchored set's: the skip test
        and the factor equation of a set read one build."""
        dwp, alpha, beta, eta = quasi_einstein_product()
        spec = SolitonSpec(
            kind="quasi_einstein", alpha=alpha, beta=beta, eta=eta
        )
        d = dwp.point_data(seeded_points(dwp.product, 8), np.zeros(dwp.m))
        records = []
        unit_eta_at = solitons._unit_eta_at

        def counting(spec, c):
            records.append(c)
            return unit_eta_at(spec, c)

        monkeypatch.setattr(solitons, "_unit_eta_at", counting)
        out = check_solitons([spec], d, TOL)
        assert [s.status for s in out] == [PASS] * len(out)
        assert records == [d.product, d.anchored_product(1),
                           d.anchored_product(2)]

    def test_quasi_einstein_rejects_vanishing_beta(self):
        dwp, alpha, _, eta = quasi_einstein_product()
        zero_beta = parse_expression("0", dwp.coords)
        spec = SolitonSpec(
            kind="quasi_einstein", alpha=alpha, beta=zero_beta, eta=eta
        )
        pts = seeded_points(dwp.product, 4)
        d = dwp.point_data(pts, np.zeros(dwp.m))
        out = quasi_einstein_factor_structures(
            spec, d,
            residual(spec, equation_terms(spec, d.product), d, TOL,
                     "factors.quasi_einstein.product"))
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
            spec, d,
            residual(spec, equation_terms(spec, d.product), d, TOL,
                     "factors.riemann.product"))
        assert all(s.status == SKIP for s in out)


class TestTransferIdentities:
    """Each factor equation is the same-factor block of its product
    equation, rewritten by the splitting formulas: for ANY potential and
    lambda (for kind quasi_einstein: ANY alpha, beta and 1-form that
    vanishes nowhere), its difference on an anchored restriction set equals
    that block of the product equation's difference there, by the
    oracle."""

    @pytest.mark.parametrize("make", CURVED_PRODUCTS,
                             ids=lambda make: make.__name__)
    @pytest.mark.parametrize("kind, equation, product_terms", [
        ("yamabe", yamabe_factor_equation, equation_terms),
        ("ricci", ricci_factor_equation, equation_terms),
        ("riemann", riemann_factor_equation, contracted_terms),
        ("quasi_einstein", quasi_einstein_factor_equation, equation_terms),
    ], ids=["yamabe", "ricci", "riemann", "quasi_einstein"])
    def test_factor_difference_is_the_product_block(self, make, kind,
                                                     equation, product_terms):
        dwp = make()
        t, a, *_, b = dwp.coords
        # a non-soliton potential and a function lambda
        psi = parse_expression(f"{t}*{a} + sin({b})*{t} + {a}^3", dwp.coords)
        lam = parse_expression(f"0.3 + {b}*{t}", dwp.coords)
        if kind == "quasi_einstein":
            # lambda as alpha, a function beta, and a 1-form whose first
            # component, 2 + sin(b), vanishes nowhere
            eta = tuple(parse_expression(text, dwp.coords) for text in (
                f"2 + sin({b})", *(f"{c}*{t} - {a}" for c in dwp.coords[1:])))
            spec = SolitonSpec(kind=kind, alpha=lam, eta=eta,
                               beta=parse_expression(f"1.5 - {a}*{b}",
                                                     dwp.coords))
        else:
            spec = SolitonSpec(kind=kind, psi=psi, lam=lam)
        pts = seeded_points(dwp.product, 16, box=CURVED_BOX)
        d = dwp.point_data(pts, pts[0])
        for which in (1, 2):
            r = d.restriction(which)
            s = r.side(which)
            lifted = () if spec.psi is None else (psi,)
            lhs, rhs, _ = equation(spec, r, s, *lifted)
            mine = difference(lhs, rhs)
            block = difference(*product_terms(
                spec, dwp.product.at(r.p)))[:, s.own, s.own]
            assert np.abs(block).max() > 1.0
            assert normalized_residual(mine - block,
                                       [mine, block]).max() <= 1e-11


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

    def test_named_fields_list_each_expression_once_in_key_order(self):
        coords = ("x", "y")
        psi = parse_expression("x", coords)
        lam = parse_expression("1 + y", coords)
        eta = (constant(1.0, coords), parse_expression("y", coords))
        specs = [
            # the default potential again, and an equal copy of it
            SolitonSpec(kind="eta_ricci", psi=psi, lam=lam, mu=0.5, eta=eta),
            SolitonSpec(kind="ricci", psi=parse_expression("x", coords),
                        lam=0.5),
            SolitonSpec(kind="quasi_einstein", alpha=lam, beta=1.0, eta=eta),
        ]
        assert [(name, str(e)) for name, e in named_fields(specs, psi)] == [
            ("[potential] psi", "x"), ("soliton[0] lambda", "1 + y"),
            ("soliton[0] eta[0]", "1"), ("soliton[0] eta[1]", "y"),
            ("soliton[1] psi", "x")]
        assert named_fields([], None) == []
