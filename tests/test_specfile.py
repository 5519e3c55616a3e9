"""Spec-file parsing and validation."""

import re

import pytest

from dwpcheck.specfile import (
    SOLITON_TYPE_NAMES, SpecFileError, load_spec, parse_sections,
)

GOOD_SPEC = """
# a doubly warped plane-times-line example
[factor.1]
dim = 2
coords = ["x", "y"]
metric = [["1", "0"], ["0", "1"]]
warping = "exp(x)"

[factor.2]
dim = 1
coords = ["t"]
metric = [["1"]]
warping = "cosh(t)"

[potential]
psi = "x + t^2"

[soliton]
type = "gradient_ricci"
lambda = 0.5

[sampling]
points = 16
seed = 7
box = [-1.0, 1.0]
tolerance = 1e-8
"""


def write(tmp_path, text, name="case.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestHappyPath:
    def test_loads_product_solitons_and_sampling(self, tmp_path):
        dwp, solitons, sampling, default_psi = load_spec(
            write(tmp_path, GOOD_SPEC)
        )
        assert (dwp.m1, dwp.m2) == (2, 1)
        assert dwp.coords == ("x", "y", "t")
        assert len(solitons) == 1
        assert solitons[0].kind == "ricci"
        assert solitons[0].lam == 0.5
        assert solitons[0].psi is default_psi
        assert sampling == {
            "points": 16,
            "seed": 7,
            "box": [-1.0, 1.0],
            "tolerance": 1e-8,
        }

    def test_multiple_soliton_sections(self, tmp_path):
        text = GOOD_SPEC + '\n[soliton]\ntype = "yamabe"\nlambda = 0.1\n'
        _, solitons, _, _ = load_spec(write(tmp_path, text))
        assert [s.kind for s in solitons] == ["ricci", "yamabe"]

    def test_type_name_aliases(self, tmp_path):
        text = GOOD_SPEC.replace("gradient_ricci", "ricci")
        _, solitons, _, _ = load_spec(write(tmp_path, text))
        assert solitons[0].kind == "ricci"

    def test_type_names(self):
        # every kind, and gradient_<kind> for each kind with a potential
        assert SOLITON_TYPE_NAMES == {
            "yamabe": "yamabe",
            "gradient_yamabe": "yamabe",
            "conformal": "conformal",
            "gradient_conformal": "conformal",
            "ricci": "ricci",
            "gradient_ricci": "ricci",
            "riemann": "riemann",
            "gradient_riemann": "riemann",
            "eta_yamabe": "eta_yamabe",
            "gradient_eta_yamabe": "eta_yamabe",
            "eta_ricci": "eta_ricci",
            "gradient_eta_ricci": "eta_ricci",
            "f_almost_ricci": "f_almost_ricci",
            "gradient_f_almost_ricci": "f_almost_ricci",
            "f_almost_eta_ricci": "f_almost_eta_ricci",
            "gradient_f_almost_eta_ricci": "f_almost_eta_ricci",
            "einstein": "einstein",
            "quasi_einstein": "quasi_einstein",
        }

    def test_default_potential_allowed_for_a_kind_without_psi(
        self, tmp_path
    ):
        text = GOOD_SPEC.replace('type = "gradient_ricci"\nlambda = 0.5',
                                 'type = "einstein"')
        _, solitons, _, _ = load_spec(write(tmp_path, text))
        assert solitons[0].kind == "einstein"

    def test_default_warping_is_one(self, tmp_path):
        text = GOOD_SPEC.replace('warping = "exp(x)"\n', "")
        dwp, _, _, _ = load_spec(write(tmp_path, text))
        assert dwp.f1.evaluate([[0.3, -0.1]])[0] == 1.0

    def test_numeric_coefficients_stay_numbers(self, tmp_path):
        _, solitons, _, _ = load_spec(write(tmp_path, GOOD_SPEC))
        assert isinstance(solitons[0].lam, float)

    def test_expression_coefficients_become_expressions(self, tmp_path):
        text = GOOD_SPEC.replace('lambda = 0.5', 'lambda = "1 + x^2"')
        _, solitons, _, _ = load_spec(write(tmp_path, text))
        assert solitons[0].lam.evaluate([[1.0, 0.0, 0.0]])[0] == 2.0


class TestErrors:
    def test_missing_factor_section(self, tmp_path):
        text = GOOD_SPEC.replace("[factor.2]", "[sampling]").replace(
            'coords = ["t"]', ""
        )
        with pytest.raises(SpecFileError):
            load_spec(write(tmp_path, text))

    def test_unknown_section_reports_line(self):
        with pytest.raises(SpecFileError, match="line 2"):
            parse_sections("\n[bogus]\n")

    def test_value_parse_error_reports_line_and_key(self):
        with pytest.raises(SpecFileError, match="dim"):
            parse_sections("[factor.1]\ndim = not-a-literal\n")

    def test_key_before_section(self):
        with pytest.raises(SpecFileError, match="before any"):
            parse_sections("dim = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(SpecFileError, match="duplicate key"):
            parse_sections("[factor.1]\ndim = 2\ndim = 3\n")

    def test_dim_coords_mismatch(self, tmp_path):
        text = GOOD_SPEC.replace("dim = 2", "dim = 3", 1)
        with pytest.raises(SpecFileError, match="does not match"):
            load_spec(write(tmp_path, text))

    def test_metric_shape_mismatch(self, tmp_path):
        text = GOOD_SPEC.replace(
            'metric = [["1", "0"], ["0", "1"]]', 'metric = [["1", "0"]]'
        )
        with pytest.raises(SpecFileError, match="matrix"):
            load_spec(write(tmp_path, text))

    def test_bad_expression_in_metric(self, tmp_path):
        text = GOOD_SPEC.replace('"cosh(t)"', '"cosh(q)"')
        with pytest.raises(SpecFileError, match="q"):
            load_spec(write(tmp_path, text))

    def test_unknown_soliton_type(self, tmp_path):
        text = GOOD_SPEC.replace("gradient_ricci", "perelman")
        with pytest.raises(SpecFileError, match="unknown type"):
            load_spec(write(tmp_path, text))

    def test_missing_soliton_field(self, tmp_path):
        text = GOOD_SPEC.replace("lambda = 0.5\n", "")
        with pytest.raises(SpecFileError, match="lam"):
            load_spec(write(tmp_path, text))

    def test_eta_length_checked(self, tmp_path):
        text = GOOD_SPEC.replace(
            'type = "gradient_ricci"\nlambda = 0.5',
            'type = "eta_ricci"\nlambda = 0.5\nmu = 0.1\neta = ["1", "0"]',
        )
        with pytest.raises(SpecFileError, match="eta"):
            load_spec(write(tmp_path, text))

    @pytest.mark.parametrize("old, new, unread", [
        ('type = "gradient_ricci"\nlambda = 0.5',
         'type = "einstein"\npsi = "x"', ["psi"]),
        ("lambda = 0.5", "lambda = 0.5\ngamma = 1\nalpha = 2",
         ["alpha", "gamma"]),
    ])
    def test_keys_a_kind_does_not_read(self, tmp_path, old, new, unread):
        text = GOOD_SPEC.replace(old, new)
        with pytest.raises(SpecFileError, match=re.escape(
                f"does not read keys {unread}")):
            load_spec(write(tmp_path, text))

    def test_unknown_soliton_key(self, tmp_path):
        text = GOOD_SPEC.replace("lambda = 0.5", "lambda = 0.5\nlamda = 1")
        with pytest.raises(SpecFileError, match=r"unknown keys \['lamda'\]"):
            load_spec(write(tmp_path, text))

    def test_bad_sampling_points(self, tmp_path):
        text = GOOD_SPEC.replace("points = 16", "points = 0")
        with pytest.raises(SpecFileError, match="points"):
            load_spec(write(tmp_path, text))

    def test_unknown_sampling_key(self, tmp_path):
        text = GOOD_SPEC.replace("points = 16", "pionts = 16")
        with pytest.raises(SpecFileError, match="unknown keys"):
            load_spec(write(tmp_path, text))

    def test_missing_file(self):
        with pytest.raises(SpecFileError, match="cannot read"):
            load_spec("/no/such/file.spec")

    def test_shared_coordinates_rejected(self, tmp_path):
        text = GOOD_SPEC.replace('coords = ["t"]', 'coords = ["x"]').replace(
            "cosh(t)", "cosh(x)"
        ).replace('psi = "x + t^2"', 'psi = "x"')
        with pytest.raises(SpecFileError, match="disjoint"):
            load_spec(write(tmp_path, text))
