"""Spec-file parsing and validation."""

import ast
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwpcheck
from dwpcheck.cli import main
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
    def test_loading_a_spec_imports_no_argparse(self, tmp_path):
        # set-up (importing the package and loading a spec) leaves the
        # argument parser to the command line
        path = write(tmp_path, GOOD_SPEC)
        code = ("import sys; from dwpcheck.specfile import load_spec; "
                f"load_spec({path!r}); print('argparse' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(dwpcheck.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

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
         ["gamma", "alpha"]),
    ])
    def test_keys_a_kind_does_not_read(self, tmp_path, old, new, unread):
        text = GOOD_SPEC.replace(old, new)
        with pytest.raises(SpecFileError, match=re.escape(
                f"does not read fields {unread}")):
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
        with pytest.raises(SpecFileError) as raised:
            load_spec(write(tmp_path, text))
        assert str(raised.value) == (
            "[factor.2] coords: 'x' is a coordinate of [factor.1]")


def soliton_line(text):
    """The line number of the first [soliton] header of a spec text."""
    return text.splitlines().index("[soliton]") + 1


class TestRejectedValues:
    """Wrong-typed and non-finite values exit 2 through the CLI, with a
    message naming the section and the key."""

    @pytest.mark.parametrize("old, new, message", [
        ('type = "gradient_ricci"', "type = [1]",
         "[soliton] (line {line}): type must be a type name string, "
         "got [1]"),
        ('metric = [["1", "0"], ["0", "1"]]', "metric = [1, 2]",
         "[factor.1] metric must be a 2x2 matrix of expressions"),
        ('metric = [["1"]]', "metric = [1]",
         "[factor.2] metric must be a 1x1 matrix of expressions"),
    ], ids=["soliton-type", "metric-rows", "metric-row-1x1"])
    def test_wrong_types_exit_2(self, tmp_path, capsys, old, new, message):
        text = GOOD_SPEC.replace(old, new)
        assert main(["verify", write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err == "error: " + message.format(
            line=soliton_line(text)) + "\n"

    @pytest.mark.parametrize("old, new, key, value", [
        ("lambda = 0.5", "lambda = 1e400", "lambda", "inf"),
        ("lambda = 0.5", "lambda = -1e400", "lambda", "-inf"),
        ("lambda = 0.5", "lambda = 1" + "0" * 400, "lambda", "1" + "0" * 400),
        ('type = "gradient_ricci"\nlambda = 0.5',
         'type = "conformal"\ngamma = 1e400', "gamma", "inf"),
        ('type = "gradient_ricci"\nlambda = 0.5',
         'type = "quasi_einstein"\nalpha = 1e400\nbeta = 1\n'
         'eta = ["1", "0", "0"]', "alpha", "inf"),
        ('type = "gradient_ricci"\nlambda = 0.5',
         'type = "quasi_einstein"\nalpha = 1\nbeta = -1e400\n'
         'eta = ["1", "0", "0"]', "beta", "-inf"),
        ('type = "gradient_ricci"\nlambda = 0.5',
         'type = "quasi_einstein"\nalpha = 1\nbeta = 1\n'
         'eta = ["1", 1e400, "0"]', "eta[1]", "inf"),
        ("lambda = 0.5", "lambda = 0.5\npsi = 1e400", "psi", "inf"),
    ], ids=["lambda", "lambda-negative", "lambda-integer", "gamma", "alpha",
            "beta", "eta", "soliton-psi"])
    def test_non_finite_soliton_values_exit_2(self, tmp_path, capsys, old,
                                              new, key, value):
        text = GOOD_SPEC.replace(old, new)
        assert main(["verify", write(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            f"error: [soliton] (line {soliton_line(text)}): {key} must be "
            f"finite, got {value}\n")

    def test_non_finite_potential_exits_2(self, tmp_path, capsys):
        text = GOOD_SPEC.replace('psi = "x + t^2"', "psi = 1e400")
        line = text.splitlines().index("[potential]") + 1
        assert main(["verify", write(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            f"error: [potential] (line {line}): psi must be finite, got "
            "inf\n")

    def test_finite_numbers_are_kept(self, tmp_path):
        text = GOOD_SPEC.replace('psi = "x + t^2"', "psi = 1e300").replace(
            "lambda = 0.5", "lambda = -1e300")
        _, solitons, _, default_psi = load_spec(write(tmp_path, text))
        assert solitons[0].lam == -1e300
        assert default_psi.evaluate([[0.0, 0.0, 0.0]])[0] == 1e300

    @pytest.mark.parametrize("old, new, message", [
        ('metric = [["1", "0"], ["0", "1"]]',
         'metric = [[True, "0"], ["0", "1"]]',
         "[factor.1]: expected a number or an expression string, got True"),
        ('warping = "exp(x)"', "warping = True",
         "[factor.1]: expected a number or an expression string, got True"),
        ("lambda = 0.5", "lambda = True",
         "[soliton]: expected a number or an expression string, got True"),
        ('psi = "x + t^2"', "psi = False",
         "[potential]: expected a number or an expression string, got "
         "False"),
        ('metric = [["1"]]', "metric = [[1e400]]",
         "[factor.2] (line {factor2}): metric[0][0] must be finite, got "
         "inf"),
        ('warping = "cosh(t)"', "warping = -1e400",
         "[factor.2] (line {factor2}): warping must be finite, got -inf"),
        ('psi = "x + t^2"', 'psi = "1e400"',
         "[potential]: number 1e400 is not finite as a float (at position "
         "0)"),
        ("lambda = 0.5", 'lambda = "1e400"',
         "[soliton]: number 1e400 is not finite as a float (at position 0)"),
        ('warping = "exp(x)"', 'warping = "exp(x + 1e999)"',
         "[factor.1]: number 1e999 is not finite as a float (at position "
         "8)"),
        ("dim = 1", "dim = True",
         "[factor.2] dim must be an integer >= 1, got True"),
        ('dim = 1\ncoords = ["t"]\nmetric = [["1"]]\nwarping = "cosh(t)"',
         "dim = 0\ncoords = []\nmetric = []",
         "[factor.2] dim must be an integer >= 1, got 0"),
    ], ids=["metric-bool", "warping-bool", "lambda-bool", "psi-bool",
            "metric-inf", "warping-inf", "psi-literal", "lambda-literal",
            "warping-literal", "dim-bool", "dim-zero"])
    def test_bools_and_non_finite_numbers_exit_2(self, tmp_path, capsys,
                                                  old, new, message):
        text = GOOD_SPEC.replace(old, new)
        assert text != GOOD_SPEC
        assert main(["verify", write(tmp_path, text)]) == 2
        factor2 = text.splitlines().index("[factor.2]") + 1
        assert capsys.readouterr().err == "error: " + message.format(
            factor2=factor2) + "\n"

    @pytest.mark.parametrize("coords, renamed, message", [
        # e and pi are read as constants before the coordinates
        ('["e", "y"]', {"x": "e"}, "'e' is a constant of the expressions"),
        ('["x", "pi"]', {"y": "pi"},
         "'pi' is a constant of the expressions"),
        ('["x", "x"]', {}, "'x' is listed twice"),
        ('["x", "y z"]', {}, "'y z' is not an identifier"),
        ('["x", "2y"]', {}, "'2y' is not an identifier"),
        ('["x", ""]', {}, "'' is not an identifier"),
    ], ids=["e", "pi", "duplicate", "space", "digit-first", "empty"])
    def test_coordinate_names_the_expressions_cannot_read_exit_2(
            self, tmp_path, capsys, coords, renamed, message):
        text = GOOD_SPEC.replace('coords = ["x", "y"]', f"coords = {coords}")
        for old, new in renamed.items():
            text = re.sub(rf"\b{old}\b", new, text)
        assert main(["verify", write(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            f"error: [factor.1] coords: {message}\n")


# Sweep fixtures: between them, one of each section kind and every key a
# section reads
SWEEP_SPECS = {
    "ricci": GOOD_SPEC.replace("tolerance = 1e-8",
                               "tolerance = 1e-8\nanchor = [0, 0, 0]"),
    "eta-and-quasi-einstein": GOOD_SPEC.replace(
        'type = "gradient_ricci"\nlambda = 0.5',
        'type = "f_almost_eta_ricci"\nlambda = 0.5\nmu = 0.1\n'
        'eta = ["1", "0", "0"]\nf = "1 + 0.1*x"\n\n'
        '[soliton]\ntype = "quasi_einstein"\nalpha = 1\nbeta = 1\n'
        'eta = ["1", "0", "0"]\n\n'
        '[soliton]\ntype = "conformal"\ngamma = "0.2*t"'),
}

# values that no key reads: each must exit 2
MALFORMED = ("True", "False", '""', '"nan"', "1e400", "-1e400", '"1e400"',
             '"1e300*1e300"', "[1]", "[]", '[["1"], 1]')
# values that some key reads (an integer too large for a float is a seed):
# any exit status but a traceback
ODD = ("-1", "0", "0.0", "-0.5", "1" + "0" * 400, "[[1]]", '["x"]', '"-1"')

_SECTION = re.compile(r"\[(factor\.[12]|potential|soliton|sampling)\]")
# an error found at the sample points rather than by the reader names the
# point (a warping that is not positive, or an overflow, say)
_AT_POINTS = re.compile(r" at \[")


def sweep_cases():
    """(fixture, line, value, text, must exit 2) of each value put into
    each `key = value` line of each sweep fixture; each coords line also
    gets its names renamed to e and pi throughout, and a duplicate name."""
    for fixture, spec in SWEEP_SPECS.items():
        lines = spec.splitlines()
        for i, line in enumerate(lines):
            key, sep, value = line.partition(" = ")
            if not sep:
                continue
            for new, malformed in [(v, True) for v in MALFORMED] + [
                    (v, False) for v in ODD]:
                edited = lines[:i] + [f"{key} = {new}"] + lines[i + 1:]
                yield fixture, line, new, "\n".join(edited) + "\n", malformed
            if key == "coords":
                names = ast.literal_eval(value)
                for name in names:
                    for constant in ("e", "pi"):
                        yield (fixture, line, f"{name} -> {constant}",
                               re.sub(rf"\b{name}\b", constant, spec), True)
                twice = str(names[:1] * 2).replace("'", '"')
                yield (fixture, line, twice, spec.replace(
                    line, f"coords = {twice}"), len(names) > 1)


def verify_fault(path, text, malformed=False):
    """What is wrong with a `verify` run of the spec text, written to path,
    at 8 points, or None: a traceback, an exit status other than 0, 1 or 2,
    a RuntimeWarning, exit 0 or 1 on a `malformed` text, or an exit-2
    message that names no section and no point."""
    path.write_text(text)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(["verify", str(path), "--points", "8"])
        except Exception as exc:  # a traceback: reported as a fault
            code = f"{type(exc).__name__}: {exc}"
    message = err.getvalue()
    if code not in (0, 1, 2):
        return f"raised {code}"
    if [w for w in caught if issubclass(w.category, RuntimeWarning)]:
        return f"exit {code} with a RuntimeWarning"
    if malformed and code != 2:
        return f"accepted with exit {code}"
    if code == 2 and not (_SECTION.search(message)
                          or _AT_POINTS.search(message)):
        return f"exit 2 naming no section: {message.strip()}"
    return None


def test_spec_reader_sweep(tmp_path):
    """Wrong-typed and out-of-range values in every `key = value` line:
    every run exits 0, 1 or 2 without raising and without a RuntimeWarning;
    a value that no key reads exits 2; and every exit-2 message names a
    section, or the point at which the sampled product is rejected."""
    path = tmp_path / "sweep.spec"
    faults = []
    for fixture, line, value, text, malformed in sweep_cases():
        fault = verify_fault(path, text, malformed)
        if fault is not None:
            faults.append(f"{fixture}: {line!r} -> {value}: {fault}")
    assert not faults, "\n".join(faults)


# A small spec grammar: sections of the five kinds, each with its keys, and
# Python-literal values (scalars, lists and matrices of them).  A drawn spec
# is one that verifies (GRAMMAR_BASE) with one key set to a drawn value or
# dropped, and possibly a section dropped or repeated.
GRAMMAR_BASE = (
    ("factor.1", {"dim": 2, "coords": ["x", "y"],
                  "metric": [["1", "0"], ["0", "1"]], "warping": "exp(x)"}),
    ("factor.2", {"dim": 1, "coords": ["t"], "metric": [["1"]],
                  "warping": "cosh(t)"}),
    ("potential", {"psi": "x + t^2"}),
    ("soliton", {"type": "gradient_ricci", "lambda": 0.5}),
    ("sampling", {"points": 8, "seed": 7, "box": [-1.0, 1.0],
                  "tolerance": 1e-8}),
)
# the keys a section of each kind may carry, and one that none reads
GRAMMAR_KEYS = {
    "factor.1": ("dim", "coords", "metric", "warping"),
    "factor.2": ("dim", "coords", "metric", "warping"),
    "potential": ("psi",),
    "soliton": ("type", "psi", "lambda", "mu", "gamma", "f", "alpha",
                "beta", "eta"),
    "sampling": ("points", "seed", "box", "tolerance", "anchor"),
}
_SLOTS = [(i, key) for i, (kind, _) in enumerate(GRAMMAR_BASE)
          for key in GRAMMAR_KEYS[kind] + ("bogus",)]
_STRINGS = ("", "x", "y", "t", "e", "nan", "1e400", "1e300*1e300", "0",
            "-1", "1 + 0.1*x", "exp(x)", "log(t)", "1/x", "x + t^2",
            "gradient_ricci", "quasi_einstein", "einstein", "yamabe")
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.just(10**400),
    st.floats(allow_nan=False), st.sampled_from(_STRINGS))
# a matrix's rows are lists, or scalars where a row is malformed
_values = st.one_of(
    _scalars, st.lists(_scalars, max_size=3),
    st.lists(st.one_of(st.lists(_scalars, max_size=3), _scalars),
             min_size=1, max_size=3))
_DROP = "drop"  # a key edit that removes the key
_key_edits = st.tuples(st.sampled_from(_SLOTS),
                       st.one_of(_values, st.just(_DROP)))
_section_edits = st.one_of(st.none(), st.tuples(
    st.integers(0, len(GRAMMAR_BASE) - 1),
    st.sampled_from(("drop", "repeat"))))


def _literal(value):
    """A value as a spec-file literal (an infinite float as 1e400)."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return "[" + ", ".join(map(_literal, value)) + "]"
    if isinstance(value, float) and math.isinf(value):
        return "1e400" if value > 0 else "-1e400"
    return repr(value)


def grammar_spec(key_edit, section_edit):
    """The text of GRAMMAR_BASE with the edits made."""
    (i, key), value = key_edit
    tables = [dict(table) for _, table in GRAMMAR_BASE]
    tables[i].pop(key, None)
    if value != _DROP:
        tables[i][key] = value
    counts = [1] * len(tables)
    if section_edit is not None:
        j, action = section_edit
        counts[j] = 0 if action == "drop" else 2
    lines = []
    for (kind, _), table, count in zip(GRAMMAR_BASE, tables, counts):
        for _ in range(count):
            lines.append(f"[{kind}]")
            lines.extend(f"{k} = {_literal(v)}" for k, v in table.items())
            lines.append("")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key_edit=_key_edits, section_edit=_section_edits)
def test_spec_grammar_property(tmp_path_factory, key_edit, section_edit):
    """Specs drawn from a small grammar: every run exits 0, 1 or 2 without
    raising and without a RuntimeWarning, and every exit-2 message names a
    section, or the point at which the sampled product is rejected."""
    path = tmp_path_factory.getbasetemp() / "grammar.spec"
    text = grammar_spec(key_edit, section_edit)
    fault = verify_fault(path, text)
    assert fault is None, f"{fault}\n{text}"
