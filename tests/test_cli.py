"""CLI contract: config resolution, report rendering, determinism, and the
0/1/2 exit-status convention."""

import json

import pytest

from conftest import warped_line_spec
from dwpcheck.cli import main
from dwpcheck.reporting import render_json

PASSING_SPEC = """
[factor.1]
dim = 2
coords = ["x", "y"]
metric = [["1", "0"], ["0", "1"]]

[factor.2]
dim = 2
coords = ["s", "t"]
metric = [["1", "0"], ["0", "1"]]

[potential]
psi = "0.3*(x^2 + y^2 + s^2 + t^2)"

[soliton]
type = "gradient_ricci"
lambda = 0.6

[sampling]
points = 6
seed = 42
box = [-1.0, 1.0]
tolerance = 1e-8
"""

# the box rule at m = 4
BOX_RULE = ("[lo, hi] or a list of 1 or 4 [lo, hi] pairs, each with lo < hi "
            "and hi - lo finite")

FAILING_SPEC = PASSING_SPEC.replace("lambda = 0.6", "lambda = 0.25")

MALFORMED_SPEC = "[factor.1]\ndim = 2\n"

QUASI_EINSTEIN_ZERO_BETA_SPEC = """
[factor.1]
dim = 1
coords = ["t"]
metric = [["1"]]
warping = "cosh(t)"

[factor.2]
dim = 2
coords = ["u", "v"]
metric = [["1", "0"], ["0", "1"]]

[soliton]
type = "quasi_einstein"
alpha = "-1 - tanh(t)^2"
beta = 0.0
eta = ["1", "0", "0"]

[sampling]
points = 6
seed = 3
box = [-1.0, 1.0]
tolerance = 1e-8
"""

# R x_f R^2 with log f = -t^4/12: Ric = alpha g + t^2 dt (x) dt, so the
# product is quasi-Einstein with A = t dt, which vanishes at t = 0, on the
# fibre's anchored restriction set (the box's centre anchor) but at no sample
QUASI_EINSTEIN_ANCHOR_ZERO_SPEC = """
[factor.1]
dim = 1
coords = ["t"]
metric = [["1"]]
warping = "exp(-t^4/12)"

[factor.2]
dim = 2
coords = ["u", "v"]
metric = [["1", "0"], ["0", "1"]]

[soliton]
type = "quasi_einstein"
alpha = "t^2 - 2*t^6/9"
beta = 1.0
eta = ["t", "0", "0"]

[sampling]
points = 6
seed = 3
box = [-1.0, 1.0]
tolerance = 1e-8
"""

H3_LINE_FIRST_SPEC = warped_line_spec("hyperbolic-flat", line_first=True)

H3_PLANE_FIRST_SPEC = warped_line_spec("hyperbolic-flat", line_first=False)

H3_COSH_LINE_FIRST_SPEC = warped_line_spec("hyperbolic-hyperbolic",
                                           line_first=True)

H3_COSH_FIBRE_FIRST_SPEC = warped_line_spec("hyperbolic-hyperbolic",
                                            line_first=False)

S3_LINE_FIRST_SPEC = warped_line_spec("sphere-sphere", line_first=True)

S3_FIBRE_FIRST_SPEC = warped_line_spec("sphere-sphere", line_first=False)


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitStatuses:
    def test_pass_case_exits_zero(self, tmp_path, capsys):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        assert main(["verify", spec]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_fail_case_exits_one(self, tmp_path, capsys):
        spec = write(tmp_path, FAILING_SPEC, "fail.spec")
        assert main(["verify", spec]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, MALFORMED_SPEC, "bad.spec")
        assert main(["verify", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["verify", "/no/such/file.spec"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_warping_region_exits_two(self, tmp_path, capsys):
        text = PASSING_SPEC.replace(
            'metric = [["1", "0"], ["0", "1"]]\n\n[factor.2]',
            'metric = [["1", "0"], ["0", "1"]]\nwarping = "x"\n\n[factor.2]',
        )
        spec = write(tmp_path, text, "neg.spec")
        assert main(["verify", spec]) == 2
        assert "nonpositive" in capsys.readouterr().err

    def test_nonsymmetric_metric_exits_two(self, tmp_path, capsys):
        text = PASSING_SPEC.replace(
            'metric = [["1", "0"], ["0", "1"]]',
            'metric = [["1", "0.5"], ["0", "1"]]', 1,
        )
        spec = write(tmp_path, text, "asym.spec")
        assert main(["verify", spec]) == 2
        err = capsys.readouterr().err
        assert "[factor.1] metric is not symmetric" in err
        assert "entry [0][1] = '0.5'" in err

    @pytest.mark.parametrize("old, new, args, field", [
        ('psi = "0.3*(x^2 + y^2 + s^2 + t^2)"', 'psi = "log(x)"', [],
         "[potential] psi"),
        ("lambda = 0.6", 'lambda = "sqrt(s)"', [], "soliton[0] lambda"),
        # positive on the samples, not on the anchored restriction sets
        ('psi = "0.3*(x^2 + y^2 + s^2 + t^2)"', 'psi = "log(s)"',
         ["--box=-1,1;-1,1;0.1,1;-1,1", "--anchor=0,0,-0.5,0"],
         "[potential] psi"),
    ])
    def test_field_leaving_its_domain_exits_two(
        self, tmp_path, capsys, old, new, args, field
    ):
        spec = write(tmp_path, PASSING_SPEC.replace(old, new), "domain.spec")
        assert main(["verify", spec] + args) == 2
        err = capsys.readouterr().err
        assert f"error: {field} = " in err
        assert "leaves its domain at [" in err

    @pytest.mark.parametrize("text, message", [
        # psi fails at the fourth sample, lambda at the second one
        (PASSING_SPEC.replace(
            'psi = "0.3*(x^2 + y^2 + s^2 + t^2)"\n\n[soliton]\n'
            'type = "gradient_ricci"\nlambda = 0.6',
            'psi = "sqrt(t + 0.5)"\n\n[soliton]\n'
            'type = "gradient_ricci"\nlambda = "log(x + 0.8)"', 1),
         "soliton[0] lambda = 'log(x + 0.8)' leaves its domain at "
         "[-0.8116453042247009, 0.9512447032735118, 0.5222794039807059, "
         "0.5721286105539076]: log of nonpositive value in 'log(x + 0.8)'"),
        # psi fails at sample row 10, lambda at row 0
        ("[factor.1]\ndim = 1\ncoords = [\"x\"]\nmetric = [[\"1\"]]\n\n"
         "[factor.2]\ndim = 1\ncoords = [\"t\"]\nmetric = [[\"1\"]]\n"
         "warping = \"exp(t)\"\n\n[potential]\npsi = \"sqrt(x + 0.9)\"\n\n"
         "[soliton]\ntype = \"gradient_ricci\"\nlambda = \"log(t + 0.5)\"\n\n"
         "[sampling]\npoints = 16\nseed = 3\nbox = [-1.0, 1.0]\n",
         "soliton[0] lambda = 'log(t + 0.5)' leaves its domain at "
         "[-0.8287016657127513, -0.5263789868078006]: log of nonpositive "
         "value in 'log(t + 0.5)'"),
        # both fail first at the second sample: the first field listed
        (PASSING_SPEC.replace(
            'psi = "0.3*(x^2 + y^2 + s^2 + t^2)"\n\n[soliton]\n'
            'type = "gradient_ricci"\nlambda = 0.6',
            'psi = "sqrt(x + 0.8)"\n\n[soliton]\n'
            'type = "gradient_ricci"\nlambda = "log(x + 0.8)"', 1),
         "[potential] psi = 'sqrt(x + 0.8)' leaves its domain at "
         "[-0.8116453042247009, 0.9512447032735118, 0.5222794039807059, "
         "0.5721286105539076]: sqrt of nonpositive value in 'sqrt(x + 0.8)'"),
    ], ids=["later-field", "line-product", "tie"])
    def test_field_failing_at_the_earliest_point_is_named(
        self, tmp_path, capsys, text, message
    ):
        spec = write(tmp_path, text, "order.spec")
        assert main(["verify", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_soliton_key_its_kind_does_not_read_exits_two(
        self, tmp_path, capsys
    ):
        spec = write(tmp_path, PASSING_SPEC.replace(
            "lambda = 0.6",
            'lambda = 0.6\nmu = 0.3\neta = ["1", "0", "0", "0"]', 1),
            "unread.spec")
        assert main(["verify", spec]) == 2
        assert capsys.readouterr().err == (
            "error: [soliton] (line 15): soliton kind 'ricci' does not read "
            "fields ['mu', 'eta']\n")

    def test_soliton_missing_a_key_its_kind_reads_exits_two(
        self, tmp_path, capsys
    ):
        spec = write(tmp_path, PASSING_SPEC.replace("lambda = 0.6\n", "", 1),
                     "missing.spec")
        assert main(["verify", spec]) == 2
        assert capsys.readouterr().err == (
            "error: [soliton] (line 15): soliton kind 'ricci' requires field "
            "'lambda'\n")


    @pytest.mark.parametrize("old, new, args, needles", [
        # a factor metric entry leaving its domain on the box
        ('metric = [["1", "0"], ["0", "1"]]',
         'metric = [["sqrt(x)", "0"], ["0", "1"]]', [],
         ["metric entry [0][0] = ", "sqrt of nonpositive value"]),
        # a warping leaving its domain on the box is named, at its factor
        # point, not as the product metric entry that contains it
        ('metric = [["1", "0"], ["0", "1"]]\n\n[factor.2]',
         'metric = [["1", "0"], ["0", "1"]]\nwarping = "sqrt(x)"\n\n'
         '[factor.2]', [],
         ["f1 = 'sqrt(x)' leaves its domain at [-0.8116453042247009, "
          "0.9512447032735118]: ", "sqrt of nonpositive value"]),
        # a warping leaving its domain at the anchor only
        ('metric = [["1", "0"], ["0", "1"]]\n\n[factor.2]',
         'metric = [["1", "0"], ["0", "1"]]\nwarping = "sqrt(x)"\n\n'
         '[factor.2]', ["--box=0.1,1", "--anchor=-0.5,0.5,0.5,0.5"],
         ["f1 = 'sqrt(x)' leaves its domain at [-0.5, 0.5]"]),
        # a metric entry leaving its domain on an anchored restriction set
        ('metric = [["1", "0"], ["0", "1"]]',
         'metric = [["sqrt(x)", "0"], ["0", "1"]]',
         ["--box=0.1,1", "--anchor=-0.5,0.5,0.5,0.5"],
         ["metric entry [0][0] = ", "leaves its domain at [-0.5, "]),
        # overflow of the warping itself while sampling a huge box
        ('metric = [["1", "0"], ["0", "1"]]\n\n[factor.2]',
         'metric = [["1", "0"], ["0", "1"]]\nwarping = "exp(x)"\n\n'
         '[factor.2]', ["--box=0,1e308"],
         ["f1 = 'exp(x)' leaves its domain at [", "overflow in 'exp(x)'"]),
        # overflow of ^, sinh and cosh in a second-factor warping
        *[('metric = [["1", "0"], ["0", "1"]]\n\n[potential]',
           f'metric = [["1", "0"], ["0", "1"]]\nwarping = "{warping}"\n\n'
           '[potential]', ["--box=0,1e200"],
           [f"f2 = '{warping}' leaves its domain at [",
            f"overflow in '{warping}'"])
          for warping in ("t^2", "sinh(t)", "cosh(t)")],
        # a finite warping whose square overflows: the entry is named
        ('metric = [["1", "0"], ["0", "1"]]\n\n[factor.2]',
         'metric = [["1", "0"], ["0", "1"]]\nwarping = "exp(x)"\n\n'
         '[factor.2]', ["--box=0,700"],
         ["metric entry [2][2] = 'exp(x)^2 * 1' leaves its domain at [",
          "overflow in 'exp(x)^2'"]),
    ])
    def test_metric_or_warping_leaving_its_domain_exits_two(
        self, tmp_path, capsys, old, new, args, needles
    ):
        spec = write(tmp_path, PASSING_SPEC.replace(old, new, 1), "dom.spec")
        assert main(["verify", spec] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for needle in needles:
            assert needle in err

    def test_ill_conditioned_anchored_set_exits_two(self, tmp_path, capsys):
        # well conditioned on the box, singular where the anchor puts x = 0
        spec = write(tmp_path, PASSING_SPEC.replace(
            'metric = [["1", "0"], ["0", "1"]]',
            'metric = [["x^2", "0"], ["0", "1"]]', 1), "cond.spec")
        args = ["--box=0.5,1", "--anchor=0,0.7,0.7,0.7", "--checks", "scalar"]
        assert main(["verify", spec] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: anchored restriction set of factor 2")
        assert "at [0.0, 0.7, " in err

    # each case keeps the id it was given when the needle was the message
    # of an earlier release
    @pytest.mark.parametrize("args, needle", [
        (["--box=-inf,inf"], f"--box must be {BOX_RULE}, got [[-inf, inf]]"),
        (["--box=-1e308,1e308"],
         f"--box must be {BOX_RULE}, got [[-1e+308, 1e+308]]"),
        (["--box=-1,1;-1,1;nan,1;-1,1"],
         f"--box must be {BOX_RULE}, got [[-1.0, 1.0], [-1.0, 1.0], "
         "[nan, 1.0], [-1.0, 1.0]]"),
        (["--anchor", "nan,0,0,0"],
         "--anchor must be a list of 4 finite numbers, got [nan, 0.0, 0.0, "
         "0.0]"),
        (["--tol", "inf"], "--tol must be a positive finite number, got inf"),
        (["--tol", "nan"], "--tol must be a positive finite number, got nan"),
    ], ids=[
        "args0-box interval [-inf, inf] must be finite",
        "args1-box interval [-1e+308, 1e+308] must be finite, with a finite "
        "width",
        "args2-box interval [nan, 1.0] must be finite",
        "args3-anchor must be finite, got [nan, 0.0",
        "args4-tolerance must be positive and finite, got inf",
        "args5-tolerance must be positive and finite, got nan",
    ])
    def test_non_finite_flags_exit_two(self, tmp_path, capsys, args, needle):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        assert main(["verify", spec] + args) == 2
        assert f"error: {needle}" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, args, needle", [
        ("seed = 42", "seed = 1.5", [],
         "[sampling] seed must be a non-negative integer, got 1.5"),
        ("seed = 42", 'seed = "x"', [],
         "[sampling] seed must be a non-negative integer, got 'x'"),
        ("seed = 42", "seed = -3", [],
         "[sampling] seed must be a non-negative integer, got -3"),
        ("seed = 42", "seed = 42", ["--seed", "-3"],
         "--seed must be a non-negative integer, got -3"),
        # these cases keep the ids they were given when the needle was the
        # message of an earlier release
        pytest.param(
            "tolerance = 1e-8", "tolerance = [1e-8]", [],
            "[sampling] tolerance must be a positive finite number, got "
            "[1e-08]",
            id="tolerance = 1e-8-tolerance = [1e-8]-args4-[sampling] "
               "tolerance must be a positive number, got [1e-08]"),
        pytest.param(
            "tolerance = 1e-8", 'tolerance = "abc"', [],
            "[sampling] tolerance must be a positive finite number, got "
            "'abc'",
            id="tolerance = 1e-8-tolerance = \"abc\"-args5-[sampling] "
               "tolerance must be a positive number, got 'abc'"),
        pytest.param(
            "box = [-1.0, 1.0]", "box = 5", [],
            f"[sampling] box must be {BOX_RULE}, got 5",
            id="box = [-1.0, 1.0]-box = 5-args6-[sampling] box must be "
               "[lo, hi] or a list of [lo, hi] pairs, got 5"),
        pytest.param(
            "box = [-1.0, 1.0]", "box = [-1.0, 1.0]\nanchor = 5", [],
            "[sampling] anchor must be a list of 4 finite numbers, got 5",
            id="box = [-1.0, 1.0]-box = [-1.0, 1.0]\nanchor = 5-args7-"
               "[sampling] anchor must be a list of numbers, got 5"),
    ])
    def test_malformed_sampling_values_exit_two(
        self, tmp_path, capsys, old, new, args, needle
    ):
        spec = write(tmp_path, PASSING_SPEC.replace(old, new), "bad.spec")
        assert main(["verify", spec] + args) == 2
        assert capsys.readouterr().err == f"error: {needle}\n"

    @pytest.mark.parametrize("old, new, args, message", [
        # a malformed [sampling] value is rejected even where a flag
        # overrides it
        ("box = [-1.0, 1.0]", "box = [1.0, -1.0]", ["--box=-1,1"],
         f"[sampling] box must be {BOX_RULE}, got [1.0, -1.0]"),
        ("tolerance = 1e-8", "tolerance = 1e400", ["--tol", "1e-6"],
         "[sampling] tolerance must be a positive finite number, got inf"),
        ("tolerance = 1e-8", "tolerance = 1e-8\nanchor = [0, 0]",
         ["--anchor", "0,0,0,0"],
         "[sampling] anchor must be a list of 4 finite numbers, got [0, 0]"),
        ("tolerance = 1e-8", "tolerance = 1e400", [],
         "[sampling] tolerance must be a positive finite number, got inf"),
        ("tolerance = 1e-8", "tolerance = 1e-8\nanchor = [0, 0]", [],
         "[sampling] anchor must be a list of 4 finite numbers, got [0, 0]"),
        ("points = 6", "points = 6", ["--points", "0"],
         "--points must be an integer >= 1, got 0"),
        ("box = [-1.0, 1.0]", "box = [-1.0, 1.0]", ["--box=0,1;0,1"],
         f"--box must be {BOX_RULE}, got [[0.0, 1.0], [0.0, 1.0]]"),
    ], ids=["box-overridden", "tolerance-overridden", "anchor-overridden",
            "tolerance", "anchor", "points-flag", "box-flag"])
    def test_every_bad_setting_names_its_source(
        self, tmp_path, capsys, old, new, args, message
    ):
        spec = write(tmp_path, PASSING_SPEC.replace(old, new, 1), "bad.spec")
        assert main(["verify", spec] + args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCheckIds:
    def test_check_ids_are_unique(self, tmp_path):
        """A quasi-Einstein spec with beta = 0 keeps its defining-equation
        record and skips its factor structures under their own ids."""
        spec = write(tmp_path, QUASI_EINSTEIN_ZERO_BETA_SPEC, "qe.spec")
        report = str(tmp_path / "qe.json")
        assert main(["verify", spec, "--format", "structured",
                     "--report", report]) == 1
        checks = json.loads(open(report).read())["checks"]
        ids = [c["check_id"] for c in checks]
        assert len(ids) == len(set(ids))
        status = {c["check_id"]: c["status"] for c in checks}
        assert status["soliton[0].quasi_einstein"] == "fail"
        for sub in ("product", "factor1", "factor2"):
            check = f"soliton[0].factors.quasi_einstein.{sub}"
            assert status[check] == "skip"
        by_id = {c["check_id"]: c for c in checks}
        assert "beta vanishes" in by_id[
            "soliton[0].factors.quasi_einstein.product"]["notes"]


    def test_vanishing_quasi_einstein_form_is_reported_as_a_list(
        self, tmp_path
    ):
        text = QUASI_EINSTEIN_ZERO_BETA_SPEC.replace(
            "beta = 0.0", "beta = 1.0").replace(
            'eta = ["1", "0", "0"]', 'eta = ["0", "0", "0"]')
        spec = write(tmp_path, text, "qe0.spec")
        report = str(tmp_path / "qe0.json")
        main(["verify", spec, "--format", "structured", "--checks",
              "solitons", "--report", report])
        checks = json.loads(open(report).read())["checks"]
        notes = {c["check_id"]: c["notes"] for c in checks}
        note = notes["soliton[0].quasi_einstein"]
        assert "quasi-Einstein 1-form vanishes at [" in note
        assert "np.float64" not in note
        # the factor structures are skipped under their own ids, as for a
        # vanishing beta, with the same reason
        status = {c["check_id"]: c["status"] for c in checks}
        for sub in ("product", "factor1", "factor2"):
            check = f"soliton[0].factors.quasi_einstein.{sub}"
            assert status[check] == "skip"
            assert notes[check] == note


    def test_quasi_einstein_form_vanishing_off_the_samples_is_a_skip(
        self, tmp_path
    ):
        """The 1-form vanishes on an anchored restriction set only: the
        defining equation passes and the factor structures are skipped
        with the point, not an error."""
        spec = write(tmp_path, QUASI_EINSTEIN_ANCHOR_ZERO_SPEC, "qea.spec")
        report = str(tmp_path / "qea.json")
        assert main(["verify", spec, "--format", "structured", "--checks",
                     "solitons", "--report", report]) == 0
        checks = {c["check_id"]: c
                  for c in json.loads(open(report).read())["checks"]}
        assert checks["soliton[0].quasi_einstein"]["status"] == "pass"
        for sub in ("product", "factor1", "factor2"):
            check = checks[f"soliton[0].factors.quasi_einstein.{sub}"]
            assert check["status"] == "skip"
            assert check["notes"].startswith(
                "skipped: quasi-Einstein 1-form vanishes at [0.0, ")
        assert len(checks) == 4


class TestDeterminism:
    def test_identical_configs_give_byte_identical_reports(self, tmp_path):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        r1 = str(tmp_path / "r1.json")
        r2 = str(tmp_path / "r2.json")
        args = ["verify", spec, "--format", "structured"]
        assert main(args + ["--report", r1]) == 0
        assert main(args + ["--report", r2]) == 0
        b1 = open(r1, "rb").read()
        b2 = open(r2, "rb").read()
        assert b1 == b2

    def test_structured_report_is_valid_json_with_schema(self, tmp_path):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        report = str(tmp_path / "r.json")
        main(["verify", spec, "--format", "structured", "--report", report])
        doc = json.loads(open(report).read())
        assert set(doc) == {"checks", "engine_version", "run_config"}
        ids = [c["check_id"] for c in doc["checks"]]
        assert ids == sorted(ids)
        for c in doc["checks"]:
            assert set(c) == {
                "check_id",
                "status",
                "max_abs_residual",
                "worst_point",
                "points",
                "tolerance",
                "notes",
            }

    def test_render_json_prints_17_significant_digits(self):
        text = render_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text


class TestConfigResolution:
    def test_cli_flags_override_sampling_section(self, tmp_path):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        report = str(tmp_path / "r.json")
        main([
            "verify", spec, "--format", "structured", "--report", report,
            "--points", "3", "--seed", "9", "--tol", "1e-6",
        ])
        doc = json.loads(open(report).read())
        cfg = doc["run_config"]
        assert cfg["points"] == 3
        assert cfg["seed"] == 9
        assert cfg["tolerance"] == 1e-6

    def test_checks_subset_filters_output(self, tmp_path):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        report = str(tmp_path / "r.json")
        main([
            "verify", spec, "--checks", "lemma1,scalar",
            "--format", "structured", "--report", report,
        ])
        doc = json.loads(open(report).read())
        prefixes = {c["check_id"].split(".")[0] for c in doc["checks"]}
        assert prefixes == {"lemma1", "scalar"}

    def test_unknown_check_name_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        assert main(["verify", spec, "--checks", "lemma9"]) == 2
        assert "unknown checks" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_check_list_exits_two(self, tmp_path, capsys, value):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        assert main(["verify", spec, "--checks", value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --checks names no check")
        assert captured.out == ""

    def test_per_coordinate_box(self, tmp_path):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        report = str(tmp_path / "r.json")
        code = main([
            "verify", spec,
            "--box", "0.1,0.4;-0.5,0.5;-1,1;0,1",
            "--checks", "scalar",
            "--format", "structured", "--report", report,
        ])
        assert code == 0
        doc = json.loads(open(report).read())
        assert doc["run_config"]["box"] == [
            [0.1, 0.4], [-0.5, 0.5], [-1.0, 1.0], [0.0, 1.0]
        ]

    def test_wrong_box_arity_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        assert main(["verify", spec, "--box", "0,1;0,1"]) == 2

    def test_anchor_override(self, tmp_path):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        report = str(tmp_path / "r.json")
        main([
            "verify", spec, "--anchor", "0.1,0.2,0.3,0.4",
            "--checks", "scalar", "--format", "structured",
            "--report", report,
        ])
        doc = json.loads(open(report).read())
        assert doc["run_config"]["anchor"] == [0.1, 0.2, 0.3, 0.4]

    def test_text_format_summary_line(self, tmp_path, capsys):
        spec = write(tmp_path, PASSING_SPEC, "pass.spec")
        main(["verify", spec, "--checks", "scalar"])
        out = capsys.readouterr().out
        assert out.strip().endswith("1 passed, 0 failed, 0 skipped")


class TestHyperbolicSpace:
    """Space forms as warped products over a line, in both factor orders:
    H^3 = R x_{e^t} R^2, H^3 = R x_{cosh t} H^2 and
    S^3 = (0, pi) x_{sin t} S^2, the last two with non-flat fibres.  Each
    has three almost solitons whose gates pass: the factor structures and
    the concircular consequences run on the anchored restriction sets with
    nonzero warping terms."""

    ORDERS = pytest.mark.parametrize(
        "text", [H3_LINE_FIRST_SPEC, H3_PLANE_FIRST_SPEC,
                 H3_COSH_LINE_FIRST_SPEC, H3_COSH_FIBRE_FIRST_SPEC,
                 S3_LINE_FIRST_SPEC, S3_FIBRE_FIRST_SPEC],
        ids=["line-first", "plane-first", "cosh-line-first",
             "cosh-fibre-first", "sphere-line-first", "sphere-fibre-first"])

    @ORDERS
    def test_every_gate_and_factor_check_passes(self, tmp_path, text):
        spec = write(tmp_path, text, "h3.spec")
        report = str(tmp_path / "h3.json")
        assert main(["verify", spec, "--format", "structured",
                     "--report", report]) == 0
        status = {c["check_id"]: c["status"]
                  for c in json.loads(open(report).read())["checks"]}
        conharmonic = {"conharmonic.flat", "conharmonic.soliton1",
                       "conharmonic.soliton2"}
        # no space form here is scalar-flat, so only the conharmonic gate
        # fails
        assert len(status) == 55
        for check_id, s in status.items():
            assert s == ("skip" if check_id in conharmonic else "pass")
        subs = {"ricci": ("product", "factor1", "factor2", "mixed"),
                "yamabe": ("product", "factor1", "factor2", "mixed"),
                "riemann": ("product", "factor1", "factor2")}
        for i, kind in enumerate(("ricci", "yamabe", "riemann")):
            for sub in subs[kind]:
                assert status[f"soliton[{i}].factors.{kind}.{sub}"] == "pass"
        for sub in ("flat", "einstein1", "einstein2", "dichotomy"):
            assert status[f"concircular.{sub}"] == "pass"

    @ORDERS
    def test_reruns_give_identical_bytes(self, tmp_path, text):
        spec = write(tmp_path, text, "h3.spec")
        reports = [str(tmp_path / f"r{i}.json") for i in (1, 2)]
        for report in reports:
            assert main(["verify", spec, "--format", "structured",
                         "--report", report]) == 0
        first, second = (open(r, "rb").read() for r in reports)
        assert first == second
