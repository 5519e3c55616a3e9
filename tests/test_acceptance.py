"""Acceptance suite: the ten top-level verification criteria.

Each test prints one `[acceptance N] PASS/FAIL` line; a criterion passes
only if every sub-check meets its stated tolerance.
"""

import json

import numpy as np
import pytest

from conftest import (
    corpus,
    e2xe1_product,
    flat_chart,
    hyperbolic_plane_chart,
    hyperbolic_space,
    random_polynomial,
    random_spd_chart,
    seeded_points,
    sphere_chart,
)
from dwpcheck import checks
from dwpcheck.cli import main
from dwpcheck.dwp import DimensionError
from dwpcheck.expr import parse_expression
from dwpcheck.reporting import PASS, SKIP
from dwpcheck.solitons import (
    SolitonSpec,
    contracted_terms,
    contraction_consistency,
    equation_terms,
    log_hessian_identity,
    residual,
    residual_values,
    ricci_factor_structures,
)
from dwpcheck.special import concircular_flat_consequences, concircular_oracle, conharmonic_oracle


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def corpus_products():
    return corpus()


@pytest.fixture(scope="module")
def corpus_points(corpus_products):
    return {
        name: seeded_points(dwp.product, 50)
        for name, dwp in corpus_products.items()
    }


def gaussian_potential(coords, scale):
    return parse_expression(
        " + ".join(f"{scale}*{c}^2" for c in coords), tuple(coords)
    )


def test_criterion_01_curvature_splitting(corpus_products, corpus_points):
    """All six closed-form curvature classes match the oracle on the
    corpus at 50 seeded points each."""
    worst = 0.0
    for name, dwp in corpus_products.items():
        for summary in checks.check_lemma1(
                dwp.point_data(corpus_points[name]), 1e-8):
            worst = max(worst, summary.max_abs_residual)
            if summary.status != PASS:
                report(1, False, f"{name}:{summary.check_id}")
    report(1, worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_02_ricci_and_scalar_splitting(
    corpus_products, corpus_points
):
    """Ricci blocks, Ricci-operator blocks, and scalar curvature match the
    oracle; the mixed Ricci block equals (m-2) X(k) U(l)."""
    worst = 0.0
    for name, dwp in corpus_products.items():
        pts = corpus_points[name]
        data = dwp.point_data(pts)
        for summary in (
            checks.check_lemma2(data, 1e-8)
            + checks.check_lemma5(data, 1e-8)
            + checks.check_scalar(data, 1e-8)
        ):
            worst = max(worst, summary.max_abs_residual)
            if summary.status != PASS:
                report(2, False, f"{name}:{summary.check_id}")
        for p in pts:
            d = dwp.point_data(p[None])
            mixed = dwp.product.ricci_oracle(p[None])[0][: dwp.m1, dwp.m1:]
            s1, s2 = d.sides
            expected = (dwp.m - 2) * np.outer(s1.dlog[0], s2.dlog[0])
            err = np.abs(mixed - expected).max()
            worst = max(worst, err)
    report(2, worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_03_hessian_and_laplacian_splitting(
    corpus_products, corpus_points
):
    """Blockwise Hessian and Laplacian splittings hold for the log-warpings,
    a mixed polynomial, and a seeded random polynomial."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for name, dwp in corpus_products.items():
        pts = corpus_points[name]
        psis = [("poly", random_polynomial(dwp.coords, rng, degree=3))]
        if "x" in dwp.coords and "t" in dwp.coords:
            psis.append(("mixed", parse_expression("x + t^2", dwp.coords)))
        data = dwp.point_data(pts)
        for summary in checks.check_hessian(
            data, 1e-8, psis=psis
        ) + checks.check_laplacian(data, 1e-8):
            worst = max(worst, summary.max_abs_residual)
            if summary.status != PASS:
                report(3, False, f"{name}:{summary.check_id}")
    report(3, worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_04_model_solitons():
    """Gaussian solitons on flat space, the round sphere as Einstein, and
    the warped hyperbolic construction as Einstein with the right scalar
    curvature."""
    worst = 0.0
    lam = 0.8
    for n in (2, 3, 4):
        chart = flat_chart(tuple("xyzw"[:n]))
        psi = gaussian_potential(chart.coords, lam / 2)
        spec = SolitonSpec(kind="ricci", psi=psi, lam=lam)
        c = chart.at(seeded_points(chart, 20))
        summary = residual(spec, equation_terms(spec, c), c, 1e-10,
                           "soliton.ricci")
        worst = max(worst, summary.max_abs_residual)
        if summary.status != PASS:
            report(4, False, f"gaussian n={n}")

    sphere = sphere_chart()
    einstein = SolitonSpec(kind="einstein")
    c = sphere.at(seeded_points(sphere, 10, box=(0.5, 2.5)))
    summary = residual(einstein, equation_terms(einstein, c), c, 1e-10,
                       "soliton.einstein")
    worst = max(worst, summary.max_abs_residual)
    if summary.status != PASS:
        report(4, False, "sphere einstein")

    for n in (3, 4):
        hyp = hyperbolic_space(n)
        pts = seeded_points(hyp.product, 10)
        c = hyp.product.at(pts)
        summary = residual(einstein, equation_terms(einstein, c), c, 1e-8,
                           "soliton.einstein")
        if summary.status != PASS:
            report(4, False, f"hyperbolic n={n} einstein")
        tau_err = max(
            abs(hyp.product.scalar_oracle(p[None])[0] + n * (n - 1))
            for p in pts
        )
        if tau_err > 1e-6:
            report(4, False, f"hyperbolic n={n} tau error {tau_err:.3e}")
    report(4, worst <= 1e-10, f"worst residual {worst:.3e}")


def test_criterion_05_contraction_identity_random_metrics():
    """Contracting the rank-4 soliton equation reproduces its trace form
    for seeded random metrics and potentials in dimensions 3-5, regardless
    of whether the input is a soliton."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for dim in (3, 4, 5):
        chart = random_spd_chart(dim, rng)
        psi = random_polynomial(chart.coords, rng, degree=3)
        spec = SolitonSpec(kind="riemann", psi=psi, lam=rng.uniform(-1, 1))
        c = chart.at(seeded_points(chart, 10))
        summary = contraction_consistency(
            equation_terms(spec, c), contracted_terms(spec, c), c, 1e-8,
            "soliton.riemann.contraction"
        )
        worst = max(worst, summary.max_abs_residual)
        if summary.status != PASS:
            report(5, False, f"dim={dim}")
    report(5, worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_06_factor_structure_pipeline(corpus_products):
    """On a direct flat product a Gaussian gradient Ricci soliton induces
    the stated eta-Ricci structures on both factors, and the log-Hessian
    rewriting identity holds."""
    dwp = corpus_products["direct"]
    lam = 0.6
    psi = gaussian_potential(dwp.coords, lam / 2)
    spec = SolitonSpec(kind="ricci", psi=psi, lam=lam)
    pts = seeded_points(dwp.product, 20)
    worst = 0.0
    d = dwp.point_data(pts, np.zeros(dwp.m))
    for summary in ricci_factor_structures(
        spec, d,
        residual(spec, equation_terms(spec, d.product), d, 1e-10,
                 "factors.ricci.product")
    ):
        worst = max(worst, summary.max_abs_residual)
        if summary.status != PASS:
            report(6, False, summary.check_id)
    chart = flat_chart(("x", "y"))
    for text in ("exp(x)", "1 + x^2"):
        f = parse_expression(text, chart.coords)
        summary = log_hessian_identity(
            chart.at(seeded_points(chart, 20)), f, 1e-10
        )
        worst = max(worst, summary.max_abs_residual)
        if summary.status != PASS:
            report(6, False, f"log-hessian {text}")
    report(6, worst <= 1e-10, f"worst residual {worst:.3e}")


def test_criterion_07_concircular():
    """Concircular tensor vanishes on constant-curvature spaces, its closed
    forms match the oracle, and the flatness consequence checker validates
    the hyperbolic construction while gating on a non-flat product."""
    worst_cc = 0.0
    for chart, box in (
        (sphere_chart(), (0.5, 2.5)),
        (hyperbolic_plane_chart(), (0.5, 2.0)),
        (flat_chart(("x", "y", "z")), (-1.0, 1.0)),
    ):
        for p in seeded_points(chart, 10, box=box):
            c4 = concircular_oracle(chart.at(p[None]))[0]
            worst_cc = max(worst_cc, np.abs(c4).max())
    if worst_cc > 1e-9:
        report(7, False, f"constant-curvature norm {worst_cc:.3e}")

    dwp = e2xe1_product()
    pts = seeded_points(dwp.product, 20)
    out = checks.check_concircular(
        dwp.point_data(pts, np.zeros(dwp.m)), 1e-8)
    for summary in out:
        if summary.check_id.split(".")[1] in (
            "XYZ", "XYU", "UVX", "XUY", "UXV", "UVW",
        ):
            if summary.status != PASS:
                report(7, False, summary.check_id)

    hyp = hyperbolic_space(3)
    hyp_pts = seeded_points(hyp.product, 10)
    hyp_d = hyp.point_data(hyp_pts, np.zeros(hyp.m))
    consequences = {
        s.check_id: s
        for s in concircular_flat_consequences(
            hyp_d, 1e-9, concircular_oracle(hyp_d.product)
        )
    }
    ok = (
        consequences["concircular.flat"].status == PASS
        and consequences["concircular.einstein1"].status == PASS
        and consequences["concircular.einstein2"].status == PASS
    )
    if not ok:
        report(7, False, "hyperbolic consequence validation")
    d = dwp.point_data(pts, np.zeros(dwp.m))
    gated = concircular_flat_consequences(
        d, 1e-8, concircular_oracle(d.product))
    if not all(s.status == SKIP for s in gated):
        report(7, False, "non-flat product did not gate")
    report(7, True, f"constant-curvature norm {worst_cc:.3e}")


def test_criterion_08_conharmonic(corpus_products, corpus_points):
    """Conharmonic tensor vanishes on flat space, closed forms match the
    oracle on corpus members of dimension >= 3, and dimension guards reject
    surfaces."""
    chart = flat_chart(("x", "y", "z"))
    for p in seeded_points(chart, 10):
        if np.abs(conharmonic_oracle(chart.at(p[None]))[0]).max() != 0.0:
            report(8, False, "flat space not conharmonically flat")
    worst = 0.0
    for name, dwp in corpus_products.items():
        if dwp.m < 3:
            continue
        out = checks.check_conharmonic(
            dwp.point_data(corpus_points[name], np.zeros(dwp.m)), 1e-8
        )
        for summary in out:
            if summary.check_id in ("conharmonic.XYZ", "conharmonic.UVW"):
                worst = max(worst, summary.max_abs_residual)
                if summary.status != PASS:
                    report(8, False, f"{name}:{summary.check_id}")
    try:
        conharmonic_oracle(sphere_chart().at([(0.8, 0.4)]))
        report(8, False, "dimension guard missing")
    except DimensionError:
        pass
    report(8, worst <= 1e-8, f"worst residual {worst:.3e}")


def test_criterion_09_reduction_lattice():
    """Degenerate eta/f-almost parameters reproduce base-variant residuals
    bitwise on identical sample sets."""
    chart = flat_chart(("x", "y", "z"))
    psi = parse_expression("x^3 + x*y - tanh(z)", chart.coords)
    pts = seeded_points(chart, 20)
    eta = tuple(
        parse_expression(e, chart.coords) for e in ("1", "x", "0")
    )
    base_ricci = residual_values(
        SolitonSpec(kind="ricci", psi=psi, lam=0.7), chart.at(pts)
    )
    base_yamabe = residual_values(
        SolitonSpec(kind="yamabe", psi=psi, lam=0.7), chart.at(pts)
    )
    variants = [
        ("eta_ricci(mu=0)", base_ricci, SolitonSpec(
            kind="eta_ricci", psi=psi, lam=0.7, mu=0.0, eta=eta)),
        ("f_almost_ricci(f=1)", base_ricci, SolitonSpec(
            kind="f_almost_ricci", psi=psi, lam=0.7, f_factor=1.0)),
        ("f_almost_eta_ricci(f=1,mu=0)", base_ricci, SolitonSpec(
            kind="f_almost_eta_ricci", psi=psi, lam=0.7, mu=0.0, eta=eta,
            f_factor=1.0)),
        ("eta_yamabe(mu=0)", base_yamabe, SolitonSpec(
            kind="eta_yamabe", psi=psi, lam=0.7, mu=0.0, eta=eta)),
    ]
    for label, base, spec in variants:
        if not np.array_equal(base, residual_values(spec, chart.at(pts))):
            report(9, False, f"{label} not bitwise-identical")
    report(9, True, "all degenerate variants bitwise-identical")


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
tolerance = 1e-8
"""


def test_criterion_10_cli_contract(tmp_path):
    """Byte-identical structured reports for identical configs; exit codes
    0 (pass), 1 (fail), 2 (malformed spec)."""
    good = tmp_path / "good.spec"
    good.write_text(PASSING_SPEC)
    bad = tmp_path / "bad.spec"
    bad.write_text(PASSING_SPEC.replace("lambda = 0.6", "lambda = 0.2"))
    broken = tmp_path / "broken.spec"
    broken.write_text("[factor.1]\ndim = oops\n")

    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    args = ["verify", str(good), "--format", "structured"]
    code_pass = main(args + ["--report", r1])
    main(args + ["--report", r2])
    identical = open(r1, "rb").read() == open(r2, "rb").read()
    if not identical:
        report(10, False, "reports differ between identical runs")
    json.loads(open(r1).read())  # well-formed

    code_fail = main(
        ["verify", str(bad), "--report", str(tmp_path / "rf.txt")]
    )
    code_error = main(["verify", str(broken)])
    ok = (code_pass, code_fail, code_error) == (0, 1, 2)
    report(
        10, ok and identical,
        f"exit codes pass/fail/error = {code_pass}/{code_fail}/{code_error}",
    )
