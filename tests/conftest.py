"""Shared fixtures: the corpus of manifolds every suite checks against."""

import numpy as np
import pytest

from dwpcheck.dwp import DoublyWarpedProduct
from dwpcheck.expr import constant, parse_expression
from dwpcheck.geometry import ChartManifold, sample_points


def flat_chart(coords):
    coords = tuple(coords)
    return ChartManifold(
        coords,
        [
            [constant(1.0 if i == j else 0.0, coords) for j in coords]
            for i in coords
        ],
    )


def orthonormal_frame(chart, points):
    """Gram-Schmidt of the coordinate basis (inverse Cholesky factor):
    column i of frame[n] holds the coordinate components of the i-th frame
    vector."""
    g = chart.at(points).require_spd().g
    return np.linalg.inv(np.linalg.cholesky(g)).transpose(0, 2, 1)


def expr_chart(coords, rows):
    coords = tuple(coords)
    return ChartManifold(
        coords, [[parse_expression(e, coords) for e in row] for row in rows]
    )


def sphere_chart(coords=("u", "v"), radius=1.0):
    """Round 2-sphere of the given radius in polar coordinates."""
    r2 = radius * radius
    return expr_chart(
        coords,
        [[f"{r2}", "0"], ["0", f"{r2} * sin(u)^2"]],
    )


def hyperbolic_plane_chart(coords=("a", "b")):
    """Hyperbolic plane of curvature -1 in polar coordinates."""
    return expr_chart(coords, [["1", "0"], ["0", "sinh(a)^2"]])


def direct_flat_product():
    """2+2 direct product of flat planes (f1 = f2 = 1)."""
    f1c = flat_chart(("x", "y"))
    f2c = flat_chart(("s", "t"))
    return DoublyWarpedProduct(
        f1c, f2c, constant(1.0, f1c.coords), constant(1.0, f2c.coords)
    )


def singly_warped_product():
    """2+2 product warped on one side only: f2 = 1, f1 = e^x."""
    f1c = flat_chart(("x", "y"))
    f2c = flat_chart(("s", "t"))
    return DoublyWarpedProduct(
        f1c,
        f2c,
        parse_expression("exp(x)", f1c.coords),
        constant(1.0, f2c.coords),
    )


def e2xe1_product():
    """Plane x line, doubly warped: f1 = e^x, f2 = cosh(t)."""
    f1c = flat_chart(("x", "y"))
    f2c = flat_chart(("t",))
    return DoublyWarpedProduct(
        f1c,
        f2c,
        parse_expression("exp(x)", f1c.coords),
        parse_expression("cosh(t)", f2c.coords),
    )


def hyperbolic_space(n):
    """Hyperbolic n-space as a warped product: line x flat (n-1)-space with
    f1 = e^t on the line and f2 = 1."""
    f1c = flat_chart(("t",))
    f2c = flat_chart(tuple("uvwz"[: n - 1]))
    return DoublyWarpedProduct(
        f1c,
        f2c,
        parse_expression("exp(t)", f1c.coords),
        constant(1.0, f2c.coords),
    )


# Space forms as warped products I x_f F of a line and a surface F: the
# field f d_t is closed and conformal, so psi = (integral of f) has
# Hess psi = f' g.  model -> (f, psi, F's coords and metric, F's box and
# the line's, lambda of the almost Ricci, Yamabe and Riemann solitons of
# psi: Ric = 2K g and tau = 6K at sectional curvature K).
WARPED_LINE_MODELS = {
    # H^3 = R x_{e^t} R^2
    "hyperbolic-flat": (
        "exp(t)", "exp(t)", '["u", "v"]', '[["1", "0"], ["0", "1"]]',
        [[-1.0, 1.0], [-1.0, 1.0]], [-1.0, 1.0],
        ("exp(t) - 2", "-6 - exp(t)", "2*exp(t) - 1")),
    # H^3 = R x_{cosh t} H^2, H^2 the upper half-plane
    "hyperbolic-hyperbolic": (
        "cosh(t)", "sinh(t)", '["x", "y"]',
        '[["1/y^2", "0"], ["0", "1/y^2"]]', [[-1.0, 1.0], [0.5, 1.5]],
        [-1.0, 1.0], ("sinh(t) - 2", "-6 - sinh(t)", "2*sinh(t) - 1")),
    # S^3 = (0, pi) x_{sin t} S^2, away from the poles
    "sphere-sphere": (
        "sin(t)", "-cos(t)", '["u", "v"]', '[["1", "0"], ["0", "sin(u)^2"]]',
        [[0.5, 2.5], [-1.0, 1.0]], [0.5, 2.5],
        ("cos(t) + 2", "6 - cos(t)", "2*cos(t) + 1")),
}

_WARPED_LINE_SPEC = """[factor.1]
{}
[factor.2]
{}
[potential]
psi = "{psi}"

[soliton]
type = "gradient_ricci"
lambda = "{lams[0]}"

[soliton]
type = "gradient_yamabe"
lambda = "{lams[1]}"

[soliton]
type = "gradient_riemann"
lambda = "{lams[2]}"

[sampling]
points = 8
seed = 5
box = {box}
tolerance = 1e-8
"""


def warped_line_spec(model, line_first):
    """Spec text of a WARPED_LINE_MODELS space form, the line first (1+2,
    f1 = f) or the surface first (2+1, f2 = f), with its psi and three
    almost solitons: every gate passes, with nonzero warping terms."""
    f, psi, coords, metric, box, line_box, lams = WARPED_LINE_MODELS[model]
    line = f'dim = 1\ncoords = ["t"]\nmetric = [["1"]]\nwarping = "{f}"\n'
    surface = f"dim = 2\ncoords = {coords}\nmetric = {metric}\n"
    if line_first:
        factors, boxes = (line, surface), [line_box] + box
    else:
        factors, boxes = (surface, line), box + [line_box]
    return _WARPED_LINE_SPEC.format(*factors, psi=psi, lams=lams, box=boxes)


def sphere_x_hyperbolic():
    """Direct product of the unit 2-sphere and the curvature -1 hyperbolic
    plane: conharmonically flat but not flat."""
    f1c = sphere_chart()
    f2c = hyperbolic_plane_chart()
    return DoublyWarpedProduct(
        f1c, f2c, constant(1.0, f1c.coords), constant(1.0, f2c.coords)
    )


# Doubly warped products with both warpings non-constant and a non-flat
# factor, and the sample box on which their charts are regular (the
# sphere's polar angle in [0.5, 2.5], the hyperbolic plane's radius
# positive): identities that hold on every doubly warped product are tested
# on them with every warping term nonzero.
CURVED_BOX = (0.5, 2.5)


def line_x_hyperbolic_plane():
    """Line x hyperbolic plane: f1 = cosh(t), f2 = exp(0.3 a)."""
    f1c = flat_chart(("t",))
    f2c = hyperbolic_plane_chart()
    return DoublyWarpedProduct(
        f1c, f2c, parse_expression("cosh(t)", f1c.coords),
        parse_expression("exp(0.3*a)", f2c.coords))


def sphere_x_line():
    """Unit 2-sphere x line: f1 = 2 + cos(u), f2 = cosh(s)."""
    f1c = sphere_chart()
    f2c = flat_chart(("s",))
    return DoublyWarpedProduct(
        f1c, f2c, parse_expression("2 + cos(u)", f1c.coords),
        parse_expression("cosh(s)", f2c.coords))


def warped_sphere_x_hyperbolic():
    """Unit 2-sphere x hyperbolic plane: f1 = 2 + cos(u), f2 = exp(0.3 a)."""
    f1c = sphere_chart()
    f2c = hyperbolic_plane_chart()
    return DoublyWarpedProduct(
        f1c, f2c, parse_expression("2 + cos(u)", f1c.coords),
        parse_expression("exp(0.3*a)", f2c.coords))


CURVED_PRODUCTS = (line_x_hyperbolic_plane, sphere_x_line,
                   warped_sphere_x_hyperbolic)


def quasi_einstein_product():
    """Line x flat plane with f1 = cosh(t), f2 = 1: a quasi-Einstein metric
    with alpha = -1 - tanh(t)^2, beta = -1/cosh(t)^2, generator dt."""
    f1c = flat_chart(("t",))
    f2c = flat_chart(("u", "v"))
    dwp = DoublyWarpedProduct(
        f1c,
        f2c,
        parse_expression("cosh(t)", f1c.coords),
        constant(1.0, f2c.coords),
    )
    alpha = parse_expression("-1 - tanh(t)^2", dwp.coords)
    beta = parse_expression("-1/cosh(t)^2", dwp.coords)
    eta = tuple(
        parse_expression(e, dwp.coords) for e in ("1", "0", "0")
    )
    return dwp, alpha, beta, eta


def corpus():
    """The three standing corpus products."""
    return {
        "direct": direct_flat_product(),
        "warped": singly_warped_product(),
        "e2xe1": e2xe1_product(),
    }


def seeded_points(manifold, n, seed=42, box=(-1.0, 1.0)):
    box = np.tile(np.asarray(box, float), (manifold.dim, 1))
    return sample_points(manifold, box, n, seed).p


def random_spd_chart(dim, rng):
    """A well-conditioned non-flat metric: identity plus a small smooth
    symmetric perturbation with seeded coefficients."""
    coords = tuple("abcde"[:dim])
    rows = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            c1 = rng.uniform(-0.05, 0.05)
            c2 = rng.uniform(-0.05, 0.05)
            term = (
                f"{c1:.6f}*sin({coords[i]} + {coords[j]})"
                f" + {c2:.6f}*{coords[i]}*{coords[j]}"
            )
            entry = f"1 + {term}" if i == j else term
            rows[i][j] = entry
            rows[j][i] = entry
    return expr_chart(coords, rows)


def random_polynomial(coords, rng, degree=2):
    """A seeded random polynomial expression in the given coordinates."""
    terms = [f"{rng.uniform(-0.5, 0.5):.6f}"]
    for c in coords:
        terms.append(f"{rng.uniform(-0.5, 0.5):.6f}*{c}")
    for i, ci in enumerate(coords):
        for cj in coords[i:]:
            terms.append(f"{rng.uniform(-0.3, 0.3):.6f}*{ci}*{cj}")
    if degree >= 3:
        for c in coords:
            terms.append(f"{rng.uniform(-0.1, 0.1):.6f}*{c}^3")
    return parse_expression(" + ".join(terms), tuple(coords))


@pytest.fixture(scope="session")
def corpus_products():
    return corpus()


@pytest.fixture(scope="session")
def corpus_samples(corpus_products):
    return {
        name: seeded_points(dwp.product, 12)
        for name, dwp in corpus_products.items()
    }
