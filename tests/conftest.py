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


_LINE = """dim = 1
coords = ["t"]
metric = [["1"]]
warping = "exp(t)"
"""

_PLANE = """dim = 2
coords = ["u", "v"]
metric = [["1", "0"], ["0", "1"]]
"""

_HYPERBOLIC_SPEC = """[factor.1]
{}
[factor.2]
{}
[potential]
psi = "exp(t)"

[soliton]
type = "gradient_ricci"
lambda = "exp(t) - 2"

[soliton]
type = "gradient_yamabe"
lambda = "-6 - exp(t)"

[soliton]
type = "gradient_riemann"
lambda = "2*exp(t) - 1"

[sampling]
points = 8
seed = 5
box = [-1.0, 1.0]
tolerance = 1e-8
"""


def hyperbolic_spec(line_first):
    """Spec text of H^3 = R x_{e^t} R^2, the line first (1+2, f1 = e^t) or
    the plane first (2+1, f2 = e^t), with psi = e^t.  The field e^t d_t is
    closed and conformal (Hess psi = e^t g), so psi is an almost Ricci
    soliton with lambda = e^t - 2, an almost Yamabe soliton with
    lambda = -6 - e^t and an almost Riemann soliton with
    lambda = 2 e^t - 1: every gate passes, with nonzero warping terms."""
    factors = (_LINE, _PLANE) if line_first else (_PLANE, _LINE)
    return _HYPERBOLIC_SPEC.format(*factors)


def sphere_x_hyperbolic():
    """Direct product of the unit 2-sphere and the curvature -1 hyperbolic
    plane: conharmonically flat but not flat."""
    f1c = sphere_chart()
    f2c = hyperbolic_plane_chart()
    return DoublyWarpedProduct(
        f1c, f2c, constant(1.0, f1c.coords), constant(1.0, f2c.coords)
    )


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
