"""Expression parsing and exact differentiation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwpcheck.expr import (
    ArityError,
    BinOp,
    Call,
    Const,
    DomainError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    constant,
    parse_expression,
)


class TestParsing:
    def test_arithmetic_matches_python(self):
        e = parse_expression("2*x + 3*y^2 - x*y/4 + 1.5", ("x", "y"))
        assert e.evaluate([[2.0, -1.0]])[0] == pytest.approx(
            2 * 2 + 3 * 1 - (-2) / 4 + 1.5
        )

    def test_functions_match_math(self):
        coords = ("x",)
        for text, ref in [
            ("exp(x)", math.exp),
            ("log(1 + x^2)", lambda v: math.log(1 + v * v)),
            ("sin(x)*cos(x)", lambda v: math.sin(v) * math.cos(v)),
            ("tanh(x)", math.tanh),
            ("sqrt(2 + x)", lambda v: math.sqrt(2 + v)),
        ]:
            e = parse_expression(text, coords)
            assert e.evaluate([[0.37]])[0] == pytest.approx(ref(0.37),
                                                     abs=1e-15)

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expression("-x^2", ("x",))
        assert e.evaluate([[3.0]])[0] == -9.0

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x + * y", ("x", "y"))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("x + q", ("x", "y"))

    def test_unknown_function(self):
        with pytest.raises((UnknownIdentifierError, ArityError)):
            parse_expression("foo(x)", ("x",))

    def test_log_domain_error(self):
        e = parse_expression("log(x)", ("x",))
        with pytest.raises(DomainError):
            e.evaluate([[-1.0]])

    def test_domain_error_names_the_first_failing_point(self):
        # log(x) is evaluated first but fails later (row 2) than sqrt(y)
        e = parse_expression("log(x) + sqrt(y)", ("x", "y"))
        with pytest.raises(DomainError, match="sqrt") as info:
            e.evaluate([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        assert info.value.index == 1

    @pytest.mark.parametrize("text", ["exp(x)", "sinh(x)", "cosh(x)", "x^3"])
    def test_overflow_is_a_domain_error(self, text):
        e = parse_expression(text, ("x",))
        with pytest.raises(DomainError, match="overflow") as info:
            e.jet([[1.0], [1e300]])
        assert info.value.index == 1


class TestJets:
    def test_quadratic_jet_is_exact(self):
        e = parse_expression("x^2 + 3*x*y + y^2", ("x", "y"))
        jet = e.jet([[1.0, 2.0]])
        assert jet.value[0] == pytest.approx(1 + 6 + 4)
        assert jet.gradient[0] == pytest.approx([2 + 6, 3 + 4])
        assert np.allclose(jet.hessian[0], [[2, 3], [3, 2]])

    def test_jet_matches_finite_differences(self):
        e = parse_expression(
            "exp(0.3*x)*sin(y) + tanh(x*y) + log(2 + x^2)", ("x", "y")
        )
        p = [0.4, -0.7]
        jet = e.jet([p])
        fd = e.fd_jet([p])
        assert jet.value[0] == pytest.approx(fd.value[0], abs=1e-10)
        assert jet.gradient[0] == pytest.approx(fd.gradient[0], abs=1e-7)
        assert np.allclose(jet.hessian[0], fd.hessian[0], atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-0.5, max_value=0.5), min_size=6, max_size=6
        ),
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=2
        ),
    )
    def test_random_polynomial_jets_match_fd(self, coeffs, point):
        a, b, c, d, e_, f = coeffs
        text = (
            f"{a} + {b}*x + {c}*y + {d}*x^2 + {e_}*x*y + {f}*y^2"
        )
        expr = parse_expression(text, ("x", "y"))
        jet = expr.jet([point])
        fd = expr.fd_jet([point])
        assert jet.gradient[0] == pytest.approx(fd.gradient[0], abs=1e-6)
        assert np.allclose(jet.hessian[0], fd.hessian[0], atol=1e-4)


class TestLiftAndOperators:
    def test_lift_is_constant_along_new_coordinates(self):
        e = parse_expression("x^2", ("x",))
        lifted = e.lift(("x", "y", "z"))
        assert lifted.evaluate([[2.0, 5.0, -3.0]])[0] == 4.0
        jet = lifted.jet([[2.0, 5.0, -3.0]])
        assert jet.gradient[0, 1:] == pytest.approx([0.0, 0.0])

    def test_lift_requires_superset_coords(self):
        e = parse_expression("x^2", ("x",))
        with pytest.raises(UnknownIdentifierError):
            e.lift(("y", "z"))

    def test_operator_algebra(self):
        x = parse_expression("x", ("x",))
        combo = (x * x + 2.0 * x - 1.0) / (x + 3.0)
        assert combo.evaluate([[2.0]])[0] == pytest.approx((4 + 4 - 1) / 5)

    def test_apply_chains_derivatives(self):
        e = parse_expression("1 + x^2", ("x",))
        logged = e.apply("log")
        jet = logged.jet([[0.5]])
        # d/dx log(1+x^2) = 2x/(1+x^2)
        assert jet.gradient[0, 0] == pytest.approx(1.0 / 1.25)

    def test_constant(self):
        c = constant(3.5, ("x", "y"))
        jet = c.jet([[1.0, 2.0]])
        assert jet.value[0] == 3.5
        assert np.all(jet.gradient == 0.0)
        assert np.all(jet.hessian == 0.0)


# -- an independent check of the jet engine ---------------------------------
#
# Random expressions over (x, y) built so that every subexpression stays in
# its domain on the whole plane: log, sqrt, division and the negative or
# fractional powers act on 1.5 + sin(.) or 1.5 + cos(.), tan on tanh(.).
# Gradients are compared with the complex step (Martins, Sturdza & Alonso,
# ACM TOMS 29(3), 2003), computed by the small cmath evaluator below, which
# shares nothing with the engine but the AST; Hessians with Richardson-
# extrapolated central differences of `evaluate`.

_UNARY = (
    "exp(0.5*({a}))", "log(1.5 + sin({a}))", "sqrt(1.5 + cos({a}))",
    "sin({a})", "cos({a})", "tan(tanh({a}))", "sinh(0.5*({a}))",
    "cosh(0.5*({a}))", "tanh({a})", "-({a})", "({a})^3",
    "(1.5 + sin({a}))^(-2)", "(1.5 + cos({a}))^(-1)",
    "(1.5 + sin({a}))^0.5", "(1.5 + cos({a}))^(-1.5)",
)
_BINARY = (
    "({a}) + ({b})", "({a}) - ({b})", "({a}) * ({b})",
    "({a}) / (1.5 + cos({b}))",
)
_CMATH = {name: getattr(cmath, name) for name in (
    "exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh")}


def _expressions():
    leaves = st.sampled_from(["x", "y", "0.7", "-1.3", "pi", "e"])

    def extend(sub):
        unary = st.tuples(st.sampled_from(_UNARY), sub).map(
            lambda t: t[0].format(a=t[1]))
        binary = st.tuples(st.sampled_from(_BINARY), sub, sub).map(
            lambda t: t[0].format(a=t[1], b=t[2]))
        return unary | binary

    return st.recursive(leaves, extend, max_leaves=5)


def _complex_value(node, env):
    if isinstance(node, Num):
        return complex(node.value)
    if isinstance(node, Const):
        return complex({"pi": math.pi, "e": math.e}[node.name])
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_complex_value(node.arg, env)
    if isinstance(node, Call):
        return _CMATH[node.func](_complex_value(node.arg, env))
    a = _complex_value(node.left, env)
    b = _complex_value(node.right, env)
    if node.op == "^":
        return a ** b.real
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    return a * b if node.op == "*" else a / b


def _complex_step_gradient(expr, point, h=1e-30):
    out = []
    for i in range(len(point)):
        env = {c: complex(v) for c, v in zip(expr.coords, point)}
        env[expr.coords[i]] += 1j * h
        out.append(_complex_value(expr.node, env).imag / h)
    return np.array(out)


def _richardson_hessian(expr, point, h=1e-3):
    """Central second differences at steps h and h/2, combined so that the
    O(h^2) error cancels."""
    n = len(point)

    def central(step):
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                ei = np.eye(n)[i] * step
                ej = np.eye(n)[j] * step
                out[i, j] = (
                    expr.evaluate((point + ei + ej)[None])[0]
                    - expr.evaluate((point + ei - ej)[None])[0]
                    - expr.evaluate((point - ei + ej)[None])[0]
                    + expr.evaluate((point - ei - ej)[None])[0]
                ) / (4 * step * step)
        return out

    return (4 * central(h / 2) - central(h)) / 3


class TestJetEngineIndependently:
    @settings(max_examples=150, deadline=None)
    @given(
        _expressions(),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                 max_size=2),
    )
    def test_jets_match_complex_step_and_richardson(self, text, point):
        expr = parse_expression(text, ("x", "y"))
        point = np.array(point)
        jet = expr.jet(point[None])
        env = {c: complex(v) for c, v in zip(expr.coords, point)}
        value = _complex_value(expr.node, env).real
        assert jet.value[0] == pytest.approx(value, rel=1e-12, abs=1e-12)
        grad = _complex_step_gradient(expr, point)
        assert np.abs(jet.gradient[0] - grad).max() <= 1e-10 * (
            1 + np.abs(grad).max())
        hess = _richardson_hessian(expr, point)
        assert np.abs(jet.hessian[0] - hess).max() <= 1e-5 * (
            1 + np.abs(hess).max() + abs(value))

    @pytest.mark.parametrize("template", _UNARY + _BINARY)
    def test_every_primitive_and_operator_is_drawn(self, template):
        # the property above draws from these templates; each one on its own
        # at a fixed point, so that none is left to chance
        expr = parse_expression(template.format(a="0.8*x - y", b="x*y"),
                                ("x", "y"))
        point = np.array([0.3, -0.6])
        grad = _complex_step_gradient(expr, point)
        jet = expr.jet(point[None])
        assert np.abs(jet.gradient[0] - grad).max() <= 1e-12 * (
            1 + np.abs(grad).max())
        hess = _richardson_hessian(expr, point)
        assert np.abs(jet.hessian[0] - hess).max() <= 1e-7 * (
            1 + np.abs(hess).max())
