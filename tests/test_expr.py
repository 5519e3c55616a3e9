"""Expression parsing and exact differentiation."""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwpcheck import expr as expr_module
from dwpcheck.expr import (
    CONSTANTS,
    MAX_DEPTH,
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
    Jet2,
    _print,
    constant,
    parse_expression,
    shared_memo,
)


def fd_jet(expr, points, h=1e-4):
    """Central finite-difference jet of expr at the points, an oracle
    independent of the forward-mode engine."""
    points = np.asarray(points, dtype=float)
    n = expr.dim
    step = h * np.eye(n)
    f0 = expr.evaluate(points)
    grad = np.zeros((len(points), n))
    hess = np.zeros((len(points), n, n))
    for i in range(n):
        fp = expr.evaluate(points + step[i])
        fm = expr.evaluate(points - step[i])
        grad[:, i] = (fp - fm) / (2 * h)
        hess[:, i, i] = (fp - 2 * f0 + fm) / (h * h)
        for j in range(i + 1, n):
            ei, ej = step[i], step[j]
            hess[:, i, j] = hess[:, j, i] = (
                expr.evaluate(points + ei + ej)
                - expr.evaluate(points + ei - ej)
                - expr.evaluate(points - ei + ej)
                + expr.evaluate(points - ei - ej)
            ) / (4 * h * h)
    return Jet2(f0, grad, 0.5 * (hess + hess.transpose(0, 2, 1)))


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

    def test_a_literal_not_finite_as_a_float_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression("x + 2.5e400*y", ("x", "y"))
        assert info.value.position == 4
        assert str(info.value) == ("number 2.5e400 is not finite as a float "
                                   "(at position 4)")
        largest = parse_expression("1.7976931348623157e308", ("x",))
        assert largest.evaluate([[0.0]])[0] == 1.7976931348623157e308

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


# form -> (text of k levels, the largest k the parser accepts, what it
# refuses at k + 1, and at which position): nesting counts the parse levels
# in progress, the whole expression being the first, and tree depth the
# nodes on the longest path from the root, a leaf being 1
NESTED, DEEP_TREE = "expression nested deeper", "expression deeper"
DEEP = {
    "parentheses": (lambda k: "(" * k + "x" + ")" * k, MAX_DEPTH - 1,
                    NESTED, MAX_DEPTH),
    "calls": (lambda k: "sin(" * k + "x" + ")" * k, MAX_DEPTH - 1, NESTED,
              4 * MAX_DEPTH),
    "signs": (lambda k: "-" * k + "x", MAX_DEPTH - 1, NESTED, MAX_DEPTH),
    "exponents": (lambda k: "x" + "^1" * k, MAX_DEPTH - 1, NESTED,
                  2 * MAX_DEPTH),
    "sum": (lambda k: "+".join(["x"] * k), MAX_DEPTH, DEEP_TREE,
            2 * MAX_DEPTH - 1),
    "product": (lambda k: "*".join(["x"] * k), MAX_DEPTH, DEEP_TREE,
                2 * MAX_DEPTH - 1),
    "signed calls": (lambda k: "sin(-(" * k + "x" + "))" * k,
                     (MAX_DEPTH - 1) // 3, NESTED,
                     6 * ((MAX_DEPTH - 1) // 3) + 4),
}


class TestDeepExpressions:
    def test_a_right_nested_power_chain_prints_each_node_once(
            self, monkeypatch):
        """x^1^...^1 prints each node once: the printing of a ^ node's
        exponent used to run twice, doubling the time per level."""
        e = parse_expression("x" + "^1" * 40, ("x",))
        printed, printer = [], expr_module._print

        def counting(node, *args, **kwargs):
            printed.append(node)
            # a print that doubles per level stops here, at once
            assert len(printed) <= 81
            return printer(node, *args, **kwargs)

        monkeypatch.setattr(expr_module, "_print", counting)
        start = time.perf_counter()
        assert str(e) == "x" + "^(1" * 39 + "^1" + ")" * 39
        assert time.perf_counter() - start < 1.0
        assert len(printed) == 81  # 40 ^ nodes and 41 leaves

    @pytest.mark.parametrize("form", sorted(DEEP))
    def test_the_deepest_accepted_expression_is_walked_whole(self, form):
        """At the bound, every walk of the tree (hashing, comparing,
        printing, lifting and jetting) runs under the default recursion
        limit."""
        make, k, _, _ = DEEP[form]
        text = make(k)
        e = parse_expression(text, ("x",))
        assert hash(e) == hash(parse_expression(text, ("x",)))
        assert e == parse_expression(text, ("x",))
        # the text again, up to parentheses and spaces
        bare = str.maketrans("", "", "() ")
        assert str(e).translate(bare) == text.translate(bare)
        jet = e.lift(("x", "y")).jet([[0.3, 0.1]])
        assert np.isfinite(jet.hessian).all()

    @pytest.mark.parametrize("form", sorted(DEEP))
    def test_one_level_more_is_a_syntax_error(self, form):
        make, k, refusal, position = DEEP[form]
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression(make(k + 1), ("x",))
        assert info.value.position == position
        assert str(info.value) == (
            f"{refusal} than {MAX_DEPTH} levels (at position {position})")


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
        fd = fd_jet(e, [p])
        assert jet.value[0] == pytest.approx(fd.value[0], abs=1e-10)
        assert jet.gradient[0] == pytest.approx(fd.gradient[0], abs=1e-7)
        assert np.allclose(jet.hessian[0], fd.hessian[0], atol=1e-5)

    @settings(max_examples=25, deadline=None, derandomize=True)
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
        fd = fd_jet(expr, [point])
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


def _leaves_float_range(node, env):
    """Whether evaluating `node` in complex arithmetic overflows or leaves
    a function's domain somewhere on the way, or ends in a non-finite
    value."""
    try:
        return not math.isfinite(_complex_value(node, env).real)
    except (OverflowError, ValueError):
        return True


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
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        _expressions(),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                 max_size=2),
    )
    def test_jets_match_complex_step_and_richardson(self, text, point):
        expr = parse_expression(text, ("x", "y"))
        point = np.array(point)
        env = {c: complex(v) for c, v in zip(expr.coords, point)}
        try:
            jet = expr.jet(point[None])
        except DomainError:
            # nested exp, sinh, cosh and cubes can leave float range (say
            # exp(0.5*exp(0.5*pi^3))); the engine may refuse such a draw
            # only where the complex evaluation leaves it as well
            assert _leaves_float_range(expr.node, env)
            return
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


# -- the dense engine, as a reference for the zero-aware one -----------------
#
# The engine leaves out derivatives that are zero by construction and jets a
# subtree shared by several expressions once per memo.  Below is the engine
# it replaced, which builds every gradient and Hessian as an array and adds
# the zero ones too; the two must agree bit for bit (up to the sign of a
# zero), and raise the same DomainError at the same point.


# name -> (f, f', f'') of v alone, written out here so that a wrong entry
# of the engine's own table cannot pass by being read on both sides
_DENSE_FUNCS = {
    "exp": (np.exp, np.exp, np.exp),
    "log": (np.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (
        np.sqrt,
        lambda v: 0.5 / np.sqrt(v),
        lambda v: -0.25 / (v * np.sqrt(v)),
    ),
    "sin": (np.sin, np.cos, lambda v: -np.sin(v)),
    "cos": (np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v)),
    "tan": (
        np.tan,
        lambda v: 1.0 + np.tan(v) ** 2,
        lambda v: 2.0 * np.tan(v) * (1.0 + np.tan(v) ** 2),
    ),
    "sinh": (np.sinh, np.cosh, np.sinh),
    "cosh": (np.cosh, np.sinh, np.cosh),
    "tanh": (
        np.tanh,
        lambda v: 1.0 - np.tanh(v) ** 2,
        lambda v: -2.0 * np.tanh(v) * (1.0 - np.tanh(v) ** 2),
    ),
}


def _dense_check(bad, message, node):
    if bad.any():
        raise DomainError(message, _print(node), int(bad.argmax()))


def _dense_outer(a, b):
    return a[:, :, None] * b[:, None, :]


def _dense_chain(fv, d1, d2, g, h):
    return (fv, d1[:, None] * g,
            d1[:, None, None] * h + d2[:, None, None] * _dense_outer(g, g))


def _dense_eval_jet(node, x, index, dim):
    if isinstance(node, (Num, Const, Var)):
        n = len(x)
        g, h = np.zeros((n, dim)), np.zeros((n, dim, dim))
        if isinstance(node, Var):
            if dim:
                g[:, index[node.name]] = 1.0
            return x[:, index[node.name]].copy(), g, h
        value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
        return np.full(n, value), g, h
    if isinstance(node, Neg):
        v, g, h = _dense_eval_jet(node.arg, x, index, dim)
        return -v, -g, -h
    if isinstance(node, BinOp):
        if node.op == "^":
            bv, bg, bh = _dense_eval_jet(node.left, x, index, dim)
            c = float(_dense_eval_jet(node.right, np.zeros((1, 0)), {},
                                      0)[0][0])
            return _dense_pow_jet(bv, bg, bh, c, node)
        av, ag, ah = _dense_eval_jet(node.left, x, index, dim)
        bv, bg, bh = _dense_eval_jet(node.right, x, index, dim)
        if node.op == "+":
            return av + bv, ag + bg, ah + bh
        if node.op == "-":
            return av - bv, ag - bg, ah - bh
        if node.op == "/":
            _dense_check(bv == 0.0, "division by zero", node)
            bv, bg, bh = _dense_recip(bv, bg, bh, node)
        return (av * bv, av[:, None] * bg + bv[:, None] * ag,
                av[:, None, None] * bh + bv[:, None, None] * ah
                + _dense_outer(ag, bg) + _dense_outer(bg, ag))
    if isinstance(node, Call):
        v, g, h = _dense_eval_jet(node.arg, x, index, dim)
        if node.func in ("log", "sqrt"):
            _dense_check(v <= 0.0, f"{node.func} of nonpositive value", node)
        if node.func in ("sin", "cos", "tan"):
            _dense_check(np.isinf(v), f"{node.func} of an infinite value",
                         node)
        f0, f1, f2 = _DENSE_FUNCS[node.func]
        fv, d1, d2 = f0(v), f1(v), f2(v)
        if node.func in ("exp", "sinh", "cosh"):
            _dense_check(np.isfinite(v) & (np.isinf(fv) | np.isinf(d1)
                                           | np.isinf(d2)), "overflow", node)
        return _dense_chain(fv, d1, d2, g, h)
    raise TypeError(f"unknown node {node!r}")


def _dense_power(v, c, node):
    out = v**c
    _dense_check(np.isinf(out) & np.isfinite(v), "overflow", node)
    return out


def _dense_recip(v, g, h, node):
    iv = 1.0 / v
    return iv, -g * iv[:, None] * iv[:, None], (
        -h * iv[:, None, None] * iv[:, None, None]
        + (2.0 * _dense_power(iv, 3, node))[:, None, None]
        * _dense_outer(g, g)
    )


def _dense_pow_jet(v, g, h, c, node):
    if c == 0.0:
        return np.ones_like(v), np.zeros_like(g), np.zeros_like(h)
    if not math.isfinite(c):
        raise DomainError("non-finite exponent", _print(node))
    if c != int(c):
        _dense_check(v <= 0.0, "non-integer power of nonpositive base", node)
    elif c < 0:
        _dense_check(v == 0.0, "zero raised to negative power", node)
    val = _dense_power(v, c, node)
    d1 = c * _dense_power(v, c - 1, node)
    d2 = c * (c - 1) * _dense_power(
        np.where(v == 0.0, 1.0, v) if c < 2 else v, c - 2, node)
    return _dense_chain(val, d1, d2, g, h)


def _dense_jet(expr, points, dim):
    """The dense engine behind Expression._jet: an earlier point's error
    takes precedence, and Hessians are symmetrized."""
    try:
        with np.errstate(all="ignore"):
            v, g, h = _dense_eval_jet(expr.node, points, expr._index, dim)
    except DomainError as exc:
        if exc.index:
            _dense_jet(expr, points[: exc.index], dim)
        raise
    return v, g, 0.5 * (h + h.transpose(0, 2, 1))


def _outcome(run):
    """The arrays a run gives, or its DomainError's message and index."""
    try:
        return run()
    except DomainError as exc:
        return str(exc), exc.index


def _same(a, b):
    """Equal outcomes: arrays under == with NaN equal to NaN (so a zero
    equals a zero of either sign), or equal errors."""
    errors = [isinstance(x[0], str) for x in (a, b)]
    if any(errors):
        return all(errors) and a == b
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
        for x, y in zip(a, b))


_POINT_BATCHES = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2,
             max_size=2), min_size=n, max_size=n))


_RAISING_POINTS = [[2.0, 3.0], [1.0, 1.0], [-1.0, 2.0], [0.5, -1.0],
                   [0.0, 0.0]]


class TestZeroAwareEngine:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_expressions(), _expressions(), _POINT_BATCHES)
    def test_matches_the_dense_engine(self, a, b, points):
        points = np.array(points)
        coords = ("x", "y")
        ea, eb = parse_expression(a, coords), parse_expression(b, coords)
        # a, a * b and b * a through one memo: the second and third reuse
        # the jets of a and b
        exprs = (ea, ea * eb, eb * ea)
        memo = shared_memo(exprs)
        for expr in exprs:
            assert _same(_outcome(lambda: tuple(vars(expr.jet(
                points, memo)).values())),
                _outcome(lambda: _dense_jet(expr, points, 2)))
            assert _same(_outcome(lambda: (expr.evaluate(points),)),
                         _outcome(lambda: _dense_jet(expr, points, 0)[:1]))

    @pytest.mark.parametrize("text, points", [
        *((text, _RAISING_POINTS) for text in (
            "log(x) + sqrt(y)", "sqrt(y) * log(x)", "x / (y - 1)",
            "(x - 0.5)^(-2)", "(x - 1)^0.5", "y / exp(-800*x)",
            "exp(400*x) * y", "sinh(300*y)", "cosh(3*x)^250",
            "1 / (0.5*x)^400", "tan(exp(800*y))", "x^(0 - 1) + 2")),
        # each part of a merged overflow test firing first: x^-1.5 alone
        # at a subnormal x; x^-4 alone, then x^-3 and x^-4; x^2 alone;
        # exp (f' = f); cosh and its f' = sinh; sinh and its f' = cosh
        ("x^0.5", [[1.0, 0.0], [5e-324, 0.0]]),
        ("x^(-2)", [[1.0, 0.0], [1e-80, 0.0]]),
        ("x^(-2)", [[1.0, 0.0], [1e-105, 0.0]]),
        ("(1e200*x)^2", [[1e-110, 0.0], [2.0, 0.0]]),
        ("exp(709.9*x)", [[0.999, 0.0], [1.0001, 0.0]]),
        ("cosh(-710*y)", [[0.0, 0.5], [0.0, 1.001]]),
        ("sinh(710*y)", [[0.0, 0.5], [0.0, 1.001]]),
        # two parts failing at different rows: x^-4 at row 1 comes before
        # x^-2 itself at row 2, and the earlier row wins; so does x^-3 of
        # the second term at row 0, before the first term's x^2 at row 1
        ("x^(-2)", [[1.0, 0.0], [1e-80, 0.0], [1e-160, 0.0]]),
        ("(1e200*x)^2 + x^(-2)", [[1e-110, 0.0], [2.0, 0.0]]),
    ])
    def test_raises_what_the_dense_engine_raises(self, text, points):
        expr = parse_expression(text, ("x", "y"))
        points = np.array(points)
        for dim in (0, 2):
            mine = _outcome(lambda: expr._jet(points, dim))
            assert isinstance(mine[0], str), mine
            assert mine == _outcome(lambda: _dense_jet(expr, points, dim))

    def test_the_memo_keeps_the_shared_subtrees_only(self):
        coords = ("x", "y")
        a = parse_expression("sin(x) + y", coords)
        b = parse_expression("x * y^2", coords)
        exprs = [a * b, a ** 2, b]
        memo = shared_memo(exprs)
        assert sorted(memo) == sorted([id(a.node), id(b.node)])
        points = np.array([[0.3, -0.6], [1.2, 0.4]])
        for expr in exprs:
            expr.jet(points, memo)
        assert sorted(memo) == sorted([id(a.node), id(b.node)])
        assert [memo[id(e.node)][0] for e in (a, b)] == [a.node, b.node]
        assert all(jet is not None for _, jet in memo.values())

    def test_zero_derivatives_are_zero_arrays(self):
        jet = parse_expression("2 * pi - e", ("x", "y")).jet(np.ones((3, 2)))
        assert jet.gradient.shape == (3, 2) and jet.hessian.shape == (3, 2, 2)
        assert not jet.gradient.any() and not jet.hessian.any()
