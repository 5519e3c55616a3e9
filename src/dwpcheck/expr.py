"""Scalar-field expressions over chart coordinates.

Expressions are parsed from text into an immutable AST and evaluated with
exact first- and second-order derivatives (second-order forward-mode jets).
A central-difference jet is provided as an independent cross-check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "Jet2",
    "ExpressionError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "ArityError",
    "DomainError",
    "parse_expression",
    "finite_difference_jet",
    "constant",
]


class ExpressionError(Exception):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExpressionError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name, position=None):
        loc = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown identifier {name!r}{loc}")
        self.name = name


class ArityError(ExpressionError):
    pass


class DomainError(ExpressionError):
    def __init__(self, message, subexpr):
        super().__init__(f"{message} in {subexpr!r}")
        self.subexpr = subexpr


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


CONSTANTS = {"pi": math.pi, "e": math.e}

# name -> (f, f', f'') with domain guard
_FUNCS = {
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (
        math.sqrt,
        lambda v: 0.5 / math.sqrt(v),
        lambda v: -0.25 / (v * math.sqrt(v)),
    ),
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "tan": (
        math.tan,
        lambda v: 1.0 + math.tan(v) ** 2,
        lambda v: 2.0 * math.tan(v) * (1.0 + math.tan(v) ** 2),
    ),
    "sinh": (math.sinh, math.cosh, math.sinh),
    "cosh": (math.cosh, math.sinh, math.cosh),
    "tanh": (
        math.tanh,
        lambda v: 1.0 - math.tanh(v) ** 2,
        lambda v: -2.0 * math.tanh(v) * (1.0 - math.tanh(v) ** 2),
    ),
}


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, coords):
        self.text = text
        self.coords = set(coords)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.unary()
            if not _is_constant(exponent):
                raise ExprSyntaxError("exponent must be a constant", pos)
            return BinOp("^", base, exponent)
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            k, v, _ = self.peek()
            if k == "op" and v == "(":
                if val not in _FUNCS:
                    raise UnknownIdentifierError(val, pos)
                self.advance()
                arg = self.expr()
                k2, v2, p2 = self.peek()
                if k2 == "op" and v2 == ",":
                    raise ArityError(f"{val} takes one argument (at position {p2})")
                self.expect_op(")")
                return Call(val, arg)
            if val in CONSTANTS:
                return Const(val)
            if val in self.coords:
                return Var(val)
            raise UnknownIdentifierError(val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def _is_constant(node):
    if isinstance(node, (Num, Const)):
        return True
    if isinstance(node, Neg):
        return _is_constant(node.arg)
    if isinstance(node, BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    if isinstance(node, Call):
        return _is_constant(node.arg)
    return False


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node, parent_prec=0, right_side=False):
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    if isinstance(node, Neg):
        s = "-" + _print(node.arg, _PREC["neg"])
        if parent_prec > _PREC["neg"] or (parent_prec == _PREC["neg"] and right_side):
            return f"({s})"
        return s
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _print(node.left, prec, right_side=(node.op == "^"))
        # -, /, ^ are non-associative on the right at equal precedence
        right = _print(node.right, prec, right_side=(node.op in "-/"))
        if node.op == "^":
            right = _print(node.right, prec + 1)
        s = f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({s})"
        return s
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient, and symmetric Hessian of a scalar at a point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def _const_value(node):
    """Evaluate a variable-free subtree to a float."""
    v, _, _ = _eval_jet(node, {}, 0)
    return v


def _eval_jet(node, index, dim):
    """Recursively evaluate (value, gradient, hessian) as plain float/ndarray."""
    if isinstance(node, Num):
        return node.value, np.zeros(dim), np.zeros((dim, dim))
    if isinstance(node, Const):
        return CONSTANTS[node.name], np.zeros(dim), np.zeros((dim, dim))
    if isinstance(node, Var):
        g = np.zeros(dim)
        if dim:
            g[index[node.name]] = 1.0
        return index[node.name + "\0point"], g, np.zeros((dim, dim))
    if isinstance(node, Neg):
        v, g, h = _eval_jet(node.arg, index, dim)
        return -v, -g, -h
    if isinstance(node, BinOp):
        if node.op == "^":
            bv, bg, bh = _eval_jet(node.left, index, dim)
            c = _const_value(node.right)
            return _pow_jet(bv, bg, bh, c, node)
        av, ag, ah = _eval_jet(node.left, index, dim)
        bv, bg, bh = _eval_jet(node.right, index, dim)
        if node.op == "+":
            return av + bv, ag + bg, ah + bh
        if node.op == "-":
            return av - bv, ag - bg, ah - bh
        if node.op == "*":
            return (
                av * bv,
                av * bg + bv * ag,
                av * bh + bv * ah + np.outer(ag, bg) + np.outer(bg, ag),
            )
        if node.op == "/":
            if bv == 0.0:
                raise DomainError("division by zero", _print(node))
            iv, ig, ih = _recip(bv, bg, bh)
            return (
                av * iv,
                av * ig + iv * ag,
                av * ih + iv * ah + np.outer(ag, ig) + np.outer(ig, ag),
            )
    if isinstance(node, Call):
        v, g, h = _eval_jet(node.arg, index, dim)
        if node.func == "log" and v <= 0.0:
            raise DomainError("log of nonpositive value", _print(node))
        if node.func == "sqrt" and v <= 0.0:
            raise DomainError("sqrt of nonpositive value", _print(node))
        f0, f1, f2 = _FUNCS[node.func]
        fv = f0(v)
        d1 = f1(v)
        d2 = f2(v)
        return fv, d1 * g, d1 * h + d2 * np.outer(g, g)
    raise TypeError(f"unknown node {node!r}")


def _recip(v, g, h):
    iv = 1.0 / v
    return iv, -g * iv * iv, -h * iv * iv + 2.0 * iv**3 * np.outer(g, g)


def _pow_jet(v, g, h, c, node):
    if c == 0.0:
        dim = len(g)
        return 1.0, np.zeros(dim), np.zeros((dim, dim))
    is_int = c == int(c)
    if not is_int and v <= 0.0:
        raise DomainError(
            "non-integer power of nonpositive base", _print(node)
        )
    if is_int and v == 0.0 and c < 0:
        raise DomainError("zero raised to negative power", _print(node))
    val = v**c
    if v == 0.0:
        d1 = c * v ** (c - 1) if c >= 1 else 0.0
        d2 = c * (c - 1) * v ** (c - 2) if c >= 2 else 0.0
    else:
        # computed as explicit powers: dividing val by v underflows for
        # tiny bases even when the derivative itself is representable
        d1 = c * v ** (c - 1)
        d2 = c * (c - 1) * v ** (c - 2)
    return val, d1 * g, d1 * h + d2 * np.outer(g, g)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

class Expression:
    """A parsed scalar field bound to an ordered coordinate list.

    Immutable after construction; evaluation is pure, so a single Expression
    may be evaluated concurrently from many threads.
    """

    __slots__ = ("node", "coords", "_index")

    def __init__(self, node, coords):
        self.node = node
        self.coords = tuple(coords)
        self._index = {name: i for i, name in enumerate(self.coords)}

    @property
    def dim(self):
        return len(self.coords)

    def __str__(self):
        return _print(self.node)

    def __repr__(self):
        return f"Expression({str(self)!r}, coords={self.coords})"

    def __eq__(self, other):
        return (
            isinstance(other, Expression)
            and self.node == other.node
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.node, self.coords))

    def _env(self, point):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(
                f"point has length {point.size}, expected {self.dim}"
            )
        env = dict(self._index)
        for name, i in self._index.items():
            env[name + "\0point"] = float(point[i])
        return env

    def evaluate(self, point):
        v, _, _ = _eval_jet(self.node, self._env(point), 0)
        return v

    def jet(self, point):
        v, g, h = _eval_jet(self.node, self._env(point), self.dim)
        h = 0.5 * (h + h.T)  # enforce exact symmetry against rounding
        return Jet2(float(v), g, h)

    def fd_jet(self, point, h=1e-4):
        if h <= 0:
            raise ValueError("step h must be positive")
        point = np.asarray(point, dtype=float)
        n = self.dim
        f0 = self.evaluate(point)
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fp = self.evaluate(point + ei)
            fm = self.evaluate(point - ei)
            grad[i] = (fp - fm) / (2 * h)
            hess[i, i] = (fp - 2 * f0 + fm) / (h * h)
        for i in range(n):
            for j in range(i + 1, n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h
                ej[j] = h
                val = (
                    self.evaluate(point + ei + ej)
                    - self.evaluate(point + ei - ej)
                    - self.evaluate(point - ei + ej)
                    + self.evaluate(point - ei - ej)
                ) / (4 * h * h)
                hess[i, j] = hess[j, i] = val
        return Jet2(f0, grad, 0.5 * (hess + hess.T))

    @property
    def variables(self):
        """The coordinate names the expression depends on."""
        return frozenset(_variables(self.node))

    def lift(self, coords):
        """Rebind to a coordinate superset (pullback along a projection)."""
        coords = tuple(coords)
        missing = self.variables - set(coords)
        if missing:
            raise UnknownIdentifierError(sorted(missing)[0])
        return Expression(self.node, coords)

    # Structural algebra used to assemble product metrics; operands must
    # share a coordinate binding (lift first).
    def _coerce(self, other):
        if isinstance(other, (int, float)):
            return Expression(Num(float(other)), self.coords)
        if not isinstance(other, Expression):
            return NotImplemented
        if other.coords != self.coords:
            raise ValueError("operands bound to different coordinate lists")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return Expression(BinOp("+", self.node, other.node), self.coords)

    def __sub__(self, other):
        other = self._coerce(other)
        return Expression(BinOp("-", self.node, other.node), self.coords)

    def __mul__(self, other):
        other = self._coerce(other)
        return Expression(BinOp("*", self.node, other.node), self.coords)

    def __truediv__(self, other):
        other = self._coerce(other)
        return Expression(BinOp("/", self.node, other.node), self.coords)

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return Expression(BinOp("-", other.node, self.node), self.coords)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return Expression(BinOp("/", other.node, self.node), self.coords)

    def __pow__(self, c):
        return Expression(BinOp("^", self.node, Num(float(c))), self.coords)

    def __neg__(self):
        return Expression(Neg(self.node), self.coords)

    def apply(self, func):
        if func not in _FUNCS:
            raise UnknownIdentifierError(func)
        return Expression(Call(func, self.node), self.coords)


def _variables(node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, Neg):
        yield from _variables(node.arg)
    elif isinstance(node, BinOp):
        yield from _variables(node.left)
        yield from _variables(node.right)
    elif isinstance(node, Call):
        yield from _variables(node.arg)


def parse_expression(text, coords):
    """Parse an expression over the given coordinate names."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    node = _Parser(text, coords).parse()
    return Expression(node, coords)


def constant(value, coords):
    """A constant expression bound to the given coordinates."""
    return Expression(Num(float(value)), coords)


def finite_difference_jet(expression, point, h=1e-4):
    return expression.fd_jet(point, h)
