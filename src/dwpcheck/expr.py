"""Scalar-field expressions over chart coordinates.

Expressions are parsed from text into an immutable AST and evaluated with
exact first- and second-order derivatives (second-order forward-mode jets)
on a whole batch of points at once.

The jets are zero-aware: a derivative that is zero by construction (a
constant's gradient and Hessian, a variable's Hessian) is never built, and
no term made from it is computed or added; the terms that remain are added
in the order the formulas give, so every finite result is bit for bit the
one that zero arrays would give.  Every domain and overflow check runs all
the same, also where no derivative is wanted.  Jets of several expressions
at the same points may share a memo (`shared_memo`), keyed on node
identity, so that a subtree they share (a squared warping in each entry of
a product metric's block) is jetted once; it keeps the jets of such
subtrees only.
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
    "constant",
    "shared_memo",
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
    """A subexpression leaves its domain; `index` is the first point (row of
    the evaluated batch) where it does."""

    def __init__(self, message, subexpr, index=0):
        super().__init__(f"{message} in {subexpr!r}")
        self.subexpr = subexpr
        self.index = index


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

# name -> (f, f', f'') on arrays; the domain guards are in _eval_jet
_FUNCS = {
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
    """Values (N,), gradients (N, d) and symmetric Hessians (N, d, d) of a
    scalar at N points."""

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


# Inside the engine a derivative that is zero by construction is None; the
# helpers below skip it and keep the order of the remaining terms, which
# keeps the results bitwise (see the module docstring).

def _check(bad, message, node):
    """Raise a DomainError at the first point where `bad` holds."""
    if bad.any():
        raise DomainError(message, _print(node), int(bad.argmax()))


def _neg(t):
    return None if t is None else -t


def _times(c, t):
    """Per-point scalars c[n] times the tensors t[n, ...]."""
    if t is None:
        return None
    return c.reshape(c.shape + (1,) * (t.ndim - 1)) * t


def _outer(a, b):
    if a is None or b is None:
        return None
    return a[:, :, None] * b[:, None, :]


def _sum(*terms):
    """The terms that are not None, added left to right."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _chain(fv, d1, d2, g, h):
    """Jet of f(u) from f, f' and f'' at u and the jet (g, h) of u."""
    return fv, _times(d1, g), _sum(_times(d1, h), _times(d2, _outer(g, g)))


def _eval_jet(node, x, index, dim, memo=None):
    """(value (N,), gradient (N, dim), Hessian (N, dim, dim)) of the subtree
    at the points x (N, d), None standing for a zero derivative; dim 0
    evaluates values only.  A node that the memo (see `shared_memo`) names
    is jetted once: the memo must belong to one batch of points."""
    entry = None if memo is None else memo.get(id(node))
    if entry is None:
        return _node_jet(node, x, index, dim, memo)
    if entry[1] is None:
        entry = memo[id(node)] = (node, _node_jet(node, x, index, dim, memo))
    return entry[1]


def _node_jet(node, x, index, dim, memo):
    """The jet of one node from its children's.  Overflow of ^, exp, sinh
    and cosh is a DomainError, as are the usual domain faults; each check
    runs whether or not the derivatives are wanted."""
    if isinstance(node, Var):
        i = index[node.name]
        g = None
        if dim:
            g = np.zeros((len(x), dim))
            g[:, i] = 1.0
        return x[:, i].copy(), g, None
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
        return np.full(len(x), value), None, None
    if isinstance(node, Neg):
        v, g, h = _eval_jet(node.arg, x, index, dim, memo)
        return -v, _neg(g), _neg(h)
    if isinstance(node, BinOp):
        if node.op == "^":
            bv, bg, bh = _eval_jet(node.left, x, index, dim, memo)
            c = float(_eval_jet(node.right, np.zeros((1, 0)), {}, 0)[0][0])
            return _pow_jet(bv, bg, bh, c, node)
        av, ag, ah = _eval_jet(node.left, x, index, dim, memo)
        bv, bg, bh = _eval_jet(node.right, x, index, dim, memo)
        if node.op == "+":
            return av + bv, _sum(ag, bg), _sum(ah, bh)
        if node.op == "-":
            return av - bv, _sum(ag, _neg(bg)), _sum(ah, _neg(bh))
        if node.op == "/":
            _check(bv == 0.0, "division by zero", node)
            bv, bg, bh = _recip(bv, bg, bh, node)
        return (av * bv, _sum(_times(av, bg), _times(bv, ag)),
                _sum(_times(av, bh), _times(bv, ah), _outer(ag, bg),
                     _outer(bg, ag)))
    if isinstance(node, Call):
        v, g, h = _eval_jet(node.arg, x, index, dim, memo)
        if node.func in ("log", "sqrt"):
            _check(v <= 0.0, f"{node.func} of nonpositive value", node)
        if node.func in ("sin", "cos", "tan"):
            _check(np.isinf(v), f"{node.func} of an infinite value", node)
        f0, f1, f2 = _FUNCS[node.func]
        fv = f0(v)
        overflows = node.func in ("exp", "sinh", "cosh")
        if g is None and not overflows:
            return fv, None, None
        d1, d2 = f1(v), f2(v)
        if overflows:
            _check(np.isfinite(v) & (np.isinf(fv) | np.isinf(d1)
                                     | np.isinf(d2)), "overflow", node)
        return _chain(fv, d1, d2, g, h)
    raise TypeError(f"unknown node {node!r}")


def _power(v, c, node):
    """v ** c, with overflow a DomainError."""
    out = v**c
    _check(np.isinf(out) & np.isfinite(v), "overflow", node)
    return out


def _recip(v, g, h, node):
    iv = 1.0 / v
    # the overflow check of iv^3 runs even where no Hessian is built
    d2 = 2.0 * _power(iv, 3, node)
    return iv, _times(iv, _times(iv, _neg(g))), _sum(
        _times(iv, _times(iv, _neg(h))), _times(d2, _outer(g, g)))


def _pow_jet(v, g, h, c, node):
    if c == 0.0:
        return np.ones_like(v), None, None
    if not math.isfinite(c):
        raise DomainError("non-finite exponent", _print(node))
    if c != int(c):
        _check(v <= 0.0, "non-integer power of nonpositive base", node)
    elif c < 0:
        _check(v == 0.0, "zero raised to negative power", node)
    # computed as explicit powers: dividing val by v underflows for tiny
    # bases even when the derivative itself is representable; a zero base
    # only gets here with c a positive integer, where 0^(c-2) is needed
    # only for c >= 2
    val = _power(v, c, node)
    d1 = c * _power(v, c - 1, node)
    d2 = c * (c - 1) * _power(np.where(v == 0.0, 1.0, v) if c < 2 else v,
                              c - 2, node)
    return _chain(val, d1, d2, g, h)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

class Expression:
    """A parsed scalar field bound to an ordered coordinate list, evaluated
    on batches of points: an (N, d) array, one point per row.

    Immutable after construction; evaluation is pure, so a single Expression
    may be evaluated concurrently from many threads.
    """

    __slots__ = ("node", "coords", "_index", "_hash")

    def __init__(self, node, coords):
        self.node = node
        self.coords = tuple(coords)
        self._index = {name: i for i, name in enumerate(self.coords)}
        self._hash = None

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
        # the structural hash walks the whole tree: take it once
        if self._hash is None:
            self._hash = hash((self.node, self.coords))
        return self._hash

    def _jet(self, points, dim, memo=None):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(
                f"points must be an (N, {self.dim}) array, got shape "
                f"{points.shape}"
            )
        try:
            with np.errstate(all="ignore"):
                return _eval_jet(self.node, points, self._index, dim, memo)
        except DomainError as exc:
            # the first failing subexpression may fail later in point order
            # than another one: an earlier point's error takes precedence
            if exc.index:
                self._jet(points[: exc.index], dim)
            raise

    def evaluate(self, points, memo=None):
        """Values (N,) at the points (N, d): the jet's value, bitwise, with
        the same domain and overflow checks.  A memo made by `shared_memo`
        for values at these points is shared as `jet`'s is."""
        return self._jet(points, 0, memo)[0]

    def jet(self, points, memo=None):
        """The jet at the points (N, d).  Jets of expressions on the same
        coordinates and the same points may share a memo made for them by
        `shared_memo`: a subtree that they share is then jetted once."""
        v, g, h = self._jet(points, self.dim, memo)
        n, dim = len(v), self.dim
        if g is None:
            g = np.zeros((n, dim))
        if h is None:
            h = np.zeros((n, dim, dim))
        else:  # enforce exact symmetry against rounding
            h = 0.5 * (h + h.transpose(0, 2, 1))
        return Jet2(v, g, h)

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
    def __mul__(self, other):
        if other.coords != self.coords:
            raise ValueError("operands bound to different coordinate lists")
        return Expression(BinOp("*", self.node, other.node), self.coords)

    def __pow__(self, c):
        return Expression(BinOp("^", self.node, Num(float(c))), self.coords)

    def apply(self, func):
        if func not in _FUNCS:
            raise UnknownIdentifierError(func)
        return Expression(Call(func, self.node), self.coords)


def _children(node):
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return ()


def _variables(node):
    if isinstance(node, Var):
        yield node.name
    for child in _children(node):
        yield from _variables(child)


def shared_memo(expressions):
    """A memo for jets of the expressions at one batch of points: it names
    the subtrees that occur more than once among them (the same node, as
    the Expression algebra shares it), so that each is jetted once, and it
    keeps no other jet.  It holds each node it names, so no id is reused
    while it lives."""
    seen, memo = set(), {}
    stack = [expr.node for expr in expressions]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            memo[id(node)] = (node, None)
        else:
            seen.add(id(node))
            stack.extend(_children(node))
    return memo


def parse_expression(text, coords):
    """Parse an expression over the given coordinate names."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    node = _Parser(text, coords).parse()
    return Expression(node, coords)


def constant(value, coords):
    """A constant expression bound to the given coordinates."""
    return Expression(Num(float(value)), coords)
