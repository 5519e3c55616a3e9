"""A fixed reference kernel, the yardstick for the host's speed.

The benchmark's host is a share of a machine whose speed swings by up to
a factor of two within seconds, with other tenants' load, and drifts over
tens of minutes. The kernel does the same kind of work as the program's
hot path -- recursive second-order jets of expression trees in plain
Python with small numpy arrays -- on inputs fixed here, so its time moves
with the host and never with the program. run.py times it right after
every verify call and scales the call's time by it (see run.Clock).

REFERENCE_S is the kernel's median time on the 2-vCPU host the benchmark
was defined on; it only sets the unit: a time scaled by it reads as
seconds on that host at its usual speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.07
DIM = 4
_REPEATS = 3


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op, self.left, self.right, self.value = op, left, right, value


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.5:
            return _Node("num", value=float(rng.uniform(-1, 1)))
        return _Node("var", value=int(rng.integers(DIM)))
    op = str(rng.choice(["+", "-", "*", "sin", "exp"]))
    if op in ("sin", "exp"):
        return _Node(op, _tree(rng, depth - 1))
    return _Node(op, _tree(rng, depth - 1), _tree(rng, depth - 1))


def _jet(node, x):
    """(value, gradient, hessian) of `node` at the point x."""
    op = node.op
    if op == "num":
        return node.value, np.zeros(DIM), np.zeros((DIM, DIM))
    if op == "var":
        g = np.zeros(DIM)
        g[node.value] = 1.0
        return x[node.value], g, np.zeros((DIM, DIM))
    if op in ("sin", "exp"):
        v, g, h = _jet(node.left, x)
        if op == "sin":
            f, d1, d2 = math.sin(v), math.cos(v), -math.sin(v)
        else:
            f = d1 = d2 = math.exp(min(v, 5.0))
        return f, d1 * g, d1 * h + d2 * np.outer(g, g)
    av, ag, ah = _jet(node.left, x)
    bv, bg, bh = _jet(node.right, x)
    if op == "+":
        return av + bv, ag + bg, ah + bh
    if op == "-":
        return av - bv, ag - bg, ah - bh
    return (av * bv, av * bg + bv * ag,
            av * bh + bv * ah + np.outer(ag, bg) + np.outer(bg, ag))


_rng = np.random.default_rng(12345)
_TREES = [_tree(_rng, 7) for _ in range(8)]
_POINTS = [tuple(p) for p in _rng.uniform(-1, 1, size=(16, DIM))]
_MATRIX = np.eye(DIM) + 0.01 * np.outer(_POINTS[0], _POINTS[1])


def work():
    """One run of the kernel; returns a checksum of its results."""
    total = 0.0
    for _ in range(_REPEATS):
        for x in _POINTS:
            for tree in _TREES:
                v, _, h = _jet(tree, x)
                total += v + h[0, 0]
        total += np.linalg.inv(_MATRIX)[0, 0]
    return total


def seconds():
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
