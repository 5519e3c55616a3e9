"""No state kept across verify calls: repeated runs in one process hold no
more memory than the first ones, and what is built once per chart or per
expression is not built again on each pass."""

import contextlib
import gc
import io
import tracemalloc

import pytest

from dwpcheck import expr, geometry
from dwpcheck.cli import main
from dwpcheck.expr import Expression

# the flat 2+2 Gaussian with its three gradient solitons, every gate
# passing, so that each factor-structure builder runs
GAUSSIAN = """
[factor.1]
dim = 2
coords = ["x", "y"]
metric = [["1", "0"], ["0", "1"]]

[factor.2]
dim = 2
coords = ["s", "t"]
metric = [["1", "0"], ["0", "1"]]

[potential]
psi = "0.25*(x^2 + y^2 + s^2 + t^2)"

[soliton]
type = "gradient_ricci"
lambda = 0.5

[soliton]
type = "gradient_riemann"
lambda = 1.0

[soliton]
type = "gradient_yamabe"
lambda = -0.5

[sampling]
points = 16
seed = 1
box = [-1.0, 1.0]
tolerance = 1e-8
"""

# tracemalloc's growth over 50 calls after 10 warm-up calls: 13.5-16.7 kB
# with nothing kept, about 122 kB with each ^ node's exponent kept in a
# module-level dict keyed on id(node) (which must hold the node, so that
# no id is reused while the dict lives)
GROWTH_BOUND = 40_000


@pytest.fixture
def verify(tmp_path):
    spec = tmp_path / "gaussian.spec"
    spec.write_text(GAUSSIAN)
    argv = ["verify", str(spec), "--format", "structured", "--checks",
            "solitons"]

    def run(calls=1):
        for _ in range(calls):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    return run


def test_repeated_calls_keep_no_memory(verify):
    tracemalloc.start()
    try:
        verify(10)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        verify(50)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < GROWTH_BOUND, grown


def test_tables_and_walks_are_taken_once(verify, monkeypatch):
    tables, charts, shares, passes = [], [], [], []
    walks, reads = [], []

    def counting(record, name, real):
        def wrapper(*args):
            record.append(args[0] if name is None else name)
            return real(*args)
        return wrapper

    real_variables = Expression.variables.fget
    monkeypatch.setattr(geometry, "shared_memo",
                        counting(tables, "memo", expr.shared_memo))
    monkeypatch.setattr(geometry.ChartManifold, "__init__", counting(
        charts, None, geometry.ChartManifold.__init__))
    monkeypatch.setattr(geometry.ChartBatch, "share_jets", counting(
        shares, None, geometry.ChartBatch.share_jets))
    monkeypatch.setattr(geometry.ChartManifold, "_entries", counting(
        passes, None, geometry.ChartManifold._entries))
    monkeypatch.setattr(expr, "_variables",
                        counting(walks, None, expr._variables))
    monkeypatch.setattr(Expression, "variables", property(
        counting(reads, None, real_variables)))
    verify()
    # the two factor charts and the product chart
    assert len(charts) == 3
    # one table per chart, and one per share_jets call; none per pass
    assert len(passes) > len(charts)
    assert len(tables) == len(charts) + len(shares)
    # one walk per expression whose variables are read, however often
    read_once = {id(e): e for e in reads}
    assert len(reads) > len(read_once)
    assert len(walks) == len(read_once)
