"""The benchmark's pins into the program: every function that
bench/spans.py traces by name, and the two names that bench/test_bench.py
reads off `checks`, exist in src.  A definition that the benchmark pins
and the program no longer calls fails here, and not only in a traced
benchmark run, which refuses a missing span."""

import importlib
import importlib.util
import pathlib

from dwpcheck import checks

SPANS_FILE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_spans():
    """bench/spans.py's SPANS: span name -> (module, qualified name)."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolve(module, qualname):
    """The object that the tracer wraps for (module, qualified name), or
    None: the module's attribute, or an attribute of one of its classes."""
    mod = importlib.import_module(f"dwpcheck.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    return getattr(owner, attr, None)


def test_every_traced_span_resolves_to_a_callable():
    spans = traced_spans()
    assert spans
    missing = [name for name, (module, qualname) in spans.items()
               if not callable(resolve(module, qualname))]
    assert missing == []


def test_the_names_the_benchmark_tests_read_exist():
    assert callable(checks.summarize)
    assert isinstance(checks._FACTOR_STRUCTURES, dict)
    assert checks._FACTOR_STRUCTURES
    assert all(callable(f) for f in checks._FACTOR_STRUCTURES.values())
