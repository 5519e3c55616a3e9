"""Span tracing of the program's layers, from outside the program.

`Tracer.install()` wraps the public functions listed in SPANS so that each
call records a span (name, start, end, parent) in flat in-memory arrays;
`uninstall()` puts the originals back. Module-level functions are replaced
wherever a dwpcheck module holds them, including inside module-level dicts,
so calls through `from .x import f` bindings are traced too. A listed
function that the program no longer has is skipped; install() returns the
span names it found, and run.py refuses a traced run with any missing, so
that no metric reads 0 because a function was renamed.

A span's self time is its duration minus the durations of its children;
spans nest strictly on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "dwpcheck"
_CHECK_FAMILIES = ("lemma1", "lemma2", "lemma5", "hessian", "scalar",
                   "laplacian", "solitons", "concircular", "conharmonic")

# span name -> (module, qualified name); the layer is the text before the
# first dot of the span name
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.build_run_config": ("cli", "build_run_config"),
    "cli.run": ("cli", "run"),
    "specfile.load_spec": ("specfile", "load_spec"),
    "expr.parse_expression": ("expr", "parse_expression"),
    "expr.evaluate": ("expr", "Expression.evaluate"),
    "expr.jet": ("expr", "Expression.jet"),
    "expr.lift": ("expr", "Expression.lift"),
    "geometry.metric_at": ("geometry", "ChartManifold.metric_at"),
    "geometry.christoffel": ("geometry", "ChartManifold.christoffel"),
    "geometry.riemann_oracle": ("geometry", "ChartManifold.riemann_oracle"),
    "geometry.ricci_oracle": ("geometry", "ChartManifold.ricci_oracle"),
    "geometry.scalar_oracle": ("geometry", "ChartManifold.scalar_oracle"),
    "geometry.hessian_field": ("geometry", "ChartManifold.hessian_field"),
    "geometry.gradient_field": ("geometry", "ChartManifold.gradient_field"),
    "geometry.laplacian_field": ("geometry", "ChartManifold.laplacian_field"),
    "geometry.well_conditioned_at":
        ("geometry", "ChartManifold.well_conditioned_at"),
    "geometry.sample_points": ("geometry", "sample_points"),
    "geometry.kulkarni_nomizu": ("geometry", "kulkarni_nomizu"),
    "dwp.construct": ("dwp", "DoublyWarpedProduct.__init__"),
    "dwp.validate_warpings": ("dwp", "DoublyWarpedProduct.validate_warpings"),
    "dwp.point_data": ("dwp", "DoublyWarpedProduct.point_data"),
    "dwp.coordinate_lifts": ("dwp", "coordinate_lifts"),
    "dwp.factor_hessian": ("dwp", "DoublyWarpedProduct.factor_hessian"),
    **{
        f"dwp.{name}": ("dwp", f"DoublyWarpedProduct.{name}")
        for name in ("riemann_closed", "riemann_closed_tensor",
                     "ricci_closed", "ricci_operator_closed", "scalar_closed",
                     "hessian_split_closed", "covariant_closed",
                     "laplacian_split")
    },
    **{
        f"special.{name}": ("special", name)
        for name in ("concircular_oracle", "conharmonic_oracle",
                     "concircular_closed", "conharmonic_closed",
                     "concircular_flat_consequences",
                     "conharmonic_flat_consequences", "factor_block_trace",
                     "einstein_defect", "f_almost_defect")
    },
    **{
        f"solitons.{name}": ("solitons", name)
        for name in ("residual", "residual_values", "contraction_consistency",
                     "yamabe_factor_structures", "ricci_factor_structures",
                     "riemann_factor_structures",
                     "quasi_einstein_factor_structures",
                     "mixed_yamabe_condition", "mixed_ricci_condition",
                     "log_hessian_identity")
    },
    **{f"checks.{f}": ("checks", f"check_{f}") for f in _CHECK_FAMILIES},
    "checks.run_all": ("checks", "run_all"),
    "reporting.summarize": ("reporting", "summarize"),
    "reporting.skipped": ("reporting", "skipped"),
    "reporting.render_json": ("reporting", "render_json"),
}

LAYERS = ("cli", "specfile", "expr", "geometry", "dwp", "special",
          "solitons", "checks", "reporting")

# metric -> span names whose self time it sums
SELF_GROUPS = {
    "expr.evaluate.self_s": ("expr.evaluate",),
    "expr.jet.self_s": ("expr.jet",),
    "geometry.oracle.self_s": (
        "geometry.metric_at", "geometry.christoffel",
        "geometry.riemann_oracle", "geometry.ricci_oracle",
        "geometry.scalar_oracle", "geometry.hessian_field"),
    "dwp.point_data.self_s": ("dwp.point_data",),
    "dwp.closed.self_s": tuple(
        n for n in SPANS if n.startswith("dwp.") and (
            n.endswith("_closed") or n in ("dwp.laplacian_split",
                                           "dwp.riemann_closed_tensor"))),
    "special.closed.self_s": ("special.concircular_closed",
                              "special.conharmonic_closed"),
    "special.oracle.self_s": ("special.concircular_oracle",
                              "special.conharmonic_oracle"),
    "special.consequences.self_s": (
        "special.concircular_flat_consequences",
        "special.conharmonic_flat_consequences",
        "special.factor_block_trace", "special.einstein_defect",
        "special.f_almost_defect"),
    "solitons.residual.self_s": ("solitons.residual",
                                 "solitons.residual_values",
                                 "solitons.contraction_consistency"),
    "solitons.factor_structures.self_s": (
        "solitons.yamabe_factor_structures", "solitons.ricci_factor_structures",
        "solitons.riemann_factor_structures",
        "solitons.quasi_einstein_factor_structures",
        "solitons.mixed_yamabe_condition", "solitons.mixed_ricci_condition",
        "solitons.log_hessian_identity"),
    "reporting.summarize.self_s": ("reporting.summarize",),
}

# metric -> span whose call count it is
CALL_COUNTS = {
    "expr.evaluate.calls": "expr.evaluate",
    "expr.jet.calls": "expr.jet",
    "dwp.point_data.calls": "dwp.point_data",
    "dwp.riemann_closed.calls": "dwp.riemann_closed",
}

# metric -> span whose total (inclusive) time it is
TOTALS = {
    "geometry.sample_points.s": "geometry.sample_points",
    "reporting.render_json.s": "reporting.render_json",
    "specfile.load_spec.s": "specfile.load_spec",
    **{f"checks.{f}.s": f"checks.{f}" for f in _CHECK_FAMILIES},
}


class Tracer:
    """Records spans into flat arrays while installed; the spans of
    successive installs accumulate until clear()."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.clear()
        self._undo = []

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def _wrap(self, name_id, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)


    def install(self):
        """Wrap every listed function; returns the span names found."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        found = []
        for span, (module, qualname) in SPANS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                continue
            wrapped = self._wrap(self.name_ids[span], original)
            found.append(span)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set_item(value, k, wrapped)
        return found

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)

    def arrays(self):
        """The recorded spans as numpy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def span_totals(names, name, parent, start, end):
    """Per span name: call count, inclusive seconds and self seconds."""
    k = len(names)
    dur = end - start
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child],
                             minlength=len(dur))
    self_time = dur - child_time
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    return {
        n: (int(calls[i]), float(total[i]), float(own[i]))
        for i, n in enumerate(names)
    }


def layer_metrics(totals, points):
    """The per-layer metrics of one traced round that verified `points`
    sample points in all."""
    out = {}
    for layer in LAYERS:
        rows = [v for n, v in totals.items() if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in rows)
        out[f"{layer}.self_s"] = sum(r[2] for r in rows)
    for metric, span in CALL_COUNTS.items():
        out[metric] = totals[span][0]
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(totals[n][2] for n in names)
    for metric, span in TOTALS.items():
        out[metric] = totals[span][1]
    out["geometry.riemann_oracle.calls_per_point"] = (
        totals["geometry.riemann_oracle"][0] / points)
    attempts = totals["geometry.well_conditioned_at"][0]
    out["geometry.sample_points.accept_ratio"] = (
        points / attempts if attempts else 0.0)
    return out
