"""Seeded spec generators for the benchmark workloads.

Each workload turns a seed into a list of spec files plus, for every spec,
the verdict the checks must reach on it. The verdicts follow from how the
spec is built, not from running the program: closed forms agree with the
oracle by construction, the model solitons satisfy their equations exactly,
and the perturbed product satisfies none of its soliton equations.

The same seed gives byte-identical spec files.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

RIEMANN_CLASSES = ("XYZ", "XYU", "UVX", "XUY", "UXV", "UVW")
BLOCKS = ("XX", "XU", "UU")


@dataclass(frozen=True)
class Spec:
    """One generated spec file and what a verify call on it must report."""

    name: str
    text: str
    points: int
    checks: str  # value of --checks
    expected: dict  # check_id -> status

    @property
    def exit_code(self):
        return 1 if "fail" in self.expected.values() else 0

    def argv(self, path):
        return ["verify", path, "--format", "structured",
                "--checks", self.checks]


def _rng(workload, seed):
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _num(value):
    return f"{value:.6f}"


def _literal(value):
    """A spec-file literal: strings and numbers as Python source."""
    if isinstance(value, str):
        return '"' + value + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_literal(v) for v in value) + "]"
    return repr(value)


def _render(sections):
    lines = []
    for header, table in sections:
        lines.append(f"[{header}]")
        lines.extend(f"{k} = {_literal(v)}" for k, v in table.items())
        lines.append("")
    return "\n".join(lines)


def _sampling(rng, points):
    return ("sampling", {
        "points": points,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "box": [-1.0, 1.0],
        "tolerance": 1e-8,
    })


def _flat(coords):
    n = len(coords)
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _perturbed(rng, coords):
    """Identity plus a small smooth symmetric perturbation."""
    n = len(coords)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a = _num(rng.uniform(-0.05, 0.05))
            ci, cj = coords[i], coords[(j + 1) % n if i == j else j]
            rows[i][j] = rows[j][i] = (
                f"1 + {a}*sin({ci} + {cj})" if i == j else f"{a}*{ci}*{cj}")
    return rows


def _polynomial(rng, coords):
    terms = [f"{_num(rng.uniform(-0.5, 0.5))}*{c}" for c in coords]
    for i, ci in enumerate(coords):
        for cj in coords[i:]:
            terms.append(f"{_num(rng.uniform(-0.3, 0.3))}*{ci}*{cj}")
    return " + ".join(terms)


# -- expected verdicts -----------------------------------------------------


def _closed_form_verdicts():
    """Every closed-form-vs-oracle check passes; the flatness-gated
    consequences are skipped because the products are not flat."""
    out = {f"lemma1.{k}": "pass" for k in RIEMANN_CLASSES}
    out["lemma1.reconstruction"] = "pass"
    out.update({f"lemma2.{b}": "pass" for b in BLOCKS})
    out.update({f"lemma5.{b}": "pass" for b in ("XX", "UU")})
    for name in ("k", "l", "psi"):
        out.update({f"hessian.{name}.{b}": "pass" for b in BLOCKS})
    out["scalar.splitting"] = "pass"
    out["laplacian.k"] = out["laplacian.l"] = "pass"
    out.update({f"concircular.{k}": "pass" for k in RIEMANN_CLASSES})
    for sub in ("flat", "einstein1", "einstein2", "dichotomy"):
        out[f"concircular.{sub}"] = "skip"
    out["conharmonic.XYZ"] = out["conharmonic.UVW"] = "pass"
    for sub in ("flat", "soliton1", "soliton2"):
        out[f"conharmonic.{sub}"] = "skip"
    return out


_FACTOR_SUBIDS = {
    "ricci": ("product", "factor1", "factor2", "mixed"),
    "yamabe": ("product", "factor1", "factor2", "mixed"),
    "riemann": ("product", "factor1", "factor2"),
    "quasi_einstein": ("product", "factor1", "factor2"),
}


def _soliton_verdicts(index, kind, holds):
    """The defining equation passes or fails with the model; the induced
    factor structures pass behind a passing gate and skip otherwise."""
    prefix = f"soliton[{index}]"
    main = "pass" if holds else "fail"
    out = {f"{prefix}.{kind}": main}
    if kind == "riemann":
        out[f"{prefix}.riemann.contracted"] = main
        out[f"{prefix}.riemann.contraction"] = "pass"
    for sub in _FACTOR_SUBIDS[kind]:
        out[f"{prefix}.factors.{kind}.{sub}"] = "pass" if holds else "skip"
    return out


# -- workloads -------------------------------------------------------------


def curved_m4(rng, points):
    """A non-flat 2+2 doubly warped product with three solitons whose
    product-level equations fail, so every check runs and every gate
    skips."""
    a = rng.uniform(0.3, 0.8)
    b = rng.uniform(0.4, 1.0)
    lams = rng.uniform(0.2, 0.8, size=3)
    p = rng.uniform(-0.5, 0.5, size=3)
    sections = [
        ("factor.1", {"dim": 2, "coords": ["x", "y"],
                      "metric": _perturbed(rng, ("x", "y")),
                      "warping": f"exp({_num(a)}*x)"}),
        ("factor.2", {"dim": 2, "coords": ["s", "t"],
                      "metric": _perturbed(rng, ("s", "t")),
                      "warping": f"cosh({_num(b)}*t)"}),
        ("potential", {"psi": f"{_num(p[0])}*x + {_num(p[1])}*t^2 + "
                              f"{_num(p[2])}*y*s"}),
    ]
    expected = _closed_form_verdicts()
    for i, kind in enumerate(("ricci", "yamabe", "riemann")):
        sections.append(("soliton", {"type": f"gradient_{kind}",
                                     "lambda": float(_num(lams[i]))}))
        expected.update(_soliton_verdicts(i, kind, holds=False))
    sections.append(_sampling(rng, points))
    return [Spec("curved", _render(sections), points, "all", expected)]


def soliton_gated(rng, points):
    """Model solitons whose product-level gates pass, so all four
    factor-structure builders run: the flat 2+2 Gaussian and the
    quasi-Einstein line x plane."""
    lam = int(rng.integers(20, 90)) / 100
    flat = [
        ("factor.1", {"dim": 2, "coords": ["x", "y"],
                      "metric": _flat(("x", "y"))}),
        ("factor.2", {"dim": 2, "coords": ["s", "t"],
                      "metric": _flat(("s", "t"))}),
        ("potential", {"psi": f"{lam / 2!r}*(x^2 + y^2 + s^2 + t^2)"}),
    ]
    expected = {}
    for i, (kind, coefficient) in enumerate(
        (("ricci", lam), ("riemann", 2 * lam), ("yamabe", -lam))
    ):
        flat.append(("soliton", {"type": f"gradient_{kind}",
                                 "lambda": coefficient}))
        expected.update(_soliton_verdicts(i, kind, holds=True))
    flat.append(_sampling(rng, points))
    gaussian = Spec("gaussian", _render(flat), points, "solitons", expected)

    # dt^2 + cosh(c t)^2 (du^2 + dv^2) satisfies
    # Ric = -c^2 (1 + tanh(c t)^2) g - (c^2 / cosh(c t)^2) dt (x) dt
    c = int(rng.integers(5, 13)) / 10
    c2 = f"{c * c!r}"
    quasi = [
        ("factor.1", {"dim": 1, "coords": ["t"], "metric": [["1"]],
                      "warping": f"cosh({c!r}*t)"}),
        ("factor.2", {"dim": 2, "coords": ["u", "v"],
                      "metric": _flat(("u", "v"))}),
        ("soliton", {"type": "quasi_einstein",
                     "alpha": f"-{c2}*(1 + tanh({c!r}*t)^2)",
                     "beta": f"-{c2}/cosh({c!r}*t)^2",
                     "eta": ["1", "0", "0"]}),
        _sampling(rng, points),
    ]
    quasi_expected = _soliton_verdicts(0, "quasi_einstein", holds=True)
    return [gaussian,
            Spec("quasi_einstein", _render(quasi), points, "solitons",
                 quasi_expected)]


SWEEP_SPECS = 8


def sweep_m3(rng, points):
    """Small plane x line products of the e2xe1 kind, alternating 2+1 and
    1+2, each with a seeded potential and a failing Ricci soliton."""
    out = []
    for i in range(SWEEP_SPECS):
        a = rng.uniform(0.3, 1.0)
        c = rng.uniform(-0.3, 0.3)
        b = rng.uniform(0.4, 1.2)
        plane = {"dim": 2, "coords": ["x", "y"], "metric": _flat(("x", "y")),
                 "warping": f"exp({_num(a)}*x + {_num(c)}*y)"}
        line = {"dim": 1, "coords": ["t"], "metric": [["1"]],
                "warping": f"cosh({_num(b)}*t)"}
        factors = (plane, line) if i % 2 == 0 else (line, plane)
        sections = [
            ("factor.1", factors[0]),
            ("factor.2", factors[1]),
            ("potential", {"psi": _polynomial(rng, ("x", "y", "t"))}),
            ("soliton", {"type": "gradient_ricci",
                         "lambda": float(_num(rng.uniform(0.2, 0.8)))}),
            _sampling(rng, points),
        ]
        expected = _closed_form_verdicts()
        expected.update(_soliton_verdicts(0, "ricci", holds=False))
        out.append(Spec(f"sweep{i}", _render(sections), points, "all",
                        expected))
    return out


# name -> (N, builder); BENCHMARK.json gives the reason for each
WORKLOADS = {
    "curved-m4": (32, curved_m4),
    "soliton-gated": (128, soliton_gated),
    "sweep-m3": (16, sweep_m3),
}


def generate(name, seed, points=None):
    """The workload's specs for this seed; `points` overrides its N."""
    default, build = WORKLOADS[name]
    return build(_rng(name, seed), points or default)


def write_specs(specs, directory):
    """Write each spec to directory/<name>.spec; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for spec in specs:
        path = os.path.join(directory, f"{spec.name}.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.text)
        paths.append(path)
    return paths
