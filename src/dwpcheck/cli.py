"""Command-line driver: load a spec file, run the selected check suites,
and emit a deterministic report.

Exit status: 0 when every check passes (skips allowed), 1 when at least one
check fails, 2 on configuration or parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checks import CHECK_NAMES, run_all
from .geometry import COND_LIMIT, GeometryError, MetricError, sample_points
from .reporting import FAIL, render_json
from .solitons import validate_fields
from .specfile import SpecFileError, load_spec

__all__ = ["RunConfig", "build_run_config", "run", "main"]

DEFAULT_POINTS = 64
DEFAULT_SEED = 42
DEFAULT_BOX = (-1.0, 1.0)
DEFAULT_TOLERANCE = 1e-8


@dataclass
class RunConfig:
    spec_path: str
    checks: tuple = ("all",)
    points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    box: tuple = (DEFAULT_BOX,)  # one (lo, hi) pair, or one per coordinate
    tolerance: float = DEFAULT_TOLERANCE
    anchor: tuple | None = None  # None = box center
    report_path: str | None = None
    format: str = "text"

    def validate(self, dim):
        if self.points < 1:
            raise SpecFileError("points must be >= 1")
        if self.seed < 0:  # a [sampling] seed is checked when read
            raise SpecFileError(
                f"--seed must be a non-negative integer, got {self.seed}")
        if not 0 < self.tolerance < math.inf:
            raise SpecFileError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        if len(self.box) not in (1, dim):
            raise SpecFileError(
                f"box must give one global interval or {dim} per-coordinate "
                "intervals"
            )
        for lo, hi in self.box:
            # the width must be finite too: the sampler draws lo + width * u
            if not all(map(math.isfinite, (lo, hi, hi - lo))):
                raise SpecFileError(
                    f"box interval [{lo}, {hi}] must be finite, with a "
                    "finite width"
                )
            if not lo < hi:
                raise SpecFileError(f"empty box interval [{lo}, {hi}]")
        if self.anchor is not None and len(self.anchor) != dim:
            raise SpecFileError(
                f"anchor must have {dim} coordinates, got {len(self.anchor)}"
            )
        if self.anchor is not None and not all(
            map(math.isfinite, self.anchor)
        ):
            raise SpecFileError(
                f"anchor must be finite, got {list(self.anchor)}"
            )
        if not self.checks:
            raise SpecFileError(
                "--checks names no check: give a comma-separated subset of "
                f"{', '.join(CHECK_NAMES)}, or 'all'")
        unknown = set(self.checks) - set(CHECK_NAMES) - {"all"}
        if unknown:
            raise SpecFileError(f"unknown checks: {sorted(unknown)}")

    def resolved_box(self, dim):
        box = self.box * dim if len(self.box) == 1 else self.box
        return np.array(box, dtype=float)

    def resolved_anchor(self, dim):
        if self.anchor is not None:
            return np.array(self.anchor, dtype=float)
        return self.resolved_box(dim).mean(axis=1)

    def echo(self, dim):
        return {
            "spec_path": self.spec_path,
            "checks": list(self.checks),
            "points": self.points,
            "seed": self.seed,
            "box": [list(pair) for pair in self.resolved_box(dim)],
            "tolerance": self.tolerance,
            "anchor": list(self.resolved_anchor(dim)),
            "format": self.format,
        }


def _parse_box(text):
    """--box accepts 'lo,hi' (global) or 'lo,hi;lo,hi;...' (per coordinate)."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                "box intervals must be 'lo,hi' separated by ';'"
            )
        pairs.append((float(parts[0]), float(parts[1])))
    return tuple(pairs)


def _parse_anchor(text):
    return tuple(float(x) for x in text.split(","))


def _parse_checks(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="dwpcheck",
        description=(
            "Verify closed-form curvature and soliton identities of a "
            "doubly warped product against a brute-force oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run checks on a spec file")
    verify.add_argument("spec", help="path to the spec file")
    verify.add_argument(
        "--checks",
        type=_parse_checks,
        default=None,
        metavar="LIST",
        help=f"comma-separated subset of {', '.join(CHECK_NAMES)}, or 'all'",
    )
    verify.add_argument("--points", type=int, default=None, metavar="N")
    verify.add_argument("--seed", type=int, default=None, metavar="S")
    verify.add_argument(
        "--box", type=_parse_box, default=None,
        metavar="LO,HI[;LO,HI...]",
        help="sampling box, one global interval or one per coordinate",
    )
    verify.add_argument("--tol", type=float, default=None, metavar="T")
    verify.add_argument(
        "--anchor", type=_parse_anchor, default=None, metavar="COORDS",
        help="comma-separated point where factor restrictions are taken "
             "(default: box center)",
    )
    verify.add_argument("--report", default=None, metavar="PATH")
    verify.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    return parser


def build_run_config(args, sampling):
    """Merge defaults, the spec file's [sampling] section, and CLI flags
    (CLI flags win)."""
    box = sampling.get("box")
    if box is not None:
        box = np.asarray(box, dtype=float)
        box = (tuple(box),) if box.ndim == 1 else tuple(map(tuple, box))
    anchor = sampling.get("anchor")
    if anchor is not None:
        anchor = tuple(float(x) for x in anchor)
    config = RunConfig(
        spec_path=args.spec,
        checks=("all",) if args.checks is None else args.checks,
        points=sampling.get("points", DEFAULT_POINTS),
        seed=sampling.get("seed", DEFAULT_SEED),
        box=box or (DEFAULT_BOX,),
        tolerance=float(sampling.get("tolerance", DEFAULT_TOLERANCE)),
        anchor=anchor,
        report_path=args.report,
        format=args.format,
    )
    if args.points is not None:
        config.points = args.points
    if args.seed is not None:
        config.seed = args.seed
    if args.box is not None:
        config.box = args.box
    if args.tol is not None:
        config.tolerance = args.tol
    if args.anchor is not None:
        config.anchor = args.anchor
    return config


def _render_text(document):
    lines = [f"dwpcheck {document['engine_version']}"]
    cfg = document["run_config"]
    lines.append(
        f"spec={cfg['spec_path']} points={cfg['points']} seed={cfg['seed']} "
        f"tolerance={cfg['tolerance']:g}"
    )
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for check in document["checks"]:
        counts[check["status"]] += 1
        residual = check["max_abs_residual"]
        residual_text = "-" if residual is None else f"{residual:.3e}"
        line = (
            f"{check['status'].upper():4s} {check['check_id']:45s} "
            f"max_residual={residual_text}"
        )
        if check["notes"]:
            line += f"  [{check['notes']}]"
        lines.append(line)
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped"
    )
    return "\n".join(lines) + "\n"


def run(config, loaded=None, stdout=None):
    """Execute the configured checks; returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    if loaded is None:
        loaded = load_spec(config.spec_path)
    dwp, soliton_specs, _, default_psi = loaded
    config.validate(dwp.m)
    box = config.resolved_box(dwp.m)
    anchor = config.resolved_anchor(dwp.m)
    samples = sample_points(dwp.product, box, config.points, config.seed)
    d = dwp.point_data(samples, anchor)
    validate_fields(dwp, soliton_specs, default_psi, samples.p, anchor)
    for which in (1, 2):
        # the restriction sets must pass the sampler's acceptance rule too;
        # their product records are the ones the restriction records read
        anchored = d.anchored_product(which)
        ok = anchored.well_conditioned()
        if not ok.all():
            raise MetricError(
                f"anchored restriction set of factor {which}: metric not "
                f"positive definite or cond(g) > {COND_LIMIT:g} at "
                f"{anchored.p[(~ok).argmax()].tolist()}"
            )
    psis = [("psi", default_psi)] if default_psi is not None else None
    summaries = run_all(
        dwp,
        soliton_specs,
        d,
        config.tolerance,
        checks=config.checks,
        psis=psis,
    )
    document = {
        "engine_version": __version__,
        "run_config": config.echo(dwp.m),
        "checks": [s.as_dict() for s in summaries],
    }
    if config.format == "structured":
        rendered = render_json(document)
    else:
        rendered = _render_text(document)
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        stdout.write(rendered)
    return 1 if any(s.status == FAIL for s in summaries) else 0


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        loaded = load_spec(args.spec)
        config = build_run_config(args, loaded[2])
        return run(config, loaded=loaded)
    except (SpecFileError, GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
