"""Command-line driver: load a spec file, run the selected check suites,
and emit a deterministic report.

Exit status: 0 when every check passes (skips allowed), 1 when at least one
check fails, 2 on configuration or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checks import CHECK_NAMES, run_all
from .geometry import COND_LIMIT, GeometryError, MetricError, sample_points
from .reporting import FAIL, render_json
from .solitons import validate_fields
from .specfile import SETTINGS, SpecFileError, load_spec

__all__ = ["RunConfig", "build_run_config", "run", "main"]


@dataclass
class RunConfig:
    """A verify call's settings, resolved: `box` holds one (lo, hi) row per
    coordinate and `anchor` is a point (the box center by default)."""

    spec_path: str
    checks: tuple
    points: int
    seed: int
    box: np.ndarray
    tolerance: float
    anchor: np.ndarray
    report_path: str | None
    format: str

    def echo(self):
        return {
            "spec_path": self.spec_path,
            "checks": list(self.checks),
            "points": self.points,
            "seed": self.seed,
            "box": [list(pair) for pair in self.box],
            "tolerance": self.tolerance,
            "anchor": list(self.anchor),
            "format": self.format,
        }


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
    for setting in SETTINGS.values():
        verify.add_argument(setting.flag, type=setting.parse, default=None,
                            metavar=setting.metavar, help=setting.help)
    verify.add_argument("--report", default=None, metavar="PATH")
    verify.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    return parser


def build_run_config(args, sampling, m):
    """Each setting from its flag, else from the spec file's [sampling]
    key, else from its default; a given flag must keep the setting's rule
    (load_spec checks the [sampling] values)."""
    values = {}
    for key, setting in SETTINGS.items():
        flag = getattr(args, setting.flag[2:])  # argparse's dest
        if flag is None:
            values[key] = sampling.get(key, setting.default)
        else:
            values[key] = setting.check(flag, setting.flag, m)
    checks = ("all",) if args.checks is None else args.checks
    if not checks:
        raise SpecFileError(
            "--checks names no check: give a comma-separated subset of "
            f"{', '.join(CHECK_NAMES)}, or 'all'")
    unknown = set(checks) - set(CHECK_NAMES) - {"all"}
    if unknown:
        raise SpecFileError(f"unknown checks: {sorted(unknown)}")
    box = np.broadcast_to(
        np.array(values["box"], dtype=float).reshape(-1, 2), (m, 2))
    anchor = box.mean(axis=1) if values["anchor"] is None else np.array(
        values["anchor"], dtype=float)
    return RunConfig(args.spec, checks, values["points"], values["seed"],
                     box, float(values["tolerance"]), anchor, args.report,
                     args.format)


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


def run(config, loaded):
    """Execute the configured checks on the loaded spec; returns the exit
    status."""
    dwp, soliton_specs, _, default_psi = loaded
    samples = sample_points(dwp.product, config.box, config.points,
                            config.seed)
    d = dwp.point_data(samples, config.anchor)
    validate_fields(dwp, soliton_specs, default_psi, samples.p, config.anchor)
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
        "run_config": config.echo(),
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
        sys.stdout.write(rendered)
    return 1 if any(s.status == FAIL for s in summaries) else 0


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        loaded = load_spec(args.spec)
        config = build_run_config(args, loaded[2], loaded[0].m)
        return run(config, loaded)
    except (SpecFileError, GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
