"""Command-line driver: load a spec file, run the selected check suites,
and emit a deterministic report.

Exit status: 0 when every check passes (skips allowed), 1 when at least one
check fails, 2 on configuration or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .checks import CHECK_NAMES, run_all
from .geometry import GeometryError, sample_points
from .reporting import FAIL, render_json
from .solitons import named_fields
from .specfile import SETTINGS, SpecFileError, load_spec

__all__ = ["build_run_config", "run", "main"]


def _parse_checks(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


@functools.cache
def _make_parser():
    """The argument parser and the long options of its `verify` command,
    built once per process: parsing leaves them unchanged."""
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
    return parser, tuple(option for option in verify._option_string_actions
                         if option.startswith("--"))


def build_run_config(args, sampling, m):
    """The report's `run_config`: each setting from its flag, else from the
    spec file's [sampling] key, else from its default; a given flag must
    keep the setting's rule (load_spec checks the [sampling] values).  Its
    `box` holds one [lo, hi] row per coordinate, and its `anchor` is a
    point (the box center by default)."""
    values = {}
    for key, setting in SETTINGS.items():
        flag = getattr(args, setting.flag[2:])  # argparse's dest
        if flag is None:
            values[key] = sampling.get(key, setting.default)
        else:
            values[key] = setting.check(flag, setting.flag, m)
    checks = ["all"] if args.checks is None else list(args.checks)
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
    return {"spec_path": args.spec, "checks": checks,
            "points": values["points"], "seed": values["seed"],
            "box": box.tolist(), "tolerance": float(values["tolerance"]),
            "anchor": anchor.tolist(), "format": args.format}


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


def run(config, loaded, report_path):
    """Execute the configured checks (`config`, the report's `run_config`)
    on the loaded spec, writing the report to `report_path`, or to stdout
    where it is None; returns the exit status."""
    dwp, soliton_specs, _, default_psi = loaded
    samples = sample_points(dwp.product, config["box"], config["points"],
                            config["seed"])
    d = dwp.point_data(samples, config["anchor"])
    d.validate(named_fields(soliton_specs, default_psi))
    psis = [("psi", default_psi)] if default_psi is not None else None
    summaries = run_all(
        soliton_specs,
        d,
        config["tolerance"],
        checks=config["checks"],
        psis=psis,
    )
    document = {
        "engine_version": __version__,
        "run_config": config,
        "checks": [s.as_dict() for s in summaries],
    }
    if config["format"] == "structured":
        rendered = render_json(document)
    else:
        rendered = _render_text(document)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 1 if any(s.status == FAIL for s in summaries) else 0


def _long_option(word, options):
    """The long option among `options` that argparse reads `word` as: the
    word itself, or the one option that it abbreviates (is a prefix of);
    None for any other word, an ambiguous prefix among them."""
    if word in options:
        return word
    if not word.startswith("--") or "=" in word:
        return None
    found = [option for option in options if option.startswith(word)]
    return found[0] if len(found) == 1 else None


def _join_setting_values(argv, options):
    """argv with each setting's flag, or an abbreviation of it that
    argparse accepts among the long `options`, joined to the word after it
    (`--box -1,1` is read as `--box=-1,1`, `--bo -1,1` as `--bo=-1,1`):
    argparse takes a word that starts with '-' and is no plain number for
    a flag, not a value."""
    flags = {setting.flag for setting in SETTINGS.values()}
    out = []
    for word in argv:
        if out and _long_option(out[-1], options) in flags:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None):
    parser, options = _make_parser()
    args = parser.parse_args(_join_setting_values(
        sys.argv[1:] if argv is None else argv, options))
    try:
        loaded = load_spec(args.spec)
        config = build_run_config(args, loaded[2], loaded[0].m)
        return run(config, loaded, args.report)
    except (SpecFileError, GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
