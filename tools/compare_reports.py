"""Compare dwpcheck's structured reports between this checkout and a git
revision.

    python3 tools/compare_reports.py REV

REV's committed files are unpacked (`git archive`) into a temporary
directory, removed again at the end. In that tree and in this checkout,
the same cases run through `dwpcheck verify --format structured`:

- the benchmark corpus: every workload of bench/workloads.py at seeds
  1, 2, 3 and 57, with each spec's own flags;
- the CLI fixtures of tests/test_cli.py: each module-level `*_SPEC` text
  with default flags, and each parametrized case that edits PASSING_SPEC
  (`old` -> `new`) and/or adds flags (`args`).

It prints how many reports (stdout), stderr texts and exit codes are
byte-identical, and the first differing line of each case that differs.
An edit whose `old` text does not occur in PASSING_SPEC stops it with
status 2, naming the case.
For the reports that differ, it also prints whether every check id and
status still match, and the largest change of a `max_abs_residual`
(absolute below 1, relative above), which tells rounding drift from a
changed verdict. The exit status is 1 on any byte difference. Standard
library and the repository only; the spec files, written once, are read
by both trees.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 57)

# runs in a fresh interpreter with one tree's src/ on PYTHONPATH: reads a
# JSON list of argv lists, prints the package path and [code, out, err] per
# argv; an uncaught exception is status 1 with its traceback on stderr, as
# the console script would end
RUNNER = r"""
import contextlib, io, json, sys, traceback
import dwpcheck
from dwpcheck.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"package": dwpcheck.__file__, "results": results}, sys.stdout)
"""


def bench_cases(directory):
    """(name, argv) of the benchmark corpus."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    cases = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            specs = workloads.generate(workload, seed)
            paths = workloads.write_specs(
                specs, os.path.join(directory, f"{workload}-{seed}"))
            cases += [(f"{workload} seed {seed} {spec.name}",
                       spec.argv(path)) for spec, path in zip(specs, paths)]
    return cases


def edited(text, name, old, new):
    """text with its first `old` replaced by `new`; where `old` does not
    occur, exit 2 naming the case, so that no case runs an unedited spec
    under an edit's name."""
    if old not in text:
        print(f"case {name}: {old!r} does not occur in PASSING_SPEC",
              file=sys.stderr)
        sys.exit(2)
    return text.replace(old, new, 1)


def fixture_cases(directory):
    """(name, argv) of the CLI fixtures of tests/test_cli.py."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import test_cli

    texts = [(name, value) for name, value in sorted(vars(test_cli).items())
             if name.endswith("_SPEC") and isinstance(value, str)]
    runs = [(name, text, []) for name, text in texts]
    for owner in vars(test_cli).values():
        tests = [owner] + [getattr(owner, n) for n in dir(owner)
                           if n.startswith("test_")]
        for test in tests:
            for mark in getattr(test, "pytestmark", ()):
                if mark.name != "parametrize":
                    continue
                names = [n.strip() for n in mark.args[0].split(",")]
                if "args" not in names:
                    continue
                for i, values in enumerate(mark.args[1]):
                    # a pytest.param case keeps its values in `.values`
                    case = dict(zip(names, getattr(values, "values", values)))
                    name, text = f"{test.__name__}[{i}]", test_cli.PASSING_SPEC
                    if "old" in case:
                        text = edited(text, name, case["old"], case["new"])
                    runs.append((name, text, case["args"]))
    os.makedirs(directory)
    cases = []
    for i, (name, text, flags) in enumerate(runs):
        path = os.path.join(directory, f"fixture{i}.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cases.append((name, ["verify", path, "--format", "structured"]
                      + list(flags)))
    return cases


def extract(rev, tree):
    """Unpack the committed files of git revision `rev` into `tree`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")


def run_tree(tree, argvs, cwd):
    """[code, out, err] per argv, run on the package in tree/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-c", RUNNER], cwd=cwd, env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout)
    package = os.path.realpath(result["package"])
    if not package.startswith(os.path.realpath(tree) + os.sep):
        sys.exit(f"dwpcheck was imported from {package}, not from {tree}")
    return result["results"]


def first_difference(a, b):
    """(line number, line of a, line of b) of the first differing line."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<end>"
        y = lb[i] if i < len(lb) else "<end>"
        if x != y:
            return i + 1, x, y
    return 0, "<same lines>", "<line endings differ>"


def verdicts_and_residuals(report):
    """{check id: (status, max_abs_residual)} of a structured report, or
    None for a text that is not one."""
    try:
        checks = json.loads(report)["checks"]
    except (ValueError, KeyError, TypeError):
        return None
    return {c["check_id"]: (c["status"], c["max_abs_residual"])
            for c in checks}


def residual_change(a, b):
    """|a - b|, relative to |b| above 1; None or a non-number on either side
    counts only when the two differ."""
    if not all(isinstance(x, (int, float)) for x in (a, b)):
        return 0.0 if a == b else float("inf")
    return abs(a - b) / max(1.0, abs(b))


def drift(pairs):
    """(names of the cases whose check ids or statuses differ, largest
    residual change with its case name) over (name, report here, report
    there) triples of differing reports."""
    changed, largest = [], (0.0, None)
    for name, mine, theirs in pairs:
        a, b = verdicts_and_residuals(mine), verdicts_and_residuals(theirs)
        if a is None or b is None or a.keys() != b.keys() or any(
                a[k][0] != b[k][0] for k in a):
            changed.append(name)
            continue
        for k in a:
            change = residual_change(a[k][1], b[k][1])
            if change > largest[0]:
                largest = (change, f"{name}: {k}")
    return changed, largest


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__)
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        cases = (bench_cases(os.path.join(tmp, "bench"))
                 + fixture_cases(os.path.join(tmp, "fixtures")))
        tree = os.path.join(tmp, "rev")
        extract(rev, tree)
        argvs = [a for _, a in cases]
        here = run_tree(ROOT, argvs, tmp)
        there = run_tree(tree, argvs, tmp)
    n = len(cases)
    same = [sum(h[k] == t[k] for h, t in zip(here, there)) for k in (1, 2, 0)]
    print(f"{n} cases against {rev}: reports byte-identical {same[0]}/{n}, "
          f"stderr byte-identical {same[1]}/{n}, exit codes identical "
          f"{same[2]}/{n}")
    width = max(len("here"), len(rev))
    for (name, _), h, t in zip(cases, here, there):
        if h[0] != t[0]:
            print(f"{name}: exit code {h[0]} here, {t[0]} at {rev}")
        for k, stream in ((1, "report"), (2, "stderr")):
            if h[k] != t[k]:
                line, mine, theirs = first_difference(h[k], t[k])
                print(f"{name}: {stream} line {line}\n"
                      f"  {'here':<{width}} {mine}\n  {rev:<{width}} {theirs}")
    differing = [(name, h[1], t[1]) for (name, _), h, t
                 in zip(cases, here, there) if h[1] != t[1]]
    if differing:
        changed, (change, where) = drift(differing)
        print(f"{len(differing)} differing reports: check ids and statuses "
              + ("identical in all" if not changed
                 else f"differ in {len(changed)}: {', '.join(changed)}"))
        print(f"largest max_abs_residual change where they are identical: "
              f"{change:.3g}" + (f" ({where})" if where else ""))
    return 0 if all(s == n for s in same) else 1


if __name__ == "__main__":
    sys.exit(main())
