"""Alternating pairs of benchmark runs: a git revision against this checkout.

    python3 tools/bench_pairs.py REV --workload W|all [--pairs 10]
                                 [--seconds S] [--seed N] [--json PATH]

Both sides run from sibling temporary directories of equal path length,
removed again at the end: REV's committed files (`git archive`) in one,
and this checkout's tracked files with their uncommitted edits (an
archive of `git stash create`, or of HEAD when nothing is edited) in the
other; untracked files are not copied. Each pair runs

    bench/run.py --workload W --seed N --seconds S --trace 0

once in each tree, each in a fresh process, and the side that runs first
alternates from pair to pair (REV first in the first pair). S defaults to
BENCHMARK.json's `run_seconds`, N to 1.

It prints each run's end-to-end metrics (BENCHMARK.json's `end_to_end`) as
the run finishes and then, per metric, each side's median and quartiles,
the change of the median (the ratio of the medians), the median of the
pairs' own changes (each run here against its pair's REV run, which a
drift of the host's speed that moves both runs of a pair leaves out), how
many pairs this checkout won in the metric's better direction (ties count
for neither side) and whether the medians differ by more than REV's
interquartile range. With `--workload all` it runs the pairs of each
workload of BENCHMARK.json in turn and prints one such table per
workload. `--json PATH` writes those tables, and every
run's metrics, to PATH as JSON too, after each workload. A run that exits
non-zero or is not `correct` stops the tool with status 1. Standard
library only, and tools/compare_reports.py for unpacking both trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from compare_reports import ROOT, extract


def working_tree():
    """A commit of this checkout's tracked files with their uncommitted
    edits (HEAD itself when nothing is edited)."""
    stash = subprocess.run(["git", "-C", ROOT, "stash", "create"],
                           check=True, capture_output=True, text=True)
    return stash.stdout.strip() or "HEAD"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(tree, workload, seed, seconds):
    """{metric: value} of one `bench/run.py --trace 0` run in tree."""
    argv = [sys.executable, os.path.join(tree, "bench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=max(600.0, 10 * seconds))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"bench/run.py in {tree} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout)
        sys.exit(f"bench/run.py in {tree}: {result['failed']} of "
                 f"{result['attempted']} calls failed the gate")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def table(metrics, runs):
    """Per metric over runs = [(REV's metrics, this checkout's metrics)]
    pairs: each side's median and quartiles, the change of the median, the
    median of the per-pair changes (None where a REV run reads 0), how
    many pairs this checkout won in the metric's better direction (ties
    count for neither side) and whether the medians differ by more than
    REV's interquartile range."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        theirs = [r[0][name] for r in runs]
        mine = [r[1][name] for r in runs]
        (a1, a2, a3), (b1, b2, b3) = quartiles(theirs), quartiles(mine)
        rows.append({
            "metric": name, "unit": m["unit"], "better": m["better"],
            "rev": {"q1": a1, "median": a2, "q3": a3},
            "here": {"q1": b1, "median": b2, "q3": b3},
            "change": (b2 - a2) / a2 if a2 else None,
            "pair_change": statistics.median(
                (b - a) / a for a, b in zip(theirs, mine)) if all(theirs)
            else None,
            "wins": sum(sign * (b - a) > 0 for a, b in zip(theirs, mine)),
            "pairs": len(runs),
            "beyond_iqr": abs(b2 - a2) > a3 - a1,
        })
    return rows


def _spread(side):
    """'median [q1, q3]' of one side of a table row."""
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"


def summary(rows, rev):
    """The printed lines of a `table`."""
    width = max(len(row["metric"]) for row in rows)
    lines = [f"{'metric':<{width}}  {rev + ' median [q1, q3]':<34}  "
             f"{'here median [q1, q3]':<34}  change   by pair  wins  "
             "beyond IQR"]
    for row in rows:
        change, pair_change = (float("nan") if row[k] is None else row[k]
                               for k in ("change", "pair_change"))
        lines.append(
            f"{row['metric']:<{width}}  {_spread(row['rev']):<34}  "
            f"{_spread(row['here']):<34}  {change:+7.1%}  "
            f"{pair_change:+7.1%}  "
            f"{row['wins']:>2}/{row['pairs']:<2} "
            f"{'yes' if row['beyond_iqr'] else 'no'}")
    return lines


def main(argv=None):
    bench = declared()
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"],
                        help="a workload of BENCHMARK.json, or all of "
                        "them in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="PATH",
                        help="also write each workload's table and runs "
                        "as JSON to PATH, rewritten after each workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = bench["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    document = {"rev": args.rev, "seed": args.seed, "pairs": args.pairs,
                "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        # names of equal length: the length of a tree's path alone moved
        # curved-m4's verify_s_p50 by about 5%
        base, here = os.path.join(tmp, "base"), os.path.join(tmp, "here")
        extract(args.rev, base)
        extract(working_tree(), here)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                sides = [(0, args.rev, base), (1, "here", here)]
                if i % 2:
                    sides.reverse()
                pair = [None, None]
                for side, label, path in sides:
                    got = pair[side] = run_bench(path, workload, args.seed,
                                                 args.seconds)
                    print(f"{workload} pair {i + 1} {label}: " + ", ".join(
                        f"{m['name']} {got[m['name']]:.6g} {m['unit']}"
                        for m in metrics), flush=True)
                runs.append(pair)
            print(f"# {workload} seed {args.seed}, {args.pairs} pairs of "
                  f"{args.seconds:g} s runs, {args.rev} against this "
                  "checkout")
            rows = table(metrics, runs)
            for line in summary(rows, args.rev):
                print(line, flush=True)
            document["workloads"][workload] = {
                "table": rows,
                "runs": [{"rev": theirs, "here": mine}
                         for theirs, mine in runs]}
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    json.dump(document, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
