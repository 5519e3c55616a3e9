"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 bench/spread.py --first 101 --count 10 --seconds 36 \
        --out .bench_out/spread-a.json
    python3 bench/spread.py --compare .bench_out/spread-a.json \
        .bench_out/spread-b.json

The first form runs every workload once per seed, one process at a time
(`--trace 0`), and writes each metric's values, median and interquartile
range as a share of the median (statistics.quantiles, n=4). The second
compares two such files: each spread and the change of each median, as a
share of the first median in the metric's worse direction, against the
metric's bound in BENCHMARK.json. Set-up time is held to its bound by the
change of its median only, as its spread between fresh interpreters is not
bounded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median,
            "iqr_share": (q3 - q1) / median}


def measure(seeds, seconds):
    out = {}
    for workload in (w["name"] for w in declared()["workloads"]):
        runs = []
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {done.stdout[-2000:]}")
            runs.append(result["metrics"])
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        out[workload] = {k: summary([r[k]["value"] for r in runs])
                         for k in runs[0]}
    return out


def compare(first, second):
    """Rows (workload, metric, spread 1, spread 2, median change, bound)."""
    rows = []
    for metric in declared()["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower"
                                      else -1)
        for workload in first["workloads"]:
            a = first["workloads"][workload][name]
            b = second["workloads"][workload][name]
            change = sign * (b["median"] - a["median"]) / a["median"]
            rows.append((workload, name, a["iqr_share"], b["iqr_share"],
                         change, metric["bound"]))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args(argv)
    if args.compare:
        files = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                files.append(json.load(fh))
        print(f"{'workload':14} {'metric':13} {'spread1':>8} {'spread2':>8} "
              f"{'worse by':>8} {'bound':>6}")
        for workload, name, s1, s2, change, bound in compare(*files):
            spread = 0 if name == "setup_s" else max(s1, s2)
            flag = "  REACHES BOUND" if max(spread, change) >= bound else ""
            print(f"{workload:14} {name:13} {s1:8.3f} {s2:8.3f} "
                  f"{change:8.3f} {bound:6.2f}{flag}")
        return 0
    seconds = args.seconds or declared()["run_seconds"]
    seeds = list(range(args.first, args.first + args.count))
    document = {"seeds": seeds, "seconds": seconds,
                "workloads": measure(seeds, seconds)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
