"""Benchmark of `dwpcheck verify`, driven in-process through
`dwpcheck.cli.main` on seeded spec files.

    python3 bench/run.py --workload curved-m4 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

One process runs one workload as a closed loop with a single caller: one
verify call at a time, OpenBLAS and OpenMP pinned to one thread. A round
verifies each of the workload's specs once; rounds repeat for about
--seconds (at least one round, never ending more than half a round late).
Every call goes through the correctness gate in gate.py.

Times are reported in reference-speed seconds: the fixed kernel of
reference.py runs right after every timed call and set-up probe, and each
measured interval is scaled by REFERENCE_S over the mean of the kernel's
times just before and just after it (Clock). The host's speed swings by up
to a factor of two between and within runs; the scaled times follow the
program, not the host. Wall-clock figures are printed in the log lines.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds in which every layer is traced (spans.py) and prints
the per-layer metrics of one round, as the median over the traced rounds;
the spans are written to .bench_out/spans-<workload>.npz. A traced run
stops with status 2 if the program lacks a function spans.py lists.
--workload all
runs each workload in its own process, both ways, and writes
.bench_out/BENCH-seed<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Without the program's sources in
src/ the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 11
WARMUP_POINTS = 2


def import_program():
    """The dwpcheck.cli module of this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import dwpcheck
        import dwpcheck.cli
    except ImportError as exc:
        fail(f"cannot import dwpcheck from {SRC}: {exc}")
    origin = os.path.realpath(dwpcheck.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        fail(f"dwpcheck was imported from {origin}, not {SRC}")
    return dwpcheck.cli


def declared():
    """BENCHMARK.json, which names each workload and each metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:  # not a git checkout, or a packed ref
        head = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": head,
    }


def setup_probe(paths):
    """Seconds a fresh interpreter takes to import dwpcheck and load the
    workload's specs. Bytecode is cached under .bench_out, as an installed
    program's would be, whatever the caller's PYTHONDONTWRITEBYTECODE."""
    argv = [sys.executable, "-X", "pycache_prefix=" + os.path.join(
        OUT, "pycache"), os.path.join(HERE, "setup_probe.py"), SRC, *paths]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


class Clock:
    """Scales measured seconds to the reference speed.

    Every interval the benchmark reports lies between two runs of the
    reference kernel; it is multiplied by REFERENCE_S over their mean time.
    """

    def __init__(self):
        reference.work()  # first-run costs stay out of the yardstick
        self.last = reference.seconds()
        self.kernel = [self.last]

    def scale(self, seconds):
        """`seconds` just measured, in reference-speed seconds; runs the
        kernel once more."""
        now = reference.seconds()
        self.kernel.append(now)
        factor = 2 * reference.REFERENCE_S / (self.last + now)
        self.last = now
        return seconds * factor


def call(cli, argv):
    """One verify call through cli.main, looked up at call time so that a
    traced main is the root span.

    Returns (seconds, exit status or None if it raised, stdout, stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising call is a failed call, not a crash
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Loop:
    """Closed-loop rounds over a workload's specs, gating every call.

    `recorded` is the seed's spec name -> reference residuals from
    gate.recorded, or None when the seed is not recorded.
    """

    def __init__(self, cli, specs, paths, recorded=None, tamper=None):
        self.cli = cli
        self.clock = Clock()
        self.jobs = list(zip(specs, paths))
        self.recorded = recorded
        self.tamper = tamper
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def round(self):
        """Verify each spec once; returns each call's (wall seconds,
        reference-speed seconds)."""
        durations = []
        for spec, path in self.jobs:
            seconds, code, text, err = call(self.cli, spec.argv(path))
            if self.tamper is not None:
                text = self.tamper(text)
            first = self.first.get(spec.name)
            recorded = (None if self.recorded is None
                        else self.recorded.get(spec.name, {}))
            found = gate.problems(spec, code, text, first, recorded)
            if first is None:
                try:
                    self.first[spec.name] = (
                        text, gate.residuals(json.loads(text)))
                except (ValueError, KeyError, TypeError):
                    pass
            self.attempted += 1
            if found:
                if err.strip():
                    found.append(err.strip().splitlines()[-1])
                self.failed += 1
                self.problems.append((spec.name, found))
            # free this call's cyclic garbage now, as the end of a
            # one-call process would, not inside the next timed call
            gc.collect()
            durations.append((seconds, self.clock.scale(seconds)))
        return durations


def rounds_for(seconds):
    """Yields until about `seconds` have passed: at least once, and never
    into a round expected to end more than half a round past the time."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        now = time.perf_counter()
        if now + 0.5 * (now - start) / done >= start + seconds:
            return


def warm_up(cli, specs, paths):
    for spec, path in zip(specs, paths):
        call(cli, spec.argv(path) + ["--points", str(WARMUP_POINTS)])


def per_call(rounds, scaled=True):
    """Median over rounds of the mean call duration within a round, in
    reference-speed seconds, or in wall seconds if not `scaled`."""
    return statistics.median(
        sum(d[1 if scaled else 0] for d in r) / len(r) for r in rounds)


def end_to_end(loop, specs, paths, seconds):
    """Timed rounds; the set-up probes run between them, so that their
    median spans the run's time like the calls' does."""
    setup_probe(paths)  # untimed: fills the bytecode cache
    rounds, setups = [], []

    def probe():
        wall = setup_probe(paths)
        setups.append((wall, loop.clock.scale(wall)))

    for _ in rounds_for(seconds):
        rounds.append(loop.round())
        if len(setups) < SETUP_RUNS:
            probe()
    while len(setups) < SETUP_RUNS:
        probe()
    points = len(rounds) * sum(s.points for s in specs)
    print(f"# wall clock: verify_s_p50 {per_call(rounds, False):.6g} s, "
          f"points_per_s {points / sum(d[0] for r in rounds for d in r):.6g}"
          f" points/s, setup_s {statistics.median(w for w, _ in setups):.6g}"
          " s")
    return {
        "verify_s_p50": per_call(rounds),
        "points_per_s": points / sum(d[1] for r in rounds for d in r),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }, rounds


def per_layer(loop, specs, seconds, workload):
    """Untraced and traced rounds in turn for about `seconds`."""
    tracer = spans.Tracer()
    missing = sorted(set(spans.SPANS) - set(tracer.install()))
    tracer.uninstall()
    if missing:
        fail(f"the program has no {', '.join(missing)}; update SPANS in "
             "bench/spans.py, or these spans would read 0")
    untraced, traced, marks = [], [], []
    for _ in rounds_for(seconds):
        untraced.append(loop.round())
        lo = len(tracer)
        tracer.install()
        try:
            traced.append(loop.round())
        finally:
            tracer.uninstall()
        marks.append((lo, len(tracer)))
    name, parent, start, end = tracer.arrays()
    points = sum(s.points for s in specs)
    samples = []
    for (lo, hi), durations in zip(marks, traced):
        rebased = np.where(parent[lo:hi] >= 0, parent[lo:hi] - lo, -1)
        totals = spans.span_totals(tracer.names, name[lo:hi], rebased,
                                   start[lo:hi], end[lo:hi])
        row = spans.layer_metrics(totals, points)
        wall = sum(d[0] for d in durations)
        row["trace.wall_s"] = wall
        # the share of the wall time spent inside a layer below cli; it
        # falls when work moves out of the traced functions
        row["trace.attributed_share"] = sum(
            row[f"{layer}.self_s"] for layer in spans.LAYERS
            if layer != "cli") / wall
        row["trace.spans"] = hi - lo
        samples.append(row)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{workload}.npz"))
    metrics = {k: statistics.median(r[k] for r in samples)
               for k in samples[0]}
    metrics["trace.overhead_ratio"] = per_call(traced) / per_call(untraced)
    return metrics, untraced + traced


def run_one(args):
    cli = import_program()
    specs = workloads.generate(args.workload, args.seed)
    paths = workloads.write_specs(
        specs, os.path.join(OUT, "specs", f"{args.workload}-seed{args.seed}"))
    warm_up(cli, specs, paths)
    recorded = gate.recorded(args.workload, args.seed, specs[0].points)
    if not any("fail" in s.expected.values() for s in specs):
        source = "none: every check is expected to pass"
    else:
        source = "recorded" if recorded is not None else "from the first call"
    loop = Loop(cli, specs, paths, recorded)
    if args.trace:
        metrics, rounds = per_layer(loop, specs, args.seconds, args.workload)
    else:
        metrics, rounds = end_to_end(loop, specs, paths, args.seconds)
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in declared()[key]}
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} N "
          f"{specs[0].points} specs {len(specs)} rounds {len(rounds)} "
          f"trace {args.trace} failing-check residuals {source}")
    calls = sorted(d[0] for r in rounds for d in r)
    print(f"# verify call wall seconds: median {statistics.median(calls):.4f}"
          f" min {calls[0]:.4f} max {calls[-1]:.4f} over {len(calls)} calls")
    kernel = sorted(loop.clock.kernel)
    print(f"# reference kernel wall seconds (REFERENCE_S "
          f"{reference.REFERENCE_S}): median {statistics.median(kernel):.4f}"
          f" min {kernel[0]:.4f} max {kernel[-1]:.4f} over {len(kernel)} "
          "runs")
    print(f"# failed_ratio {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.4g}")
    for spec_name, found in loop.problems[:5]:
        print(f"# failed call on {spec_name}: {'; '.join(found)[:400]}")
    for key, value in metrics.items():
        print(f"# {key} = {value:.6g} {units[key]}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, untraced then traced."""
    import_program()
    document = {"seed": args.seed, "seconds": args.seconds,
                "environment": environment(), "workloads": {}}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    reasons = {w["name"]: w["why"] for w in declared()["workloads"]}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                fail(f"{name} --trace {trace} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            entry = document["workloads"].setdefault(name, {
                "N": workloads.WORKLOADS[name][0], "why": reasons[name]})
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result
            entry[key + "_log"] = [line for line in done.stdout.splitlines()
                                   if line.startswith("# ")]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    print(f"# wrote {path}")
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all"
             else run_one(arguments))
