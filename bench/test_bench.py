"""Self-tests of the benchmark: seeded inputs, the correctness gate, span
accounting and repeatable traced counts.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import gate
import run
import spans
import workloads

CLI = run.import_program()
SMALL = 6
REPEATED_COUNTS = ("expr.evaluate.calls", "expr.jet.calls",
                   "dwp.point_data.calls",
                   "geometry.riemann_oracle.calls_per_point")


def _loop(name, seed, tmp_path, tamper=None):
    specs = workloads.generate(name, seed, SMALL)
    paths = workloads.write_specs(specs, str(tmp_path / f"{name}-{seed}"))
    return run.Loop(CLI, specs, paths, tamper=tamper)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_specs(name, tmp_path):
    written = []
    for sub in ("a", "b", "c"):
        seed = 7 if sub != "c" else 8
        paths = workloads.write_specs(workloads.generate(name, seed),
                                      str(tmp_path / sub))
        written.append([open(p, "rb").read() for p in paths])
    assert written[0] == written[1]
    assert written[0] != written[2]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_expected_verdicts_hold(name, seed, tmp_path):
    loop = _loop(name, seed, tmp_path)
    loop.round()
    loop.round()
    assert loop.problems == []
    assert loop.failed == 0 and loop.attempted == 2 * len(loop.jobs)


def _flip_first_pass(text):
    return text.replace('"status": "pass"', '"status": "fail"', 1)


def _nudge_residual(text):
    report = json.loads(text)
    for check in report["checks"]:
        if check["status"] == "pass":
            check["max_abs_residual"] = 1e-12
            break
    return json.dumps(report)


@pytest.mark.parametrize("tamper", [
    _flip_first_pass, _nudge_residual, lambda text: text[: len(text) // 2],
    lambda text: "[]", lambda text: "",
])
def test_tampered_report_is_a_failed_call(tamper, tmp_path):
    loop = _loop("soliton-gated", 3, tmp_path, tamper=tamper)
    loop.round()
    assert loop.attempted == 2
    assert loop.failed == 2


def test_a_changed_rerun_fails_the_byte_identity_check(tmp_path):
    calls = []

    def second_differs(text):
        calls.append(text)
        return text if len(calls) == 1 else text.replace("\n", "\n ", 1)

    loop = _loop("curved-m4", 3, tmp_path, tamper=second_differs)
    loop.round()
    loop.round()
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "differs" in loop.problems[0][1][-1]


def _scale_failing_residuals(text):
    report = json.loads(text)
    for check in report["checks"]:
        if check["status"] == "fail":
            check["max_abs_residual"] *= 1 + 1e-9
    return json.dumps(report)


def _full_size_loop(name, seed, tmp_path, tamper=None):
    specs = workloads.generate(name, seed)
    paths = workloads.write_specs(specs, str(tmp_path / f"{name}-{seed}"))
    recorded = gate.recorded(name, seed, specs[0].points)
    return run.Loop(CLI, specs, paths, recorded, tamper=tamper)


@pytest.mark.parametrize("seed", [0, 99])
def test_recorded_residuals_hold(seed, tmp_path):
    loop = _full_size_loop("sweep-m3", seed, tmp_path)
    assert loop.recorded is not None
    loop.round()
    assert loop.problems == []


def test_a_steadily_wrong_residual_fails_against_the_record(tmp_path):
    # every call gives the same wrong residual, so only the recorded
    # reference, not the first call, can tell
    loop = _full_size_loop("sweep-m3", 4, tmp_path,
                           tamper=_scale_failing_residuals)
    loop.round()
    assert loop.failed == loop.attempted == workloads.SWEEP_SPECS
    assert "soliton[0].ricci: residual" in loop.problems[0][1][0]


def test_unrecorded_seeds_and_sizes_have_no_reference():
    assert gate.recorded("sweep-m3", 10**6, 16) is None
    assert gate.recorded("sweep-m3", 1, SMALL) is None
    assert gate.recorded("curved-m4", 1,
                          workloads.WORKLOADS["curved-m4"][0]) is not None


def test_a_span_the_program_lacks_stops_the_traced_run(tmp_path,
                                                      monkeypatch):
    monkeypatch.setitem(spans.SPANS, "expr.gone", ("expr", "Expression.gone"))
    loop = _loop("sweep-m3", 0, tmp_path)
    with pytest.raises(SystemExit) as stop:
        run.per_layer(loop, workloads.generate("sweep-m3", 0, SMALL), 0,
                      "sweep-m3")
    assert stop.value.code == 2
    assert loop.attempted == 0


def test_a_raising_call_is_a_failed_call(tmp_path):
    specs = workloads.generate("sweep-m3", 0, SMALL)[:1]
    paths = workloads.write_specs(specs, str(tmp_path))
    loop = run.Loop(types.SimpleNamespace(main=lambda argv: 1 / 0), specs,
                    paths)
    loop.round()
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "ZeroDivisionError" in loop.problems[0][1][-1]


def test_clock_scales_by_the_kernel_times_around_the_interval(
        monkeypatch):
    kernel = iter([0.5, 1.5, 2.5])
    monkeypatch.setattr(run.reference, "work", lambda: 0.0)
    monkeypatch.setattr(run.reference, "seconds", lambda: next(kernel))
    monkeypatch.setattr(run.reference, "REFERENCE_S", 1.0)
    clock = run.Clock()
    # kernel runs of 0.5 s and 1.5 s around the first interval: the host
    # ran at the reference speed; 1.5 s and 2.5 s around the second: at
    # half of it
    assert clock.scale(3.0) == pytest.approx(3.0)
    assert clock.scale(3.0) == pytest.approx(1.5)
    assert clock.kernel == [0.5, 1.5, 2.5]


def test_wrong_exit_status_is_reported():
    spec = workloads.generate("soliton-gated", 0, SMALL)[1]
    assert gate.problems(spec, 1, "{}")[0].startswith("exit status 1")


def test_self_times_account_for_the_root_span():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    names = ["root", "a", "a1", "b"]
    name = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    totals = spans.span_totals(names, name, parent, start, end)
    assert {n: t[2] for n, t in totals.items()} == {
        "root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0}
    assert sum(t[2] for t in totals.values()) == totals["root"][1]


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    import dwpcheck.checks
    import dwpcheck.cli
    import dwpcheck.expr

    before = (dwpcheck.cli.main, dwpcheck.checks.summarize,
              dict(dwpcheck.checks._FACTOR_STRUCTURES),
              dwpcheck.expr.Expression.jet)
    tracer = spans.Tracer()
    assert set(tracer.install()) == set(spans.SPANS)
    try:
        loop = _loop("sweep-m3", 0, tmp_path)
        loop.round()
    finally:
        tracer.uninstall()
    after = (dwpcheck.cli.main, dwpcheck.checks.summarize,
             dict(dwpcheck.checks._FACTOR_STRUCTURES),
             dwpcheck.expr.Expression.jet)
    assert before == after
    name, parent, start, end = tracer.arrays()
    roots = name[parent < 0]
    assert set(roots) == {tracer.name_ids["cli.main"]}
    assert len(roots) == len(loop.jobs)
    totals = spans.span_totals(tracer.names, name, parent, start, end)
    assert totals["checks.run_all"][0] == len(loop.jobs)
    wall = sum(t[1] for n, t in totals.items() if n == "cli.main")
    assert sum(t[2] for t in totals.values()) == pytest.approx(wall)


def _result(name, seed, trace):
    """The result line of a run at the workload's N with the fewest rounds."""
    out = subprocess.run(
        [sys.executable, run.__file__, "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result("sweep-m3", 1, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared[key]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = _result(name, 5, 1), _result(name, 5, 1)
    assert first["correct"] and second["correct"]
    for metric in REPEATED_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric]
    assert first["metrics"]["expr.jet.calls"]["value"] > 0


def test_no_result_without_the_program_sources(tmp_path):
    # a directory that holds only BENCHMARK.json and the benchmark's files
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-m3", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
