"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import run
import workloads
from speed import PROBE_REF_S, SpeedProbe
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# Reduced sizes: every workload runs end to end in a few seconds.
SMALL = {
    "solve-cli-l5": 2,
    "transfer-suite-l5": 3,
    "homogeneous-sum-l3": 2,
    "degree-window-l3": 2,
}


def small(name: str) -> workloads.Workload:
    return workloads.make_workload(name, SMALL[name])


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_workload_round_passes_its_checks(name):
    wl = small(name)
    with SpeedProbe() as probe:
        runner = run.Runner(workloads, wl, probe)
        assert runner.run_round(wl.make_round(7, 2)) > 0
    assert (runner.correct, runner.attempted, runner.failed) == (True, 2, 0)


def test_inputs_depend_only_on_seed():
    wl = small("solve-cli-l5")
    assert [i.argv for i in wl.make_round(3, 2)] == [i.argv for i in wl.make_round(3, 2)]
    assert [i.argv for i in wl.make_round(3, 2)] != [i.argv for i in wl.make_round(4, 2)]
    assert wl.make_round(4, 1) != wl.make_round(5, 1)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_round_size_follows_the_run_length_alone(name):
    wl = workloads.make_workload(name)
    assert wl.ops_for(0.1) == 1
    assert wl.ops_for(12) == max(1, int(12 // wl.nominal_op_s))
    assert wl.ops_for(120) >= 9


def test_solve_points_draw_each_pool_value_once():
    heights = sorted(max(f.numerator, f.denominator) for f in workloads.SOLVE_POOL)
    for inp in workloads.make_workload("solve-cli-l5").make_round(11, 4):
        values = (*inp.point.z, inp.point.zeta1, inp.point.zeta2, inp.point.w)
        drawn = [abs(v.rational_value()) for v in values]
        assert sorted(max(f.numerator, f.denominator) for f in drawn) == heights


def _flip_first_component(text: str) -> str:
    doc, end = json.JSONDecoder().raw_decode(text)
    word = next(iter(doc["components"]))
    coeffs = doc["components"][word]
    coeffs[0] = str(-Fraction(coeffs[0]) + 1)
    return json.dumps(doc) + text[end:]


def test_solve_check_rejects_a_flipped_component():
    wl = small("solve-cli-l5")
    (inp,) = wl.make_inputs(workloads.seed_rng(1), wl.length, 1)
    out = wl.run(inp)
    wl.check(inp, out)
    with pytest.raises(workloads.CheckFailed, match="sum"):
        wl.check(inp, workloads.CliOutput(0, _flip_first_component(out.text)))
    with pytest.raises(workloads.CheckFailed, match="exited"):
        wl.check(inp, workloads.CliOutput(1, out.text))


@pytest.mark.parametrize("normalization", ["sum", "raw"])
def test_solve_check_rejects_a_vector_not_scaled_to_a_closed_form(normalization):
    wl = small("solve-cli-l5")
    (inp,) = wl.make_inputs(workloads.seed_rng(1), wl.length, 1)
    out = wl.run(inp)
    doc, end = json.JSONDecoder().raw_decode(out.text)
    assert doc["normalization"] == "all_open"
    doc["normalization"] = normalization
    with pytest.raises(workloads.CheckFailed, match="normalization"):
        wl.check(inp, workloads.CliOutput(0, json.dumps(doc) + out.text[end:]))


def test_solve_check_rejects_a_vector_t_does_not_fix():
    wl = small("solve-cli-l5")
    (inp,) = wl.make_inputs(workloads.seed_rng(1), wl.length, 1)
    out = wl.run(inp)
    # Moving weight between two components keeps the sum but breaks T v = v.
    doc, end = json.JSONDecoder().raw_decode(out.text)
    first, second = list(doc["components"])[:2]
    for word, delta in ((first, 1), (second, -1)):
        doc["components"][word][0] = str(Fraction(doc["components"][word][0]) + delta)
    with pytest.raises(workloads.CheckFailed, match="third w"):
        wl.check(inp, workloads.CliOutput(0, json.dumps(doc) + out.text[end:]))


def test_homogeneous_check_rejects_a_flipped_component():
    wl = small("homogeneous-sum-l3")
    (inp,) = wl.make_inputs(workloads.seed_rng(1), wl.length, 1)
    out = wl.run(inp)
    wl.check(inp, out)
    comps = list(out.components)
    comps[0] = -comps[0]
    with pytest.raises(workloads.CheckFailed):
        wl.check(inp, replace(out, components=tuple(comps)))


@pytest.mark.parametrize("suite,length", [("transfer", 5), ("transfer", 3), ("degree", 3)])
def test_suite_check_rejects_missing_or_failing_rows(suite, length):
    rows = [(f"row {k}", True) for k in range(workloads.expected_rows(suite, length))]
    workloads.check_suite(suite, length, rows)
    with pytest.raises(workloads.CheckFailed, match="0 rows"):
        workloads.check_suite(suite, length, [])
    with pytest.raises(workloads.CheckFailed, match="rows"):
        workloads.check_suite(suite, length, rows[1:])
    with pytest.raises(workloads.CheckFailed, match="row 0"):
        workloads.check_suite(suite, length, [("row 0", False)] + rows[1:])


def _traced(name: str) -> Tracer:
    wl = small(name)
    tracer = Tracer()
    tracer.install()
    try:
        with SpeedProbe() as probe:
            runner = run.Runner(workloads, wl, probe, tracer)
            runner.run_round(wl.make_round(7, 2))
    finally:
        tracer.uninstall()
    assert runner.correct and runner.failed == 0
    return tracer


def test_traced_metrics_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {k: unit for k, (_, unit) in _traced("degree-window-l3").layer_metrics().items()}
    reported["trace.overhead_s"] = "s"
    assert reported == declared


def test_transfer_suite_trace_sees_the_suite_and_the_oracle():
    metrics = _traced("transfer-suite-l5").layer_metrics()
    length = SMALL["transfer-suite-l5"]
    assert metrics["transfer.transfer_matrix.calls"][0] > 0
    # Two operations, one trial each: one oracle comparison per trial.
    assert metrics["transfer.transfer_matrix_naive.calls"][0] == 2
    assert metrics["linkpat.compose.calls"][0] > 0
    assert metrics["verify.checks"][0] == 2 * workloads.expected_rows("transfer", length)
    assert metrics["exactla.kernel_basis.calls"][0] == 0


def test_homogeneous_trace_sees_confluent_characters_only():
    metrics = _traced("homogeneous-sum-l3").layer_metrics()
    assert metrics["chars.character.confluent.calls"][0] > 0
    assert metrics["exactla.det.laurent.calls"][0] > 0
    assert metrics["chars.character.generic.calls"][0] == 0
    assert metrics["chars.z_product.calls"][0] == 2


def test_repeat_calls_count_points_seen_earlier_in_the_same_operation():
    from openloop import groundstate, transfer

    (inp,) = small("solve-cli-l5").make_inputs(workloads.seed_rng(2), 2, 1)
    pt, other = inp.point, inp.point.with_w(inp.third_w)
    tracer = Tracer()
    tracer.install()
    try:
        op = tracer.begin_op()
        for p in (pt, other, pt, pt):
            transfer.transfer_matrix(p)
        groundstate.solve(pt, check_w=False)
        groundstate.solve(pt, normalization="sum", check_w=False)
        tracer.end_op(op)
        op = tracer.begin_op()
        groundstate.solve(pt, check_w=False)
        tracer.end_op(op)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["transfer.transfer_matrix.calls"][0] == 7
    # The builds inside the first operation's solves repeat pt; the second
    # operation starts with nothing seen.
    assert metrics["transfer.transfer_matrix.repeat_calls"][0] == 4
    assert metrics["groundstate.solve.calls"][0] == 3
    assert metrics["groundstate.solve.repeat_calls"][0] == 1


def test_uninstall_restores_every_wrapped_name():
    from openloop import groundstate, transfer, verify
    from openloop.exactfield import Scalar

    before = (groundstate.solve, verify.transfer_matrix, Scalar.__mul__, Scalar.inv)
    tracer = Tracer()
    tracer.install()
    assert verify.transfer_matrix is not before[1]
    tracer.uninstall()
    assert (groundstate.solve, verify.transfer_matrix, Scalar.__mul__, Scalar.inv) == before
    assert transfer.transfer_matrix is before[1]


def test_speed_probe_rescales_busy_time_to_the_reference_speed():
    with SpeedProbe() as probe:
        start = perf_counter()
        while perf_counter() - start < 0.5:
            sum(range(1000))
        end = perf_counter()
    inside = probe._window(start, end)
    assert len(inside) >= 3
    assert probe.busy(start, end) == pytest.approx(end - start - sum(inside))
    mean_ratio = sum(PROBE_REF_S / d for d in inside) / len(inside)
    assert probe.scaled(start, end) == pytest.approx(probe.busy(start, end) * mean_ratio)
    # An interval holding no sample takes the latest sample before it.
    assert probe.factor(end, end) == pytest.approx(PROBE_REF_S / probe.durations[-1])


def test_run_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "homogeneous-sum-l3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "degree-window-l3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_rejects_an_unknown_workload():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
