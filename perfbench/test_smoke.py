"""Smoke test of the benchmark at tiny sizes.  It never gates on timings.

    python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_lists_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_metric_with_its_unit(workload):
    report, result = bench(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    rows = {line.split()[0]: line.split()[1:] for line in report if line.strip()}
    for metric, unit in measure.REPORT_UNITS.items():
        assert unit in rows[metric], metric
    _, checks_run, _, checks_failed, _ = rows["output"]
    assert int(checks_run) > 0 and checks_failed == "0"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_across_seeds(workload):
    report, first = bench(workload, 1, 1)
    _, second = bench(workload, 2, 1)
    assert first["correct"] and second["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units
    for name, unit in units.items():
        if unit in ("count", "B"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert any(line.startswith("trace.overhead_ratio") for line in report)


def test_checks_catch_a_wrong_recovery(monkeypatch, tmp_path):
    recover = workloads.protocol.recover_image

    def off_by_one_pixel(*args):
        image = recover(*args)
        image.pixels[0] ^= 1
        return image

    monkeypatch.setattr(workloads.protocol, "recover_image", off_by_one_pixel)
    workload = workloads.WORKLOADS["statevector-deep"]
    p = workloads.Pass()
    workload.run_pass(p, workload.prepare(1, True, tmp_path), in_process=True)
    assert p.failed == 1
    assert any("recovered image equals the secret" in e for e in p.errors)


def test_an_operation_that_raises_fails_and_ends_the_pass():
    p = workloads.Pass()
    with pytest.raises(workloads.PassAborted):
        with p.op("share_s"):
            raise ValueError("boom")
    assert (p.attempted, p.failed) == (1, 1)


def test_timings_are_scaled_by_the_reference_task_run_before_each_operation():
    p = workloads.Pass(reference=lambda: 2.0)
    for metric in ("share_s", "recover_s"):
        with p.op(metric):
            pass
    assert p.slowdowns == [2.0, 2.0] and p.reference_s > 0
    assert measure.slowdown(p) == 2.0


def test_self_times_and_remainder_sum_to_the_wall_time():
    spans = [("a.f", 1.0, 4.0, -1), ("b.g", 1.5, 2.5, 0), ("a.f", 2.0, 2.25, 1)]
    self_s, calls, remainder = tracing.summarize(spans, 5.0)
    assert self_s == {"a.f": 2.25, "b.g": 0.75}
    assert calls == {"a.f": 2, "b.g": 1}
    assert remainder == 2.0


def test_tracer_wraps_every_namespace_and_restores_it():
    import qvss.baseline
    import qvss.protocol

    original = qvss.protocol.pixel_rng
    with tracing.Tracer() as tracer:
        assert qvss.baseline.pixel_rng is qvss.protocol.pixel_rng is not original
        qvss.baseline.pixel_rng(1, 1)
    assert qvss.baseline.pixel_rng is qvss.protocol.pixel_rng is original
    assert [span[0] for span in tracer.spans] == ["protocol.pixel_rng"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "statevector-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
