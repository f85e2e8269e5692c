"""Set-up timing, calibration, percentiles, the metric list and the refusal
to run without the package."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dosusy  # noqa: F401  - already imported here, so only a fresh interpreter pays for it
from perfbench import calibration, run, tracer
from perfbench.calibration import REFERENCE_S, Calibration
from perfbench.workloads import WORKLOADS

BENCH_DIR = Path(run.__file__).resolve().parent


def test_setup_is_timed_in_a_fresh_interpreter(monkeypatch):
    calls = []
    real = subprocess.run

    def spy(cmd, **kwargs):
        calls.append(cmd)
        return real(cmd, **kwargs)

    monkeypatch.setattr(calibration.subprocess, "run", spy)
    seconds = run.setup_seconds(Calibration("import"), runs=1)
    # reference probe, set-up probe, reference probe
    assert len(calls) == 3 and all(c[:2] == [sys.executable, "-c"] for c in calls)
    assert "import dosusy" in calls[1][2] and "dosusy" not in calls[0][2]
    # numpy, scipy and the package are loaded from scratch in the child;
    # a cached in-process import would take microseconds
    assert seconds > 0.05


def test_percentile_is_nearest_rank_and_failures_are_slowest():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([1.0, 2.0, math.inf], 90) == math.inf


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no dosusy package" in proc.stderr


def test_calibration_scales_each_segment_by_the_reference_jobs_near_it():
    cal = Calibration("python")
    ref = REFERENCE_S["python"]
    cal.times, cal.samples = [0.0, 10.0, 10.5, 20.0], [ref, 2 * ref, 4 * ref, 2 * ref]
    assert cal.scaled([(0.0, 0.0)]) == 0.0
    assert cal.scaled([(0.5, 0.9)]) == pytest.approx(0.4)          # only t = 0 within 1 s
    assert cal.scaled([(9.5, 11.0)]) == pytest.approx(1.5 / 3.0)   # mean of 2 and 4
    assert cal.scaled([(14.0, 15.0)]) == pytest.approx(1.0 / 4.0)  # nearest: t = 10.5
    numpy_cal = Calibration("numpy")
    numpy_cal.sample()
    numpy_cal.maybe_sample()  # within the interval: no second sample
    assert len(numpy_cal.samples) == 1 and numpy_cal.samples[0] > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, tracer.metric_unit(name)) for name in tracer.PER_LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_attempted_and_failed_depend_only_on_seed_and_seconds():
    workload = WORKLOADS["closed-form-grid"]()
    seconds = 64 * workload.nominal_op_s  # 64 timed batches, 8 of them over rho 1e+-150

    def outcomes(seed):
        warm, timed = run.measure(workload, seed, seconds, Calibration("numpy"))
        assert len(timed) == 64
        return [(o.kind, o.work, o.error) for o in warm + [o for op in timed for o in op]]

    first = outcomes(7)
    assert outcomes(7) == first
    assert outcomes(8) != first
