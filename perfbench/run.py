#!/usr/bin/env python3
"""dosusy benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the package in ``src/dosusy`` of the checkout
this file sits in: a single process, no extra threads, one client in a
closed loop.  Every result is gated; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  ``--workload all --trace 0`` runs every workload and ends
with the named metrics of all of them.  See perfbench/README.md.
"""

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verify-all", "closed-form-grid", "request-mix")
SETUP_RUNS = 3

# Fresh-interpreter set-up: import the package and make one small first
# call into every layer, so lazy initialisation moved into any of them shows.
SETUP_SCRIPT = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import dosusy
from dosusy import cli, family, model, numkit, solver, susy
grid = np.geomspace(0.1, 10.0, 9)
susy.partner_plus_closed(grid, 1.0, 2)
model.radial_u(grid, 2, 0, 1.0)
numkit.integrate_adaptive(np.cos, 0.0, 1.0)
numkit.grid_derivative(grid, grid * grid)
numkit.newton2d(lambda x: x - 1.0, np.zeros(2))
family.v_family(2.0, 1.0, 0)
solver.integrate_radial(model.coupling_quantized(1, 1.0), 1.0, 0, grid)
print(repr(time.perf_counter() - t0))
"""


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread for this process and its children; numpy must not be loaded yet."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import dosusy from this checkout's src/, never from anywhere else."""
    if not (SRC / "dosusy" / "__init__.py").is_file():
        fail(f"no dosusy package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import dosusy
    if Path(dosusy.__file__).resolve().parent != (SRC / "dosusy").resolve():
        fail(f"imported dosusy from {dosusy.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that is not a loadable file
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "blas_threads": _blas_threads(),
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------

def setup_seconds(calibration, runs: int = SETUP_RUNS) -> float:
    """Median import-plus-first-call time over ``runs`` fresh interpreters.

    Reference probes (``calibration`` of kind "import") run before each
    set-up probe and after the last, and each set-up probe is scaled by the
    reference probes next to it.
    """
    from perfbench.calibration import fresh_interpreter_seconds

    probes = []
    for _ in range(runs):
        calibration.sample()
        t0 = time.perf_counter()
        seconds = fresh_interpreter_seconds(SETUP_SCRIPT, str(SRC))
        mid = 0.5 * (t0 + time.perf_counter())
        probes.append((mid - 0.5 * seconds, mid + 0.5 * seconds))
    calibration.sample()
    return statistics.median(calibration.scaled([probe]) for probe in probes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency(outcomes, calibration=None) -> float:
    """Wall time of an operation, at reference speed with a calibration; a
    failed operation misses every latency limit."""
    if not all(o.ok for o in outcomes):
        return math.inf
    if calibration is None:
        return sum(o.seconds for o in outcomes)
    return sum(calibration.scaled(o.segments) for o in outcomes)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def operation_count(workload, seconds: float) -> int:
    """Timed operations in a run: as many as take ``seconds`` at the nominal
    speed of the workload, so that which operations a run attempts, and so
    ``attempted`` and ``failed``, depend only on the seed and ``seconds``."""
    return max(1, round(seconds / workload.nominal_op_s))


def measure(workload, seed: int, seconds: float, calibration):
    """One warm-up operation, then ``operation_count`` timed operations.

    The reference job runs between dosusy calls, at most every quarter
    second, and once more at the end.
    """
    ops = workload.ops(seed)
    calibration.sample()
    warm = workload.run(next(ops))
    timed = [workload.run(op, between=calibration.maybe_sample)
             for op in itertools.islice(ops, operation_count(workload, seconds))]
    calibration.sample()
    return warm, timed


def summarize(workload, warm, timed, calibration) -> tuple[dict, dict, list]:
    """(end-to-end metrics at reference speed, named metrics of this
    workload, every outcome)."""
    outcomes = list(warm) + [o for op in timed for o in op]
    measured = [o for op in timed for o in op]
    busy = sum(calibration.scaled(o.segments) for o in measured)
    ok = sum(1 for o in outcomes if o.ok)
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(latency(op, calibration) for op in timed),
        "work_per_s": sum(o.work for o in measured if o.ok) / busy,
        "ok_frac": ok / len(outcomes),
    }
    named = {"failed_frac": 1.0 - metrics["ok_frac"]}
    if workload.name == "verify-all":
        named["verify_s"] = metrics["op_p50_ms"] / 1e3
    elif workload.name == "closed-form-grid":
        named["evals_per_s"] = metrics["work_per_s"]
    else:
        named["requests_per_s"] = metrics["work_per_s"]
        named["request_p90_ms"] = 1e3 * percentile(
            [latency([o], calibration) for o in measured], 90)
        for kind in sorted({o.kind for o in measured}):
            named[f"{kind}_p50_ms"] = 1e3 * statistics.median(
                latency([o], calibration) for o in measured if o.kind == kind)
    return metrics, named, outcomes


# The JSON metrics of a --trace 0 run, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "work_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}
# Units of the named metrics that are not JSON metrics and not latencies in ms.
NAMED_UNITS = {"failed_frac": "frac", "verify_s": "s", "evals_per_s": "1/s",
               "requests_per_s": "1/s"}


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or NAMED_UNITS.get(name) or "ms"


def report_failures(outcomes) -> None:
    failed = [o for o in outcomes if not o.ok]
    for o in failed[:10]:
        print(f"failed {o.kind}: {o.error}")
    if len(failed) > 10:
        print(f"failed ... {len(failed) - 10} more")


def result_line(correct: bool, outcomes, metrics: dict, units=unit_of) -> str:
    """The closing JSON object; a metric that is not finite makes the run incorrect."""
    out = {}
    for name, value in metrics.items():
        finite = math.isfinite(value)
        correct = correct and finite
        out[name] = {"value": value if finite else None, "unit": units(name)}
    return json.dumps({"correct": bool(correct), "attempted": len(outcomes),
                       "failed": sum(1 for o in outcomes if not o.ok), "metrics": out})


def describe(calibration) -> str:
    return (f"calibration {calibration.kind}: {len(calibration.samples)} reference jobs, "
            f"median {statistics.median(calibration.samples):.6f} s, "
            f"min {min(calibration.samples):.6f} s, max {max(calibration.samples):.6f} s")


def run_end_to_end(names, seed: int, seconds: float) -> None:
    from perfbench.calibration import Calibration
    from perfbench.workloads import WORKLOADS

    setup_calibration = Calibration("import")
    setup = setup_seconds(setup_calibration)
    print(f"env {json.dumps(environment())}")
    print(f"setup {describe(setup_calibration)}")
    all_outcomes, all_named, metrics = [], {"setup_s": setup}, {}
    for name in names:
        workload = WORKLOADS[name]()
        calibration = Calibration(workload.calibration)
        warm, timed = measure(workload, seed, seconds, calibration)
        metrics, named, outcomes = summarize(workload, warm, timed, calibration)
        metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb())
        metrics = {key: metrics[key] for key in END_TO_END_UNITS}
        print(f"workload {name} seed {seed} seconds {seconds} ops {len(timed)} "
              f"(+1 warm-up) outcomes {len(outcomes)} work unit: {workload.work_unit}")
        print(f"workload {name} {describe(calibration)}")
        report_failures(outcomes)
        print("raw op_ms " + " ".join(f"{1e3 * latency(op):.3f}" for op in timed))
        print("scaled op_ms "
              + " ".join(f"{1e3 * latency(op, calibration):.3f}" for op in timed))
        for key, value in {**metrics, **named}.items():
            print(f"metric {name} {key} {value!r} {unit_of(key)}")
        all_outcomes += outcomes
        all_named.update({k: v for k, v in named.items() if k != "failed_frac"})
    if len(names) > 1:
        failed = sum(1 for o in all_outcomes if not o.ok)
        metrics = {**all_named, "failed_frac": failed / len(all_outcomes),
                   "peak_rss_mb": peak_rss_mb()}
    unexpected = any(o.unexpected for o in all_outcomes)
    print(result_line(not unexpected, all_outcomes, metrics))


def traced_replicate(workload, ops, between=None):
    from perfbench import tracer as tr

    tracer = tr.Tracer()
    outcomes = []
    with tr.instrumented(tracer):
        for i, op in enumerate(ops):
            tracer.op = i
            outcomes += workload.run(op, tracer, between)
    return tr.layer_metrics(tracer), outcomes, len(tracer)


def run_traced(name: str, seed: int) -> None:
    """Traced, untraced, traced over the same fixed operations of the seed.

    The first traced replicate also warms up; per-layer times come from the
    second.  Both must give identical work counts.
    """
    from perfbench import tracer as tr
    from perfbench.calibration import Calibration
    from perfbench.workloads import WORKLOADS

    print(f"env {json.dumps(environment())}")
    workload = WORKLOADS[name]()
    ops = list(itertools.islice(workload.ops(seed), workload.traced_ops))
    # the reference job runs throughout, so that the overhead compares the
    # untraced and traced replicates at the same machine speed
    calibration = Calibration(workload.calibration)
    between = calibration.maybe_sample
    calibration.sample()
    first, out1, _ = traced_replicate(workload, ops, between)
    plain = [o for op in ops for o in workload.run(op, between=between)]
    second, out2, spans = traced_replicate(workload, ops, between)
    calibration.sample()
    overhead = (sum(calibration.scaled(o.segments) for o in out2)
                / sum(calibration.scaled(o.segments) for o in plain)) - 1.0
    metrics = {**second, "trace.overhead_frac": overhead}
    counts1, counts2 = tr.work_counts(first), tr.work_counts(second)
    deterministic = counts1 == counts2
    print(f"workload {name} seed {seed} traced ops {len(ops)} spans {spans} "
          f"work counts repeat: {deterministic}")
    if not deterministic:
        for key in sorted(k for k in counts1 if counts1[k] != counts2.get(k)):
            print(f"count mismatch {key}: {counts1[key]} vs {counts2.get(key)}")
    outcomes = out1 + plain + out2
    report_failures(outcomes)
    for key, value in metrics.items():
        print(f"layer {name} {key} {value!r} {tr.metric_unit(key)}")
    correct = deterministic and not any(o.unexpected for o in outcomes)
    print(result_line(correct, outcomes, metrics, tr.metric_unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_blas_threads()
    import_package()
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all measures end to end only (--trace 0)")
        run_end_to_end(WORKLOAD_NAMES, args.seed, args.seconds)
    elif args.trace:
        run_traced(args.workload, args.seed)
    else:
        run_end_to_end([args.workload], args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
