"""Machine-speed calibration of the end-to-end timings.

On the shared virtual machine this benchmark was defined on (2 vCPUs, Intel
Xeon), one core switches between speed states that differ by 25 to 60 %
and last from seconds to minutes, so whole runs of the same work came out
up to 1.6 times slower than others.  A run therefore also times a fixed
reference job, which uses nothing from dosusy, between its dosusy calls,
and expresses every end-to-end time at reference speed: each timed
segment is multiplied by ``REFERENCE_S`` over the mean reference-job time
measured within ``WINDOW_S`` of it.  A change to dosusy leaves the
reference job alone, so it moves scaled times exactly as it moves raw ones.

Each workload uses the job closest to its own work, because the slow state
does not slow every kind of work by the same factor:

- "python": a fixed oscillator integrated by scipy's DOP853 with a Python
  right-hand side, like the shooting legs, plus a scalar loop over small
  numpy arrays, like the per-point stencil weights;
- "numpy": vector arithmetic on arrays the size of a closed-form-grid batch;
- "import": numpy and the scipy modules dosusy uses, imported in a fresh
  interpreter, for the set-up probes.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import solve_ivp

# Reference-job times in the fast state of the machine named above; they
# only fix the scale of the reported times.
REFERENCE_S = {"python": 0.012, "numpy": 0.003, "import": 0.5}

INTERVAL_S = 0.25  # at most one reference job per quarter second
WINDOW_S = 1.0     # samples this close to a segment set its scale

_VECTOR = np.geomspace(1e-3, 1e3, 16384)

IMPORT_SCRIPT = r"""
import time
t0 = time.perf_counter()
import numpy, scipy.integrate, scipy.optimize
print(repr(time.perf_counter() - t0))
"""


def fresh_interpreter_seconds(script: str, *args: str) -> float:
    """Run ``script`` in a fresh interpreter; it prints the seconds it measured last."""
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _oscillator(t, y):
    return [y[1], -(1.0 + 0.5 * math.sin(t)) * y[0]]


def _timed(job) -> float:
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0


def _python_work() -> None:
    solve_ivp(_oscillator, (0.0, 20.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    xs = np.linspace(0.0, 1.0, 5)
    w = np.zeros((3, 5))
    for _ in range(400):
        for i in range(1, 5):
            for j in range(i):
                w[1, j] = (xs[i] * w[1, j] - w[0, j] + 1.0) / (xs[i] - xs[j] + 1.0)


def _numpy_work() -> None:
    for _ in range(20):
        _VECTOR ** 2.3 / (1.0 + _VECTOR ** 1.7) ** 2


_JOBS = {
    "python": lambda: _timed(_python_work),
    "numpy": lambda: _timed(_numpy_work),
    "import": lambda: fresh_interpreter_seconds(IMPORT_SCRIPT),
}


class Calibration:
    """Reference-job samples of one kind taken during a run, as a time series."""

    def __init__(self, kind: str):
        self.kind = kind
        self.times: list[float] = []    # midpoint of each sample, increasing
        self.samples: list[float] = []  # reference-job seconds
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = _JOBS[self.kind]()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(seconds)
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def _reference_time(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi > lo:
            return statistics.fmean(self.samples[lo:hi])
        nearest = min(range(len(self.times)),
                      key=lambda i: abs(self.times[i] - 0.5 * (start + end)))
        return self.samples[nearest]

    def scaled(self, segments) -> float:
        """Total duration of (start, end) segments at reference speed."""
        return sum((end - start) * REFERENCE_S[self.kind] / self._reference_time(start, end)
                   for start, end in segments)
