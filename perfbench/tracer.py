"""Spans and work counts recorded around dosusy's public functions.

The package is instrumented from outside: inside ``instrumented(tracer)``
every module-level binding of a listed function (and every suite in
``checks.SUITES``) is replaced by a wrapper that opens a span, calls the
original, closes the span and adds the call's work counts.  The originals
are restored on exit, so nothing in ``src/dosusy`` is edited and an
untraced run executes exactly the library's own code.

A span is (name, start, end, parent); ``layer_times`` turns a list of them
into per-name self time (duration minus the part covered by child spans)
and inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("numkit", "model", "susy", "family", "solver", "checks", "cli")

SUITES = ("riccati", "partner", "eigenvalue", "wavefunction", "critical", "family",
          "audit", "annihilation", "closure", "degeneracy", "figures")

MODEL_CLOSED_FORMS = ("potential", "f_factor", "radial_u", "effective_potential_general",
                      "map_coordinates")
SUSY_CLOSED_FORMS = ("superpotential", "superpotential_dr", "superpotential_d2r",
                     "superpotential_d3r", "partner_minus", "partner_plus",
                     "partner_minus_closed", "partner_plus_closed", "partner_plus_dr",
                     "partner_plus_d2r")

# Every per-layer metric, in the order BENCHMARK.json lists them.  The stat
# suffix says where the value comes from: ``self_s`` is span self time,
# ``s`` inclusive span time, anything else a work count.
PER_LAYER_METRICS = (
    "numkit.integrate_adaptive.calls",
    "numkit.integrate_adaptive.integrand_calls",
    "numkit.integrate_adaptive.self_s",
    "numkit.grid_derivative.calls",
    "numkit.grid_derivative.points",
    "numkit.grid_derivative.self_s",
    "numkit.fornberg_weights.calls",
    "numkit.fornberg_weights.self_s",
    "numkit.derivative.calls",
    "numkit.derivative.self_s",
    "numkit.newton2d.calls",
    "numkit.newton2d.iterations",
    "numkit.newton2d.self_s",
    "solver.shoot_coupling.calls",
    "solver.shoot_coupling.defect_evaluations",
    "solver.shoot_coupling.self_s",
    "solver.solve_ivp.calls",
    "solver.solve_ivp.rhs_evals",
    "solver.solve_ivp.self_s",
    "solver.critical_angular.calls",
    "solver.critical_angular.self_s",
    "solver.classical_trajectory.calls",
    "solver.classical_trajectory.self_s",
    "model.closed_form.calls",
    "model.closed_form.points",
    "model.closed_form.self_s",
    "susy.closed_form.calls",
    "susy.closed_form.points",
    "susy.closed_form.self_s",
    "susy.apply_ladder.calls",
    "susy.apply_ladder.self_s",
    "susy.natanzon_f_reconstruction.calls",
    "susy.natanzon_f_reconstruction.self_s",
    "family.v_family.self_s",
    "family.family_on_grid.self_s",
    "family.v_zeros.self_s",
    "family.series_audit.self_s",
    *(f"checks.suite.{name}.s" for name in SUITES),
    "checks.report_json.s",
    "cli.figure_payloads.self_s",
    "trace.overhead_frac",
)

COUNT_STATS = ("calls", "points", "integrand_calls", "rhs_evals", "iterations",
               "defect_evaluations")


def metric_unit(name: str) -> str:
    if name.endswith(".self_s") or name.endswith(".s"):
        return "s"
    if name == "trace.overhead_frac":
        return "frac"
    return "count"


class Tracer:
    """In-memory span store plus work counters for one traced replicate.

    Spans live in parallel typed arrays (name id, start, end, parent index,
    operation index), so a verify pass's ~10^5 spans cost a few megabytes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0      # operation the next spans belong to
        self.active = 0  # spans are recorded only while this is positive

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self._name)

    def parent_name(self) -> str | None:
        return self.names[self._name[self._stack[-1]]] if self._stack else None

    def open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = self.clock()
        self._stack.pop()

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """(name, start, end, parent index or -1, operation index) per span."""
        return [(self.names[n], s, e, p, op) for n, s, e, p, op
                in zip(self._name, self._start, self._end, self._parent, self._op)]


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    covered, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def layer_times(spans) -> tuple[Counter, Counter]:
    """Per-name (self seconds, inclusive seconds) from spans that start with
    (name, start, end, parent index or -1).

    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for i, (name, start, end, parent, *_) in enumerate(spans):
        self_s[name] += (end - start) - _covered(start, end, children.get(i, ()))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total_s[name] += end - start
    return self_s, total_s


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac (the caller's ratio)."""
    self_s, total_s = layer_times(tracer.spans())
    out = {}
    for name in PER_LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = self_s[layer]
        elif stat == "s":
            out[name] = total_s[layer]
        elif stat in COUNT_STATS:
            out[name] = tracer.counts[name]
    return out


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
#
# A counter runs after the call with (tracer, span name, outermost, args,
# result); ``outermost`` is false when the caller is a span of the same
# name (recursion, or one closed form calling another), so calls and
# points are counted once per entry into the layer.

def _calls(tracer, name, outer, args, result):
    if outer:
        tracer.counts[name + ".calls"] += 1


def _calls_and(stat, amount):
    def count(tracer, name, outer, args, result):
        if outer:
            tracer.counts[name + ".calls"] += 1
            tracer.counts[f"{name}.{stat}"] += amount(args, result)
    return count


def _span_only(tracer, name, outer, args, result):
    pass


def _count_integrand(tracer, name, outer, args, kwargs):
    """Wrap the integrand of an outermost integrate_adaptive call.

    Each integrand call evaluates one 15-node Gauss-Kronrod panel.  Inner
    calls (the half-line substitution re-enters the function) already see
    the wrapped integrand and are left alone.
    """
    if not outer:
        return args, kwargs
    key = name + ".integrand_calls"
    counts = tracer.counts

    def wrap(f):
        def counted(x):
            counts[key] += 1
            return f(x)
        return counted

    if args:
        args = (wrap(args[0]),) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=wrap(kwargs["f"]))
    return args, kwargs


def _points(args, result):
    return int(np.size(args[0]))


# (module, function, span name, counter, optional argument rewriter)
_TARGETS = [
    ("numkit", "integrate_adaptive", "numkit.integrate_adaptive", _calls, _count_integrand),
    ("numkit", "grid_derivative", "numkit.grid_derivative", _calls_and("points", _points), None),
    ("numkit", "fornberg_weights", "numkit.fornberg_weights", _calls, None),
    ("numkit", "derivative", "numkit.derivative", _calls, None),
    ("numkit", "newton2d", "numkit.newton2d",
     _calls_and("iterations", lambda a, r: int(r[2])), None),
    ("solver", "shoot_coupling", "solver.shoot_coupling",
     _calls_and("defect_evaluations", lambda a, r: int(r.defect_evaluations)), None),
    ("solver", "solve_ivp", "solver.solve_ivp",
     _calls_and("rhs_evals", lambda a, r: int(r.nfev)), None),
    ("solver", "critical_angular", "solver.critical_angular", _calls, None),
    ("solver", "classical_trajectory", "solver.classical_trajectory", _calls, None),
    *(("model", fn, "model.closed_form", _calls_and("points", _points), None)
      for fn in MODEL_CLOSED_FORMS),
    *(("susy", fn, "susy.closed_form", _calls_and("points", _points), None)
      for fn in SUSY_CLOSED_FORMS),
    ("susy", "apply_ladder", "susy.apply_ladder", _calls, None),
    ("susy", "natanzon_f_reconstruction", "susy.natanzon_f_reconstruction", _calls, None),
    ("family", "v_family", "family.v_family", _span_only, None),
    ("family", "family_on_grid", "family.family_on_grid", _span_only, None),
    ("family", "v_zeros", "family.v_zeros", _span_only, None),
    ("family", "series_audit", "family.series_audit", _span_only, None),
    ("checks", "report_json", "checks.report_json", _span_only, None),
    ("cli", "figure_payloads", "cli.figure_payloads", _span_only, None),
]


def _wrap(tracer: Tracer, fn, name: str, count, rewrite):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        outer = tracer.parent_name() != name
        if rewrite is not None:
            args, kwargs = rewrite(tracer, name, outer, args, kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        count(tracer, name, outer, args, result)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call into the listed dosusy functions through ``tracer``."""
    package = importlib.import_module("dosusy")
    modules = {m: importlib.import_module(f"dosusy.{m}") for m in MODULES}
    everywhere = [package, *modules.values()]
    undo = []
    try:
        for module, attr, name, count, rewrite in _TARGETS:
            original = getattr(modules[module], attr)
            wrapper = _wrap(tracer, original, name, count, rewrite)
            for mod in everywhere:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        suites = modules["checks"].SUITES
        for suite, fn in list(suites.items()):
            undo.append((suites, suite, fn))
            suites[suite] = _wrap(tracer, fn, f"checks.suite.{suite}", _span_only, None)
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def work_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The deterministic subset of per-layer metrics (work counts, no times)."""
    return {k: v for k, v in metrics.items() if k.rpartition(".")[2] in COUNT_STATS}
