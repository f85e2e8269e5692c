"""Span arithmetic and the out-of-package instrumentation."""

import itertools

import numpy as np
import pytest

import dosusy
from dosusy import numkit, susy
from perfbench import tracer as tr
from perfbench.run import traced_replicate
from perfbench.workloads import ClosedFormGrid


def test_self_time_subtracts_nested_children():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 5.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 3.5, 4.0, 1),
        ("mid", 6.0, 9.0, 0),
    ]
    self_s, total_s = tr.layer_times(spans)
    assert self_s["outer"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert self_s["mid"] == pytest.approx((4.0 - 1.5) + 3.0)
    assert self_s["leaf"] == pytest.approx(1.5)
    assert total_s["mid"] == pytest.approx(7.0)
    assert sum(self_s.values()) == pytest.approx(total_s["outer"])


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 2.0, 6.0, 0), ("c", 4.0, 8.0, 0),
             ("c", 9.0, 12.0, 0)]
    self_s, _ = tr.layer_times(spans)
    # children cover [2, 8] and [9, 10] of the parent's interval
    assert self_s["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_inclusive_time_counts_reentry_once():
    spans = [("f", 0.0, 4.0, -1), ("f", 1.0, 3.0, 0), ("g", 5.0, 6.0, -1)]
    self_s, total_s = tr.layer_times(spans)
    assert total_s["f"] == pytest.approx(4.0)
    assert self_s["f"] == pytest.approx(4.0)
    assert total_s["g"] == pytest.approx(1.0)


def test_tracer_records_parent_links_and_operations_from_its_clock():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    a = t.open(t.name_id("a"))
    b = t.open(t.name_id("b"))
    t.close(b)
    t.close(a)
    t.op = 1
    t.close(t.open(t.name_id("b")))
    assert t.spans() == [("a", 0.0, 3.0, -1, 0), ("b", 1.0, 2.0, 0, 0), ("b", 4.0, 5.0, -1, 1)]


def test_instrumentation_counts_work_and_restores_originals():
    originals = (numkit.integrate_adaptive, susy.grid_derivative, dosusy.superpotential)
    t = tr.Tracer()
    with tr.instrumented(t):
        assert susy.grid_derivative is not originals[1]
        t.active += 1
        numkit.integrate_adaptive(np.cos, 0.0, 1.0)
        susy.apply_ladder(dosusy.SampledFunction(np.geomspace(0.1, 10, 40),
                                                 np.ones(40)), 1.0, 0)
        t.active -= 1
        numkit.integrate_adaptive(np.cos, 0.0, 2.0)  # inactive: not recorded
    assert (numkit.integrate_adaptive, susy.grid_derivative,
            dosusy.superpotential) == originals
    m = tr.layer_metrics(t)
    assert m["numkit.integrate_adaptive.calls"] == 1
    assert m["numkit.integrate_adaptive.integrand_calls"] >= 1
    assert m["susy.apply_ladder.calls"] == 1
    assert m["numkit.grid_derivative.points"] == 40
    assert m["numkit.fornberg_weights.calls"] == 40
    assert m["susy.closed_form.calls"] == 1 and m["susy.closed_form.points"] == 40


def test_traced_replicates_repeat_their_work_counts():
    workload = ClosedFormGrid()
    ops = list(itertools.islice(workload.ops(5), 1))
    first, _, _ = traced_replicate(workload, ops)
    second, _, _ = traced_replicate(workload, ops)
    assert tr.work_counts(first) == tr.work_counts(second)
    assert first["model.closed_form.points"] == 3 * ops[0].points
    assert first["susy.closed_form.points"] == 4 * ops[0].points
    assert set(first) == set(tr.PER_LAYER_METRICS) - {"trace.overhead_frac"}
