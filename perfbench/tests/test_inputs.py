"""Workload inputs are a pure function of the seed."""

import itertools
import math
import random
from fractions import Fraction

from perfbench import inputs


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in (inputs.grid_batches, inputs.request_rounds):
        assert _take(make(7), 20) == _take(make(7), 20)
        assert _take(make(7), 20) != _take(make(8), 20)


def test_stratified_draws_visit_every_stratum_each_cycle():
    s = inputs.Stratified(random.Random(1), 0.2, 4.0, 8, log=True)
    draws = [s.draw() for _ in range(16)]
    for cycle in (draws[:8], draws[8:]):
        strata = sorted(int(8 * math.log(x / 0.2) / math.log(20.0)) for x in cycle)
        assert strata == list(range(8))


def test_every_round_has_each_kind_once():
    for requests in _take(inputs.request_rounds(3), 5):
        assert sorted(r.kind for r in requests) == sorted(inputs.KINDS)


def test_extreme_batches_span_the_full_property_range():
    batches = _take(inputs.grid_batches(2), 3 * inputs.EXTREME_EVERY)
    extreme = [b for b in batches if b.decades == inputs.EXTREME_DECADES]
    assert len(extreme) == 3
    assert all(0.2 <= b.kappa <= 4.0 and 0 <= b.l <= 20 for b in batches)


def test_quantize_requests_name_existing_states():
    for requests in _take(inputs.request_rounds(4), 40):
        p = next(r.params for r in requests if r.kind == "quantize")
        kappa = Fraction(p["kappa"]) if isinstance(p["kappa"], str) else p["kappa"]
        assert 0.2 <= kappa <= 4.0 and 1 <= p["N"] <= 6
        if p["l"]:
            ratio = p["l"] / kappa
            assert ratio.denominator == 1 and p["N"] - 1 - ratio >= 0
