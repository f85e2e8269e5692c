"""Seeded inputs for the benchmark workloads.

Every parameter that reaches dosusy is drawn here from ``random.Random(seed)``,
so one seed always yields the same stream.  Continuous parameters are drawn
by stratified sampling: the range is cut into equal strata and each cycle
visits every stratum once, in shuffled order, at a uniform point inside it.
A run of a few cycles therefore covers the whole range, including the parts
where the library is known to miss its gates, instead of whatever a short
run of plain uniform draws happens to hit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


class Stratified:
    """Draws from ``k`` equal strata of [lo, hi] (equal in log when ``log``)."""

    def __init__(self, rng: random.Random, lo: float, hi: float, k: int, log: bool = False):
        self.rng, self.lo, self.hi, self.k, self.log = rng, lo, hi, k, log
        self._order: list[int] = []

    def draw(self) -> float:
        if not self._order:
            self._order = list(range(self.k))
            self.rng.shuffle(self._order)
        x = (self._order.pop() + self.rng.random()) / self.k
        if self.log:
            return self.lo * (self.hi / self.lo) ** x
        return self.lo + (self.hi - self.lo) * x


class Cycle:
    """Every item once per cycle, in shuffled order."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items = rng, list(items)
        self._order: list = []

    def draw(self):
        if not self._order:
            self._order = list(self.items)
            self.rng.shuffle(self._order)
        return self._order.pop()


# ----------------------------------------------------------------------
# closed-form-grid
# ----------------------------------------------------------------------

GRID_POINTS = 16384
EXTREME_EVERY = 8        # every 8th batch spans the full property range
EXTREME_DECADES = 150.0  # rho in [1e-150, 1e150]


@dataclass(frozen=True)
class GridBatch:
    """One log grid rho in [10^-decades, 10^decades] and the (kappa, l, N) to evaluate."""

    kappa: float
    l: int
    N: int
    decades: float
    points: int = GRID_POINTS


def grid_batches(seed: int):
    rng = random.Random(seed)
    kappa = Stratified(rng, 0.2, 4.0, 16)
    ls = Cycle(rng, range(21))
    Ns = Cycle(rng, range(1, 7))
    for i in itertools.count():
        decades = EXTREME_DECADES if i % EXTREME_EVERY == EXTREME_EVERY - 1 \
            else rng.uniform(1.0, 12.0)
        yield GridBatch(kappa=kappa.draw(), l=ls.draw(), N=Ns.draw(), decades=decades)


# ----------------------------------------------------------------------
# request-mix
# ----------------------------------------------------------------------

KINDS = ("quantize", "trace", "critical", "ladder", "family", "eval")

TRACE_KAPPAS = ("1", "1/2", "2", "3/2", "2/3")
EVAL_POINTS = 16


@dataclass(frozen=True)
class Request:
    kind: str
    params: dict = field(hash=False)


class _RequestDraws:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.quantize_l0 = Cycle(rng, (True, False))
        self.quantize_kappa = Stratified(rng, 0.2, 4.0, 8, log=True)
        self.quantize_N = Cycle(rng, range(1, 7))
        # l > 0 needs kappa = l/m so that l/kappa = m is an integer; the
        # polynomial degree N - 1 - m is then 0, 1 or 2.
        self.quantize_l = Cycle(rng, range(1, 5))
        self.quantize_m = Cycle(rng, range(1, 4))
        self.quantize_degree = Cycle(rng, range(3))
        self.trace_kappa = Cycle(rng, TRACE_KAPPAS)
        self.trace_w = Stratified(rng, 1.0, 10.0, 5)
        self.trace_rho0 = Stratified(rng, 0.3, 2.0, 5, log=True)
        self.trace_direction = Stratified(rng, 30.0, 150.0, 5)
        self.critical_kappa = Stratified(rng, 0.5, 2.0, 8)
        self.ladder_kappa = Stratified(rng, 0.5, 1.5, 5)
        self.ladder_l = Cycle(rng, range(3))
        self.ladder_points = Stratified(rng, 3000, 6000, 5)
        self.family_kappa = Stratified(rng, 0.5, 2.0, 5)
        self.family_l = Cycle(rng, range(3))
        self.family_side = Cycle(rng, ("bosonic", "fermionic"))

    def quantize(self) -> dict:
        if self.quantize_l0.draw():
            return {"N": self.quantize_N.draw(), "kappa": self.quantize_kappa.draw(), "l": 0}
        l, m = self.quantize_l.draw(), self.quantize_m.draw()
        return {"N": m + 1 + self.quantize_degree.draw(), "kappa": f"{l}/{m}", "l": l}

    def trace(self) -> dict:
        return {"kappa": self.trace_kappa.draw(), "w": self.trace_w.draw(),
                "rho0": self.trace_rho0.draw(), "direction_deg": self.trace_direction.draw()}

    def critical(self) -> dict:
        return {"kappa": self.critical_kappa.draw()}

    def ladder(self) -> dict:
        return {"kappa": self.ladder_kappa.draw(), "l": self.ladder_l.draw(),
                "points": int(self.ladder_points.draw())}

    def family(self) -> dict:
        return {"kappa": self.family_kappa.draw(), "l": self.family_l.draw(),
                "side": self.family_side.draw(), "lam": self.rng.uniform(-2.0, 2.0),
                "points": self.rng.randint(100, 300),
                "natanzon_points": self.rng.randint(48, 96)}

    def eval(self) -> dict:
        rng = self.rng
        return {"points": [(rng.uniform(0.2, 4.0), rng.randint(0, 20),
                            10.0 ** rng.uniform(-3.0, 3.0), rng.randint(1, 6))
                           for _ in range(EVAL_POINTS)]}


def request_rounds(seed: int):
    """Rounds of six requests, one of each kind, in a seeded order."""
    rng = random.Random(seed)
    draws = _RequestDraws(rng)
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        yield tuple(Request(kind, getattr(draws, kind)()) for kind in kinds)
