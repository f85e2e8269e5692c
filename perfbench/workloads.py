"""The benchmark's workloads: what each operation calls in dosusy, the wall
time spent inside those calls, and the gate its result must pass.

Gate thresholds are the ones the matching ``checks`` suite applies.  An
operation fails when a gate misses or the library raises; failures are
counted against the operations attempted and never dropped.
"""

from __future__ import annotations

import itertools
import time
import traceback
from dataclasses import dataclass

import numpy as np

from dosusy import checks, family, model, solver, susy

from . import inputs

EXPECTED_CHECKS = 115

RICCATI_TOL = 1e-10          # riccati suite
EIGENVALUE_TOL = 1e-6        # eigenvalue suite
CLOSURE_TOL_KAPPA_1 = 1e-6   # closure suite, kappa = 1
CLOSURE_TOL = 1e-5           # closure suite, kappa = 1/2; used for every other rational
ENERGY_TOL = 1e-8            # closure suite
CRITICAL_RESIDUAL_TOL = 1e-8  # critical suite
ANNIHILATION_TOL = 1e-8      # annihilation suite
LAMBDA_SHIFT_TOL = 1e-12     # family suite, lambda shift by 2.5
ZERO_TOL = 1e-6              # family suite, zero of V at lambda = 0
RECONSTRUCTION_TOL = 1e-8    # partner suite, compact-coordinate route to f

# Errors the library raises by design (its own exception classes derive
# from these).  Anything else means the benchmark and the library no longer
# agree on an interface, which makes the run's result untrustworthy.
DECLARED_ERRORS = (ValueError, ArithmeticError, RuntimeError)

# Each workload's ``nominal_op_s`` is the wall time of one of its operations,
# gates and reference jobs included, at the commit that added this benchmark
# on a 2-vCPU Intel Xeon virtual machine.  It only sizes a run: a run makes
# round(seconds / nominal_op_s) timed operations, whatever they then take.


@dataclass
class Outcome:
    kind: str
    segments: list       # (start, end) of every dosusy call
    work: int            # units of work attempted
    error: str | None    # None when the operation passed its gate
    unexpected: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def seconds(self) -> float:
        """Wall time inside dosusy calls."""
        return sum(end - start for start, end in self.segments)


class Stopwatch:
    """Records the (start, end) of the library calls made through ``call``.

    With a tracer, only these calls are traced: the benchmark's own input
    preparation and gates stay out of the per-layer figures.  ``between``,
    if given, runs before each call, outside the timed segments.
    """

    def __init__(self, tracer=None, between=None):
        self.segments: list[tuple[float, float]] = []
        self.tracer = tracer
        self.between = between

    def call(self, fn, *args, **kwargs):
        if self.between is not None:
            self.between()
        if self.tracer is not None:
            self.tracer.active += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.segments.append((t0, time.perf_counter()))
            if self.tracer is not None:
                self.tracer.active -= 1


def attempt(kind: str, work: int, body, tracer=None, between=None) -> Outcome:
    """Run ``body(stopwatch)``, which returns None or the reason its gate missed."""
    watch = Stopwatch(tracer, between)
    try:
        reason = body(watch)
    except DECLARED_ERRORS as exc:
        return Outcome(kind, watch.segments, work, f"{type(exc).__name__}: {exc}")
    except Exception:  # noqa: BLE001 - recorded with its traceback and flagged
        return Outcome(kind, watch.segments, work, traceback.format_exc(), unexpected=True)
    return Outcome(kind, watch.segments, work, reason)


# ----------------------------------------------------------------------
# gates: each returns None on a pass, else the reason for the miss
# ----------------------------------------------------------------------

def riccati_gate(W, W1, Um, Up) -> str | None:
    """W, W', U-, U+ finite and W^2 -/+ W' = U-/+ under the riccati suite's scaling."""
    arrays = {"W": np.asarray(W, dtype=float), "dW": np.asarray(W1, dtype=float),
              "Uminus": np.asarray(Um, dtype=float), "Uplus": np.asarray(Up, dtype=float)}
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            return f"{name} not finite at {int(np.sum(~np.isfinite(a)))} points"
    W, W1 = arrays["W"], arrays["dW"]
    for sign, side in ((-1.0, "Uminus"), (1.0, "Uplus")):
        closed = arrays[side]
        with np.errstate(all="ignore"):
            scale = W * W + np.abs(W1) + np.abs(closed) + 1e-300
            worst = float(np.max(np.abs(W * W + sign * W1 - closed) / scale))
        if not worst < RICCATI_TOL:  # NaN fails too
            return f"riccati deviation {worst:.3e} for {side}"
    return None


def verify_gate(results, report: str, reference) -> str | None:
    """Exit code 0, no failed gating check, 115 checks, and the reference ids and bytes."""
    if checks.exit_code(results) != 0:
        failed = [r.check_id for r in results if not r.passed and not r.informative]
        return f"failed checks: {', '.join(failed)}"
    if len(results) != EXPECTED_CHECKS:
        return f"{len(results)} checks, expected {EXPECTED_CHECKS}"
    if reference is not None:
        ref_ids, ref_report = reference
        if [r.check_id for r in results] != ref_ids:
            return "check ids differ from the first pass"
        if report != ref_report:
            return "report bytes differ from the first pass"
    return None


def relative_gate(measured: float, expected: float, tol: float, what: str) -> str | None:
    rel = abs(measured - expected) / abs(expected)
    return None if rel < tol else f"{what} relative deviation {rel:.3e}"


def closure_gate(traj, kappa: str) -> str | None:
    tol = CLOSURE_TOL_KAPPA_1 if kappa == "1" else CLOSURE_TOL
    if not traj.closure_defect < tol:
        return f"closure defect {traj.closure_defect:.3e}"
    if not traj.energy_drift < ENERGY_TOL:
        return f"energy drift {traj.energy_drift:.3e}"
    return None


def critical_gate(cp) -> str | None:
    res = max(cp.slope_residual, cp.curvature_residual)
    return None if res < CRITICAL_RESIDUAL_TOL else f"critical residual {res:.3e}"


def annihilation_gate(values) -> str | None:
    worst = float(np.max(np.abs(values)))
    return None if worst < ANNIHILATION_TOL else f"A f sup-norm {worst:.3e}"


def family_gate(shift, expected_shift, zeros, reconstruction_ratio) -> str | None:
    dev = float(np.max(np.abs(shift - expected_shift) / np.abs(expected_shift)))
    if not dev < LAMBDA_SHIFT_TOL:
        return f"lambda shift deviation {dev:.3e}"
    if len(zeros) != 1 or not abs(zeros[0] - 1.0) < ZERO_TOL:
        return f"zeros of V at lambda = 0: {zeros}, expected [1.0]"
    med = float(np.median(reconstruction_ratio))
    spread = float(np.max(np.abs(reconstruction_ratio / med - 1.0)))
    return None if spread < RECONSTRUCTION_TOL else f"reconstruction spread {spread:.3e}"


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------

class VerifyAll:
    """Whole ``verify`` passes in process: every suite, then the canonical report.

    The first pass of a run is one ``checks.run_suites(("all",))`` call and
    fixes the reference report.  Later passes run the same suites one
    ``run_suites((name,))`` call at a time, so that the reference job can
    run between suites, sort the results as ``run_suites`` does, and must
    reproduce the reference report byte for byte.
    """

    name = "verify-all"
    work_unit = "checks"
    calibration = "python"
    nominal_op_s = 5.0
    traced_ops = 1

    def __init__(self):
        self.reference = None  # (check ids, report) of the first passing pass

    def ops(self, seed: int):
        return itertools.repeat(None)  # fixed parameters: the seed changes nothing

    def run(self, op, tracer=None, between=None) -> list[Outcome]:
        def body(watch):
            if self.reference is None:
                results = watch.call(checks.run_suites, ("all",))
            else:
                results = []
                for suite in checks.SUITE_NAMES:
                    results += watch.call(checks.run_suites, (suite,))
                results.sort(key=lambda r: r.check_id)
            report = watch.call(checks.report_json, results)
            reason = verify_gate(results, report, self.reference)
            if reason is None and self.reference is None:
                self.reference = ([r.check_id for r in results], report)
            return reason
        return [attempt("pass", EXPECTED_CHECKS, body, tracer, between)]


# ----------------------------------------------------------------------
# closed-form-grid
# ----------------------------------------------------------------------

CLOSED_FORMS_PER_BATCH = 7


class ClosedFormGrid:
    """Vector closed forms from ``model`` and ``susy`` on large log grids."""

    name = "closed-form-grid"
    work_unit = "point evaluations"
    calibration = "numpy"
    nominal_op_s = 0.006
    traced_ops = 256

    def ops(self, seed: int):
        return inputs.grid_batches(seed)

    def run(self, batch: inputs.GridBatch, tracer=None, between=None) -> list[Outcome]:
        kappa, l = batch.kappa, batch.l
        grid = np.geomspace(10.0 ** -batch.decades, 10.0 ** batch.decades, batch.points)
        w_bottom = (2.0 * l + 1.0) * (2.0 * l + 2.0 * kappa + 1.0)

        def body(watch):
            W = watch.call(susy.superpotential, grid, kappa, l)
            W1 = watch.call(susy.superpotential_dr, grid, kappa, l)
            Um = watch.call(susy.partner_minus_closed, grid, kappa, l)
            Up = watch.call(susy.partner_plus_closed, grid, kappa, l)
            watch.call(model.f_factor, grid, kappa, l)
            # continuous kappa admits a bound-family state only at l = 0
            watch.call(model.radial_u, grid, batch.N, 0, kappa)
            watch.call(model.effective_potential_general, grid, w_bottom, kappa, l)
            return riccati_gate(W, W1, Um, Up)

        return [attempt("batch", CLOSED_FORMS_PER_BATCH * batch.points, body, tracer, between)]


# ----------------------------------------------------------------------
# request-mix
# ----------------------------------------------------------------------

def _quantize(p):
    def body(watch):
        res = watch.call(solver.shoot_coupling, p["N"], p["kappa"], p["l"])
        kappa, _ = model.parse_kappa(p["kappa"])
        return relative_gate(res.w_star, model.coupling_quantized(p["N"], kappa),
                             EIGENVALUE_TOL, "coupling")
    return body


def _trace(p):
    def body(watch):
        traj = watch.call(solver.classical_trajectory, p["kappa"], w=p["w"],
                          rho0=p["rho0"], direction_deg=p["direction_deg"])
        return closure_gate(traj, p["kappa"])
    return body


def _critical(p):
    def body(watch):
        return critical_gate(watch.call(solver.critical_angular, p["kappa"]))
    return body


def _ladder(p):
    grid = np.geomspace(1e-2, 1e2, p["points"])
    vals = model.f_factor(grid, p["kappa"], p["l"])
    f = model.SampledFunction(grid, vals / np.max(np.abs(vals)))

    def body(watch):
        out = watch.call(susy.apply_ladder, f, p["kappa"], p["l"], which="A")
        return annihilation_gate(out.values)
    return body


def _family(p):
    kappa, l, lam, side = p["kappa"], p["l"], p["lam"], p["side"]
    grid = np.geomspace(0.2, 5.0, p["points"])
    rec_grid = np.geomspace(0.05, 20.0, p["natanzon_points"])

    def body(watch):
        v = watch.call(family.family_on_grid, kappa, l, lam, side, grid)
        v_shifted = watch.call(family.family_on_grid, kappa, l, lam - 2.5, side, grid)
        zeros = watch.call(family.v_zeros, kappa, l, 0.0, side, grid)
        rec = watch.call(susy.natanzon_f_reconstruction, rec_grid, kappa, l)
        f2 = model.f_factor(grid, kappa, l) ** 2
        expected = 2.5 * f2 if side == "bosonic" else -2.5 / f2
        return family_gate(v_shifted - v, expected, zeros,
                           rec / model.f_factor(rec_grid, kappa, l))
    return body


def _eval(p):
    def body(watch):
        W, W1, Um, Up = [], [], [], []
        for kappa, l, rho, N in p["points"]:
            W.append(watch.call(susy.superpotential, rho, kappa, l))
            W1.append(watch.call(susy.superpotential_dr, rho, kappa, l))
            Um.append(watch.call(susy.partner_minus_closed, rho, kappa, l))
            Up.append(watch.call(susy.partner_plus_closed, rho, kappa, l))
            watch.call(model.f_factor, rho, kappa, l)
            watch.call(model.radial_u, rho, N, 0, kappa)
            watch.call(model.effective_potential_general, rho,
                       (2.0 * l + 1.0) * (2.0 * l + 2.0 * kappa + 1.0), kappa, l)
        return riccati_gate(W, W1, Um, Up)
    return body


_REQUEST_BODIES = {"quantize": _quantize, "trace": _trace, "critical": _critical,
                   "ladder": _ladder, "family": _family, "eval": _eval}


class RequestMix:
    """Single-shot requests like those behind the CLI subcommands, six per round."""

    name = "request-mix"
    work_unit = "requests"
    calibration = "python"
    nominal_op_s = 0.6
    traced_ops = 8

    def ops(self, seed: int):
        return inputs.request_rounds(seed)

    def run(self, requests, tracer=None, between=None) -> list[Outcome]:
        return [attempt(r.kind, 1, _REQUEST_BODIES[r.kind](r.params), tracer, between)
                for r in requests]


WORKLOADS = {w.name: w for w in (VerifyAll, ClosedFormGrid, RequestMix)}
