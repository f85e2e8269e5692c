"""Each gate passes the library's own result and rejects a perturbed one."""

from types import SimpleNamespace

import numpy as np

from dosusy import checks, family, model, solver, susy
from perfbench import workloads as wl


def _riccati_inputs():
    grid = np.geomspace(1e-3, 1e3, 200)
    return [susy.superpotential(grid, 1.3, 4), susy.superpotential_dr(grid, 1.3, 4),
            susy.partner_minus_closed(grid, 1.3, 4), susy.partner_plus_closed(grid, 1.3, 4)]


def test_riccati_gate():
    W, W1, Um, Up = _riccati_inputs()
    assert wl.riccati_gate(W, W1, Um, Up) is None
    assert "Uminus" in wl.riccati_gate(W, W1, Um * (1 + 1e-8), Up)
    assert "Uplus" in wl.riccati_gate(W, W1, Um, Up + 1e-6 * np.abs(Up))
    W1 = W1.copy()
    W1[7] = np.nan
    assert "not finite" in wl.riccati_gate(W, W1, Um, Up)


def _result(check_id, passed=True):
    return checks.CheckResult(check_id=check_id, params={}, measured=0.0,
                              threshold=1.0, passed=passed)


def test_verify_gate():
    results = [_result(f"c{i:03d}") for i in range(wl.EXPECTED_CHECKS)]
    report = checks.report_json(results)
    reference = ([r.check_id for r in results], report)
    assert wl.verify_gate(results, report, reference) is None
    assert "report bytes" in wl.verify_gate(results, report.replace("c000", "c00x"), reference)
    assert "failed checks: c001" in wl.verify_gate(
        [results[0], _result("c001", passed=False), *results[2:]], report, reference)
    assert "expected 115" in wl.verify_gate(results[:-1], report, None)
    renamed = [_result("zzz"), *results[1:]]
    assert "ids differ" in wl.verify_gate(renamed, report, reference)


def test_shooting_gate():
    w = model.coupling_quantized(2, 1.0)
    assert wl.relative_gate(w * (1 + 1e-9), w, wl.EIGENVALUE_TOL, "coupling") is None
    assert wl.relative_gate(w * (1 + 1e-5), w, wl.EIGENVALUE_TOL, "coupling") is not None


def test_closure_gate():
    traj = SimpleNamespace(closure_defect=5e-7, energy_drift=1e-12)
    assert wl.closure_gate(traj, "1") is None
    assert wl.closure_gate(SimpleNamespace(closure_defect=5e-6, energy_drift=1e-12), "1")
    assert wl.closure_gate(SimpleNamespace(closure_defect=5e-6, energy_drift=1e-12), "2") is None
    assert "energy" in wl.closure_gate(SimpleNamespace(closure_defect=0.0, energy_drift=1e-7), "2")


def test_critical_gate():
    cp = solver.critical_angular(1.0)
    assert wl.critical_gate(cp) is None
    assert wl.critical_gate(SimpleNamespace(slope_residual=cp.slope_residual,
                                            curvature_residual=1e-6)) is not None


def test_annihilation_gate():
    grid = np.geomspace(1e-2, 1e2, 3000)
    vals = model.f_factor(grid, 1.0, 1)
    f = model.SampledFunction(grid, vals / np.max(vals))
    out = susy.apply_ladder(f, 1.0, 1).values
    assert wl.annihilation_gate(out) is None
    out[1500] += 1e-7
    assert wl.annihilation_gate(out) is not None


def test_family_gate():
    grid = np.geomspace(0.2, 5.0, 60)
    rec_grid = np.geomspace(0.05, 20.0, 48)
    v = family.family_on_grid(0.8, 1, 0.4, "bosonic", grid)
    v_shifted = family.family_on_grid(0.8, 1, 0.4 - 2.5, "bosonic", grid)
    zeros = family.v_zeros(0.8, 1, 0.0, "bosonic", grid)
    ratio = susy.natanzon_f_reconstruction(rec_grid, 0.8, 1) / model.f_factor(rec_grid, 0.8, 1)
    expected = 2.5 * model.f_factor(grid, 0.8, 1) ** 2
    assert wl.family_gate(v_shifted - v, expected, zeros, ratio) is None
    assert "shift" in wl.family_gate(v_shifted - v * (1 + 1e-9), expected, zeros, ratio)
    assert "zeros" in wl.family_gate(v_shifted - v, expected, [1.0 + 1e-5], ratio)
    assert "zeros" in wl.family_gate(v_shifted - v, expected, [], ratio)
    bent = ratio.copy()
    bent[3] *= 1 + 1e-6
    assert "reconstruction" in wl.family_gate(v_shifted - v, expected, zeros, bent)


def test_a_raise_is_a_failed_operation_and_an_unknown_error_flags_the_run():
    def raises(exc):
        def library_call():
            raise exc
        return lambda watch: watch.call(library_call)

    declared = wl.attempt("quantize", 1, raises(ValueError("no sign change")))
    assert not declared.ok and not declared.unexpected
    broken = wl.attempt("quantize", 1, raises(TypeError("bad call")))
    assert not broken.ok and broken.unexpected
    assert "Traceback" in broken.error and "TypeError: bad call" in broken.error
    missed = wl.attempt("quantize", 1, lambda watch: "gate missed")
    assert missed.error == "gate missed"
