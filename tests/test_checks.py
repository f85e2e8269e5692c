"""Verification-suite plumbing: result records, selection, reports."""

import json
import math

import numpy as np
import pytest

from dosusy import checks, family, solver, susy
from dosusy.checks import (
    SUITE_NAMES,
    CheckResult,
    _check,
    _fmt_kappa,
    exit_code,
    report_json,
    run_suites,
)
from dosusy.model import SampledFunction, f_factor
from dosusy.susy import apply_ladder


def test_suite_registry_names():
    assert SUITE_NAMES == (
        "riccati", "partner", "eigenvalue", "wavefunction", "critical",
        "family", "audit", "annihilation", "closure", "degeneracy", "figures",
    )


def _json_native(x) -> bool:
    """True iff x is built of exactly dict (str keys), list, str, int, float, bool and None."""
    if type(x) is dict:
        return all(type(k) is str and _json_native(v) for k, v in x.items())
    if type(x) is list:
        return all(map(_json_native, x))
    return x is None or type(x) in (str, int, float, bool)


def test_every_result_is_built_json_native():
    # to_dict hands the values on as the checks built them, so they must be plain JSON
    for r in run_suites(("all",)):
        d = r.to_dict()
        assert set(d) == {"check_id", "params", "measured", "threshold", "pass"}
        assert _json_native(d), r.check_id
        assert d["params"] is r.params and type(d["pass"]) is bool


def test_a_numpy_param_makes_the_report_raise():
    # nothing coerces a value a check built: a numpy integer fails where it is written
    res = CheckResult("demo:one", {"suite": "demo", "l": np.int64(3)}, 0.0, 1.0, True)
    assert not _json_native(res.to_dict())
    with pytest.raises(TypeError):
        report_json([res])


def test_kappa_labels_are_parse_kappa_fractions():
    assert [_fmt_kappa(k) for k in (0.5, 1.0, 1.5, 2.0 / 3.0)] == ["1/2", "1", "3/2", "2/3"]
    assert _fmt_kappa(math.sqrt(2.0)) == repr(math.sqrt(2.0))


def test_informative_results_do_not_gate():
    ok = CheckResult("a", {}, 0.0, 1.0, True)
    bad_gating = CheckResult("b", {}, 2.0, 1.0, False)
    bad_info = CheckResult("c", {}, 2.0, None, False, informative=True)
    assert exit_code([ok]) == 0
    assert exit_code([ok, bad_info]) == 0
    assert exit_code([ok, bad_gating]) == 1
    assert exit_code([]) == 0


def test_every_check_carries_its_suite_and_the_pass_rule():
    results = run_suites()
    assert {r.check_id.split(":")[0] for r in results} == set(SUITE_NAMES)
    for r in results:
        assert r.params["suite"] == r.check_id.split(":")[0], r.check_id
        if r.informative:
            continue
        expected = r.measured < r.threshold
        if "required_verdict" in r.params:
            expected = expected and r.params["verdict"] == r.params["required_verdict"]
        assert r.passed == expected, r.check_id
    # the constructor fails a check on either rule
    assert not _check("demo:over", 2.0, 1.0).passed
    assert not _check("demo:verdict", 0.0, 1.0, ok=False).passed
    assert _check("demo:under", 0.0, 1.0, l=3).params == {"suite": "demo", "l": 3}


def test_degeneracy_suite_runs_clean():
    results = run_suites(("degeneracy",))
    ids = [r.check_id for r in results]
    assert ids == sorted(ids)
    assert ids == (["degeneracy:kappa=1/2:N=3"]
                   + [f"degeneracy:kappa=1:N={N}" for N in range(1, 7)])
    assert all(r.passed for r in results)


def test_annihilation_suite_matches_separate_ladder_calls():
    grid = np.geomspace(1e-2, 1e2, 6001)
    by_id = {r.check_id: r for r in run_suites("annihilation")}
    assert len(by_id) == 9
    for kappa in (0.5, 1.0, 1.5):
        for l in (0, 1, 2):
            vals = f_factor(grid, kappa, l)
            u = SampledFunction(grid, vals / np.max(np.abs(vals)))
            single = float(np.max(np.abs(apply_ladder(u, kappa, l, which="A").values)))
            label = {0.5: "1/2", 1.0: "1", 1.5: "3/2"}[kappa]
            res = by_id[f"annihilation:kappa={label}:l={l}"]
            assert res.measured == pytest.approx(single, rel=1e-12)
            assert res.threshold == 1e-8 and res.passed


def test_unknown_suite_is_rejected_with_catalog():
    with pytest.raises(ValueError) as info:
        run_suites(("nope",))
    msg = str(info.value)
    assert "nope" in msg
    for name in SUITE_NAMES:
        assert name in msg


def test_selection_merges_and_sorts():
    results = run_suites(("degeneracy", "critical"))
    ids = [r.check_id for r in results]
    assert ids == sorted(ids)
    assert any(i.startswith("critical:") for i in ids)
    assert any(i.startswith("degeneracy:") for i in ids)
    # a bare string is promoted to a single-element selection
    again = run_suites("degeneracy")
    assert [r.check_id for r in again] == [i for i in ids if i.startswith("degeneracy:")]


def test_report_is_canonical_and_reproducible():
    first = report_json(run_suites(("degeneracy",)))
    second = report_json(run_suites(("degeneracy",)))
    assert first == second
    assert first.endswith("\n")
    payload = json.loads(first)
    assert set(payload) == {"checks", "summary"}
    summary = payload["summary"]
    assert set(summary) == {"total", "gating", "informative", "failed", "exit_code"}
    assert summary["total"] == len(payload["checks"])
    assert summary["failed"] == 0
    assert summary["exit_code"] == 0
    for entry in payload["checks"]:
        assert set(entry) == {"check_id", "params", "measured", "threshold", "pass"}


def test_family_checks_fail_on_a_perturbed_v(monkeypatch):
    # V 0.1 % off its defining equation: V' comes from the same quadrature V,
    # so the shared-partner identity sees the defect as well as the ODE does
    v_lambda = family._v_lambda
    monkeypatch.setattr(family, "_v_lambda", lambda *args: 1.001 * v_lambda(*args))
    results = run_suites(("family",))
    for prefix in ("family:ode:", "family:partner-identity:"):
        checked = [r for r in results if r.check_id.startswith(prefix)]
        assert checked and not any(r.passed for r in checked)


def test_riccati_checks_fail_on_a_perturbed_partner(monkeypatch):
    # the suite looks the closed forms up in susy when it runs
    partner_plus = susy.partner_plus_closed
    monkeypatch.setattr(susy, "partner_plus_closed",
                        lambda *args: (1.0 + 1e-6) * partner_plus(*args))
    results = run_suites(("riccati",))
    plus = [r for r in results if r.check_id.startswith("riccati:plus:")]
    minus = [r for r in results if r.check_id.startswith("riccati:minus:")]
    assert len(plus) == len(minus) == 3
    assert not any(r.passed for r in plus) and all(r.passed for r in minus)


def _figures_with_edited_rows(monkeypatch, fname, edit):
    """Run the figures suite on payloads whose data rows in ``fname`` pass through
    ``edit(fields) -> fields``; the checks see only the edited text."""
    build = susy.figure_payloads

    def edited(figure):
        payloads = build(figure)
        if fname in payloads:
            payloads[fname] = "".join(
                (line if line.startswith(("#", "rho")) else ",".join(edit(line.split(",")))) + "\n"
                for line in payloads[fname].splitlines())
        return payloads

    monkeypatch.setattr(susy, "figure_payloads", edited)
    return {r.check_id: r for r in run_suites(("figures",))}


def test_an_unknown_figure_is_refused():
    with pytest.raises(ValueError, match="unknown figure 'fig3'"):
        susy.figure_payloads("fig3")


def test_figures_spot_check_reads_the_emitted_text(monkeypatch):
    spot = "figures:spot:fig1-minus:rho=1:kappa=1"

    def edit(fields):   # the rho = 1, kappa = 1 row reads -2.7 in place of -2.75
        return [fields[0], "-2.7", *fields[2:]] if fields[0] == "1.0" and fields[2] == "1.0" \
            else fields

    by_id = _figures_with_edited_rows(monkeypatch, "fig1_minus.csv", edit)
    assert not by_id[spot].passed
    assert by_id[spot].params["value"] == -2.7
    assert all(r.passed for cid, r in by_id.items() if cid != spot)


def test_figures_pocket_check_reads_the_emitted_text(monkeypatch):
    pocket = "figures:pocket:fig2-plus:l=7"

    def edit(fields):   # U = rho on the l = 7 rows: monotone, so no pocket
        return [fields[0], fields[0], *fields[2:]] if fields[3] == "7" else fields

    by_id = _figures_with_edited_rows(monkeypatch, "fig2_plus.csv", edit)
    assert not by_id[pocket].passed
    assert by_id[pocket].params["slope_sign_changes"] == 0
    assert all(r.passed for cid, r in by_id.items() if cid != pocket)


def test_closure_suite_orbit_work_budget(monkeypatch):
    # Three DOP853 solves (two closure orbits and the 4w path; the w path is
    # read from the kappa = 1 closure orbit), counted in right-hand-side
    # evaluations; the defect checks report their own.
    nfev = []
    integrate = solver.solve_ivp

    def counted(*args, **kwargs):
        sol = integrate(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(solver, "solve_ivp", counted)
    results = run_suites(("closure",))
    assert len(nfev) == 3
    assert sum(nfev) <= 6000
    reported = [r.params["rhs_evaluations"] for r in results
                if r.check_id.startswith("closure:defect:")]
    assert reported == nfev[:2]
