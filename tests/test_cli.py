"""Command-line interface: exit codes, output formats, file emission.

Everything runs in-process through cli.main(argv) for speed; one subprocess
test at the end confirms the installed entry point wiring.
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import dosusy
import probes
from dosusy import cli, family, model, solver, susy
from dosusy.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------
# the probe corpus: every edge command keeps the exit-code contract
# ----------------------------------------------------------------------

@pytest.mark.parametrize("probe", probes.PROBES, ids=lambda probe: probe.name)
def test_probe_keeps_the_exit_code_contract(probe, tmp_path):
    # exit 1 is a computation failure and exit 2 a usage error, each one line on
    # stderr and nothing on stdout; no exception escapes, and run raises a warning
    # (a RuntimeWarning among them), so one shows here as a traceback
    rc, out, err = probes.run(probe, tmp_path)
    assert "Traceback" not in err, err
    assert rc == probe.exit, err
    if rc:
        assert out == ""
        assert err.startswith({1: "dosusy: failure:", 2: "dosusy: error:"}[rc]), err
        assert len(err.splitlines()) == 1, err


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_superpotential_spot(capsys):
    rc, out, err = run(capsys, "eval", "W", "--kappa", "1", "--rho", "1")
    assert rc == 0
    assert out == "-0.5\n"
    assert err == ""


def test_eval_partner_spot(capsys):
    rc, out, _ = run(capsys, "eval", "Uminus", "--kappa", "1", "--l", "2",
                     "--rho", "1")
    assert rc == 0
    assert out == "-2.75\n"


@pytest.mark.parametrize("N, l, kappa", [(41, 1, "1/40"), (101, 50, "1/2"), (151, 1, "1/150")])
def test_eval_normalized_u_where_the_norm_is_small(capsys, N, l, kappa):
    # ladder bottoms: u = f and ||f||^2 = (2k)^-1 B((2l+3)/(2k), (2l-1)/(2k)) exactly
    rc, out, err = run(capsys, "eval", "u", "--N", str(N), "--l", str(l), "--kappa", kappa,
                       "--rho", "2", "--normalized")
    assert (rc, err) == (0, "")
    k = model.parse_kappa(kappa)[0]
    with mp.workdps(40):
        norm2 = mp.beta((2 * l + 3) / (2 * mp.mpf(k)), (2 * l - 1) / (2 * mp.mpf(k))) / (2 * k)
        expected = float(model.f_factor(2.0, k, l) / mp.sqrt(norm2))
    assert float(out) == pytest.approx(expected, rel=1e-13)


def test_eval_normalized_u_below_the_kappa_floor_is_a_failure(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "eval", "u", "--N", "399", "--l", "1", "--kappa", "1/398",
                           "--rho", "2", "--normalized")
    assert (rc, out) == (1, "")
    assert err.startswith("dosusy: failure: the norm needs kappa >= (2l+1)/700 = ")


def test_eval_normalized_u_past_the_polynomial_range_names_the_state(capsys):
    # p = 300, q = 113: C_p^(q)(1) = 1.8e154, whose square overflows
    rc, out, err = run(capsys, "eval", "u", "--N", "376", "--l", "1", "--kappa", "1/75",
                       "--rho", "2", "--normalized")
    assert (rc, out) == (1, "")
    assert err.startswith("dosusy: failure: the norm of state (N=376, l=1, kappa=0.01333")
    assert "at degree p = 300 is out of reach: C_p^(q)(xi)^2 passes the float range" in err


def test_a_tiny_positive_kappa_is_not_read_as_zero(capsys):
    rc, out, err = run(capsys, "eval", "U", "--kappa", "1e-20", "--w", "1", "--rho", "2")
    assert (rc, out, err) == (0, "-0.0625\n", "")


# ----------------------------------------------------------------------
# quantize / partners / family
# ----------------------------------------------------------------------

def test_quantize_cross_checks_by_shooting(capsys):
    rc, out, _ = run(capsys, "quantize", "--kappa", "1", "--N", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "3.0"
    assert "shooting cross-check: w_star = " in lines[1]
    assert lines[1].endswith("[ok]")


@pytest.mark.parametrize("N", ["1000", "10000", "100000"])
def test_quantize_at_a_large_n_is_right(capsys, N):
    # one Magnus cell per radian of the well's phase: 3,142 to 314,160 cells a leg
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "quantize", "--kappa", "1", "--N", N)
    assert (rc, err) == (0, "")
    assert out.splitlines()[1].endswith("[ok]")


def test_quantize_beyond_the_cell_resolution_fails_quietly(capsys):
    # At N = 10^6 the well's phase asks for 3.1e6 Magnus cells a leg, past the
    # cap: the state is refused with the cap named, and no numpy warning
    # reaches stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "quantize", "--kappa", "1", "--N", "1000000")
    assert rc == 1
    assert out == ""
    assert err == ("dosusy: failure: the shooting legs need 3.14159e+06 Magnus cells, "
                   "past the cap of 500000 per leg\n")


@pytest.mark.parametrize("kappa, w", [("1e-4", "1.0002"), ("1e-5", "1.00002"),
                                      ("1e-7", "1.0000002"), ("1e-8", "1.00000002")])
def test_quantize_at_a_small_kappa_recovers_the_coupling(capsys, kappa, w):
    # the potential dips far below L^2 over a leg of length ~ 1/kappa; each
    # Magnus cell is scaled by its own growth, so the defect stays finite, and
    # ~ 1/sqrt(kappa) cells resolve the rung spacing 2 kappa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "quantize", "--kappa", kappa, "--N", "1")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == w
    assert lines[1].endswith("[ok]")


@pytest.mark.parametrize("kappa, rc", [("1.38e-10", 0), ("1.37e-10", 1)])
def test_quantize_kappa_floor_is_the_cell_cap(capsys, kappa, rc):
    # README's floor: at N = 1 the small-kappa count 4 pi^(1/3) / sqrt(kappa)
    # passes the cap of 500,000 cells a leg just below kappa = 1.38e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "quantize", "--kappa", kappa, "--N", "1")
    assert code == rc
    if rc:
        assert (out, err) == ("", "dosusy: failure: the shooting legs need 500515 Magnus cells, "
                                  "past the cap of 500000 per leg\n")
    else:
        assert err == "" and out.splitlines()[1].endswith("[ok]")


def test_quantize_bracket_without_a_root_is_a_failure(capsys, monkeypatch):
    # a shooting bracket comes from the solver, never from the user: centred
    # on 7.5 it holds no coupling of the kappa = 1 ladder, and that is exit 1
    monkeypatch.setattr(solver, "coupling_quantized", lambda N, kappa: 7.5)
    rc, out, err = run(capsys, "quantize", "--kappa", "1", "--N", "1")
    assert rc == 1
    assert out == ""
    assert err == ("dosusy: failure: defect has no sign change on bracket (5.76923, 9) for "
                   "N=1, kappa=1.0, l=0: d(lo)=-8.548e-01, d(hi)=-8.125e-01\n")


@pytest.mark.parametrize("N, l", [("2", "-1"), ("1", "2")])
def test_quantize_of_a_missing_state_is_a_usage_error_with_nothing_on_stdout(capsys, N, l):
    rc, out, err = run(capsys, "quantize", "--kappa", "1", "--N", N, "--l", l)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"dosusy: error: no state at (N={N}, l={l})")


def test_quantize_past_float_resolution_is_the_same_failure(capsys):
    # At N = 10^16 both ends of the default bracket round to 4e32; the cell
    # count is past the cap there, as already at N = 10^12 and 10^6.
    for N, count in (("1000000000000", "3.14159e+12"), ("10000000000000000", "3.14159e+16")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "quantize", "--kappa", "1", "--N", N)
        assert (rc, out) == (1, "")
        assert err == (f"dosusy: failure: the shooting legs need {count} Magnus cells, "
                       f"past the cap of 500000 per leg\n")


@pytest.mark.parametrize("argv, name", [
    (("eval", "Uminus", "--kappa", "1e150", "--l", "1", "--rho", "2"), "Uminus"),
    (("eval", "Uplus", "--kappa", "1e150", "--l", "1", "--rho", "2"), "Uplus"),
    (("partners", "--kappa", "1e150", "--rho", "2"), "U_minus"),
], ids=["eval-Uminus", "eval-Uplus", "partners-point"])
def test_a_nan_value_is_a_failure_not_a_printed_nan(capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("dosusy: failure:") and len(err.splitlines()) == 1
    assert f"{name} is NaN" in err


def test_partner_curves_with_a_nan_write_no_file(tmp_path, capsys):
    outdir = tmp_path / "curves"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "partners", "--kappa", "1e150", "--out", str(outdir))
    assert rc == 1
    assert out == ""
    assert err.startswith("dosusy: failure:") and len(err.splitlines()) == 1
    assert "U_minus is NaN" in err
    assert not outdir.exists()


def test_an_infinite_value_still_prints(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "eval", "Ueff", "--kappa", "1", "--w", "3", "--l", "1",
                           "--rho", "1e-200")
    assert (rc, out, err) == (0, "inf\n", "")


# Below rho ~ 1.5e-154, rho * rho underflows to 0: a centrifugal term with a zero
# coefficient is 0 there, not 0/0, and one with a non-zero coefficient is infinite.
# Where the well overflows too (small kappa), U is rho^2 U over rho twice.
@pytest.mark.parametrize("argv, value", [
    (("eval", "Uminus", "--kappa", "1", "--l", "0", "--rho", "1e-200"), -3.0),
    # mpmath at 50 digits: -2.0e200
    (("eval", "Uminus", "--kappa", "0.5", "--l", "0", "--rho", "1e-200"), -2e200),
    (("eval", "Uplus", "--kappa", "1", "--l", "0", "--rho", "1e-200"), math.inf),
    (("eval", "Uplus", "--kappa", "1", "--l", "1", "--rho", "1e-200"), math.inf),
    # mpmath: 2.0e400, 1.2e401, -2.5e399 and 1.25859686824e308
    (("eval", "Uminus", "--kappa", "0.1", "--l", "1", "--rho", "1e-200"), math.inf),
    (("eval", "Uplus", "--kappa", "0.1", "--l", "2", "--rho", "1e-200"), math.inf),
    (("eval", "Uminus", "--kappa", "1e-5", "--l", "1", "--rho", "1e-200"), -math.inf),
    (("eval", "Uminus", "--kappa", "0.001", "--l", "1", "--rho", "1e-155"), 1.25859686824e308),
], ids=["Uminus-kappa-1", "Uminus-kappa-1/2", "Uplus-l-0", "Uplus-l-1",
        "Uminus-both-overflow", "Uplus-both-overflow", "Uminus-well-wins", "Uminus-subnormal-square"])
def test_partners_where_rho_squared_underflows(capsys, argv, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert float(out) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("argv, lines", [
    (("partners", "--kappa", "1", "--l", "0", "--rho", "1e-200"),
     ["W       = -1e+200", "U_minus = -3.0", "U_plus  = inf"]),
    # both terms of U-+ overflow: the 1/rho^2 coefficients 2 and 6 win
    (("partners", "--kappa", "0.1", "--l", "1", "--rho", "1e-200"),
     ["W       = -2e+200", "U_minus = inf", "U_plus  = inf"]),
    # W ~ -(l+1)/rho passes the largest double
    (("family", "--kappa", "1", "--l", "2", "--side", "fermionic", "--rho", "1e-308"),
     ["V        = -inf", "W_lambda = -inf"]),
], ids=["partners", "partners-both-overflow", "family"])
def test_point_reports_at_the_smallest_radii(capsys, argv, lines):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out.splitlines() == lines


def test_partners_point_report(capsys):
    rc, out, _ = run(capsys, "partners", "--kappa", "1", "--l", "0",
                     "--rho", "1")
    assert rc == 0
    assert out.splitlines() == [
        "W       = -0.5",
        "U_minus = -0.75",
        "U_plus  = 1.25",
    ]


def test_partners_curves_written(tmp_path, capsys):
    rc, out, _ = run(capsys, "partners", "--kappa", "1", "--l", "2",
                     "--out", str(tmp_path), "--grid-points", "50")
    assert rc == 0
    names = ("partners_w.csv", "partners_minus.csv", "partners_plus.csv")
    assert out.splitlines() == [str(tmp_path / n) for n in names]
    for name in names:
        text = (tmp_path / name).read_text()
        lines = text.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(comments) == 3
        assert data[0] == "rho,value,kappa,l"
        assert len(data) == 1 + 50
        assert all(ln.endswith(",1.0,2") for ln in data[1:])


def test_partners_formats_its_grid_once_and_writes_each_file_as_built(tmp_path, capsys,
                                                                     monkeypatch):
    rho_columns = []
    curve_csv = cli._curve_csv

    def recorded(title, column_doc, param_doc, header, blocks):
        # the files before this one are on disk already
        assert len(list(tmp_path.iterdir())) == len(rho_columns)
        blocks = list(blocks)
        rho_columns.append(blocks[0][0])
        return curve_csv(title, column_doc, param_doc, header, blocks)

    monkeypatch.setattr(cli, "_curve_csv", recorded)
    assert run(capsys, "partners", "--kappa", "1/2", "--out", str(tmp_path),
               "--grid-points", "60")[0] == 0
    assert len(rho_columns) == 3 and all(c is rho_columns[0] for c in rho_columns)
    grid = dosusy.model.default_grid(1e-3, 1e3, 60)
    assert rho_columns[0] == list(map(repr, grid.tolist()))


def test_family_point_reports_singularity(capsys):
    # lambda = 0 keeps the anchor zero at the unit radius, where the
    # companion superpotential blows up.
    rc, out, _ = run(capsys, "family", "--kappa", "1", "--l", "0",
                     "--rho", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("V        = ")
    assert abs(float(lines[0].split("= ")[1])) < 1e-12
    assert lines[1].startswith("W_lambda = singular (")


@pytest.mark.parametrize("rho", ["1e200", "1e-200", "1e300", "1e-300"])
def test_family_point_with_a_non_finite_integral_fails_quietly(capsys, rho):
    # 1/f^2 overflows far from the unit radius; the quadrature refuses the estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "family", "--kappa", "1", "--l", "1", "--rho", rho)
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("dosusy: failure:") and "not finite" in err


@pytest.mark.parametrize("rho", ["1e-60", "1e-40"])
def test_family_fermionic_point_where_f_squared_underflows(capsys, rho):
    # f^2 is 0 at 1e-60 and subnormal at 1e-40: V overflows to -inf (lambda + I_+ < 0
    # below the anchor) and W_lambda = W + 1/V is W, not a singular point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "family", "--kappa", "1", "--l", "3",
                           "--side", "fermionic", "--rho", rho)
    assert (rc, err) == (0, "")
    assert out == (f"V        = -inf\n"
                   f"W_lambda = {susy.superpotential(float(rho), 1.0, 3)!r}\n")


def test_family_fermionic_point_far_past_the_anchor(capsys):
    # f^2 underflows to 0 at 1e80 while I_+ keeps the integrand's mass near rho = 1,
    # so V is +inf and W_lambda = W + 1/V is W
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "family", "--kappa", "1", "--l", "3",
                           "--side", "fermionic", "--rho", "1e80")
    assert (rc, err) == (0, "")
    assert out == f"V        = inf\nW_lambda = {susy.superpotential(1e80, 1.0, 3)!r}\n"


def test_family_point_is_the_grid_route_at_its_radius(capsys):
    rc, out, err = run(capsys, "family", "--kappa", "1", "--l", "3",
                       "--side", "fermionic", "--rho", "1e5")
    assert (rc, err) == (0, "")
    v = float(out.splitlines()[0].split("= ")[1])
    on_grid = family.family_on_grid(1.0, 3, 0.0, "fermionic", np.geomspace(1.0, 1e5, 200))
    assert abs(v - on_grid[-1]) <= 1e-12 * abs(on_grid[-1])


@pytest.mark.parametrize("kappa, l, rho", [("1e-3", "1", "0.5")])
def test_family_fermionic_point_at_zero_over_zero_fails_quietly(capsys, kappa, l, rho):
    # f^2 underflows to 0 where lambda + I_+ is exactly 0: at kappa = 1e-3 f^2 is 0
    # all the way to the anchor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "family", "--kappa", kappa, "--l", l,
                           "--side", "fermionic", "--rho", rho)
    assert (rc, out) == (1, "")
    assert err == (f"dosusy: failure: V_lambda is 0/0 at rho = {float(rho)!r}: "
                   "f^2 underflows to 0 where lambda + I_+ is 0\n")


def test_family_fermionic_curve_where_f_squared_underflows(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "family", "--kappa", "1", "--l", "3", "--side", "fermionic",
                           "--grid-min", "1e-100", "--grid-max", "10", "--grid-points", "50",
                           "--out", str(tmp_path))
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == str(tmp_path / "family_v.csv")
    rows = (tmp_path / "family_v.csv").read_text().splitlines()[4:]
    values = np.array([float(row.split(",")[1]) for row in rows])
    assert len(values) == 50 and not np.isnan(values).any()
    assert values[0] == -np.inf and np.isfinite(values[-1])


def test_family_curve_lists_zero_loci(tmp_path, capsys):
    rc, out, _ = run(capsys, "family", "--kappa", "1", "--l", "0",
                     "--out", str(tmp_path), "--grid-points", "80")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == str(tmp_path / "family_v.csv")
    assert lines[1].startswith("singular loci of W_lambda (zeros of V): ")
    zeros = [float(tok) for tok in lines[1].split(": ")[1].split(", ")]
    assert zeros == pytest.approx([1.0], abs=1e-9)
    assert (tmp_path / "family_v.csv").read_text().count("\n") == 4 + 80


@pytest.mark.parametrize("kappa, l", [("1", "2"), ("1/2", "3"), ("1/2", "5")])
def test_family_curve_finds_the_loci_near_the_anchor(tmp_path, capsys, kappa, l):
    # lambda + I_- crosses zero just inside rho = 1, where the grid's anchored sums
    # must not be differences of sums over the far decades
    rc, out, err = run(capsys, "family", "--kappa", kappa, "--l", l, "--lambda", "0.3",
                       "--out", str(tmp_path))
    assert (rc, err) == (0, "")
    zeros = [float(tok) for tok in out.splitlines()[1].split(": ")[1].split(", ")]
    k = model.parse_kappa(kappa)[0]
    for z in zeros:
        f2 = model.f_factor(z, k, int(l)) ** 2
        assert abs(family.v_family(z, k, int(l), 0.3)) <= 1e-9 * f2 * 0.3, z


# ----------------------------------------------------------------------
# audit / critical
# ----------------------------------------------------------------------

def test_audit_json_payload(capsys):
    rc, out, _ = run(capsys, "audit", "--format", "json")
    assert rc == 0
    records = json.loads(out)
    assert len(records) == 16
    keys = {"formula_id", "l", "kappa", "max_dev", "ode_residual_max",
            "ratio", "verdict"}
    for rec in records:
        assert set(rec) == keys
        assert rec["verdict"] in ("match", "mismatch")
    s1 = {(r["formula_id"], r["l"]): r for r in records}[("S1", 0)]
    assert s1["verdict"] == "match"


def test_audit_csv_file(tmp_path, capsys):
    path = tmp_path / "audit.csv"
    rc, out, _ = run(capsys, "audit", "--format", "csv", "--out", str(path))
    assert rc == 0
    assert out.strip() == str(path)
    lines = path.read_text().splitlines()
    assert lines[2] == "formula_id,l,kappa,max_dev,ode_residual_max,ratio,verdict"
    assert len(lines) == 3 + 16
    assert lines[3].startswith("S1,0,1.0,")


def test_critical_report(capsys):
    rc, out, _ = run(capsys, "critical", "--kappa", "1")
    assert rc == 0
    lines = out.splitlines()
    l_cr = float(lines[0].split("= ")[1])
    rho_cr = float(lines[1].split("= ")[1])
    assert l_cr == pytest.approx(6.8766066514135975, abs=1e-6)
    assert rho_cr == pytest.approx(1.5993663589673839, abs=1e-6)
    assert "newton_iterations" in lines[2]


@pytest.mark.parametrize("all_flag", [(), ("--all",)], ids=["first", "all"])
@pytest.mark.parametrize("kappa, reason", [
    ("1e200", "slope of U_+ is not finite"),
    ("1e300", "slope of U_+ is not finite"),
])
def test_critical_failures_print_nothing_on_stdout(capsys, kappa, reason, all_flag):
    # (2 kappa)^2, a factor of the slope's numerator, overflows past kappa ~ 7e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "critical", "--kappa", kappa, *all_flag)
    assert rc == 1
    assert out == ""
    assert err.startswith("dosusy: failure:") and len(err.splitlines()) == 1
    assert reason in err and f"kappa = {float(kappa)}" in err


@pytest.mark.parametrize("all_flag", [(), ("--all",)], ids=["first", "all"])
@pytest.mark.parametrize("kappa", ["250", "280", "250.4807509070144"])
def test_critical_without_a_threshold_exits_1(capsys, kappa, all_flag):
    # no threshold in the window here: the l scan of tests/test_solver.py
    # sees no sign change of the largest slope of U_+
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "critical", "--kappa", kappa, *all_flag)
    assert rc == 1
    if all_flag:
        assert err == ""
        assert out == "no pocket threshold in the scan window (l in (1, 20), rho in (0.1, 10))\n"
    else:
        assert out == ""
        assert err == f"dosusy: failure: no pocket threshold found for kappa = {float(kappa)} " \
                      "in the scan window\n"


@pytest.mark.parametrize("kappa, l_crs", [
    ("5.684102", (1.0276, 9.6747)), ("16.0617", (11.4381, 19.8551)),
    ("21.68", (17.0391,)), ("22.71", (18.0667,)), ("22.16597208579026", (17.5239,)),
])
def test_critical_all_prints_every_threshold(capsys, kappa, l_crs):
    # thresholds that a 96 x 241 (l, rho) scan missed (l ~ 1.0276 and 19.855)
    # or could not polish (kappa 21.68, 22.71), and one at F's rounding floor
    rc, out, _ = run(capsys, "critical", "--kappa", kappa, "--all")
    assert rc == 0
    points = solver.critical_angular_all(float(kappa))
    assert [cp.l_cr for cp in points] == pytest.approx(l_crs, abs=1e-4)
    lines = out.splitlines()
    assert len(lines) == 3 * len(points)
    for cp, l_line, rho_line in zip(points, lines[0::3], lines[1::3]):
        assert (l_line, rho_line) == (f"l_cr  = {cp.l_cr!r}", f"rho_cr = {cp.rho_cr!r}")
    rc, out, _ = run(capsys, "critical", "--kappa", kappa)
    assert rc == 0 and out == "\n".join(lines[:3]) + "\n"


# ----------------------------------------------------------------------
# figures / trace
# ----------------------------------------------------------------------

def test_figures_are_deterministic(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    rc_a, out_a, _ = run(capsys, "figures", "fig1", "--out", str(dir_a))
    rc_b, _, _ = run(capsys, "figures", "fig1", "--out", str(dir_b))
    assert rc_a == rc_b == 0
    assert out_a.splitlines() == [str(dir_a / "fig1_minus.csv"),
                                  str(dir_a / "fig1_plus.csv")]
    for name in ("fig1_minus.csv", "fig1_plus.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    # the unit radius sits exactly on the grid, where U_minus(l=2) = -11/4
    assert "1.0,-2.75,1.0,2" in (dir_a / "fig1_minus.csv").read_text().splitlines()


def test_trace_summary_and_csv(tmp_path, capsys):
    path = tmp_path / "orbit.csv"
    rc, out, _ = run(capsys, "trace", "--kappa", "1", "--w", "3",
                     "--rho", "0.5", "--direction", "63",
                     "--out", str(path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "kappa = 1/1, w = 3.0, rho0 = 0.5, direction = 63.0 deg"
    assert lines[1].startswith("closure_defect = ")
    assert "after 1 revolution(s)" in lines[1]
    assert lines[2].startswith("focal_point = (")
    assert lines[3].startswith("energy_drift = ")
    assert lines[4] == str(path)
    data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert data[0] == "t,x,y,speed"
    assert len(data) == 1 + 1000  # default sampling


def test_trace_energy_drift_is_on_the_orbit_scale(capsys):
    # from rho = 1e3 the orbit swings through its focus at rho = 1e-3, where
    # |U| is 1e12 times |U(start)|; the drift is relative to that largest |U|
    rc, out, _ = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "1e3")
    assert rc == 0
    drift, suffix = out.splitlines()[3].removeprefix("energy_drift = ").split(" ", 1)
    assert suffix == "(relative to max |U| on the orbit)"
    assert float(drift) < 1e-10


@pytest.mark.parametrize("argv, code, lines", [
    (("trace", "--kappa", "1", "--w", "1e-300", "--rho", "0.5"), 0, 4),
    (("quantize", "--kappa", "1e6", "--N", "2"), 1, 0),
], ids=["trace", "quantize"])
def test_extreme_inputs_leak_no_runtime_warning(capsys, argv, code, lines):
    # a tiny coupling overflows the initial-step norm of the orbit integrator;
    # a huge kappa underflows the first shooting edge to log(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv)
    assert rc == code
    assert len(out.splitlines()) == lines
    assert len(err.splitlines()) == code   # exit 1: its one failure line
    assert all(line.startswith("dosusy: failure:") for line in err.splitlines())


def test_trace_without_csv_builds_no_time_uniform_samples(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("time-uniform samples built without --out")

    monkeypatch.setattr(solver, "_states_at_times", refuse)
    rc, out, _ = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.5")
    assert rc == 0
    assert len(out.splitlines()) == 4


def test_trace_csv_is_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        rc, _, _ = run(capsys, "trace", "--kappa", "1/2", "--w", "2",
                       "--rho", "0.5", "--direction", "63", "--out", str(path))
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------------------------------------
# CSV bytes: the columnar writer against the row-by-row reference
# ----------------------------------------------------------------------

def _rowwise_csv(title, column_doc, param_doc, header, rows):
    """The row-by-row formatter the columnar writer replaced."""
    lines = [f"# {title}", f"# columns: {column_doc}"]
    if param_doc:
        lines.append(f"# parameters: {param_doc}")
    lines.append(header)
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows(blocks):
    for columns in blocks:
        n = max(np.size(c) for c in columns)
        yield from zip(*(c if np.ndim(c) else [c] * n for c in columns))


def test_columnar_csv_matches_rowwise_on_mixed_values():
    a = np.array([0.1, -0.0, 1e-300, -2.5e300, np.inf, np.nan, 3.0])
    b = np.arange(7, dtype=np.int64) - 3
    blocks = [(a, b, np.float64(0.5), 2), (a[:3], -a[:3], -0.0, 1.25), ([1.5, -0.0], 7, np.float32(0.1), "x")]
    args = ("t", "a, b, c, d", "", "a,b,c,d")
    assert cli._curve_csv(*args, blocks) == _rowwise_csv(*args, _rows(blocks))


def test_shared_columns_format_as_in_their_own_blocks():
    grid, other = np.geomspace(1e-3, 1e3, 9), [1.5, -0.0, np.nan]
    args = ("t", "x, y, k", "p", "x,y,k")
    head = cli._curve_csv(*args, [])

    def one_by_one(blocks):
        return head + "".join(cli._curve_csv(*args, [b])[len(head):] for b in blocks)

    shared = [(grid, np.sin(k * grid), k) for k in (1.0, 2.0, 3.0)]
    shared += [(other, other, "a"), (grid, grid, 0.5), (other, [0, 1, 2], "b")]
    assert cli._curve_csv(*args, shared) == one_by_one(shared)

    def fresh():   # blocks from a generator, each with a new temporary column
        return ((grid, grid * k, k) for k in range(1, 9))
    assert cli._curve_csv(*args, fresh()) == one_by_one(fresh())


def test_every_csv_writer_matches_rowwise_bytes(tmp_path, capsys, monkeypatch):
    seen = []
    curve_csv = cli._curve_csv

    def checked(title, column_doc, param_doc, header, blocks):
        blocks = list(blocks)
        text = curve_csv(title, column_doc, param_doc, header, blocks)
        seen.append(header)
        assert text == _rowwise_csv(title, column_doc, param_doc, header, _rows(blocks))
        return text

    monkeypatch.setattr(cli, "_curve_csv", checked)
    monkeypatch.setattr(susy, "_curve_csv", checked)   # the figure bundles' writer
    for fig in ("fig1", "fig2"):
        cli.figure_payloads(fig)
    assert run(capsys, "partners", "--kappa", "3/2", "--l", "1", "--out", str(tmp_path))[0] == 0
    assert run(capsys, "family", "--kappa", "1/2", "--l", "1", "--lambda", "-0.5",
               "--side", "fermionic", "--out", str(tmp_path))[0] == 0
    assert run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.5",
               "--out", str(tmp_path / "orbit.csv"))[0] == 0
    rc, out, _ = run(capsys, "audit", "--format", "csv")
    assert rc == 0 and out.count("\n") == 3 + 16   # header lines, then 4 series at l = 0..3
    assert seen == (["rho,U,kappa,l"] * 4 + ["rho,value,kappa,l"] * 4 + ["t,x,y,speed"]
                    + ["formula_id,l,kappa,max_dev,ode_residual_max,ratio,verdict"])


def test_trace_plunge_maps_to_failure_exit(capsys):
    rc, out, err = run(capsys, "trace", "--kappa", "1/2", "--w", "2",
                       "--rho", "0.5", "--direction", "180")
    assert rc == 1
    assert out == ""
    assert err.startswith("dosusy: failure:")


def test_trace_escape_maps_to_failure_exit(capsys):
    rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "900",
                       "--direction", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("dosusy: failure: orbit escaped beyond rho = 1e3")


def test_trace_direction_nan_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.5",
                       "--direction", "nan")
    assert (rc, out) == (2, "")
    assert err.startswith("dosusy: error:") and "direction" in err


def test_figures_under_a_regular_file_is_a_filesystem_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    rc, out, err = run(capsys, "figures", "fig1", "--out", str(tmp_path / "file" / "figures"))
    assert (rc, out) == (1, "")
    assert err.startswith("dosusy: filesystem error:")


def test_trace_outward_radial_launch_is_a_usage_error(capsys, monkeypatch):
    # near 0 deg the angular momentum L = rho0 v sin(phi) underflows to 0.0, or at
    # (0.3, 3e-322) is subnormal with 1/L inf, or at (0.3, 1e-306) has 1/L finite but the
    # gain 2w/L inf: each is refused before the solve
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit with a non-finite parameter was integrated")

    monkeypatch.setattr(dosusy.solver, "solve_ivp", refuse)
    for rho, direction in (("0.5", "0"), ("0.5", "5e-324"), ("1e-5", "1e-318"),
                           ("0.3", "3e-322"), ("0.3", "1e-306")):
        rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3",
                           "--rho", rho, "--direction", direction)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"dosusy: error: direction {float(direction)!r} deg is a radial")


def test_trace_launch_that_fails_at_its_first_step_names_it(capsys):
    # at 1e-300 deg every parameter is finite, but the first step falls below its floor
    rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.3",
                       "--direction", "1e-300")
    assert (rc, out) == (1, "")
    assert err.startswith("dosusy: failure: direction 1e-300 deg launches with angular "
                          "momentum L = 1.18e-302: step size")
    assert err.endswith("at t = 0.0\n")


@pytest.mark.parametrize("flag, value", [("--revolutions", "1e9"), ("--samples", "1000001")])
def test_trace_span_beyond_its_cap_is_a_usage_error(capsys, monkeypatch, flag, value):
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit past the cap was integrated")

    monkeypatch.setattr(dosusy.solver, "solve_ivp", refuse)
    rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.5", flag, value)
    assert rc == 2
    assert out == ""
    assert err.startswith("dosusy: error:")


@pytest.mark.parametrize("command", ["partners", "family"])
def test_grid_points_beyond_the_cap_is_a_usage_error(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid past the cap was allocated")

    monkeypatch.setattr(np, "geomspace", refuse)
    rc, out, err = run(capsys, command, "--kappa", "1", "--grid-points", "1000001")
    assert rc == 2
    assert out == ""
    assert err == "dosusy: error: need 2 to 1000000 grid points, got 1000001\n"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_single_suite(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "degeneracy")
    assert rc == 0
    payload = json.loads(out)
    assert payload["summary"]["exit_code"] == 0
    assert payload["summary"]["failed"] == 0
    assert len(payload["checks"]) == 7
    assert "7/7 gating checks passed" in err

    rc2, out2, _ = run(capsys, "verify", "--suite", "degeneracy")
    assert rc2 == 0
    assert out2 == out  # byte-identical report


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "nope")
    assert rc == 2
    assert err.startswith("dosusy: error:")


# ----------------------------------------------------------------------
# parser plumbing + installed module entry point
# ----------------------------------------------------------------------

def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name in ("eval", "quantize", "partners", "family", "audit",
                 "critical", "figures", "trace", "verify"):
        assert name in out


def test_no_subcommand_takes_a_tolerance_flag(capsys):
    parser = cli.build_parser()
    for argv in (["eval", "W", "--kappa", "1", "--rho", "1"],
                 ["quantize", "--kappa", "1", "--N", "1"], ["partners", "--kappa", "1"],
                 ["family", "--kappa", "1"], ["audit"], ["critical", "--kappa", "1"],
                 ["figures", "fig1"], ["trace", "--kappa", "1", "--w", "3", "--rho", "0.5"],
                 ["verify"]):
        parser.parse_args(argv)
        for flag in ("--tol-quad", "--tol-deriv-step", "--tol-root"):
            with pytest.raises(SystemExit) as info:
                parser.parse_args([*argv, flag, "1e-9"])
            assert info.value.code == 2


def _readme_examples() -> list[tuple[str, str]]:
    """(command, shown output) for each ``dosusy ...`` line of the README's
    command-line block: the output is the comment on the line and the comment
    lines directly under it, one per output line ("" when none is shown)."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command-line tool", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, shown = [], None   # shown: the output lines of the open example, if any
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if line.startswith("dosusy "):
            shown = [comment.strip()] if comment else []
            examples.append((command.strip(), shown))
        elif line.startswith("# ") and shown is not None:
            shown.append(line[2:])
        else:
            shown = None
    return [(command, "\n".join(out)) for command, out in examples]


def test_readme_shows_the_output_of_each_command_with_output():
    shown = {command for command, out in _readme_examples() if out}
    assert shown == {"dosusy eval W --kappa 1 --rho 1", "dosusy eval Uminus --kappa 1 --l 2 --rho 1",
                     "dosusy quantize --kappa 1 --N 1", "dosusy critical --kappa 1"}


@pytest.mark.parametrize("command, shown", [pytest.param(*example, id=example[0])
                                            for example in _readme_examples()])
def test_readme_example_runs(tmp_path, monkeypatch, capsys, command, shown):
    # The shown output is the whole of stdout, "..." standing for any text.
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, *shlex.split(command)[1:])
    assert rc == 0
    if shown:
        pattern = ".*".join(map(re.escape, shown.split("...")))
        assert re.fullmatch(pattern, out.rstrip("\n"), flags=re.DOTALL), (shown, out)


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


def test_module_invocation_subprocess(tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH would not
    # resolve; point it at the directory holding the imported package.
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(dosusy.__file__)))
    env = dict(os.environ, PYTHONPATH=package_parent)
    ok = subprocess.run(
        [sys.executable, "-m", "dosusy", "eval", "W", "--kappa", "1",
         "--rho", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert ok.returncode == 0
    assert ok.stdout == "-0.5\n"
    bad = subprocess.run(
        [sys.executable, "-m", "dosusy", "bogus"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert bad.returncode == 2
