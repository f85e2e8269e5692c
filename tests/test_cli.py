"""Command-line interface: exit codes, output formats, file emission.

Everything runs in-process through cli.main(argv) for speed; one subprocess
test at the end confirms the installed entry point wiring.
"""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dosusy
from dosusy import checks, cli, solver
from dosusy.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


@pytest.mark.parametrize("rho", ["nan", "inf", "0"])
def test_eval_rejects_non_finite_or_non_positive_radius(capsys, rho):
    rc, out, err = run(capsys, "eval", "W", "--kappa", "1", "--rho", rho)
    assert rc == 2
    assert out == ""
    assert err.startswith("dosusy: error:")


@pytest.mark.parametrize("argv", [
    ("eval", "U", "--kappa", "1", "--w", "nan", "--rho", "1"),
    ("eval", "Ueff", "--kappa", "1", "--w", "inf", "--l", "1", "--rho", "1"),
    ("family", "--kappa", "1", "--rho", "2", "--lambda", "nan"),
    ("eval", "U", "--kappa", "nan", "--w", "1", "--rho", "2"),
    ("eval", "U", "--kappa", "inf", "--w", "1", "--rho", "2"),
    ("eval", "U", "--kappa", "1e400", "--w", "1", "--rho", "2"),
    ("eval", "U", "--kappa", "1/0", "--w", "1", "--rho", "2"),
    ("eval", "U", "--kappa", "1" + "0" * 400 + "/1", "--w", "1", "--rho", "2"),
    ("trace", "--kappa", "1/0", "--w", "3", "--rho", "0.5"),
    ("trace", "--kappa", "1", "--w", "3", "--rho", "1e150"),
    ("trace", "--kappa", "1", "--w", "3", "--rho", "1e-300"),
    ("quantize", "--kappa", "1e200", "--N", "2"),
    ("quantize", "--kappa", "1e300", "--N", "2"),
], ids=["U-w-nan", "Ueff-w-inf", "family-lambda-nan", "kappa-nan", "kappa-inf",
        "kappa-overflow", "kappa-zero-denominator", "kappa-huge-ratio",
        "trace-kappa-zero-denominator", "trace-rho-1e150", "trace-rho-1e-300",
        "quantize-kappa-1e200", "quantize-kappa-1e300"])
def test_non_finite_parameters_are_usage_errors(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("dosusy: error:")
    assert len(err.splitlines()) == 1


def test_eval_u_requires_ladder_label(capsys):
    rc, out, err = run(capsys, "eval", "u", "--kappa", "1", "--rho", "1.5")
    assert rc == 2
    assert out == ""
    assert err.startswith("dosusy: error:")


def test_eval_normalized_s_wave_is_rejected(capsys):
    # l = 0 profiles are not square integrable; asking for a normalized
    # value is a parameter error, not a crash.
    rc, _, err = run(capsys, "eval", "u", "--kappa", "1", "--N", "1",
                     "--l", "0", "--rho", "1.5", "--normalized")
    assert rc == 2
    assert "dosusy: error:" in err


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


def test_quantize_with_a_non_finite_defect_fails_quietly(capsys):
    # At N = 10^6 the Magnus cells overflow; the search stops on the first
    # non-finite defect, and no numpy warning reaches stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "quantize", "--kappa", "1", "--N", "1000000")
    assert rc == 1
    assert out == "3999999999999.0\n"
    assert len(err.splitlines()) == 1
    assert err.startswith("dosusy: failure:")
    assert "not finite" in err and "N=1000000" in err


def test_quantize_past_float_resolution_is_the_same_failure(capsys):
    # At N = 10^16 both ends of the default bracket round to 4e32; the
    # defect there is not finite, as it already is at N = 10^12.
    for N in ("1000000000000", "10000000000000000"):
        rc, _, err = run(capsys, "quantize", "--kappa", "1", "--N", N)
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("dosusy: failure:")
        assert "not finite" in err and f"N={N}" in err


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
    monkeypatch.setattr(checks, "_curve_csv", checked)   # the figure bundles' writer
    for fig in ("fig1", "fig2"):
        cli.figure_payloads(fig)
    assert run(capsys, "partners", "--kappa", "3/2", "--l", "1", "--out", str(tmp_path))[0] == 0
    assert run(capsys, "family", "--kappa", "1/2", "--l", "1", "--lambda", "-0.5",
               "--side", "fermionic", "--out", str(tmp_path))[0] == 0
    assert run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.5",
               "--out", str(tmp_path / "orbit.csv"))[0] == 0
    assert seen == ["rho,U,kappa,l"] * 4 + ["rho,value,kappa,l"] * 4 + ["t,x,y,speed"]


def test_trace_plunge_maps_to_failure_exit(capsys):
    rc, out, err = run(capsys, "trace", "--kappa", "1/2", "--w", "2",
                       "--rho", "0.5", "--direction", "180")
    assert rc == 1
    assert out == ""
    assert err.startswith("dosusy: failure:")


def test_trace_outward_radial_launch_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3",
                       "--rho", "0.5", "--direction", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("dosusy: error:") and "radial" in err


@pytest.mark.parametrize("flag, value", [("--revolutions", "1e9"), ("--samples", "1000001")])
def test_trace_span_beyond_its_cap_is_a_usage_error(capsys, monkeypatch, flag, value):
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit past the cap was integrated")

    monkeypatch.setattr(dosusy.solver, "solve_ivp", refuse)
    rc, out, err = run(capsys, "trace", "--kappa", "1", "--w", "3", "--rho", "0.5", flag, value)
    assert rc == 2
    assert out == ""
    assert err.startswith("dosusy: error:")


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
