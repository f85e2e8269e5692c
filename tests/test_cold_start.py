"""Cold start: the package and every subcommand run on numpy alone, with no
scipy module loaded, and only verify and figures load the verification
layer, dosusy.checks.

Each test runs a fresh interpreter, since an import made by any other test
would already sit in this process's ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import dosusy

PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(dosusy.__file__)))

PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(script: str, cwd, prelude: str = PRELUDE) -> dict:
    """Run ``script`` after ``prelude`` in a new interpreter; it prints one JSON line last."""
    proc = subprocess.run([sys.executable, "-c", prelude + script], capture_output=True,
                          text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_scipy_free_commands_load_no_scipy(tmp_path):
    out = run_fresh("""
import contextlib, io
import dosusy, dosusy.cli
from dosusy import cli
after_import = scipy_modules()
codes = []
for argv in (["eval", "U", "--kappa", "1", "--w", "3", "--rho", "0.5"],
             ["eval", "u", "--kappa", "1", "--N", "2", "--rho", "0.5"],
             ["partners", "--kappa", "1", "--rho", "0.7"],
             ["partners", "--kappa", "1/2", "--out", "csv"],
             ["critical", "--kappa", "1", "--all"],
             ["audit", "--format", "csv"],
             ["figures", "all", "--out", "csv"],
             ["family", "--kappa", "1", "--lambda", "-0.5", "--rho", "1.3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
from dosusy import model, solver
solver.integrate_radial(model.coupling_quantized(1, 1.0), 1.0, 0, [0.1, 1.0, 10.0])
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_commands": scipy_modules(), "numpy.ma": "numpy.ma" in sys.modules}))
""", tmp_path)
    assert out["after_import"] == []
    assert out["codes"] == [0] * 8
    assert out["after_commands"] == []
    # np.unique and np.median import numpy.ma on first use; the sort-based helpers do not
    assert out["numpy.ma"] is False


def test_figures_suite_runs_without_the_cli(tmp_path):
    out = run_fresh("""
import dosusy.checks
results = dosusy.checks.run_suites(("figures",))
print(json.dumps({"passed": all(r.passed for r in results), "count": len(results),
                  "cli": "dosusy.cli" in sys.modules}))
""", tmp_path)
    assert out == {"passed": True, "count": 5, "cli": False}


def test_shooting_tracing_and_verify_commands_load_no_scipy(tmp_path):
    out = run_fresh("""
import contextlib, io
from dosusy import cli
codes = []
for argv in (["quantize", "--kappa", "1", "--N", "2"],
             ["trace", "--kappa", "1/2", "--w", "2", "--rho", "0.5"],
             ["verify", "--suite", "closure"],
             ["verify", "--suite", "eigenvalue"],
             ["verify", "--suite", "family"],
             ["family", "--kappa", "1", "--lambda", "-0.5", "--out", "curves"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "scipy": scipy_modules()}))
""", tmp_path)
    assert out == {"codes": [0] * 6, "scipy": []}


# first calls into the root search (shooting, v_zeros) and the orbit integrator
FIRST_CALLS = {
    "shoot_coupling": ("from dosusy.solver import shoot_coupling",
                       "shoot_coupling(2, '1', 0).w_star",
                       pytest.approx(15.0, rel=1e-9)),
    "classical_trajectory": ("from dosusy.solver import classical_trajectory",
                             "classical_trajectory('1', 3.0, 0.5).closure_defect",
                             pytest.approx(0.0, abs=1e-6)),
    "v_zeros": ("import numpy as np; from dosusy.family import v_zeros",
                "v_zeros(1.0, 0, -0.5, 'bosonic', np.geomspace(0.2, 5.0, 200))[0]",
                pytest.approx((0.5 + 4.25 ** 0.5) / 2.0, abs=1e-9)),
}


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_loads_no_scipy_in_a_fresh_interpreter(name, tmp_path):
    setup, call, expected = FIRST_CALLS[name]
    out = run_fresh(f"""
{setup}
before = scipy_modules()
value = float({call})
print(json.dumps({{"before": before, "value": value, "after": len(scipy_modules())}}))
""", tmp_path)
    assert out["before"] == []
    assert out["after"] == 0
    assert out["value"] == expected


# the verification layer and json, each loaded or not; this prelude itself imports neither
LOADED = """
import sys
def loaded():
    return ["dosusy.checks" in sys.modules, "json" in sys.modules]
"""

NON_VERIFYING = (["eval", "U", "--kappa", "1", "--w", "3", "--rho", "0.5"],
                 ["quantize", "--kappa", "1", "--N", "2"],
                 ["critical", "--kappa", "1"],
                 ["partners", "--kappa", "1", "--rho", "0.7"],
                 ["partners", "--kappa", "1/2", "--out", "curves"],
                 ["family", "--kappa", "1", "--lambda", "-0.5", "--rho", "1.3"],
                 ["family", "--kappa", "1", "--lambda", "-0.5", "--out", "curves"],
                 ["trace", "--kappa", "1/2", "--w", "2", "--rho", "0.5", "--out", "orbit.csv"],
                 ["audit", "--format", "json"])


def test_package_and_non_verifying_commands_leave_checks_unloaded(tmp_path):
    out = run_fresh(LOADED + f"""
import contextlib, io
import dosusy, dosusy.cli
from dosusy import cli
seen = [[0, loaded()]]
for argv in {NON_VERIFYING!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([cli.main(argv), loaded()])
import json
print(json.dumps(seen))
""", tmp_path, prelude="")
    # [exit code, [checks loaded, json loaded]]: json is audit's alone
    assert out == [[0, [False, False]]] * len(NON_VERIFYING) + [[0, [False, True]]]


@pytest.mark.parametrize("argv", [["verify", "--suite", "riccati"], ["figures", "all"]],
                         ids=["verify", "figures"])
def test_verify_and_figures_load_checks(argv, tmp_path):
    out = run_fresh(LOADED + f"""
import contextlib, io
from dosusy import cli
before = loaded()[0]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main({argv!r})
import json
print(json.dumps([before, code, loaded()[0]]))
""", tmp_path, prelude="")
    assert out == [False, 0, True]


def test_lazy_names_resolve_in_a_fresh_interpreter(tmp_path):
    out = run_fresh("""
import dosusy
from dosusy import cli
before = "dosusy.checks" in sys.modules
star = {}
exec("from dosusy import *", star)
checks = dosusy.checks
print(json.dumps({
    "before": before,
    "same": [dosusy.run_suites is checks.run_suites, dosusy.CheckResult is checks.CheckResult,
             cli.figure_payloads is checks.figure_payloads],
    "star_missing": sorted(set(dosusy.__all__) - set(star)),
    "suites": list(dosusy.SUITE_NAMES)}))
""", tmp_path)
    assert out["before"] is False
    assert out["same"] == [True, True, True]
    assert out["star_missing"] == []
    assert out["suites"][0] == "riccati" and len(out["suites"]) == 11


def test_package_all_is_the_union_of_the_layers():
    from dosusy import checks, exceptions, family, model, numkit, solver, susy
    layers = (checks, exceptions, family, model, numkit, solver, susy)
    assert dosusy.__all__ == sorted({name for layer in layers for name in layer.__all__})
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dosusy.no_such_name
