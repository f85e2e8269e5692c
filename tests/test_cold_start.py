"""Cold start: the package and every subcommand run on numpy alone, with no scipy
module loaded, and only verify loads the verification layer, dosusy.checks.

Two scripts run each in a fresh interpreter, as this process's ``sys.modules`` holds
other tests' imports; script A records the watched modules loaded after each step.
"""

import json
import os
import subprocess
import sys

import pytest

import dosusy

FIRST_CALLS = {   # into the root search (shooting, v_zeros) and the orbit integrator
    "shoot_coupling": ("solver.shoot_coupling(2, '1', 0).w_star", pytest.approx(15.0, rel=1e-9)),
    "classical_trajectory": ("solver.classical_trajectory('1', 3.0, 0.5).closure_defect",
                             pytest.approx(0.0, abs=1e-6)),
    "v_zeros": ("family.v_zeros(1.0, 0, -0.5, 'bosonic', np.geomspace(0.2, 5.0, 200))[0]",
                pytest.approx((0.5 + 4.25 ** 0.5) / 2.0, abs=1e-9)),
}

NON_VERIFYING = ("eval U --kappa 1 --w 3 --rho 0.5", "eval u --kappa 1 --N 2 --rho 0.5",
                 "quantize --kappa 1 --N 2", "critical --kappa 1", "critical --kappa 1 --all",
                 "partners --kappa 1 --rho 0.7", "partners --kappa 1/2 --out curves",
                 "family --kappa 1 --lambda -0.5 --rho 1.3", "trace --kappa 1/2 --w 2 --rho 0.5",
                 "family --kappa 1 --lambda -0.5 --out curves", "figures all --out curves",
                 "trace --kappa 1/2 --w 2 --rho 0.5 --out orbit.csv", "audit --format csv",
                 "audit --format json")
VERIFYING = tuple(f"verify --suite {s}" for s in ("riccati", "closure", "eigenvalue", "family"))

# json is audit's and checks' alone; np.unique and np.median would import numpy.ma
SCRIPT_A = f"""
import contextlib, io, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m in ("dosusy.checks", "json", "numpy.ma") or m.split(".")[0] == "scipy")
from dosusy import cli, family, model, solver, susy
import numpy as np
steps = [["import", cli.figure_payloads is susy.figure_payloads, loaded()]]
for name, call in {[(name, call) for name, (call, _) in FIRST_CALLS.items()]!r}:
    steps.append([name, float(eval(call)), loaded()])
solver.integrate_radial(model.coupling_quantized(1, 1.0), 1.0, 0, [0.1, 1.0, 10.0])
steps.append(["integrate_radial", 0, loaded()])
for argv in {NON_VERIFYING + VERIFYING!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        steps.append([argv, cli.main(argv.split()), loaded()])
import json
print(json.dumps(steps))
"""

SCRIPT_B = """
import sys, dosusy
before = [m for m in ("dosusy.checks", "dosusy.cli") if m in sys.modules]
exec("from dosusy import *", star := {})
checks = dosusy.checks
results = checks.run_suites(("figures",))
import json
print(json.dumps({"before": before, "star_missing": sorted(set(dosusy.__all__) - set(star)),
    "same": [dosusy.run_suites is checks.run_suites, dosusy.CheckResult is checks.CheckResult],
    "suites": list(dosusy.SUITE_NAMES), "figures": [all(r.passed for r in results), len(results)],
    "cli": "dosusy.cli" in sys.modules}))
"""


def run_fresh(script: str, cwd):
    """Run ``script`` in a new interpreter; it prints one JSON line last."""
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(dosusy.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=package_parent), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """Script A's steps in order: {step: [its result, the watched modules loaded after it]}."""
    return {step: rest for step, *rest in run_fresh(SCRIPT_A, tmp_path_factory.mktemp("a"))}


@pytest.fixture(scope="module")
def script_b(tmp_path_factory):
    return run_fresh(SCRIPT_B, tmp_path_factory.mktemp("b"))


def test_package_and_scipy_free_commands_load_no_scipy(steps):
    # the import step's result: the CLI's figure_payloads is susy's
    assert [steps["import"], steps["integrate_radial"]] == [[True, []], [0, []]]


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_loads_no_scipy_in_a_fresh_interpreter(name, steps):
    assert steps[name] == [FIRST_CALLS[name][1], []]


def test_package_and_non_verifying_commands_leave_checks_unloaded(steps):
    # [step, exit code, watched modules loaded]: json is audit --format json's alone
    got = [[step, *steps[step]] for step in NON_VERIFYING]
    assert got == [[step, 0, ["json"] if "json" in step else []] for step in NON_VERIFYING]


def test_verify_loads_checks(steps):
    # the step before it, audit --format json, leaves checks unloaded
    assert [steps[NON_VERIFYING[-1]], steps[VERIFYING[0]]] == [[0, ["json"]],
                                                               [0, ["dosusy.checks", "json"]]]


def test_shooting_tracing_and_verify_commands_load_no_scipy(steps):
    # verify loads checks and json, and still neither scipy nor numpy.ma
    got = [[step, *steps[step]] for step in VERIFYING]
    assert got == [[step, 0, ["dosusy.checks", "json"]] for step in VERIFYING]


def test_lazy_names_resolve_in_a_fresh_interpreter(script_b):
    assert [script_b["before"], script_b["star_missing"], script_b["same"]] == [[], [], [True] * 2]
    assert script_b["suites"][0] == "riccati" and len(script_b["suites"]) == 11


def test_figures_suite_runs_without_the_cli(script_b):
    assert script_b["figures"] == [True, 5] and script_b["cli"] is False


def test_package_all_is_the_union_of_the_layers():
    from dosusy import checks, exceptions, family, model, numkit, solver, susy
    layers = (checks, exceptions, family, model, numkit, solver, susy)
    assert dosusy.__all__ == sorted({name for layer in layers for name in layer.__all__})
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dosusy.no_such_name
