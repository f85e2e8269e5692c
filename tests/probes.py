"""The edge commands of the dosusy CLI, as one list, and a runner for them.

Each row of PROBES is one probe: a name, the argv given to ``cli.main`` (or a
Python snippet, run in place of a command) and the exit code it must give.
Tier-1 runs every row in process and checks it keeps the exit-code contract
(tests/test_cli.py).  CI writes every row's output twice on a commit's ``src``,
the second time with the rows in reverse order, and fails on any difference
between the two folders: a row's output then depends on no state that an
earlier row left in the process (a remembered grid, a cache).  It also diffs
the first folder against the same corpus run on the parent's ``src``, for
information only.  A change that moves an exit code edits its row.

    PYTHONPATH=src python tests/probes.py OUT [--reverse]

writes OUT/<name>/{stdout,stderr,exit} for each probe, beside the files the
probe itself writes: every probe runs with OUT/<name> as its working
directory, so a relative --out prints the same path from any checkout.
Standard library only, beside dosusy itself.
"""

import contextlib
import io
import os
import sys
import traceback
import warnings
from typing import NamedTuple

from dosusy import cli


class Probe(NamedTuple):
    name: str
    argv: "tuple[str, ...] | str"   # a str is a Python snippet
    exit: int


PROBES = (
    Probe("verify", ("verify", "--out", "verify.json"), 0),
    # the suite list is formatted from checks only when help is printed
    Probe("verify-help", ("verify", "--help"), 0),
    Probe("audit-json", ("audit", "--format", "json"), 0),
    Probe("audit-csv", ("audit", "--format", "csv"), 0),
    Probe("figures", ("figures", "all", "--out", "figures"), 0),
    Probe("partners", ("partners", "--kappa", "3/2", "--l", "1", "--out", "partners"), 0),
    Probe("family", ("family", "--kappa", "1/2", "--l", "1", "--lambda", "-0.5",
                     "--side", "fermionic", "--out", "family"), 0),
    # a relative --out keeps the printed csv path the same from any checkout
    Probe("family-locus", ("family", "--kappa", "1", "--l", "2", "--lambda", "0.3",
                           "--out", "family-locus"), 0),
    # a zero at rho = 0.01 on a two-node grid whose left prefix dwarfs lambda
    Probe("family-sparse", ("family", "--kappa", "1", "--l", "2",
                            "--lambda", "2001667666.5666647", "--grid-min", "1e-4",
                            "--grid-max", "0.5", "--grid-points", "2",
                            "--out", "family-sparse"), 0),
    # every pocket threshold in the window at six kappas
    *(Probe(f"critical-{kappa.replace('/', '_')}", ("critical", "--kappa", kappa, "--all"), 0)
      for kappa in ("1", "1/2", "2/3", "3/2", "5", "0.3")),
    # every orbit bit a change to the integrator moves shows in these
    Probe("trace", ("trace", "--kappa", "1", "--w", "3", "--rho", "0.5", "--direction", "63",
                    "--out", "trace.csv"), 0),
    Probe("trace-2-3", ("trace", "--kappa", "2/3", "--w", "1", "--rho", "0.3",
                        "--direction", "120"), 0),
    # launches whose 1/L (3e-322) or gain 2w/L (1e-306) passes the float range, refused
    # with their message, and one whose first step fails (1e-300)
    *(Probe(f"trace-direction-{direction}", ("trace", "--kappa", "1", "--w", "3",
                                             "--rho", "0.3", "--direction", direction), code)
      for direction, code in (("3e-322", 2), ("1e-306", 2), ("1e-300", 1))),
    # a far point where one panel from the anchor once passed its error estimate
    Probe("family-point", ("family", "--kappa", "3.258879318786974", "--l", "0",
                           "--rho", "1815.0112396156453"), 0),
    *(Probe(f"normalized-u-{N}-{l}-{kappa.replace('/', '_')}",
            ("eval", "u", "--N", N, "--l", l, "--kappa", kappa, "--rho", "2", "--normalized"), 0)
      for N, l, kappa in (("41", "1", "1/40"), ("101", "50", "1/2"), ("151", "1", "1/150"))),
    # U-+ where rho^kappa overflows (NaN, exit 1 until the partners are folded),
    # a subnormal radius on the fold, a single power past the float range, and
    # the three partners where rho * rho underflows
    *(Probe(f"eval-{quantity}-1e259", ("eval", quantity, "--kappa", "1.5", "--l", "0",
                                       "--rho", "1e259"), 1)
      for quantity in ("Uminus", "Uplus")),
    Probe("eval-f-1e-310", ("eval", "f", "--kappa", "1", "--rho", "1e-310"), 0),
    Probe("eval-U-1e-200", ("eval", "U", "--w", "3", "--kappa", "1e-5", "--rho", "1e-200"), 0),
    Probe("partners-1e-300", ("partners", "--kappa", "1.3", "--l", "2", "--rho", "1e-300"), 0),
    # a scalar radius takes its powers as its array lane does (alpha moved by an ulp)
    *(Probe(f"eval-{quantity}-1e-310-kappa-1e-5", ("eval", quantity, "--kappa", "1e-5",
                                                   "--N", "1", "--rho", "1e-310"), 0)
      for quantity in ("alpha", "xi", "f", "u")),
    # W' past kappa = 8.99e307, where k = 2 kappa passes the float range
    Probe("eval-dW-1e308", ("eval", "dW", "--kappa", "1e308", "--rho", "2", "--l", "1"), 0),
    # W'', W''', U+' and U+'' (l = 0, 7) where rho^(2 kappa) is 0 or inf and at rho = 1,
    # at kappa 1e308 with 2 kappa past the float range too
    Probe("higher-forms", """\
from dosusy import susy
fs = (susy.superpotential_d2r, susy.superpotential_d3r, susy.partner_plus_dr,
      susy.partner_plus_d2r)
for k in (1e160, 1e300, 1e308):
    for r in (0.5, 1.0, 2.0):
        for l in (0, 7):
            print(k, r, l, *(repr(f(r, k, l)) for f in fs))
""", 0),
    # usage errors: a radius that is not finite and positive
    *(Probe(f"eval-rho-{rho}", ("eval", "W", "--kappa", "1", "--rho", rho), 2)
      for rho in ("nan", "inf", "0")),
    # usage errors: parameters that are not finite, or not exact as a kappa fraction
    Probe("U-w-nan", ("eval", "U", "--kappa", "1", "--w", "nan", "--rho", "1"), 2),
    Probe("Ueff-w-inf", ("eval", "Ueff", "--kappa", "1", "--w", "inf", "--l", "1",
                         "--rho", "1"), 2),
    Probe("family-lambda-nan", ("family", "--kappa", "1", "--rho", "2", "--lambda", "nan"), 2),
    *(Probe(f"kappa-{name}", ("eval", "U", "--kappa", kappa, "--w", "1", "--rho", "2"), 2)
      for name, kappa in (("nan", "nan"), ("inf", "inf"), ("overflow", "1e400"),
                          ("zero-denominator", "1/0"), ("huge-ratio", "1" + "0" * 400 + "/1"))),
    Probe("trace-kappa-zero-denominator", ("trace", "--kappa", "1/0", "--w", "3",
                                           "--rho", "0.5"), 2),
    *(Probe(f"trace-rho-{rho}", ("trace", "--kappa", "1", "--w", "3", "--rho", rho), 2)
      for rho in ("1e150", "1e-300")),
    *(Probe(f"quantize-kappa-{kappa}", ("quantize", "--kappa", kappa, "--N", "2"), 2)
      for kappa in ("1e200", "1e300")),
    Probe("eval-u-without-N", ("eval", "u", "--kappa", "1", "--rho", "1.5"), 2),
    # l = 0 profiles are not square integrable: a normalized value is a parameter error
    Probe("eval-u-normalized-s-wave", ("eval", "u", "--kappa", "1", "--N", "1", "--l", "0",
                                       "--rho", "1.5", "--normalized"), 2),
    # a tiny positive kappa is not read as zero: it fails as a computation
    Probe("critical-kappa-1e-300", ("critical", "--kappa", "1e-300"), 1),
    Probe("quantize-kappa-1e-300", ("quantize", "--kappa", "1e-300", "--N", "1"), 1),
    Probe("family-kappa-1e-300", ("family", "--kappa", "1e-300"), 1),
)


def run(probe: Probe, folder) -> "tuple[int, str, str]":
    """(exit code, stdout, stderr) of one probe run in process in folder.

    A warning (a RuntimeWarning among them) is raised as an error, argparse's
    SystemExit gives its code, and an exception that escapes is written to
    stderr as its traceback, with exit code 1, as the interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                if isinstance(probe.argv, str):
                    exec(compile(probe.argv, probe.name, "exec"), {"__name__": "__main__"})
                    code = 0
                else:
                    code = cli.main(list(probe.argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def main(out: str, reverse: bool = False) -> None:
    for probe in reversed(PROBES) if reverse else PROBES:
        folder = os.path.join(out, probe.name)
        os.makedirs(folder)
        code, stdout, stderr = run(probe, folder)
        for name, text in (("stdout", stdout), ("stderr", stderr), ("exit", f"{code}\n")):
            with open(os.path.join(folder, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[2:] not in ([], ["--reverse"]):
        sys.exit("usage: probes.py OUT [--reverse]")
    main(sys.argv[1], reverse=sys.argv[2:] == ["--reverse"])
