"""dosusy: zero-energy focusing potentials, their supersymmetric partners,
one-parameter Riccati solution families, and the numerical machinery that
verifies every closed form against an independent route.

The public surface groups into seven layers:

- numkit: special functions and generic numerics (ultraspherical recurrence,
  adaptive quadrature, stencil derivatives, damped 2-D Newton, bracketed root
  search, the DOP853 integrator with dense output);
- model: the potential family, coupling quantization, analytic bound-family
  wavefunctions, and quantum-number bookkeeping;
- susy: superpotential, both partner potentials with analytic derivatives,
  ladder operators, and the compact-coordinate reconstruction of the
  nodeless factor;
- family: general solutions of the first-order (Riccati-type) equations on
  both sides, the lambda-parameter families, and the printed-series audit;
- solver: independent oracles (radial shooting, pocket-threshold search,
  classical orbit tracing);
- checks: the verification suites, each closed form held against an
  independent route, and the canonical JSON report (loaded on first use);
- cli: the `dosusy` command line over the layers above.
"""

# Each layer's __all__ is its public surface; the package re-exports exactly
# those names, so a public name is listed once, in its own module.  checks, the
# verification layer, loads on first use (__getattr__), so its names are listed here.
from . import exceptions, family, model, numkit, solver, susy
from .exceptions import *  # noqa: F403
from .family import *  # noqa: F403
from .model import *  # noqa: F403
from .numkit import *  # noqa: F403
from .solver import *  # noqa: F403
from .susy import *  # noqa: F403

__version__ = "0.1.0"

_CHECKS_ALL = ("CheckResult", "SUITE_NAMES", "run_suites", "exit_code", "report_json")

__all__ = sorted({*_CHECKS_ALL, *exceptions.__all__, *family.__all__, *model.__all__,
                  *numkit.__all__, *solver.__all__, *susy.__all__})


def __getattr__(name: str):
    if name == "checks" or name in _CHECKS_ALL:   # "from . import checks" here would recurse
        from importlib import import_module
        checks = import_module(f"{__name__}.checks")
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
