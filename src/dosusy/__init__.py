"""dosusy: zero-energy focusing potentials, their supersymmetric partners,
one-parameter Riccati solution families, and the numerical machinery that
verifies every closed form against an independent route.

The public surface groups into five layers:

- numkit: special functions and generic numerics (ultraspherical recurrence,
  adaptive quadrature, stencil derivatives, damped 2-D Newton);
- model: the potential family, coupling quantization, analytic bound-family
  wavefunctions, and quantum-number bookkeeping;
- susy: superpotential, both partner potentials with analytic derivatives,
  ladder operators, and the compact-coordinate reconstruction of the
  nodeless factor;
- family: general solutions of the first-order (Riccati-type) equations on
  both sides, the lambda-parameter families, and the printed-series audit;
- solver: independent oracles (radial shooting, pocket-threshold search,
  classical orbit tracing) plus the checks/cli verification front end.
"""

from .exceptions import (
    BracketError,
    ConvergenceError,
    GeometryError,
    NonNormalizableStateError,
    QuadratureError,
    SingularPointError,
)
from .numkit import (
    DEFAULT_PROFILE,
    ToleranceProfile,
    derivative,
    fornberg_weights,
    gegenbauer_eval,
    grid_derivative,
    integrate_adaptive,
    newton2d,
)
from .model import (
    SampledFunction,
    StateLabel,
    coupling_quantized,
    default_grid,
    effective_potential_general,
    enumerate_shell,
    f_factor,
    is_normalizable,
    make_state,
    map_coordinates,
    normalization_constant,
    parse_kappa,
    potential,
    radial_u,
    state_quantum_numbers,
)
from .susy import (
    apply_ladder,
    natanzon_f_reconstruction,
    partner_minus,
    partner_minus_closed,
    partner_plus,
    partner_plus_closed,
    partner_plus_d2r,
    partner_plus_dr,
    superpotential,
    superpotential_dr,
)
from .family import (
    AUDIT_MATCH_TOL,
    FORMULA_IDS,
    SeriesAuditRecord,
    family_on_grid,
    family_superpotential,
    printed_series_eval,
    series_audit,
    v_family,
    v_zeros,
)
from .solver import (
    CriticalPoint,
    ShootingResult,
    Trajectory,
    classical_trajectory,
    classify_tail,
    critical_angular,
    critical_angular_all,
    integrate_radial,
    shoot_coupling,
    shoot_couplings,
    trajectory_path_on_angles,
)
from .checks import CheckResult, SUITE_NAMES, exit_code, report_json, run_suites

__version__ = "0.1.0"

__all__ = [
    "AUDIT_MATCH_TOL",
    "BracketError",
    "CheckResult",
    "ConvergenceError",
    "CriticalPoint",
    "DEFAULT_PROFILE",
    "FORMULA_IDS",
    "GeometryError",
    "NonNormalizableStateError",
    "QuadratureError",
    "SUITE_NAMES",
    "SampledFunction",
    "SeriesAuditRecord",
    "ShootingResult",
    "SingularPointError",
    "StateLabel",
    "ToleranceProfile",
    "Trajectory",
    "apply_ladder",
    "classical_trajectory",
    "classify_tail",
    "coupling_quantized",
    "critical_angular",
    "critical_angular_all",
    "default_grid",
    "derivative",
    "effective_potential_general",
    "enumerate_shell",
    "exit_code",
    "f_factor",
    "family_on_grid",
    "family_superpotential",
    "fornberg_weights",
    "gegenbauer_eval",
    "grid_derivative",
    "integrate_adaptive",
    "integrate_radial",
    "is_normalizable",
    "make_state",
    "map_coordinates",
    "natanzon_f_reconstruction",
    "newton2d",
    "normalization_constant",
    "parse_kappa",
    "partner_minus",
    "partner_minus_closed",
    "partner_plus",
    "partner_plus_closed",
    "partner_plus_d2r",
    "partner_plus_dr",
    "potential",
    "printed_series_eval",
    "radial_u",
    "report_json",
    "run_suites",
    "series_audit",
    "shoot_coupling",
    "shoot_couplings",
    "state_quantum_numbers",
    "superpotential",
    "superpotential_dr",
    "trajectory_path_on_angles",
    "v_family",
    "v_zeros",
]
