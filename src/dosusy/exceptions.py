"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["QuadratureError", "ConvergenceError", "NonNormalizableStateError",
           "SingularPointError", "GeometryError"]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class ConvergenceError(RuntimeError):
    """An iterative solver (Newton, shooting) did not converge."""


class NonNormalizableStateError(ValueError):
    """The requested bound-family state has a divergent norm integral."""


class SingularPointError(ValueError):
    """Evaluation requested at a singular locus (zero of the auxiliary V).

    The offending radius is carried in ``rho``.
    """

    def __init__(self, message: str, rho: float):
        super().__init__(message)
        self.rho = rho


class GeometryError(RuntimeError):
    """A classical trajectory left the region where the force law is usable.

    ``kind`` is ``"origin"`` or ``"escape"``; ``rho`` is the radius at which
    integration stopped.
    """

    def __init__(self, message: str, kind: str, rho: float):
        super().__init__(message)
        self.kind = kind
        self.rho = rho
