"""Error taxonomy for the shock development solver.

Every failure mode the library can diagnose maps to one exception type, and
each type to one mode, so that callers (and the command line driver) can
translate failures into exit codes without string matching.
"""

from __future__ import annotations


class ShockDevError(Exception):
    """Base class for all library errors."""


class OutOfRange(ShockDevError):
    """A thermodynamic quantity left the admissible range of the equation

    of state (density outside the declared interval, or squared sound speed
    outside (0, 1)).
    """


class NoRoot(ShockDevError):
    """A bracketed scalar solve found no sign change after the allowed

    bracket expansions.
    """


class NonConvergence(ShockDevError):
    """An iteration exceeded its budget without meeting its tolerance.

    Attributes:
        history: recorded per-sweep changes or ratios, for diagnostics.
        diverging: True when the recorded changes were growing.
    """

    def __init__(self, message: str, history=None, diverging: bool = False):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.diverging = diverging


class DegenerateJump(ShockDevError):
    """Jump quantities were requested for (nearly) coincident states, where

    the shock speed is an indeterminate 0/0.
    """


class SingularGamma(ShockDevError):
    """The boundary reflection ratio lost its sign: the shock speed reached

    or exceeded the behind characteristic speed away from the corner.
    """


class InconsistentCusp(ShockDevError):
    """Cusp data violate the structural requirements (non-positive curvature

    parameters, or a genuine-nonlinearity coefficient too small to define the
    ahead-state slope).
    """


class OutOfBox(ShockDevError):
    """A state-ahead model evaluation was requested outside its validity

    box, directly or by a march along the incoming characteristic.
    """


class ConfigError(ShockDevError):
    """A run configuration could not be parsed or is structurally invalid."""
