"""Numerical construction of shock development for a barotropic
relativistic fluid in spherical symmetry.

The package builds, from a cusp-regular pre-shock state, the maximal
development's shock: a free-boundary problem in characteristic
coordinates solved by a nested fixed-point iteration, together with the
jump conditions, the asymptotic corner expansion, and a battery of
verifiable structure checks.
"""

from __future__ import annotations

from .config import SolverConfig, build_problem, load_config
from .eos import BarotropicEos, from_table, poly2, radiation
from .errors import (
    ConfigError,
    DegenerateJump,
    InconsistentCusp,
    LeftBox,
    NonConvergence,
    NoRoot,
    OutOfBox,
    OutOfRange,
    ShockDevError,
    SingularGamma,
)
from .fixed_bvp import BoundaryFunctions, TriGrid, solve_fixed_bvp, write_grid_csv
from .free_boundary import (
    CornerExpansion,
    ShockCurve,
    ShockSolution,
    SubCheck,
    blowup_fits,
    corner_expansion,
    curve_asymptotics,
    geometry_checks,
    run_shock_development,
    write_shock_csv,
)
from .jump import (
    JumpPair,
    coincidence_structure,
    cubic_coefficient,
    shock_speed,
    solve_jump_beta,
)
from .report import (
    SolutionBundle,
    compute_bundle,
    full_report,
    verify_report,
    write_report,
)
from .state import RiemannPair, char_speeds, velocity
from .state_ahead import CuspData, StateAheadModel, initial_data, synthesize_model

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration
    "SolverConfig",
    "load_config",
    "build_problem",
    # equations of state
    "BarotropicEos",
    "radiation",
    "poly2",
    "from_table",
    # states and characteristics
    "RiemannPair",
    "char_speeds",
    "velocity",
    # pre-shock state
    "CuspData",
    "StateAheadModel",
    "synthesize_model",
    "initial_data",
    # jump conditions
    "JumpPair",
    "solve_jump_beta",
    "shock_speed",
    "coincidence_structure",
    "cubic_coefficient",
    # interior solve
    "TriGrid",
    "BoundaryFunctions",
    "solve_fixed_bvp",
    "write_grid_csv",
    # free boundary
    "run_shock_development",
    "ShockSolution",
    "ShockCurve",
    "CornerExpansion",
    "SubCheck",
    "corner_expansion",
    "curve_asymptotics",
    "geometry_checks",
    "blowup_fits",
    "write_shock_csv",
    # reporting
    "SolutionBundle",
    "compute_bundle",
    "full_report",
    "verify_report",
    "write_report",
    # errors
    "ShockDevError",
    "OutOfRange",
    "NoRoot",
    "NonConvergence",
    "DegenerateJump",
    "SingularGamma",
    "InconsistentCusp",
    "OutOfBox",
    "LeftBox",
    "ConfigError",
]
