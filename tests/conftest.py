"""Shared fixtures: reference pressure laws and expensive solver runs."""

from __future__ import annotations

import numpy as np
import pytest

from shockdev import eos as eos_mod


@pytest.fixture(scope="session")
def rad():
    """Radiation law with closed forms."""
    return eos_mod.radiation()


@pytest.fixture(scope="session")
def rad_generic():
    """Radiation pressure law with every closed form stripped, so the

    chart (Gauss-Legendre integrals, Hermite interpolants and inverses) is
    exercised and can be compared against the closed forms of ``rad``.
    """
    return eos_mod.BarotropicEos(
        label="radiation-generic",
        pressure_fn=lambda r: np.asarray(r, dtype=float) / 3.0,
        dp_drho_fn=lambda r: (
            np.full_like(np.asarray(r, dtype=float), 1.0 / 3.0)
            if np.ndim(r)
            else 1.0 / 3.0
        ),
        rho_min=0.05,
        rho_max=20.0,
    )


@pytest.fixture(scope="session")
def p2():
    """Quadratic pressure law p = 0.1 rho^2."""
    return eos_mod.poly2(0.1)


def _nonlinear_table():
    rho = np.geomspace(0.05, 4.5, 400)
    return eos_mod.from_table(np.column_stack([rho, 0.1 * rho**2 + 0.05 * rho]), rho_ref=1.0)


@pytest.fixture(scope="session")
def make_table():
    """Factory of the nonlinear tabulated law p = 0.1 rho^2 + 0.05 rho on 400
    nodes (chart route); each call builds a fresh instance, with a fresh
    chart cache."""
    return _nonlinear_table


@pytest.fixture(scope="module")
def table(make_table):
    """The nonlinear tabulated law of ``make_table``, one instance per module."""
    return make_table()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


# ---------------------------------------------------------------------------
# Converged shock developments (expensive; shared across test modules)
# ---------------------------------------------------------------------------

CANON_EPS = 0.01


@pytest.fixture(scope="session")
def canon_cusp(rad):
    """Canonical cusp: fluid at rest, unit curvature scales, drifting edge."""
    from shockdev.state_ahead import CuspData

    return CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)


@pytest.fixture(scope="session")
def canon_model(rad, canon_cusp):
    from shockdev.state_ahead import synthesize_model

    return synthesize_model(canon_cusp, rad, eps=CANON_EPS)


def _solve(rad, model, cusp, **kw):
    from shockdev.free_boundary import run_shock_development

    kw.setdefault("eps", CANON_EPS)
    kw.setdefault("n", 64)
    return run_shock_development(rad, model, cusp, **kw)


@pytest.fixture(scope="session")
def canon_sol(rad, canon_model, canon_cusp):
    """Converged canonical run, n = 64, with full diagnostics."""
    return _solve(rad, canon_model, canon_cusp)


@pytest.fixture(scope="session")
def canon_sol_n32(rad, canon_model, canon_cusp):
    return _solve(rad, canon_model, canon_cusp, n=32)


@pytest.fixture(scope="session")
def canon_sol_n128(rad, canon_model, canon_cusp):
    return _solve(rad, canon_model, canon_cusp, n=128)


@pytest.fixture(scope="session")
def half_eps_sol(rad, canon_cusp):
    from shockdev.state_ahead import synthesize_model

    model = synthesize_model(canon_cusp, rad, eps=CANON_EPS / 2)
    return _solve(rad, model, canon_cusp, eps=CANON_EPS / 2)


@pytest.fixture(scope="session")
def moving_sol(rad):
    """Second configuration: fluid moving at the cusp (nonzero corner alpha)."""
    from shockdev.state_ahead import CuspData, synthesize_model

    cusp = CuspData.from_physics(rad, kappa=1.0, lam=1.0, alpha0=0.4, dbeta_dt0=0.3)
    model = synthesize_model(cusp, rad, eps=CANON_EPS)
    return _solve(rad, model, cusp)


@pytest.fixture(scope="session")
def perturbed_sol(rad, canon_model, canon_cusp):
    """Canonical run restarted from an off-fixed-point boundary seed."""
    from shockdev.fixed_bvp import BoundaryFunctions

    def seed(cusp, v):
        return BoundaryFunctions.seed(cusp, v).replace(y=-1.0 + 0.1 * v)

    return _solve(rad, canon_model, canon_cusp, seed_fn=seed)


@pytest.fixture(scope="session")
def canon_bundle(
    canon_model, canon_sol, canon_sol_n32, canon_sol_n128, half_eps_sol, perturbed_sol
):
    """The five canonical solves packaged for the diagnostics report."""
    from shockdev.report import SolutionBundle

    return SolutionBundle(
        canon_model,
        base=canon_sol,
        half_n=canon_sol_n32,
        double_n=canon_sol_n128,
        half_eps=half_eps_sol,
        perturbed=perturbed_sol,
    )


@pytest.fixture(scope="session")
def canon_report(canon_bundle):
    """Full diagnostics report for the canonical configuration."""
    from shockdev.config import SolverConfig
    from shockdev.report import full_report

    return full_report(SolverConfig.canonical(), bundle=canon_bundle)
