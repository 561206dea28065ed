"""Acceptance gate: one test (one pass/fail line) per required property.

Every criterion is evaluated on the canonical configuration — radiation
law, fluid at rest at the cusp, unit curvature scales, r0 = 1,
eps = 0.01, n = 64 — through the diagnostics report built from the
session-scoped solver runs, plus one moving-background run where a
criterion requires a second configuration.  Each test asserts the
criterion at its stated tolerance directly from the measured numbers,
not merely that the report's own verdict was positive.
"""

from __future__ import annotations

import math

import pytest

from shockdev.config import SolverConfig


def _check(report, name):
    entry = next(c for c in report["checks"] if c["name"] == name)
    assert entry["pass"], f"{name} failed: measured={entry['measured']} detail={entry['detail']}"
    return entry


def test_criterion_01_thermo_identities(canon_report):
    """Pressure-law chain identities at 1e-4; radiation closed forms at 1e-8."""
    detail = _check(canon_report, "eos_thermo_identities")["detail"]
    assert detail["fd_max_rel_defect"] <= 1e-4
    assert detail["radiation_eta2_rel_defect"] <= 1e-8
    assert detail["radiation_G_over_H_rel_defect"] <= 1e-8


def test_criterion_02_jump_degeneracy_structure(canon_report):
    """First three behind-derivatives of the jump polynomial vanish at
    coincidence; the mixed second derivative and the fourth derivative
    take their closed-form values."""
    detail = _check(canon_report, "jump_coincidence_structure")["detail"]
    for state in detail["states"]:
        r = state["ratios"]
        # thresholds: 1e-6*scale absolute on d1..d3; 1e-4 / 1e-3 relative
        assert max(r["d1"], r["d2"], r["d3"]) <= 1.0
        assert r["mixed"] <= 1.0
        assert r["d4"] <= 1.0
    assert len(detail["states"]) == 3


def test_criterion_03_cubic_jump_law(canon_report):
    """[incoming]/[outgoing]^3 tends to the nonlinearity coefficient
    (-1/144 for the canonical state) within 10%."""
    entry = _check(canon_report, "jump_cubic_law")
    detail = entry["detail"]
    assert detail["target_coefficient"] == pytest.approx(-1.0 / 144.0, abs=1e-12)
    rel = abs(detail["refined"] - detail["target_coefficient"]) / (1.0 / 144.0)
    assert rel <= 0.10


def test_criterion_04_inner_solver_asymptotics(canon_report):
    """|dt/dv - (lam/3 kappa^2) v| <= C u v with C finite and stable under
    n-doubling; the curve slope df/dv/v tends to 1/3 within 2%."""
    detail = _check(canon_report, "inner_time_asymptotics")["detail"]
    c1 = detail["mixed_bound_constant"]["base"]
    c2 = detail["mixed_bound_constant"]["doubled_n"]
    assert math.isfinite(c1) and math.isfinite(c2)
    assert c2 <= 1.5 * c1
    fit = detail["df_dv_over_v"]
    assert fit.target == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert abs(fit.value - fit.target) / fit.target <= 0.02


def test_criterion_05_outer_corner_limits(canon_report, moving_sol):
    """Fitted corner limits: f_hat -> 1/6 (5%), g_hat -> c+/6 (5%),
    y -> -1 (0.02), beta_hat+ -> drift/6 (10%); alpha_hat+ vanishes at the
    canonical at-rest cusp and hits its analytic value on a moving
    background (10%)."""
    detail = _check(canon_report, "outer_corner_limits")["detail"]
    c_plus0 = 3.0**-0.5
    alpha_dot0 = 3.0

    fh = detail["f_hat0"]
    assert abs(fh.value - 1.0 / 6.0) <= 0.05 / 6.0
    gh = detail["g_hat0"]
    assert gh.target == pytest.approx(c_plus0 / 6.0, rel=1e-13)
    assert abs(gh.value - gh.target) <= 0.05 * gh.target
    y0 = detail["y0"]
    assert abs(y0.value - (-1.0)) <= 0.02
    bh = detail["beta_hat_plus0"]
    assert bh.target == pytest.approx(0.3 / 6.0, rel=1e-13)
    assert abs(bh.value - bh.target) <= 0.10 * bh.target
    ah = detail["alpha_hat_plus0"]
    assert abs(ah.value) <= 0.02 * alpha_dot0

    moving = moving_sol.diagnostics["limits"]["alpha_hat_plus0"]
    assert moving.target != 0.0
    assert abs(moving.value - moving.target) <= 0.10 * abs(moving.target)


def test_criterion_06_shock_geometry(canon_report):
    """The shock stays past the singular boundary with lead ratio 1/3
    (10%); determinism margins are positive with slopes kappa (15%); the
    entropy condition holds at every node."""
    detail = _check(canon_report, "shock_geometry")["detail"]
    assert detail["past_singular_boundary"].passed
    lead = detail["singular_lead_ratio"]
    assert abs(lead.value - 1.0 / 3.0) <= 0.10 / 3.0
    assert detail["positive_margins"].passed
    assert detail["entropy_condition"].value == 0.0
    kappa = 1.0
    for side in ("margin_ahead_slope", "margin_behind_slope"):
        slope = detail[side]
        assert abs(slope.value - kappa) <= 0.15 * kappa


def test_criterion_07_jump_residuals_on_shock(canon_report):
    """Jump polynomial balances below 1e-10 of its scale at every node;
    tangency defect below 5 grid-steps squared."""
    detail = _check(canon_report, "jump_residuals_on_shock")["detail"]
    assert detail["rankine_hugoniot_rel"].value <= 1e-10
    tan = detail["tangency_max"]
    delta = 0.01 / 64
    assert tan.tolerance == pytest.approx(5.0 * delta**2, rel=1e-13)
    assert tan.value <= tan.tolerance


def test_criterion_08_grid_convergence(canon_report):
    """Characteristic residuals converge with observed order >= 1.8 over
    n in {32, 64, 128}; the curve functions f, g change at second order."""
    detail = _check(canon_report, "grid_convergence")["detail"]
    assert detail["n"] == 64 and detail["grid_adequate"]
    assert min(detail["residual_orders"]) >= 1.8
    assert detail["curve_orders"]["f"]["order"] >= 1.8
    assert detail["curve_orders"]["g"]["order"] >= 1.8


def test_criterion_09_convergence_structure(canon_report):
    """Inner and outer contraction ratios below one, decreasing when the
    domain halves; a perturbed start reconverges within 5 tol_outer."""
    detail = _check(canon_report, "convergence_structure")["detail"]
    outer = detail["outer_displacement_ratio"]
    inner = detail["inner_sweep_ratio"]
    assert outer["base"] < 1.0 and inner["base"] < 1.0
    assert outer["half_eps"] < outer["base"]
    assert inner["half_eps"] < inner["base"]
    uniq = detail["uniqueness_witness"]
    assert uniq["bound"] == pytest.approx(5.0 * SolverConfig.canonical().tol_outer)
    assert uniq["max_difference"] <= uniq["bound"]


def test_criterion_10_blowup_signature(canon_report):
    """Along three interior rows the time and outgoing-invariant offsets
    from the data edge fit exponent 2.0 +- 0.1 with no linear term above
    1e-3 of the quadratic scale."""
    detail = _check(canon_report, "blowup_signature")["detail"]
    assert len(detail["rows"]) == 3
    for row, fit in detail["rows"].items():
        assert abs(fit["time_exponent"].value - 2.0) <= 0.1, row
        assert abs(fit["alpha_exponent"].value - 2.0) <= 0.1, row
        lin = fit["alpha_linear_coeff"]
        assert abs(lin.value) <= lin.tolerance, row
