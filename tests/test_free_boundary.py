"""Tests for the free-boundary outer iteration and its corner calculus."""

import math

import numpy as np
import pytest

import shockdev.fitting as fitting
import shockdev.free_boundary as FBD
import shockdev.state_ahead as SA
from shockdev.errors import NonConvergence
from shockdev.fixed_bvp import BoundaryFunctions, corner_beta_hat
from shockdev.jump import JumpPair, jump_J, jump_scale, shock_speed
from shockdev.state import RiemannPair

EPS = 0.01
ROOT3 = math.sqrt(3.0)
TOL_OUTER = 1e-10


@pytest.fixture(scope="module")
def canon_corner(canon_model, rad):
    return FBD.corner_expansion(canon_model, rad)


class TestCornerExpansion:
    # Frozen oracle: the scalar corner fixed point was solved independently
    # (three-sample evaluation of the exact jump maps, Richardson to zero)
    # in two separate implementations agreeing to 8 digits.
    FROZEN = {
        "y1": -0.3430768184,
        "fhat1": -0.0142948674,
        "ghat1": +0.1204006632,
        "deltahat1": +0.1286538087,
        "beta_hat_slope": -1.5042882335,
        "V_hat0": +1.7153841141,
        "W2": +1.5438457049,
    }

    def test_frozen_canonical_values(self, canon_corner):
        for name, value in self.FROZEN.items():
            assert getattr(canon_corner, name) == pytest.approx(
                value, abs=5e-7
            ), name

    def test_closure_relations(self, canon_corner, canon_cusp):
        c = canon_corner
        kap, lam = canon_cusp.kappa, canon_cusp.lam
        assert c.fhat1 == pytest.approx(lam * c.y1 / (24 * kap**2), abs=1e-12)
        assert c.deltahat1 == pytest.approx(lam * c.W2 / (12 * kap**2), abs=1e-12)
        assert c.ghat1 == pytest.approx(
            canon_cusp.c_plus0 * c.fhat1 + c.deltahat1, abs=1e-12
        )
        assert c.V_hat0 == pytest.approx(c.W2 - 0.5 * kap * c.y1, abs=1e-12)

    def test_fixed_point_collapses_to_speed_coefficient(self, canon_corner):
        # with unit curvature scales and no extra radius coefficients the
        # three closure relations compose to y1 = -2 W2 / 9
        assert canon_corner.y1 == pytest.approx(
            -2.0 * canon_corner.W2 / 9.0, abs=2e-8
        )

    def test_sample_independence(self, canon_model, rad, canon_corner):
        other = FBD.corner_expansion(
            canon_model, rad, sample_fractions=(0.3, 0.15, 0.075)
        )
        assert other.y1 == pytest.approx(canon_corner.y1, abs=1e-5)
        assert other.V_hat0 == pytest.approx(canon_corner.V_hat0, abs=1e-4)

    def test_moving_background(self, rad):
        cusp = SA.CuspData.from_physics(
            rad, kappa=1.0, lam=1.0, alpha0=0.4, dbeta_dt0=0.3
        )
        model = SA.synthesize_model(cusp, rad, eps=EPS)
        c = FBD.corner_expansion(model, rad)
        assert np.isfinite([c.y1, c.W2, c.V_hat0, c.beta_hat_slope]).all()
        assert c.y1 != pytest.approx(self.FROZEN["y1"], abs=1e-3)
        assert c.V_hat0 == pytest.approx(c.W2 - 0.5 * cusp.kappa * c.y1, abs=1e-12)


def _delta_hat_for(model, v, f_hat, y):
    """Hatted radius tail evaluated exactly on a manufactured (f_hat, y)."""
    dh = np.zeros_like(v)
    for (ti, wj), c in model.coeffs["r"].items():
        if (ti, wj) in ((0, 0), (1, 0)) or c == 0.0:
            continue
        dh += c * f_hat**ti * v ** (2 * ti + wj - 3) * y**wj
    return dh


class TestIdentification:
    def test_corner_node_exact(self, canon_model):
        v = np.array([0.0, 0.5 * EPS, EPS])
        fh = np.full(3, 1.0 / 6.0)
        y = FBD.solve_identification(
            canon_model, v, fh, _delta_hat_for(canon_model, v, fh, np.full(3, -1.0))
        )
        assert y[0] == -1.0

    def test_manufactured_recovery(self, canon_model):
        v = np.linspace(0.0, EPS, 65)
        f_hat = 1.0 / 6.0 - 0.0143 * v
        y_true = -1.0 + 0.37 * v - 5.0 * v**2
        dh = _delta_hat_for(canon_model, v, f_hat, y_true)
        y = FBD.solve_identification(canon_model, v, f_hat, dh)
        assert np.max(np.abs(y - y_true)) < 1e-10

    def test_seeded_solve_matches_continuation(self, canon_model):
        v = np.linspace(0.0, EPS, 33)
        f_hat = np.full_like(v, 1.0 / 6.0)
        y_true = -1.0 - 0.34 * v
        dh = _delta_hat_for(canon_model, v, f_hat, y_true)
        plain = FBD.solve_identification(canon_model, v, f_hat, dh)
        seeded = FBD.solve_identification(
            canon_model, v, f_hat, dh, y_seed=y_true + 0.05
        )
        assert np.max(np.abs(plain - seeded)) < 1e-10

    def test_limit_cubic_against_companion_roots(self, canon_model, canon_cusp):
        # at v -> 0 the factored residual is the cubic
        #   dh - kap * f_hat * y + (lam / 6 kap) * y^3
        # whose physical root the solver must select; compare against the
        # companion-matrix roots of the same polynomial
        kap, lam = canon_cusp.kappa, canon_cusp.lam
        fh0 = lam / (6 * kap**2)
        dh0 = 0.01
        v = np.array([0.0, 1e-8])
        y = FBD.solve_identification(
            canon_model, v, np.full(2, fh0), np.full(2, dh0)
        )
        roots = np.roots([lam / (6 * kap), 0.0, -kap * fh0, dh0])
        roots = np.real(roots[np.isreal(roots)])
        target = roots[np.argmin(np.abs(roots + 1.0))]
        assert y[1] == pytest.approx(target, abs=1e-7)

    def test_cross_check_accepts_consistent_data(self, canon_model):
        v = np.linspace(0.0, EPS, 17)
        f_hat = np.full_like(v, 1.0 / 6.0)
        dh = _delta_hat_for(canon_model, v, f_hat, np.full_like(v, -1.0))
        y = FBD.solve_identification(canon_model, v, f_hat, dh, cross_check=True)
        assert np.max(np.abs(y + 1.0)) < 1e-10


class TestOuterIteration:
    @staticmethod
    def _iterate(rad, model, cusp, eps, n, steps):
        ctx = FBD.SolverContext.build(rad, model, cusp, eps, n)
        bf = BoundaryFunctions.seed(cusp, ctx.grid.nodes)
        metrics = []
        for _ in range(steps):
            bf_next, _, _ = FBD.outer_iterate(bf, ctx)
            metrics.append(max(FBD.boundary_difference(bf_next, bf)[:3]))
            bf = bf_next
        return metrics

    def test_contraction_at_canonical_domain(self, rad, canon_model, canon_cusp):
        m = self._iterate(rad, canon_model, canon_cusp, EPS, 32, 6)
        assert m[1] / m[0] < 0.05
        for a, b in zip(m[1:], m[2:]):
            assert b < a

    def test_halved_domain_contracts_faster(self, rad, canon_cusp, canon_model):
        model_h = SA.synthesize_model(canon_cusp, rad, eps=EPS / 2)
        m_full = self._iterate(rad, canon_model, canon_cusp, EPS, 32, 2)
        m_half = self._iterate(rad, model_h, canon_cusp, EPS / 2, 32, 2)
        assert m_half[1] / m_half[0] < m_full[1] / m_full[0]

    def test_idempotence_at_fixed_point(self, rad, canon_model, canon_cusp, canon_sol):
        ctx = FBD.SolverContext.build(rad, canon_model, canon_cusp, canon_sol.eps, canon_sol.n)
        bf_next, _, _ = FBD.outer_iterate(canon_sol.boundary, ctx)
        metric = FBD.boundary_difference(bf_next, canon_sol.boundary)
        assert max(metric[:3]) < 10.0 * TOL_OUTER


class TestJumpUpdate:
    @pytest.fixture(scope="class")
    def sol_n16(self, rad, canon_model, canon_cusp):
        return FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16, collect_diagnostics=False
        )

    def test_batched_update_matches_per_node_jump(self, sol_n16, canon_model, rad):
        curve = sol_n16.curve
        beta_plus, V, alpha_minus, beta_minus = FBD.jump_update(
            sol_n16.fields, canon_model, rad, curve.v * curve.y
        )
        assert beta_plus[0] == canon_model.cusp.beta0
        assert V[0] == canon_model.cusp.c_plus0
        for k in range(1, len(curve.v)):
            ahead = RiemannPair(float(alpha_minus[k]), float(beta_minus[k]))
            jp = JumpPair(ahead, RiemannPair(float(curve.alpha_plus[k]), float(beta_plus[k])))
            assert abs(jump_J(rad, jp)) / jump_scale(rad, ahead) < 1e-10
            assert abs(V[k] - shock_speed(rad, jp)) <= 1e-14

    def test_jump_nonconvergence_retries_on_halved_domain(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        solve = FBD.solve_jump_beta
        failed = []

        def fails_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise NonConvergence("jump solve exhausted its iteration budget")
            return solve(*args, **kwargs)

        monkeypatch.setattr(FBD, "solve_jump_beta", fails_once)
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16, collect_diagnostics=False
        )
        assert failed
        assert sol.retries == 1
        assert sol.eps == EPS / 2


class TestConvergedCanonicalRun:
    def test_budget(self, canon_sol):
        assert canon_sol.retries == 0
        assert canon_sol.eps == EPS
        assert canon_sol.diagnostics["outer_iterations"] <= 25
        assert canon_sol.diagnostics["attempted_eps"] == [EPS]

    def test_history_contracts_to_tolerance(self, canon_sol):
        m = [max(h[:3]) for h in canon_sol.outer_history]
        assert m[-1] < TOL_OUTER
        assert m[-1] < 1e-6 * m[0]
        for a, b in zip(m[1:], m[2:]):
            assert b < a

    def test_limit_fits(self, canon_sol):
        lim = canon_sol.diagnostics["limits"]
        assert all(entry["pass"] for entry in lim.values()), lim
        assert lim["f_hat0"]["rel_err"] < 2e-3
        assert lim["g_hat0"]["rel_err"] < 2e-3
        assert lim["y0"]["abs_err"] < 5e-3
        assert lim["beta_hat_plus0"]["rel_err"] < 5e-3
        assert lim["alpha_hat_plus0"]["abs_err"] < 1e-4
        assert lim["jump_cubic_ratio"]["rel_err"] < 1e-4
        assert lim["jump_cubic_ratio"]["target"] == pytest.approx(-1.0 / 144.0)
        assert lim["jump_alpha_slope"]["rel_err"] < 5e-3
        assert lim["jump_alpha_slope"]["target"] == pytest.approx(6.0)

    def test_geometry(self, canon_sol):
        geo = canon_sol.diagnostics["geometry"]
        assert all(entry["pass"] for entry in geo.values()), geo
        assert geo["rankine_hugoniot_rel"]["value"] < 1e-12
        assert geo["margin_ahead_slope"]["rel_err"] < 0.02
        assert geo["margin_behind_slope"]["rel_err"] < 0.02
        assert geo["singular_lead_ratio"]["rel_err"] < 0.02

    def test_blowup_signature(self, canon_sol):
        blow = canon_sol.diagnostics["blowup"]
        assert blow["time_exponent"]["pass"]
        assert blow["alpha_exponent"]["pass"]
        assert blow["alpha_linear_coeff"]["pass"]
        assert abs(blow["time_exponent"]["fitted"] - 2.0) < 0.02

    def test_residuals_small(self, canon_sol):
        res = canon_sol.diagnostics["residuals"]
        assert res["max"] < 5e-7

    def test_edge_slope_parameter(self, canon_sol):
        y = canon_sol.curve.y
        v = canon_sol.curve.v
        assert abs(y[-1] + 1.0) <= 1.5 * EPS
        assert y[-1] == pytest.approx(-1.010464, abs=5e-4)
        assert np.all((y >= -1.2) & (y <= -0.95))
        # the curve leaves the corner below -1: the first-order coefficient
        # is negative, so no node past the trust region sits above -1
        kt = canon_sol.curve.trust_index
        assert np.all(y[kt:] < -1.0 + 0.5 * v[kt:])

    def test_corner_values_on_curve(self, canon_sol):
        curve = canon_sol.curve
        corner = canon_sol.corner
        delta = curve.v[1] - curve.v[0]
        assert curve.V_hat[0] == corner.V_hat0
        assert abs(curve.delta_hat[0]) < 10.0 * delta
        assert curve.f_hat[0] == pytest.approx(1.0 / 6.0)
        assert curve.g_hat[0] == pytest.approx(1.0 / (6.0 * ROOT3))
        assert curve.trust_index == 8
        assert curve.speed_trust_index == 29

    def test_jump_balance_everywhere(self, canon_sol, rad):
        curve = canon_sol.curve
        for k in (1, 5, 17, 40, 64):
            ahead = RiemannPair(curve.alpha_minus[k], curve.beta_minus[k])
            behind = RiemannPair(curve.alpha_plus[k], curve.beta_plus[k])
            rel = abs(jump_J(rad, JumpPair(ahead, behind))) / jump_scale(rad, ahead)
            assert rel < 1e-12

    def test_csv_round_trip(self, canon_sol, tmp_path):
        path = tmp_path / "shock.csv"
        FBD.write_shock_csv(canon_sol.curve, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == [
            "v", "f", "g", "V", "y", "alpha_plus", "beta_plus",
            "f_hat", "g_hat", "delta_hat", "V_hat",
        ]
        data = np.genfromtxt(path, delimiter=",", names=True)
        for name in header:
            np.testing.assert_array_equal(
                data[name], getattr(canon_sol.curve, name), err_msg=name
            )


class TestRefinementAndRobustness:
    def test_grid_refinement_second_order(self, canon_sol_n32, canon_sol, canon_sol_n128):
        for name, gate in (("f", 1.8), ("g", 1.8), ("y", 1.5), ("V", 1.5)):
            c32 = getattr(canon_sol_n32.curve, name)
            c64 = getattr(canon_sol.curve, name)
            c128 = getattr(canon_sol_n128.curve, name)
            d1 = np.max(np.abs(c32 - c64[::2]))
            d2 = np.max(np.abs(c64 - c128[::2]))
            order = math.log2(d1 / d2)
            assert order >= gate, (name, order)

    def test_all_grids_converge(self, canon_sol_n32, canon_sol_n128):
        for sol in (canon_sol_n32, canon_sol_n128):
            assert sol.retries == 0
            assert all(e["pass"] for e in sol.diagnostics["limits"].values())
            assert all(e["pass"] for e in sol.diagnostics["geometry"].values())

    def test_residual_order_across_grids(self, canon_sol_n32, canon_sol, canon_sol_n128):
        r = [s.diagnostics["residuals"]["max"] for s in (canon_sol_n32, canon_sol, canon_sol_n128)]
        assert math.log2(r[0] / r[1]) >= 1.8
        assert math.log2(r[1] / r[2]) >= 1.8

    def test_half_domain(self, half_eps_sol):
        assert half_eps_sol.retries == 0
        assert all(e["pass"] for e in half_eps_sol.diagnostics["limits"].values())
        assert half_eps_sol.curve.y[-1] == pytest.approx(-1.005194, abs=5e-4)

    def test_outer_displacement_ratio_scales_with_domain(self, canon_sol, half_eps_sol):
        def first_ratio(sol):
            h = sol.outer_history
            return max(h[1][:3]) / max(h[0][:3])

        r_full = first_ratio(canon_sol)
        r_half = first_ratio(half_eps_sol)
        assert r_full < 1.0
        assert r_half < r_full

    def test_inner_ratio_scales_with_domain(self, canon_sol, half_eps_sol):
        def first_ratio(sol):
            ch = sol.fields.changes
            return ch[1] / ch[0]

        assert first_ratio(canon_sol) < 1.0
        assert first_ratio(half_eps_sol) < first_ratio(canon_sol)

    def test_uniqueness_witness(self, canon_sol, perturbed_sol):
        for name in ("y", "beta_hat_plus", "V_hat"):
            d = np.max(
                np.abs(getattr(perturbed_sol.curve, name) - getattr(canon_sol.curve, name))
            )
            assert d < 5.0 * TOL_OUTER, name
        assert np.max(np.abs(perturbed_sol.curve.f - canon_sol.curve.f)) < 1e-12

    def test_moving_background_limits(self, moving_sol):
        assert moving_sol.retries == 0
        lim = moving_sol.diagnostics["limits"]
        assert all(e["pass"] for e in lim.values()), lim
        entry = lim["alpha_hat_plus0"]
        assert entry["target"] != 0.0
        assert entry["rel_err"] < 0.01
        assert all(e["pass"] for e in moving_sol.diagnostics["geometry"].values())

    def test_retry_exhaustion_reports_attempts(self, rad, canon_model, canon_cusp):
        with pytest.raises(NonConvergence) as exc:
            FBD.run_shock_development(
                rad, canon_model, canon_cusp,
                eps=EPS, n=16, max_outer=2, max_retries=1,
            )
        assert "0.005" in str(exc.value)
        assert exc.value.history
