"""Tests for the free-boundary outer iteration and its corner calculus."""

import math

import numpy as np
import pytest

import shockdev.fitting as fitting
import shockdev.free_boundary as FBD
import shockdev.state_ahead as SA
from shockdev.errors import NonConvergence, ShockDevError, SingularGamma
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
        y = FBD.solve_identification(canon_model, v, f_hat, dh)
        assert np.max(np.abs(y + 1.0)) < 1e-10

    def test_cross_check_always_runs(self, canon_model, monkeypatch):
        # a raw radius path that disagrees with the factored one must be
        # caught on every call: the cross-check has no off switch
        v = np.linspace(0.0, EPS, 17)
        f_hat = np.full_like(v, 1.0 / 6.0)
        dh = _delta_hat_for(canon_model, v, f_hat, np.full_like(v, -1.0))
        evaluate = SA.StateAheadModel.eval

        def shifted(self, name, *args, **kwargs):
            out = evaluate(self, name, *args, **kwargs)
            return out + 1e-6 if name == "r" else out

        monkeypatch.setattr(SA.StateAheadModel, "eval", shifted)
        with pytest.raises(ShockDevError, match="identification residual paths disagree"):
            FBD.solve_identification(canon_model, v, f_hat, dh)


class TestOuterIteration:
    @staticmethod
    def _iterate(rad, model, cusp, eps, n, steps):
        ctx = FBD.SolverContext.build(rad, model, cusp, eps, n)
        bf = BoundaryFunctions.seed(cusp, ctx.grid.nodes)
        metrics = []
        for _ in range(steps):
            bf_next, _, _ = FBD.outer_iterate(bf, ctx)
            metrics.append(max(FBD.boundary_difference(bf_next, bf)))
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
        assert max(metric) < 10.0 * TOL_OUTER


def picard_outer(eos, model, cusp, eps, n, seed_fn=BoundaryFunctions.seed):
    """Plain Picard iteration of the outer map, the reference for the
    accelerated solve: x_{k+1} = G(x_k) until the raw residual is below
    the outer tolerance.  Returns (G(x_k), history)."""
    ctx = FBD.SolverContext.build(eos, model, cusp, eps, n, tol_outer=TOL_OUTER)
    bf = seed_fn(cusp, ctx.grid.nodes)
    history = []
    for _ in range(60):
        bf_next, _, _ = FBD.outer_iterate(bf, ctx)
        metric = FBD.boundary_difference(bf_next, bf)
        history.append(metric)
        bf = bf_next
        if max(metric) < TOL_OUTER:
            return bf, history
    raise NonConvergence("plain outer iteration did not converge")


def _displaced_seed(cusp, v):
    return BoundaryFunctions.seed(cusp, v).replace(y=-1.0 + 0.1 * v)


def _linear_outer_map(calls, kick_at=None):
    """An affine contraction in R^3 standing in for ``outer_iterate``.

    Every node k >= 1 maps (y, beta_hat_plus, V_hat) by the same 3 x 3
    matrix; V_hat[0] stays 0, so the iterates live in R^3.  ``calls``
    records (input, output) of each call; the call numbered ``kick_at``
    returns a displaced value, so its residual grows.
    """
    A = np.array([[0.5, 0.2, -0.1], [0.0, -0.4, 0.3], [0.1, 0.1, 0.6]])
    b = np.array([0.3, -0.2, 0.5])

    def step(bf, ctx):
        g = A @ np.stack([bf.y, bf.beta_hat_plus, bf.V_hat]) + b[:, None]
        g[2, 0] = 0.0
        if len(calls) == kick_at:
            g[:, 1:] += 1.0
        bf_next = bf.replace(y=g[0], beta_hat_plus=g[1], V_hat=g[2])
        calls.append((bf, bf_next))
        return bf_next, None, None

    return step, np.linalg.solve(np.eye(3) - A, b)


class TestAndersonAcceleration:
    @pytest.mark.parametrize(
        "eos_name, n, seed_fn",
        [
            ("rad", 16, BoundaryFunctions.seed),
            ("rad", 64, BoundaryFunctions.seed),
            ("p2", 16, BoundaryFunctions.seed),
            ("p2", 64, BoundaryFunctions.seed),
            ("rad", 64, _displaced_seed),
        ],
    )
    def test_matches_plain_picard(self, request, eos_name, n, seed_fn):
        eos = request.getfixturevalue(eos_name)
        cusp = SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        model = SA.synthesize_model(cusp, eos, eps=EPS)
        sol = FBD.run_shock_development(
            eos, model, cusp, eps=EPS, n=n, seed_fn=seed_fn, collect_diagnostics=False
        )
        ref, ref_history = picard_outer(eos, model, cusp, EPS, n, seed_fn)
        assert sol.retries == 0
        for name in ("y", "beta_hat_plus", "V_hat"):
            d = np.max(np.abs(getattr(sol.boundary, name) - getattr(ref, name)))
            assert d < 5.0 * TOL_OUTER, name
        # the first step is plain, so the contraction witness is untouched
        assert sol.outer_history[:2] == ref_history[:2]
        assert len(sol.outer_history) < len(ref_history)

    def test_canonical_step_count(self, canon_sol):
        assert len(canon_sol.outer_history) <= 11

    def test_linear_contraction_in_few_steps(self, rad, canon_model, canon_cusp, monkeypatch):
        calls = []
        step, fixed = _linear_outer_map(calls)
        monkeypatch.setattr(FBD, "outer_iterate", step)
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=2, collect_diagnostics=False
        )
        assert len(sol.outer_history) <= 5
        got = np.stack([sol.boundary.y, sol.boundary.beta_hat_plus, sol.boundary.V_hat])
        assert np.max(np.abs(got[:, 1:] - fixed[:, None])) < TOL_OUTER
        # every history entry is the raw map residual at the point evaluated
        assert len(calls) == len(sol.outer_history)
        for (x, gx), metric in zip(calls, sol.outer_history):
            assert metric == FBD.boundary_difference(gx, x)

    def test_growth_restarts_with_plain_step(self, rad, canon_model, canon_cusp, monkeypatch):
        calls = []
        step, fixed = _linear_outer_map(calls, kick_at=2)
        monkeypatch.setattr(FBD, "outer_iterate", step)
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=2, collect_diagnostics=False
        )
        m = [max(h) for h in sol.outer_history]
        assert m[1] < m[0] < m[2] and m[3] < m[2]
        # x_2 is mixed; after the growth at x_2 the next point is G(x_2) ...
        assert calls[2][0] is not calls[1][1]
        assert calls[3][0] is calls[2][1]
        # ... and mixing resumes once the window refills
        assert calls[4][0] is not calls[3][1]
        got = np.stack([sol.boundary.y, sol.boundary.beta_hat_plus, sol.boundary.V_hat])
        assert np.max(np.abs(got[:, 1:] - fixed[:, None])) < TOL_OUTER

    def _fail_at(self, monkeypatch, failing_calls):
        step = FBD.outer_iterate
        calls = []

        def flaky(bf, ctx):
            calls.append(bf)
            if len(calls) in failing_calls:
                raise SingularGamma("shock speed exceeds the behind outgoing speed")
            return step(bf, ctx)

        monkeypatch.setattr(FBD, "outer_iterate", flaky)
        return calls

    def test_failure_at_mixed_iterate_retries_plain(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        # calls 1 and 2 evaluate the seed and G(seed); call 3 is the first
        # mixed iterate, and the step is retried from the plain iterate
        calls = self._fail_at(monkeypatch, {3})
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16, collect_diagnostics=False
        )
        assert sol.retries == 0
        assert sol.eps == EPS
        assert len(calls) == len(sol.outer_history) + 1
        ref, _ = picard_outer(rad, canon_model, canon_cusp, EPS, 16)
        for name in ("y", "beta_hat_plus", "V_hat"):
            d = np.max(np.abs(getattr(sol.boundary, name) - getattr(ref, name)))
            assert d < 5.0 * TOL_OUTER, name

    def test_failure_at_plain_iterate_halves_domain(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        # the retry from the plain iterate fails too: the halved domain takes over
        self._fail_at(monkeypatch, {3, 4})
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16, collect_diagnostics=False
        )
        assert sol.retries == 1
        assert sol.eps == EPS / 2


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


def _rel_err(check):
    return abs(check.value - check.target) / abs(check.target)


def _abs_err(check):
    return abs(check.value - check.target)


class TestConvergedCanonicalRun:
    def test_budget(self, canon_sol):
        assert canon_sol.retries == 0
        assert canon_sol.eps == EPS
        assert canon_sol.diagnostics["outer_iterations"] <= 25
        assert canon_sol.diagnostics["attempted_eps"] == [EPS]

    def test_history_contracts_to_tolerance(self, canon_sol):
        m = [max(h) for h in canon_sol.outer_history]
        assert m[-1] < TOL_OUTER
        assert m[-1] < 1e-6 * m[0]
        for a, b in zip(m[1:], m[2:]):
            assert b < a

    def test_limit_fits(self, canon_sol):
        lim = canon_sol.diagnostics["limits"]
        assert all(entry.passed for entry in lim.values()), lim
        assert _rel_err(lim["f_hat0"]) < 2e-3
        assert _rel_err(lim["g_hat0"]) < 2e-3
        assert _abs_err(lim["y0"]) < 5e-3
        assert _rel_err(lim["beta_hat_plus0"]) < 5e-3
        assert _abs_err(lim["alpha_hat_plus0"]) < 1e-4
        assert _rel_err(lim["jump_cubic_ratio"]) < 1e-4
        assert lim["jump_cubic_ratio"].target == pytest.approx(-1.0 / 144.0)
        assert _rel_err(lim["jump_alpha_slope"]) < 5e-3
        assert lim["jump_alpha_slope"].target == pytest.approx(6.0)

    def test_geometry(self, canon_sol):
        geo = canon_sol.diagnostics["geometry"]
        assert all(entry.passed for entry in geo.values()), geo
        assert geo["rankine_hugoniot_rel"].value < 1e-12
        assert _rel_err(geo["margin_ahead_slope"]) < 0.02
        assert _rel_err(geo["margin_behind_slope"]) < 0.02
        assert _rel_err(geo["singular_lead_ratio"]) < 0.02

    def test_blowup_signature(self, canon_sol):
        blow = canon_sol.diagnostics["blowup"]
        assert blow["time_exponent"].passed
        assert blow["alpha_exponent"].passed
        assert blow["alpha_linear_coeff"].passed
        assert abs(blow["time_exponent"].value - 2.0) < 0.02

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
            assert all(e.passed for e in sol.diagnostics["limits"].values())
            assert all(e.passed for e in sol.diagnostics["geometry"].values())

    def test_residual_order_across_grids(self, canon_sol_n32, canon_sol, canon_sol_n128):
        r = [s.diagnostics["residuals"]["max"] for s in (canon_sol_n32, canon_sol, canon_sol_n128)]
        assert math.log2(r[0] / r[1]) >= 1.8
        assert math.log2(r[1] / r[2]) >= 1.8

    def test_half_domain(self, half_eps_sol):
        assert half_eps_sol.retries == 0
        assert all(e.passed for e in half_eps_sol.diagnostics["limits"].values())
        assert half_eps_sol.curve.y[-1] == pytest.approx(-1.005194, abs=5e-4)

    def test_outer_displacement_ratio_scales_with_domain(self, canon_sol, half_eps_sol):
        def first_ratio(sol):
            h = sol.outer_history
            return max(h[1]) / max(h[0])

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
        assert all(e.passed for e in lim.values()), lim
        entry = lim["alpha_hat_plus0"]
        assert entry.target != 0.0
        assert _rel_err(entry) < 0.01
        assert all(e.passed for e in moving_sol.diagnostics["geometry"].values())

    def test_retry_exhaustion_reports_attempts(self, rad, canon_model, canon_cusp):
        with pytest.raises(NonConvergence) as exc:
            FBD.run_shock_development(
                rad, canon_model, canon_cusp,
                eps=EPS, n=16, max_outer=2, max_retries=1,
            )
        assert "0.005" in str(exc.value)
        assert exc.value.history


class TestTabulatedEos:
    def test_tabulated_radiation_matches_closed_form(self, canon_sol_n32, tmp_path):
        """400 nodes of p = rho/3 on [0.05, 20], read through the chart,
        give the closed-form radiation curve: every shock.csv column within
        1e-9 at n = 32."""
        from shockdev.eos import from_table

        rho = np.geomspace(0.05, 20.0, 400)
        tab = from_table(np.column_stack([rho, rho / 3.0]), rho_ref=1.0)
        cusp = SA.CuspData.from_physics(tab, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        model = SA.synthesize_model(cusp, tab, eps=EPS)
        sol = FBD.run_shock_development(tab, model, cusp, eps=EPS, n=32)
        assert sol.retries == 0
        tables = []
        for name, s in (("table", sol), ("closed", canon_sol_n32)):
            path = tmp_path / f"{name}.csv"
            FBD.write_shock_csv(s.curve, path)
            tables.append(np.loadtxt(path, delimiter=",", skiprows=1))
        assert tables[0].shape == tables[1].shape
        assert np.max(np.abs(tables[0] - tables[1])) < 1e-9
