"""Tests for the free-boundary outer iteration and its corner calculus."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import shockdev.fitting as fitting
import shockdev.fixed_bvp as FB
import shockdev.free_boundary as FBD
import shockdev.state_ahead as SA
from shockdev.errors import NonConvergence, ShockDevError, SingularGamma
from shockdev.fixed_bvp import BoundaryFunctions
from shockdev.jump import JumpPair, jump_J, jump_scale, shock_speed, solve_jump_beta
from shockdev.state import RiemannPair
from test_fixed_bvp import assert_near_polished, polished_fixed_bvp

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

    def test_sample_independence(self, canon_model, rad, canon_corner, monkeypatch):
        monkeypatch.setattr(FBD, "_CORNER_FRACTIONS", (0.3, 0.15, 0.075))
        other = FBD.corner_expansion(canon_model, rad)
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

    @pytest.mark.parametrize(
        "eos_name, physics",
        [("rad", {}), ("p2", {}), ("rad", {"alpha0": 0.4})],
        ids=["radiation", "poly2", "alpha0_0.4"],
    )
    def test_fixed_point_in_few_jump_samplings(self, request, eos_name, physics, monkeypatch):
        # with the linear part of the closure solved exactly, the first step
        # from y1 = 0 lands within ~1e-8 of the fixed point: at most three
        # iterations plus the final sampling
        eos = request.getfixturevalue(eos_name)
        cusp = SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3, **physics)
        model = SA.synthesize_model(cusp, eos, eps=EPS)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_jump_beta(*args, **kwargs)

        monkeypatch.setattr(FBD, "solve_jump_beta", counting)
        c = FBD.corner_expansion(model, eos)
        assert 2 <= len(calls) <= 4
        # the closure holds at the returned y1 (no radius terms enter here)
        assert c.y1 == pytest.approx(-c.V_hat0 / (5.0 * cusp.kappa), abs=2e-8)


def _delta_hat_for(model, v, f_hat, y):
    """Hatted radius tail evaluated exactly on a manufactured (f_hat, y)."""
    dh = np.zeros_like(v)
    for (ti, wj), c in model.coeffs["r"].items():
        if (ti, wj) in ((0, 0), (1, 0)) or c == 0.0:
            continue
        dh += c * f_hat**ti * v ** (2 * ti + wj - 3) * y**wj
    return dh


def continuation_identification(model, v, f_hat, delta_hat):
    """The per-node identification loop, the oracle for the lane solve.

    Nodes are solved in increasing v, each seeding the next, by safeguarded
    Newton on [guess - 0.5, guess + 0.5] with the factored residual summed
    term by term in scalars.  Each node is a one-lane call, which takes the
    steps of a scalar solve (tests/test_fitting.py).
    """
    cusp = model.cusp
    terms = model.radius_terms

    def fdf(k, ys):
        # scalar arithmetic per entry, over any leading axes of the lane
        res, slope = np.empty(np.shape(ys)), np.empty(np.shape(ys))
        for i, y in np.ndenumerate(ys):
            y = float(y)
            res[i], slope[i] = delta_hat[k], 0.0
            for c, ti, wj, e in terms:
                res[i] -= c * f_hat[k] ** ti * v[k] ** e * y**wj
                if wj:
                    slope[i] -= c * f_hat[k] ** ti * v[k] ** e * wj * y ** (wj - 1)
        return res, slope

    out = [-1.0]
    for k in range(1, len(v)):
        guess = out[-1]
        root = fitting.safeguarded_newton_lanes(
            lambda y, k=k: fdf(k, y),
            [guess],
            [guess - 0.5],
            [guess + 0.5],
            f_tol=1e-13 * cusp.lam / cusp.kappa,
        )
        out.append(float(root[0]))
    return np.array(out)


class TestIdentification:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize(
        "overrides", [None, {"r": {(2, 0): 0.3}}, {"r": {(1, 2): -0.2}}], ids=["none", "r20", "r12"]
    )
    def test_lane_solve_matches_continuation(self, rad, canon_cusp, n, overrides):
        model = SA.synthesize_model(canon_cusp, rad, eps=EPS, overrides=overrides)
        v = np.linspace(0.0, EPS, n + 1)
        f_hat = 1.0 / 6.0 - 0.0143 * v
        y_true = -1.0 + 0.37 * v - 5.0 * v**2
        dh = _delta_hat_for(model, v, f_hat, y_true) + 0.02 * v / EPS
        y = FBD.solve_identification(model, v, f_hat, dh)
        oracle = continuation_identification(model, v, f_hat, dh)
        assert y[0] == -1.0
        assert np.max(np.abs(y - oracle)) <= 1e-15
        assert np.max(np.abs(y - y_true)) > 1e-6  # the shifted data moved the roots

    def test_one_lane_newton_call(self, canon_model, monkeypatch):
        calls = []
        lanes = fitting.safeguarded_newton_lanes

        def counting(fdf, x0, *args, **kwargs):
            calls.append(np.size(x0))
            return lanes(fdf, x0, *args, **kwargs)

        monkeypatch.setattr(fitting, "safeguarded_newton_lanes", counting)
        v = np.linspace(0.0, EPS, 65)
        f_hat = np.full_like(v, 1.0 / 6.0)
        dh = _delta_hat_for(canon_model, v, f_hat, -1.0 + 0.3 * v)
        FBD.solve_identification(canon_model, v, f_hat, dh)
        assert calls == [64]

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
        ctx = FBD.SolverContext.build(model, eps, n)
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

    @pytest.mark.parametrize("n, kt", [(3, 1), (8, 4), (64, 8), (256, 32)])
    def test_trust_index_rule(self, rad, canon_model, canon_cusp, n, kt):
        # max(4, n // 8), capped at n // 2
        ctx = FBD.SolverContext.build(canon_model, EPS, n)
        assert ctx.trust_index == kt
        assert kt <= ctx.speed_trust_index <= n // 2

    def test_idempotence_at_fixed_point(self, canon_sol):
        bf_next, _, _ = FBD.outer_iterate(canon_sol.boundary, canon_sol.context)
        metric = FBD.boundary_difference(bf_next, canon_sol.boundary)
        assert max(metric) < 10.0 * TOL_OUTER


def picard_outer(eos, model, cusp, eps, n, seed_fn=BoundaryFunctions.seed):
    """Plain Picard iteration of the outer map, the reference for the
    accelerated solve: x_{k+1} = G(x_k) until the raw residual is below
    the outer tolerance.  Returns (G(x_k), history)."""
    ctx = FBD.SolverContext.build(model, eps, n)
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


# fields of a step with no inner solve: no inner ratio is measured, so
# every outer step stays a full one
_NO_INNER_SOLVE = SimpleNamespace(changes=[])


def _linear_outer_map(calls, kick_at=None):
    """An affine contraction in R^3 standing in for ``outer_iterate``.

    Every node k >= 1 maps (y, beta_hat_plus, V_hat) by the same 3 x 3
    matrix; V_hat[0] stays 0, so the iterates live in R^3.  ``calls``
    records (input, output) of each call; the call numbered ``kick_at``
    returns a displaced value, so its residual grows.  The map has no
    inner solve, so its steps are never warm.
    """
    A = np.array([[0.5, 0.2, -0.1], [0.0, -0.4, 0.3], [0.1, 0.1, 0.6]])
    b = np.array([0.3, -0.2, 0.5])

    def step(bf, ctx, *, warm=None):
        assert warm is None
        g = A @ np.stack([bf.y, bf.beta_hat_plus, bf.V_hat]) + b[:, None]
        g[2, 0] = 0.0
        if len(calls) == kick_at:
            g[:, 1:] += 1.0
        bf_next = bf.replace(y=g[0], beta_hat_plus=g[1], V_hat=g[2])
        calls.append((bf, bf_next))
        return bf_next, _NO_INNER_SOLVE, None

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
            eos, model, cusp, eps=EPS, n=n, seed_fn=seed_fn
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
            rad, canon_model, canon_cusp, eps=EPS, n=3
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
            rad, canon_model, canon_cusp, eps=EPS, n=3
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

    def _fail_at(self, monkeypatch, failing_calls, warm=False):
        # without warm steps, so that the mixed/plain retry rule is all
        # that acts on a failure
        if not warm:
            _no_inner_ratio(monkeypatch)
        step = FBD.outer_iterate
        calls = []

        def flaky(bf, ctx, **kwargs):
            calls.append(bf)
            if len(calls) in failing_calls:
                raise SingularGamma("shock speed exceeds the behind outgoing speed")
            return step(bf, ctx, **kwargs)

        monkeypatch.setattr(FBD, "outer_iterate", flaky)
        return calls

    def test_failure_at_mixed_iterate_retries_plain(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        # calls 1 and 2 evaluate the seed and G(seed); call 3 is the first
        # mixed iterate, and the step is retried from the plain iterate
        calls = self._fail_at(monkeypatch, {3})
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16
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
            rad, canon_model, canon_cusp, eps=EPS, n=16
        )
        assert sol.retries == 1
        assert sol.eps == EPS / 2


    def test_failed_warm_step_retries_full_then_plain(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        # call 3 is the first warm step, at the first mixed iterate; it is
        # retried at that iterate with the full inner solve (call 4), and
        # when that fails too, from the plain iterate (call 5)
        calls = self._fail_at(monkeypatch, {3, 4}, warm=True)
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16
        )
        assert sol.retries == 0
        assert calls[3] is calls[2]
        assert calls[4] is not calls[2]
        ref, _ = picard_outer(rad, canon_model, canon_cusp, EPS, 16)
        for name in ("y", "beta_hat_plus", "V_hat"):
            d = np.max(np.abs(getattr(sol.boundary, name) - getattr(ref, name)))
            assert d < 5.0 * TOL_OUTER, name


def _traced_solve(monkeypatch, eos, model, cusp, n=64, solve_fixed=None):
    """run_shock_development recording, per ``outer_iterate`` call, whether
    it was warm and how many time solves it made.  ``solve_fixed`` replaces
    the inner solve.  Returns (solution, [[warm, time solves], ...])."""
    steps = []
    step, solve_t = FBD.outer_iterate, FB.solve_linear_t

    def counted_t(*args, **kwargs):
        steps[-1][1] += 1
        return solve_t(*args, **kwargs)

    def counted_step(bf, ctx, **kwargs):
        steps.append([kwargs.get("warm") is not None, 0])
        return step(bf, ctx, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(FB, "solve_linear_t", counted_t)
        m.setattr(FBD, "outer_iterate", counted_step)
        if solve_fixed is not None:
            m.setattr(FBD, "solve_fixed_bvp", solve_fixed)
        sol = FBD.run_shock_development(
            eos, model, cusp, eps=EPS, n=n
        )
    return sol, steps


def _step_kind(warm):
    # the polish is the call with warm fields and the cold jump solve
    return "full" if warm is None else "warm" if warm[1] is not None else "polish"


def _no_inner_ratio(monkeypatch):
    # an undefined step-1 inner ratio (nan) keeps every outer step full
    monkeypatch.setattr(FBD, "_first_ratio", lambda seq: math.nan)


def _all_full(monkeypatch, eos, model, cusp, n=64):
    with monkeypatch.context() as m:
        _no_inner_ratio(m)
        return _traced_solve(monkeypatch, eos, model, cusp, n)


_CURVE_COLUMNS = (
    "f", "g", "V", "y", "alpha_plus", "beta_plus", "f_hat", "g_hat", "delta_hat", "V_hat"
)


class TestWarmSteps:
    """From outer step 2 on, one warm inner sweep and one Newton step per
    jump node per step; the converged iterate is evaluated again with one
    more warm sweep, from its own fields, and the cold jump solve."""

    def test_canonical_time_solves(self, rad, canon_model, canon_cusp, monkeypatch):
        sol, steps = _traced_solve(monkeypatch, rad, canon_model, canon_cusp)
        assert len(sol.outer_history) == 10
        # 30 with a full inner solve at every step, 17 with a full polish
        assert sum(c for _, c in steps) == 15
        # steps 0 and 1 are full, the rest warm, then the warm polish
        assert [w for w, _ in steps] == [False] * 2 + [True] * 8 + [True]
        assert all(c == (1 if w else 3) for w, c in steps)
        assert sol.fields.sweeps == 1
        # the inner ratio is carried from step 1's full inner solve
        assert len(sol.inner_changes) == 2
        # the canonical cusp is at rest, so its inner ratio is about 5.2e-8
        assert 0.0 < sol.inner_changes[1] / sol.inner_changes[0] < 1e-6

    def test_matches_all_full_steps(self, rad, canon_model, canon_cusp, monkeypatch):
        full, steps = _all_full(monkeypatch, rad, canon_model, canon_cusp)
        assert not any(w for w, _ in steps)
        assert all(c == 3 for _, c in steps)
        assert len(steps) == len(full.outer_history)
        sol, _ = _traced_solve(monkeypatch, rad, canon_model, canon_cusp)
        assert sol.outer_history[:2] == full.outer_history[:2]
        for name in ("y", "beta_hat_plus", "V_hat"):
            d = np.max(np.abs(getattr(sol.boundary, name) - getattr(full.boundary, name)))
            assert d < 5.0 * TOL_OUTER, name
        for name in _CURVE_COLUMNS:
            d = np.max(np.abs(getattr(sol.curve, name) - getattr(full.curve, name)))
            assert d < 1e-10, name
        m = sol.fields.grid.mask
        assert np.max(np.abs(sol.fields.t - full.fields.t)[m]) < 1e-10 * np.max(
            np.abs(full.fields.t[m])
        )

    @pytest.mark.parametrize(
        "eos_name, r0, alpha0, beta0", [("rad", 0.1, 0.2, -0.1), ("p2", 0.003, -0.3, 0.3)]
    )
    def test_warm_at_any_contracting_ratio(
        self, request, monkeypatch, eos_name, r0, alpha0, beta0
    ):
        # a moving medium at a small r0 raises the step-1 inner ratio from
        # the canonical 5.2e-8 to about 1.5e-3 (rad) and 0.26 (p2) at n = 32;
        # every step from step 2 on is still warm, and the solve ends where
        # the all-full one does
        eos = request.getfixturevalue(eos_name)
        cusp = SA.CuspData.from_physics(
            eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3, alpha0=alpha0, beta0=beta0, r0=r0
        )
        model = SA.synthesize_model(cusp, eos, eps=0.04)
        step = FBD.outer_iterate
        kinds = []

        def recording(bf, ctx, *, warm=None):
            kinds.append(_step_kind(warm))
            return step(bf, ctx, warm=warm)

        def solve():
            return FBD.run_shock_development(eos, model, cusp, eps=0.04, n=32)

        with monkeypatch.context() as m:
            _no_inner_ratio(m)
            full = solve()
        monkeypatch.setattr(FBD, "outer_iterate", recording)
        sol = solve()
        k = len(sol.outer_history)
        assert kinds[: k + 1] == ["full"] * 2 + ["warm"] * (k - 2) + ["polish"]
        assert (sol.eps, sol.retries) == (full.eps, full.retries)
        for name in ("y", "beta_hat_plus", "V_hat"):
            d = np.max(np.abs(getattr(sol.boundary, name) - getattr(full.boundary, name)))
            assert d < 5.0 * TOL_OUTER, name

    def test_failed_warm_call_retried_full(self, rad, canon_model, canon_cusp, monkeypatch):
        solve = FBD.solve_fixed_bvp

        def no_warm(*args, warm=None):
            if warm is not None:
                raise NonConvergence("warm sweep refused")
            return solve(*args)

        full, _ = _all_full(monkeypatch, rad, canon_model, canon_cusp)
        sol, steps = _traced_solve(
            monkeypatch, rad, canon_model, canon_cusp, solve_fixed=no_warm
        )
        # every warm call fails before its time solve and is made again in full
        assert [c for w, c in steps if w] == [0] * (len(steps) - len(full.outer_history))
        assert sol.outer_history == full.outer_history
        for name in ("y", "beta_hat_plus", "V_hat"):
            assert np.array_equal(getattr(sol.boundary, name), getattr(full.boundary, name))
        for name in _CURVE_COLUMNS:
            assert np.array_equal(getattr(sol.curve, name), getattr(full.curve, name)), name
        assert np.array_equal(sol.fields.t, full.fields.t)

    def test_cold_jump_solves(self, rad, canon_model, canon_cusp, monkeypatch):
        # outside the corner expansion, only steps 0 and 1 and the polish
        # solve the jump nodes cold; the 8 warm steps each take one Newton
        # step from the previous roots
        solve, corner, newton = FBD.solve_jump_beta, FBD.corner_expansion, FBD.jump_newton_step
        cold, warm, in_corner = [], [], []

        def counted(*args, **kwargs):
            if not in_corner:
                cold.append(1)
            return solve(*args, **kwargs)

        def flagged(*args, **kwargs):
            in_corner.append(1)
            try:
                return corner(*args, **kwargs)
            finally:
                in_corner.pop()

        def stepped(*args):
            result = newton(*args)
            warm.append(result is not None)
            return result

        monkeypatch.setattr(FBD, "solve_jump_beta", counted)
        monkeypatch.setattr(FBD, "corner_expansion", flagged)
        monkeypatch.setattr(FBD, "jump_newton_step", stepped)
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=64
        )
        assert len(sol.outer_history) == 10
        assert len(cold) == 3
        assert warm == [True] * 8

    def test_returned_curve_is_a_cold_root(self, rad, canon_model, canon_cusp):
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=64
        )
        c = sol.curve
        beta_plus, V, _, _ = FBD.jump_update(sol.fields, canon_model, rad, c.v * c.y)
        assert np.array_equal(c.beta_plus, beta_plus)
        assert np.array_equal(c.V, V)

    def test_jump_fallback_matches_cold_jump_updates(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        update = FBD.jump_update
        asked = []

        def cold_update(fg, model, eos, z, *, beta_prev=None):
            asked.append(beta_prev is not None)
            return update(fg, model, eos, z)

        def solve():
            return FBD.run_shock_development(
                rad, canon_model, canon_cusp, eps=EPS, n=64
            )

        with monkeypatch.context() as m:
            m.setattr(FBD, "jump_update", cold_update)
            cold = solve()
        assert asked.count(True) == 8
        with monkeypatch.context() as m:
            m.setattr(FBD, "jump_newton_step", lambda *args: None)
            fallback = solve()
        assert fallback.outer_history == cold.outer_history
        for name in ("y", "beta_hat_plus", "V_hat"):
            assert np.array_equal(getattr(fallback.boundary, name), getattr(cold.boundary, name))
        for name in _CURVE_COLUMNS:
            assert np.array_equal(getattr(fallback.curve, name), getattr(cold.curve, name)), name
        assert np.array_equal(fallback.fields.t, cold.fields.t)

    def test_polish_miss_continues_with_full_steps(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        # the polish is the call with warm fields and the cold jump solve;
        # displacing its result makes it miss the tolerance, and only full
        # steps follow
        step = FBD.outer_iterate
        kinds = []

        def missing_polish(bf, ctx, *, warm=None):
            bf_next, fg, curve = step(bf, ctx, warm=warm)
            kind = _step_kind(warm)
            if kind == "polish":
                bf_next = bf_next.replace(V_hat=bf_next.V_hat + 1e-6)
            kinds.append(kind)
            return bf_next, fg, curve

        monkeypatch.setattr(FBD, "outer_iterate", missing_polish)
        sol = FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16
        )
        polish = kinds.index("polish")
        assert kinds[polish - 1] == "warm"
        assert set(kinds[polish + 1:]) == {"full"}
        assert max(sol.outer_history[-1]) < TOL_OUTER
        # the missed polish is the history entry of its step
        assert len(kinds) == len(sol.outer_history) + 1
        assert max(sol.outer_history[polish - 1]) > TOL_OUTER


class TestWarmPolish:
    """The converged iterate's last evaluation: one sweep from its own
    fields, kept when the sweep moves them by rounding alone."""

    @pytest.mark.parametrize(
        "eos_name, eps, n",
        [
            ("rad", 0.005, 64),
            ("rad", 0.01, 16),
            ("rad", 0.02, 64),
            ("rad", 0.02, 256),
            ("p2", 0.005, 64),
            ("p2", 0.02, 64),
        ],
    )
    def test_fields_match_polished_reference(self, request, monkeypatch, eos_name, eps, n):
        # fields at the returned iterate, from outer_iterate's last call; a
        # full inner solve there stops on its floor short of the polished
        # point, and at eps = 0.02 misses the 1e-14 bound by up to 3.6x
        eos = request.getfixturevalue(eos_name)
        cusp = SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        model = SA.synthesize_model(cusp, eos, eps=eps)
        step = FBD.outer_iterate
        points = []

        def recording(bf, ctx, **kwargs):
            points.append((bf, ctx))
            return step(bf, ctx, **kwargs)

        monkeypatch.setattr(FBD, "outer_iterate", recording)
        sol = FBD.run_shock_development(
            eos, model, cusp, eps=eps, n=n
        )
        assert sol.retries == 0
        assert sol.fields.sweeps == 1
        bf, ctx = points[-1]
        ref, _ = polished_fixed_bvp(bf, ctx.init, eos, ctx.grid)
        assert_near_polished(sol.fields, ref)

    @pytest.mark.parametrize("fault", ["above_floor", "raises"])
    def test_fallback_matches_cold_polish(
        self, rad, canon_model, canon_cusp, monkeypatch, fault
    ):
        step, evaluate = FBD.outer_iterate, FBD._step

        def solve():
            return FBD.run_shock_development(
                rad, canon_model, canon_cusp, eps=EPS, n=64
            )

        def cold_polish(bf, ctx, warm=None):
            if warm is not None and warm[1] is None:
                return step(bf, ctx), False
            return evaluate(bf, ctx, warm)

        with monkeypatch.context() as m:
            m.setattr(FBD, "_step", cold_polish)
            cold = solve()

        def faulty(bf, ctx, *, warm=None):
            if warm is None or warm[1] is not None:
                return step(bf, ctx, warm=warm)
            if fault == "raises":
                raise NonConvergence("polish sweep refused")
            bf_next, fg, curve = step(bf, ctx, warm=warm)
            return bf_next, dataclasses.replace(fg, changes=[2.0 * fg.rounding_floor]), curve

        with monkeypatch.context() as m:
            m.setattr(FBD, "outer_iterate", faulty)
            sol = solve()
        assert sol.outer_history == cold.outer_history
        assert sol.inner_changes == cold.inner_changes
        assert sol.fields.sweeps == cold.fields.sweeps == 2
        for name in ("y", "beta_hat_plus", "V_hat"):
            assert np.array_equal(getattr(sol.boundary, name), getattr(cold.boundary, name))
        for name in _CURVE_COLUMNS:
            assert np.array_equal(getattr(sol.curve, name), getattr(cold.curve, name)), name
        for name in ("t", "r", "r_off", "alpha", "beta", "dt_du", "dt_dv"):
            assert np.array_equal(getattr(sol.fields, name), getattr(cold.fields, name)), name


class TestJumpUpdate:
    @pytest.fixture(scope="class")
    def sol_n16(self, rad, canon_model, canon_cusp):
        return FBD.run_shock_development(
            rad, canon_model, canon_cusp, eps=EPS, n=16
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
            rad, canon_model, canon_cusp, eps=EPS, n=16
        )
        assert failed
        assert sol.retries == 1
        assert sol.eps == EPS / 2

    def test_halved_domain_reuses_the_models_corner_expansion(
        self, rad, canon_cusp, monkeypatch
    ):
        # the corner expansion depends on the model alone: the model computes
        # it once, through free_boundary.corner_expansion, for every context
        # built on it, the halved-domain retry's included
        model = SA.synthesize_model(canon_cusp, rad, eps=EPS)
        attempt, corner = FBD._attempt, FBD.corner_expansion
        attempts, corners = [], []

        def fails_once(ctx, seed_fn):
            attempts.append(ctx)
            if len(attempts) == 1:
                raise NonConvergence("outer iteration failed")
            return attempt(ctx, seed_fn)

        def counting(*args):
            corners.append(args)
            return corner(*args)

        monkeypatch.setattr(FBD, "_attempt", fails_once)
        monkeypatch.setattr(FBD, "corner_expansion", counting)
        sol = FBD.run_shock_development(rad, model, canon_cusp, eps=EPS, n=16)
        assert sol.retries == 1
        assert len(corners) == 1
        assert attempts[0].model is attempts[1].model is model
        assert sol.corner is model.corner

    def test_retried_solve_reads_its_domain_off_the_grid(
        self, rad, canon_model, canon_cusp, monkeypatch
    ):
        # eps and n are the context's grid's and retries counts the domain
        # sizes tried before it; the context holds the model and the grid,
        # and forms its initial data and trust indices from them
        attempt = FBD._attempt

        def fails_once(ctx, seed_fn):
            if ctx.grid.eps == EPS:
                raise NonConvergence("outer iteration failed")
            return attempt(ctx, seed_fn)

        monkeypatch.setattr(FBD, "_attempt", fails_once)
        sol = FBD.run_shock_development(rad, canon_model, canon_cusp, eps=EPS, n=16)
        ctx = sol.context
        assert sol.attempted_eps == [EPS, EPS / 2]
        assert (sol.eps, sol.n) == (ctx.grid.eps, ctx.grid.n) == (EPS / 2, 16)
        assert sol.retries == len(sol.attempted_eps) - 1 == 1
        stored = {f.name: f for f in dataclasses.fields(FBD.ShockSolution)}
        assert not stored.keys() & {"eps", "n", "retries"}
        assert stored["attempted_eps"].default_factory is dataclasses.MISSING
        assert [f.name for f in dataclasses.fields(FBD.SolverContext)] == ["model", "grid"]
        assert ctx.init is canon_model.init_data(EPS / 2, 16)
        assert (ctx.trust_index, ctx.speed_trust_index) == (
            sol.curve.trust_index, sol.curve.speed_trust_index
        )


def _rel_err(check):
    return abs(check.value - check.target) / abs(check.target)


def _abs_err(check):
    return abs(check.value - check.target)


class TestConvergedCanonicalRun:
    def test_budget(self, canon_sol):
        assert canon_sol.retries == 0
        assert canon_sol.eps == EPS
        assert len(canon_sol.outer_history) <= 25
        assert canon_sol.attempted_eps == [EPS]

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


@pytest.fixture(scope="module")
def p2_sol(p2):
    """The canonical cusp under the quadratic law p = 0.1 rho^2, n = 64."""
    cusp = SA.CuspData.from_physics(p2, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    model = SA.synthesize_model(cusp, p2, eps=EPS)
    return FBD.run_shock_development(p2, model, cusp, eps=EPS, n=64)


class TestEntropyCondition:
    """q = (1/eta^2 - 1)/sigma^2 drops across the solved front at every node."""

    @pytest.mark.parametrize("sol_name", ["canon_sol", "p2_sol"])
    def test_holds_on_the_canonical_front(self, request, sol_name):
        sol = request.getfixturevalue(sol_name)
        rec = sol.diagnostics["geometry"]["entropy_condition"]
        assert (rec.value, rec.target, rec.tolerance, rec.passed) == (0.0, 0.0, 0.0, True)

    @pytest.mark.parametrize("sol_name", ["canon_sol", "p2_sol"])
    def test_swapped_sides_fail_at_every_node(self, request, sol_name):
        sol = request.getfixturevalue(sol_name)
        curve = sol.curve
        swapped = dataclasses.replace(
            curve,
            alpha_minus=curve.alpha_plus,
            beta_minus=curve.beta_plus,
            alpha_plus=curve.alpha_minus,
            beta_plus=curve.beta_minus,
        )
        model = sol.context.model
        rec = FBD.geometry_checks(swapped, sol.fields, model, model.eos)["entropy_condition"]
        assert rec.value == sol.n
        assert not rec.passed


def _seed_slope(a):
    """Starting boundary y = -1 + a v, the benchmark's seed family."""

    def seed(cusp, v):
        return BoundaryFunctions.seed(cusp, v).replace(y=-1.0 + a * v)

    return seed


class TestOuterStepCounts:
    """The outer stop counts steps against ``TOL_OUTER`` with no margin, so
    a change that moves a last residual across it moves a whole step.
    These solves take 10 steps, and each ends at least 3x below
    ``TOL_OUTER``, so rounding-level changes upstream leave them at 10
    and a change that moves a count shows here.  poly2(0.1) at n = 128 is
    left out: its last residual is 9.66e-11 against 1e-10, on the edge."""

    @pytest.fixture
    def solve(self, rad):
        cusp = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        model = SA.synthesize_model(cusp, rad, eps=EPS)

        def run(n, a):
            return FBD.run_shock_development(
                rad, model, cusp, eps=EPS, n=n, seed_fn=_seed_slope(a)
            )

        return run

    @pytest.mark.parametrize(
        "case",
        ["canon_sol", "seed_005", "perturbed_sol", "canon_sol_n128", "n256", "p2_sol"],
    )
    def test_ten_steps_well_below_tol_outer(self, request, solve, case):
        # radiation at n = 64 from y = -1 and y = -1 + a v (a = 0.05, 0.1),
        # at n = 128 and 256, and poly2(0.1) at n = 64
        if case == "seed_005":
            sol = solve(64, 0.05)
        elif case == "n256":
            sol = solve(256, 0.0)
        else:
            sol = request.getfixturevalue(case)
        assert len(sol.outer_history) == 10
        assert max(sol.outer_history[-1]) <= TOL_OUTER / 3.0


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
        h = canon_sol.outer_history
        assert canon_sol.outer_ratio == max(h[1]) / max(h[0])
        assert canon_sol.outer_ratio < 1.0
        assert half_eps_sol.outer_ratio < canon_sol.outer_ratio

    def test_inner_ratio_scales_with_domain(self, canon_sol, half_eps_sol):
        ch = canon_sol.inner_changes
        assert canon_sol.inner_ratio == ch[1] / ch[0]
        assert canon_sol.inner_ratio < 1.0
        assert half_eps_sol.inner_ratio < canon_sol.inner_ratio

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

    def test_retry_exhaustion_reports_attempts(self, rad, canon_model, canon_cusp,
                                               monkeypatch):
        # the budgets are read when the solve runs
        monkeypatch.setattr(FBD, "MAX_OUTER", 2)
        monkeypatch.setattr(FBD, "MAX_RETRIES", 1)
        with pytest.raises(NonConvergence) as exc:
            FBD.run_shock_development(rad, canon_model, canon_cusp, eps=EPS, n=16)
        assert "0.005" in str(exc.value)
        assert exc.value.history

    @pytest.fixture
    def no_setup(self, monkeypatch):
        """A problem rejected on entry never reaches ``SolverContext.build``."""

        def build(*args, **kwargs):
            raise AssertionError("SolverContext.build ran")

        monkeypatch.setattr(FBD.SolverContext, "build", build)

    @pytest.mark.parametrize("n", [2, 1, 0])
    def test_too_few_nodes_rejected_before_any_work(self, rad, canon_model, canon_cusp,
                                                    no_setup, n):
        # the corner extrapolation fits a quadratic and needs three nodes
        # along the shock; without the entry check an n = 1 solve ran all
        # its outer steps first, and an n = 2 solve fitted two points
        with pytest.raises(ValueError, match=rf"n must be at least 3, got {n}"):
            FBD.run_shock_development(rad, canon_model, canon_cusp, eps=EPS, n=n)

    @pytest.mark.parametrize("mismatch", ["cusp", "eos"])
    def test_problem_other_than_the_models_rejected_before_any_work(
        self, rad, p2, canon_model, canon_cusp, no_setup, mismatch
    ):
        # without the entry check a cusp with another dbeta_dt0 "converged"
        # and failed its corner checks, and poly2 failed deep in the solve
        eos, cusp = rad, canon_cusp
        if mismatch == "cusp":
            cusp = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.1)
        else:
            eos = p2
        with pytest.raises(ValueError, match=rf"{mismatch} is not the"):
            FBD.run_shock_development(eos, canon_model, cusp, eps=EPS, n=16)

    @pytest.mark.parametrize(
        "budget",
        [
            {"eps": 0.0},
            {"eps": -0.01},
            {"eps": math.nan},
            {"eps": math.inf},
        ],
        ids=lambda b: "-".join(f"{k}={v}" for k, v in b.items()),
    )
    def test_bad_budget_rejected_before_any_work(self, rad, canon_model, canon_cusp,
                                                 no_setup, budget):
        # without the entry check these ended in IndexError, OverflowError
        # or a math domain error
        (name,) = budget
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            FBD.run_shock_development(
                rad, canon_model, canon_cusp, **{"eps": EPS, "n": 16, **budget}
            )


_DIAGNOSTICS = ("curve_asymptotics", "geometry_checks", "blowup_fits", "characteristic_residuals")


def _bits(x):
    """x with every float replaced by its hex form, for bit-for-bit equality."""
    if dataclasses.is_dataclass(x):
        return _bits(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return float(x).hex()


class TestLazyDiagnostics:
    """A solve runs no diagnostic; the first read of ``diagnostics`` runs
    each one once, from the solution's own context, and caches them."""

    def test_computed_once_on_first_read(self, rad, canon_model, canon_cusp, monkeypatch):
        direct = {name: getattr(FBD, name) for name in _DIAGNOSTICS}
        calls = []
        for name, fn in direct.items():

            def counting(*args, _name=name, _fn=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(FBD, name, counting)
        sol = FBD.run_shock_development(rad, canon_model, canon_cusp, eps=EPS, n=16)
        assert calls == []
        diag = sol.diagnostics
        assert sorted(calls) == sorted(_DIAGNOSTICS)
        assert sol.diagnostics is diag
        assert len(calls) == len(_DIAGNOSTICS)

        want = {
            "limits": direct["curve_asymptotics"](sol.curve, canon_cusp, rad),
            "geometry": direct["geometry_checks"](sol.curve, sol.fields, canon_model, rad),
            "blowup": direct["blowup_fits"](sol.fields),
            "residuals": direct["characteristic_residuals"](
                sol.fields, rad, sol.context.init, sol.boundary
            ),
        }
        assert _bits(diag) == _bits(want)

    def test_context_is_the_one_solved_on(self, rad, canon_model, canon_cusp, monkeypatch):
        built = []
        build = FBD.SolverContext.build.__func__

        def recording(cls, *args, **kwargs):
            built.append(build(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(FBD.SolverContext, "build", classmethod(recording))
        sol = FBD.run_shock_development(rad, canon_model, canon_cusp, eps=EPS, n=16)
        assert len(built) == 1 and sol.context is built[0]
        assert sol.corner is sol.context.model.corner


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
