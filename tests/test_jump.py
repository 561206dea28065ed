"""Jump conditions: degeneracy structure, cubic law, speeds, margins.

Oracles: 4th-order stencils with Richardson refinement for the coincidence
derivatives, pure bisection against the Newton solve, and scaling fits for
the cubic law and Taub mismatch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from shockdev import eos as E
from shockdev import fitting
from shockdev import jump as J
from shockdev.errors import DegenerateJump, NoRoot, OutOfRange
from shockdev.state import RiemannPair, char_speed_derivatives, char_speeds


def random_states(rng, n, rt_range=(-0.3, 0.4), zeta_range=(-0.6, 0.6)):
    rt = rng.uniform(*rt_range, size=n)
    zeta = rng.uniform(*zeta_range, size=n)
    return [S for S in (RiemannPair(float(r - z), float(r + z)) for r, z in zip(rt, zeta))]


class TestJumpFunction:
    def test_coincident_states_vanish(self, rad, rng):
        for state in random_states(rng, 20):
            assert J.jump_J(rad, J.JumpPair(state, state)) == 0.0

    def test_symmetric_in_pair_order_up_to_nothing(self, rad, rng):
        # J is symmetric under swapping ahead and behind
        for ahead, behind in zip(random_states(rng, 20), random_states(rng, 20)):
            jp = J.JumpPair(ahead, behind)
            rev = J.JumpPair(behind, ahead)
            assert J.jump_J(rad, jp) == pytest.approx(J.jump_J(rad, rev), abs=1e-12)

    def test_scale_is_energy_density_squared(self, rad):
        # (rho + p)^2 at the unit reference state of radiation
        assert J.jump_scale(rad, RiemannPair(0.0, 0.0)) == pytest.approx(
            (4.0 / 3.0) ** 2, rel=1e-14
        )


class TestCoincidenceStructure:
    @pytest.mark.parametrize("state", [RiemannPair(0.0, 0.0), RiemannPair(0.25, -0.12)])
    def test_radiation_structure(self, rad, state):
        scale = J.jump_scale(rad, state)
        d = J.coincidence_structure(rad, state)
        assert abs(d["d1"]) < 1e-8 * scale
        assert abs(d["d2"]) < 1e-8 * scale
        assert abs(d["d3"]) < 1e-6 * scale
        assert d["mixed"] == pytest.approx(scale, rel=1e-4)
        pd_eta2 = E.sound_speed_sq(rad, E.rho_of_potential(rad, (state.alpha + state.beta) / 2))
        mu = 2.0 / 3.0
        assert d["d4"] == pytest.approx(scale * mu**2 / (8 * pd_eta2), rel=1e-3)

    def test_quadratic_law_structure(self, p2):
        state = RiemannPair(0.1, 0.1)
        scale = J.jump_scale(p2, state)
        d = J.coincidence_structure(p2, state)
        rt = (state.alpha + state.beta) / 2
        eta2 = E.sound_speed_sq(p2, E.rho_of_potential(p2, rt))
        mu = E.mu_coefficient(p2, rt)
        assert abs(d["d1"]) < 1e-8 * scale
        assert abs(d["d2"]) < 1e-8 * scale
        assert abs(d["d3"]) < 1e-6 * scale
        assert d["mixed"] == pytest.approx(scale, rel=1e-4)
        assert d["d4"] == pytest.approx(scale * mu**2 / (8 * eta2), rel=1e-3)


class TestCubicLaw:
    def test_zero_jump_returns_ahead_beta(self, rad):
        ahead = RiemannPair(0.07, -0.02)
        assert J.solve_jump_beta(rad, ahead.alpha, ahead) == ahead.beta

    def test_cap_enforced(self, rad):
        with pytest.raises(OutOfRange):
            J.solve_jump_beta(rad, 1.0, RiemannPair(0.0, 0.0))

    def test_radiation_coefficient(self, rad):
        # [beta]/[alpha]^3 -> -1/144, Richardson-refined over two jumps
        ahead = RiemannPair(0.0, 0.0)
        ratios = []
        for da in (1e-2, 5e-3):
            b = J.solve_jump_beta(rad, ahead.alpha + da, ahead)
            ratios.append((b - ahead.beta) / da**3)
        refined = fitting.richardson(ratios[0], ratios[1], order=1)
        assert refined == pytest.approx(-1.0 / 144.0, rel=1e-4)
        assert ratios[0] == pytest.approx(-1.0 / 144.0, rel=1e-2)

    def test_matches_seed_coefficient_generic_state(self, p2, rng):
        for ahead in random_states(rng, 3, rt_range=(-0.1, 0.3), zeta_range=(-0.3, 0.3)):
            g0 = J.cubic_coefficient(p2, ahead)
            b = J.solve_jump_beta(p2, ahead.alpha + 2e-3, ahead)
            assert (b - ahead.beta) / 8e-9 == pytest.approx(g0, rel=5e-3)

    def test_continuity_bound(self, rad, rng):
        # |[beta]| <= 2 |G0| |[alpha]|^3 for small jumps
        ahead = RiemannPair(0.0, 0.0)
        g0 = abs(J.cubic_coefficient(rad, ahead))
        for da in rng.uniform(-1e-2, 1e-2, size=10):
            if da == 0:
                continue
            b = J.solve_jump_beta(rad, ahead.alpha + float(da), ahead)
            assert abs(b - ahead.beta) <= 2.0 * g0 * abs(da) ** 3

    def test_newton_agrees_with_bisection(self, rad, p2, rng):
        for eos in (rad, p2):
            for ahead in random_states(rng, 10, rt_range=(-0.1, 0.25), zeta_range=(-0.4, 0.4)):
                da = float(rng.uniform(1e-3, 2e-2))
                newton = J.solve_jump_beta(eos, ahead.alpha + da, ahead)
                assert newton == pytest.approx(bisection_beta(eos, ahead, da), abs=1e-12)


def bisection_beta(eos, ahead, da):
    """Behind beta by plain bisection around the cubic seed (the Newton-free oracle)."""
    if da == 0.0:
        return ahead.beta
    g0 = J.cubic_coefficient(eos, ahead)
    w = 8 * abs(g0 * da**3) + 1e-12

    def f(b):
        return J.jump_J(eos, J.JumpPair(ahead, RiemannPair(ahead.alpha + da, b)))

    return bisection_root(
        f, ahead.beta + g0 * da**3 - w, ahead.beta + g0 * da**3 + w, xtol=1e-16
    )


def bisection_root(
    f,
    lo: float,
    hi: float,
    xtol: float = 1e-14,
    max_iter: int = 200,
) -> float:
    """Plain bisection, the Newton-free oracle.

    Raises:
        NoRoot: if [lo, hi] does not bracket a sign change.
    """
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise NoRoot(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < xtol:
            return mid
        if fa * fm < 0:
            hi, fb = mid, fm
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)


class TestLanes:
    """A batched solve is the per-lane scalar solve, lane by lane."""

    N = 24

    def batch(self, rng):
        states = random_states(rng, self.N, rt_range=(-0.1, 0.25), zeta_range=(-0.4, 0.4))
        ahead = RiemannPair(
            np.array([s.alpha for s in states]), np.array([s.beta for s in states])
        )
        da = rng.uniform(1e-3, 2e-2, size=self.N) * rng.choice([-1.0, 1.0], size=self.N)
        da[0], da[1], da[2] = 0.0, 1e-2, -1e-2
        return ahead, da

    @pytest.mark.parametrize("eos_name", ["rad", "p2"])
    def test_batch_matches_bisection_per_lane(self, eos_name, request, rng, monkeypatch):
        eos = request.getfixturevalue(eos_name)
        ahead, da = self.batch(rng)
        oracle = np.array(
            [
                bisection_beta(eos, RiemannPair(float(a), float(b)), float(d))
                for a, b, d in zip(ahead.alpha, ahead.beta, da)
            ]
        )
        # Put the last lane's cubic seed on the wrong side of its root, so
        # its first bracket misses and has to be expanded once.
        marked = ahead.alpha[-1]
        cubic = J.cubic_coefficient
        monkeypatch.setattr(
            J,
            "cubic_coefficient",
            lambda e, s: cubic(e, s) * np.where(s.alpha == marked, -0.1, 1.0),
        )
        with monkeypatch.context() as m, pytest.raises(NoRoot):
            m.setattr(J, "_MAX_EXPAND", 0)
            J.solve_jump_beta(eos, ahead.alpha + da, ahead)

        got = J.solve_jump_beta(eos, ahead.alpha + da, ahead)
        assert got.shape == (self.N,)
        np.testing.assert_allclose(got, oracle, rtol=0.0, atol=1e-12)
        assert got[0] == ahead.beta[0]

    @pytest.mark.parametrize("eos_name", ["rad", "p2"])
    def test_bracket_ends_are_evaluated_once(self, eos_name, request, rng, monkeypatch):
        # the bracket search hands its end values to the Newton solve, which
        # would otherwise evaluate J at both ends again
        eos = request.getfixturevalue(eos_name)
        ahead, da = self.batch(rng)
        calls = []
        counted = J.stress_derivatives

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(J, "stress_derivatives", counting)
        got = J.solve_jump_beta(eos, ahead.alpha + da, ahead)
        with_ends = len(calls)

        newton = fitting.safeguarded_newton_lanes

        def without_ends(*args, f_ends=None, **kwargs):
            return newton(*args, **kwargs)

        monkeypatch.setattr(J.fitting, "safeguarded_newton_lanes", without_ends)
        calls.clear()
        want = J.solve_jump_beta(eos, ahead.alpha + da, ahead)
        assert len(calls) == with_ends + 2
        assert np.array_equal(got, want)

    def test_one_lane_over_cap_rejects_the_batch(self, rad, rng):
        ahead, da = self.batch(rng)
        da[5] = 0.6
        with pytest.raises(OutOfRange):
            J.solve_jump_beta(rad, ahead.alpha + da, ahead)

    def test_scalar_call_returns_float(self, rad):
        ahead = RiemannPair(0.0, 0.0)
        assert type(J.solve_jump_beta(rad, 1e-2, ahead)) is float
        assert type(J.solve_jump_beta(rad, 0.0, ahead)) is float
        behind = RiemannPair(1e-2, J.solve_jump_beta(rad, 1e-2, ahead))
        assert type(J.shock_speed(rad, J.JumpPair(ahead, behind))) is float
        assert type(J.jump_J(rad, J.JumpPair(ahead, behind))) is float

    def test_degenerate_lane_rejects_the_batch(self, rad):
        ahead = RiemannPair(np.zeros(3), np.zeros(3))
        behind = RiemannPair(np.array([1e-2, 0.0, -1e-2]), np.zeros(3))
        with pytest.raises(DegenerateJump):
            J.shock_speed(rad, J.JumpPair(ahead, behind))


class TestShockSpeed:
    def test_degenerate_pair_raises(self, rad):
        state = RiemannPair(0.1, -0.3)
        with pytest.raises(DegenerateJump):
            J.shock_speed(rad, J.JumpPair(state, state))

    def test_small_jump_limit_slope(self, rad, p2):
        # V = c_plus(ahead) + (dc_plus/dalpha)(ahead) dalpha/2 + O(dalpha^2)
        for eos, ahead in ((rad, RiemannPair(0.0, 0.0)), (p2, RiemannPair(0.15, 0.05))):
            cp0, _ = char_speeds(eos, ahead)
            half_slope = char_speed_derivatives(eos, ahead)["pa"] / 2.0
            slopes = []
            for da in (1e-3, 5e-4):
                b = J.solve_jump_beta(eos, ahead.alpha + da, ahead)
                V = J.shock_speed(eos, J.JumpPair(ahead, RiemannPair(ahead.alpha + da, b)))
                slopes.append((V - cp0) / da)
            refined = fitting.richardson(slopes[0], slopes[1], order=1)
            assert refined == pytest.approx(half_slope, rel=2e-2)

    def test_solved_jump_balances_both_conditions(self, rad, rng):
        scale_c = 4.0 / 3.0  # rho + p at the reference state
        for da in rng.uniform(5e-3, 2e-2, size=5):
            ahead = RiemannPair(0.0, 0.0)
            b = J.solve_jump_beta(rad, float(da), ahead)
            jp = J.JumpPair(ahead, RiemannPair(float(da), b))
            e1, e2 = J.jump_balance_residuals(rad, jp)
            assert abs(e1) < 1e-10 * scale_c
            assert abs(e2) < 1e-10 * scale_c


class TestDeterminism:
    def test_coincident_margins_vanish(self, rad):
        state = RiemannPair(0.3, 0.1)
        assert J.determinism_margin(rad, J.JumpPair(state, state)) == (0.0, 0.0)

    def test_compressive_jump_is_deterministic(self, rad):
        ahead = RiemannPair(0.0, 0.0)
        b = J.solve_jump_beta(rad, 1e-2, ahead)
        m_ahead, m_behind = J.determinism_margin(rad, J.JumpPair(ahead, RiemannPair(1e-2, b)))
        assert m_ahead > 0
        assert m_behind > 0

    def test_lanes_match_scalar_calls(self, rad, p2, rng):
        for eos in (rad, p2):
            aheads = random_states(rng, 16, rt_range=(-0.1, 0.25), zeta_range=(-0.3, 0.3))
            a0 = np.array([s.alpha for s in aheads])
            b0 = np.array([s.beta for s in aheads])
            a1 = a0 + rng.choice([-1.0, 1.0], 16) * rng.uniform(5e-3, 2e-2, 16)
            b1 = J.solve_jump_beta(eos, a1, RiemannPair(a0, b0))
            a1[3], b1[3] = a0[3], b0[3]  # a coincident lane
            m_ahead, m_behind = J.determinism_margin(
                eos, J.JumpPair(RiemannPair(a0, b0), RiemannPair(a1, b1))
            )
            assert m_ahead.shape == m_behind.shape == (16,)
            assert m_ahead[3] == 0.0 and m_behind[3] == 0.0
            for k in range(16):
                jp = J.JumpPair(
                    RiemannPair(float(a0[k]), float(b0[k])), RiemannPair(float(a1[k]), float(b1[k]))
                )
                s_ahead, s_behind = J.determinism_margin(eos, jp)
                assert type(s_ahead) is float and type(s_behind) is float
                assert m_ahead[k] == pytest.approx(s_ahead, rel=1e-12, abs=1e-14)
                assert m_behind[k] == pytest.approx(s_behind, rel=1e-12, abs=1e-14)

    def test_margin_sign_tracks_steepness_jump(self, rad, p2, rng):
        # sign(m_ahead) == sign(-[q]) on either branch
        for eos in (rad, p2):
            for ahead in random_states(rng, 5, rt_range=(-0.1, 0.25), zeta_range=(-0.3, 0.3)):
                for da in (1e-2, -1e-2):
                    b = J.solve_jump_beta(eos, ahead.alpha + da, ahead)
                    jp = J.JumpPair(ahead, RiemannPair(ahead.alpha + da, b))
                    m_ahead, _ = J.determinism_margin(eos, jp)
                    dq = J.entropy_q(eos, jp.behind) - J.entropy_q(eos, jp.ahead)
                    assert m_ahead * dq < 0


class TestTaubMismatch:
    def test_coincidence_zero(self, rad):
        state = RiemannPair(0.2, -0.1)
        assert J.hugoniot_residual(rad, J.JumpPair(state, state)) == 0.0

    def test_cubic_scaling(self, rad):
        ahead = RiemannPair(0.0, 0.0)
        vals = []
        for da in (2e-2, 1e-2, 5e-3):
            b = J.solve_jump_beta(rad, da, ahead)
            vals.append(J.hugoniot_residual(rad, J.JumpPair(ahead, RiemannPair(da, b))) / da**3)
        # cubic-normalized values stabilize under halving
        assert vals[1] == pytest.approx(vals[2], rel=2e-2)
        assert vals[0] == pytest.approx(vals[2], rel=6e-2)

    def test_antisymmetric_under_role_swap(self, rad):
        ahead = RiemannPair(0.0, 0.0)
        b = J.solve_jump_beta(rad, 1e-2, ahead)
        jp = J.JumpPair(ahead, RiemannPair(1e-2, b))
        rev = J.JumpPair(jp.behind, jp.ahead)
        assert J.hugoniot_residual(rad, jp) == pytest.approx(
            -J.hugoniot_residual(rad, rev), rel=1e-12
        )
