"""The lean state, reflection-ratio and jump paths against their earlier
routes in ``oracles.py``: the same bits on random lanes and on (n + 1)^2
grids, and the same exception type on inputs the checks reject."""

from __future__ import annotations

import numpy as np
import pytest

import shockdev.eos as E
import shockdev.fixed_bvp as FB
import shockdev.jump as J
import shockdev.state as S
import shockdev.state_ahead as SA
from shockdev.errors import OutOfRange, SingularGamma

from oracles import (
    reference_coincident,
    reference_cubic_coefficient,
    reference_gamma_inverse,
    reference_jump_scale,
    reference_sweep_state,
)

LAWS = ["rad", "p2", "table"]
# lanes of every rank the callers pass, and the grids of n = 16 and 64
SHAPES = [(), (1,), (7,), (64,), (3, 64), (17, 17), (65, 65)]


def random_pairs(rng, shape):
    rt = rng.uniform(-0.3, 0.3, shape)
    zeta = rng.uniform(-0.8, 0.8, shape)
    return S.RiemannPair(rt - zeta, rt + zeta)


def bits(x):
    a = np.asarray(x)
    return a.dtype, a.shape, a.tobytes()


def same_bits(got, want):
    return [bits(g) for g in got] == [bits(w) for w in want]


def spoiled(pair, value):
    """The pair with one alpha entry replaced by ``value``."""
    alpha = np.array(pair.alpha, dtype=float)
    alpha.flat[alpha.size // 2] = value
    return S.RiemannPair(alpha, pair.beta)


# a potential far outside the image of the density range, and a NaN
BAD_ENTRIES = [pytest.param(1e3, id="outside_range"), pytest.param(np.nan, id="non_finite")]


def same_exception(new, reference):
    """Both calls raise, and the exceptions have one type."""
    raised = []
    for fn in (new, reference):
        with pytest.raises(Exception) as info:
            fn()
        raised.append(type(info.value))
    assert raised[0] is raised[1]
    return raised[0]


class TestSweepState:
    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_bit_for_bit(self, law, shape, request, rng):
        eos = request.getfixturevalue(law)
        pair = random_pairs(rng, shape)
        assert same_bits(S.sweep_state(eos, pair), reference_sweep_state(eos, pair))

    @pytest.mark.parametrize("law", LAWS)
    def test_char_speeds_give_floats_for_a_scalar_pair(self, law, request):
        eos = request.getfixturevalue(law)
        pair = S.RiemannPair(0.1, -0.2)
        got = S.char_speeds(eos, pair)
        assert [type(x) for x in got] == [float, float]
        assert same_bits(got, [float(x) for x in reference_sweep_state(eos, pair)[:2]])

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("value", BAD_ENTRIES)
    def test_same_exception(self, law, value, request, rng):
        eos = request.getfixturevalue(law)
        pair = spoiled(random_pairs(rng, (9, 9)), value)
        raised = same_exception(
            lambda: S.sweep_state(eos, pair), lambda: reference_sweep_state(eos, pair)
        )
        assert raised is OutOfRange

    def test_same_exception_when_the_sound_speed_leaves_its_range(self, rng):
        stiff = E.radiation()
        stiff.dp_drho_fn = lambda r: np.full_like(np.asarray(r, dtype=float), 1.5)
        pair = random_pairs(rng, (5, 5))
        raised = same_exception(
            lambda: S.sweep_state(stiff, pair), lambda: reference_sweep_state(stiff, pair)
        )
        assert raised is OutOfRange


def diagonal_data(eos, rng, n):
    """Boundary functions and diagonal alpha near the corner state."""
    cusp = SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    v = np.linspace(0.0, 0.01, n + 1)
    bf = FB.BoundaryFunctions(
        cusp=cusp,
        v=v,
        y=-1.0 + rng.uniform(0.0, 0.1, n + 1) * v,
        beta_hat_plus=cusp.beta_hat0 + rng.uniform(-0.1, 0.1, n + 1),
        V_hat=rng.uniform(-0.5, 0.5, n + 1),
    )
    alpha = cusp.alpha0 + cusp.alpha_dot0 * v + rng.uniform(-1.0, 1.0, n + 1) * v**2
    return bf, alpha


class TestGammaInverse:
    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_bit_for_bit(self, law, n, request, rng):
        eos = request.getfixturevalue(law)
        bf, alpha = diagonal_data(eos, rng, n)
        got = FB.gamma_inverse(bf, alpha, eos)
        assert got[0] == np.inf
        assert same_bits([got], [reference_gamma_inverse(bf, alpha, eos)])

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("value", BAD_ENTRIES)
    def test_same_exception_on_bad_states(self, law, value, request, rng):
        eos = request.getfixturevalue(law)
        bf, alpha = diagonal_data(eos, rng, 16)
        alpha[7] = value
        raised = same_exception(
            lambda: FB.gamma_inverse(bf, alpha, eos),
            lambda: reference_gamma_inverse(bf, alpha, eos),
        )
        assert raised is OutOfRange

    @pytest.mark.parametrize("law", LAWS)
    def test_same_exception_where_the_shock_outruns_the_state_behind(self, law, request, rng):
        eos = request.getfixturevalue(law)
        bf, alpha = diagonal_data(eos, rng, 16)
        bf.V_hat[7] = 1e6
        raised = same_exception(
            lambda: FB.gamma_inverse(bf, alpha, eos),
            lambda: reference_gamma_inverse(bf, alpha, eos),
        )
        assert raised is SingularGamma


def jump_lanes(rng, shape):
    """Ahead states and behind states a small jump away, the first lane
    (or the one scalar pair) coincident."""
    ahead = random_pairs(rng, shape)
    da = rng.uniform(-2e-2, 2e-2, shape)
    db = rng.uniform(-1e-6, 1e-6, shape)
    if shape:
        da.flat[0] = db.flat[0] = 0.0
    else:
        da = db = 0.0
    return ahead, S.RiemannPair(ahead.alpha + da, ahead.beta + db)


class TestAheadTerms:
    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("shape", SHAPES[:5], ids=str)
    def test_bit_for_bit(self, law, shape, request, rng):
        eos = request.getfixturevalue(law)
        ahead, behind = jump_lanes(rng, shape)
        assert same_bits(
            [J.cubic_coefficient(eos, ahead), J.jump_scale(eos, ahead)],
            [reference_cubic_coefficient(eos, ahead), reference_jump_scale(eos, ahead)],
        )
        dT = J.stress_jump(eos, J.JumpPair(ahead, behind))
        got = J._coincident(eos, dT, ahead)
        assert same_bits([got], [reference_coincident(eos, dT, ahead)])
        assert np.ravel(got)[0]

    @pytest.mark.parametrize("law", LAWS)
    def test_coincidence_threshold(self, law, request, rng):
        # [T^tt] on both sides of 2e-14 |T^tt(ahead)|, so a test against
        # another scale flips some lanes
        eos = request.getfixturevalue(law)
        ahead = random_pairs(rng, (64,))
        w = S.wave_state(eos, ahead)
        p = w.pressure(eos)
        tt = 2e-14 * ((w.rho + p) / (1.0 - w.v**2) - p) * np.linspace(0.5, 1.5, 64)
        dT = S.StressComponents(tt, np.zeros(64), np.zeros(64))
        got = J._coincident(eos, dT, ahead)
        assert same_bits([got], [reference_coincident(eos, dT, ahead)])
        assert 0 < np.count_nonzero(got) < 64

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("value", BAD_ENTRIES)
    def test_same_exception(self, law, value, request, rng):
        eos = request.getfixturevalue(law)
        ahead = spoiled(random_pairs(rng, (64,)), value)
        dT = S.StressComponents(*np.zeros((3, 64)))
        pairs = [
            (J.cubic_coefficient, reference_cubic_coefficient),
            (J.jump_scale, reference_jump_scale),
        ]
        for new, reference in pairs:
            raised = same_exception(lambda: new(eos, ahead), lambda: reference(eos, ahead))
            assert raised is OutOfRange
        raised = same_exception(
            lambda: J._coincident(eos, dT, ahead), lambda: reference_coincident(eos, dT, ahead)
        )
        assert raised is OutOfRange
