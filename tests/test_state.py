"""Riemann-invariant state algebra: conversions, speeds, sources, stress.

Oracles: closed-form evaluations at rest states, round trips, an independent
wave-field route for the source terms, and symmetric differencing for every
derivative formula.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from shockdev import eos as E
from shockdev import jump as J
from shockdev import state as S
from shockdev import state_ahead as SA
from shockdev.errors import OutOfRange

from oracles import (
    FluidState,
    hugoniot_residual,
    riemann_from_state,
    source_terms_wavefield_form,
    state_from_riemann,
)


def random_pairs(rng, n, rt_range=(-0.45, 0.55), zeta_range=(-1.0, 1.0)):
    rt = rng.uniform(*rt_range, size=n)
    zeta = rng.uniform(*zeta_range, size=n)
    return [S.RiemannPair(float(r - z), float(r + z)) for r, z in zip(rt, zeta)]


def central(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestConversions:
    def test_rest_reference_state(self, rad):
        pair = riemann_from_state(rad, FluidState(rad.h_ref, 0.0))
        assert pair.alpha == pytest.approx(0.0, abs=1e-14)
        assert pair.beta == pytest.approx(0.0, abs=1e-14)
        st = state_from_riemann(rad, S.RiemannPair(0.0, 0.0))
        assert st.psi_t == pytest.approx(rad.h_ref, rel=1e-14)
        assert st.psi_r == pytest.approx(0.0, abs=1e-14)

    def test_round_trip(self, rad, p2, rng):
        for eos in (rad, p2):
            for pair in random_pairs(rng, 50):
                st = state_from_riemann(eos, pair)
                back = riemann_from_state(eos, st)
                assert back.alpha == pytest.approx(pair.alpha, abs=1e-12)
                assert back.beta == pytest.approx(pair.beta, abs=1e-12)

    def test_velocity_matches_wavefield_ratio(self, rad, rng):
        for pair in random_pairs(rng, 50):
            st = state_from_riemann(rad, pair)
            assert S.velocity(rad, pair) == pytest.approx(
                -st.psi_r / st.psi_t, abs=1e-12
            )

    def test_swapping_invariants_reverses_velocity(self, rad, rng):
        for pair in random_pairs(rng, 10):
            swapped = S.RiemannPair(pair.beta, pair.alpha)
            assert S.velocity(rad, swapped) == pytest.approx(
                -S.velocity(rad, pair), abs=1e-13
            )

    def test_unphysical_state_rejected(self, rad):
        with pytest.raises(ValueError):
            riemann_from_state(rad, FluidState(1.0, 1.0))


class TestCharSpeeds:
    def test_rest_state(self, rad):
        cp, cm = S.char_speeds(rad, S.RiemannPair(0.0, 0.0))
        eta = math.sqrt(1.0 / 3.0)
        assert cp == pytest.approx(eta, abs=1e-14)
        assert cm == pytest.approx(-eta, abs=1e-14)

    def test_sonic_state_stalls_incoming_family(self, rad):
        # choose zeta so that v = eta: then c_minus = 0
        eta = math.sqrt(1.0 / 3.0)
        zeta = -math.atanh(eta)
        pair = S.RiemannPair(-zeta, zeta)
        cp, cm = S.char_speeds(rad, pair)
        assert cm == pytest.approx(0.0, abs=1e-14)
        assert cp == pytest.approx(2 * eta / (1 + eta * eta), rel=1e-14)

    def test_always_subluminal(self, rad, p2, rng):
        for eos in (rad, p2):
            for pair in random_pairs(rng, 500):
                cp, cm = S.char_speeds(eos, pair)
                assert -1.0 < cm < cp < 1.0

    def test_derivatives_match_differencing(self, rad, p2, rng):
        for eos in (rad, p2):
            for pair in random_pairs(rng, 10, zeta_range=(-0.6, 0.6)):
                d = S.wave_state(eos, pair).speed_derivatives(eos)
                h = 1e-5
                fd_pa = central(
                    lambda a: S.char_speeds(eos, S.RiemannPair(a, pair.beta))[0],
                    pair.alpha, h,
                )
                fd_pb = central(
                    lambda b: S.char_speeds(eos, S.RiemannPair(pair.alpha, b))[0],
                    pair.beta, h,
                )
                fd_ma = central(
                    lambda a: S.char_speeds(eos, S.RiemannPair(a, pair.beta))[1],
                    pair.alpha, h,
                )
                fd_mb = central(
                    lambda b: S.char_speeds(eos, S.RiemannPair(pair.alpha, b))[1],
                    pair.beta, h,
                )
                assert d["pa"] == pytest.approx(fd_pa, rel=2e-6, abs=1e-9)
                assert d["pb"] == pytest.approx(fd_pb, rel=2e-6, abs=1e-9)
                assert d["ma"] == pytest.approx(fd_ma, rel=2e-6, abs=1e-9)
                assert d["mb"] == pytest.approx(fd_mb, rel=2e-6, abs=1e-9)


class TestSources:
    def test_rest_state_vanishes(self, rad):
        A, B = S.wave_state(rad, S.RiemannPair(0.3, 0.3)).sources(2.0)
        assert A == 0.0 and B == 0.0

    def test_wavefield_route_agrees(self, rad, p2, rng):
        for eos in (rad, p2):
            for pair in random_pairs(rng, 50):
                A1, B1 = S.wave_state(eos, pair).sources(1.7)
                A2, B2 = source_terms_wavefield_form(eos, pair, r=1.7)
                assert A1 == pytest.approx(A2, rel=1e-10, abs=1e-13)
                assert B1 == pytest.approx(B2, rel=1e-10, abs=1e-13)

    def test_outflow_damps_both_families(self, rad, rng):
        # v > 0 (zeta < 0) makes both sources negative
        for pair in random_pairs(rng, 20, zeta_range=(-1.0, -0.05)):
            A, B = S.wave_state(rad, pair).sources(1.0)
            assert A < 0 and B < 0

    def test_from_the_product_alone(self, rad, rng):
        # sources_of reads v eta alone and writes over it; the same bits
        pair = S.RiemannPair(rng.uniform(-0.2, 0.2, (9, 9)), rng.uniform(-0.2, 0.2, (9, 9)))
        ws = S.wave_state(rad, pair)
        r = rng.uniform(0.5, 2.0, (9, 9))
        ve = ws.v * ws.eta
        got = S.sources_of(ve, r)
        assert np.array_equal(ve, 1.0 - ws.v * ws.eta)
        for x, y in zip(got, ws.sources(r)):
            assert x.tobytes() == y.tobytes()


def test_sweep_state_holds_three_grids(rad, rng):
    # c+, c- and v eta are formed over the state's v and eta: the call
    # peaks at the five grids of the state (at n = 128 NumPy elides no
    # temporary, a grid being below 256 KiB) and keeps three; v and eta
    # with speeds() and a second v eta kept five
    shape = (129, 129)
    pair = S.RiemannPair(rng.uniform(-0.2, 0.2, shape), rng.uniform(-0.2, 0.2, shape))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = S.sweep_state(rad, pair)
        now, peak = (x - base for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grid = shape[0] * shape[1] * 8
    assert len(kept) == 3
    assert now / grid <= 3.05
    assert peak / grid <= 5.05


class TestStress:
    def test_rest_state(self, rad):
        t = S.stress(rad, S.RiemannPair(0.2, 0.2))
        assert t.tr == pytest.approx(0.0, abs=1e-15)
        assert t.tt > 0

    def test_energy_density_positive(self, rad, p2, rng):
        for eos in (rad, p2):
            for pair in random_pairs(rng, 100):
                assert S.stress(eos, pair).tt > 0

    def test_wavefield_route_agrees(self, rad, rng):
        # E = G psi_t^2 with G = sigma/h gives the same components
        for pair in random_pairs(rng, 50):
            w = S.wave_state(rad, pair)
            G, p, v = w.sigma(rad) / w.enthalpy(rad), float(w.pressure(rad)), float(w.v)
            st = state_from_riemann(rad, pair)
            e_alt = G * st.psi_t**2
            t = S.stress(rad, pair)
            assert t.tt == pytest.approx(e_alt - p, rel=1e-10)
            assert t.tr == pytest.approx(e_alt * v, rel=1e-10, abs=1e-13)
            assert t.rr == pytest.approx(e_alt * v**2 + p, rel=1e-10)

    def test_product_weight_equals_energy_density(self, rad, rng):
        # G H = rho + p at the state, with G = sigma/h and H = h^2
        for pair in random_pairs(rng, 20):
            w = S.wave_state(rad, pair)
            h = w.enthalpy(rad)
            rho = E.rho_of_potential(rad, float(w.rho_tilde))
            assert w.sigma(rad) / h * h**2 == pytest.approx(rho + w.pressure(rad), rel=1e-10)

    def test_derivatives_match_differencing(self, rad, p2, rng):
        for eos in (rad, p2):
            for pair in random_pairs(rng, 10, zeta_range=(-0.6, 0.6)):
                ds = S.stress_derivatives(eos, pair)
                h = 1e-5
                for idx, name in ((0, "tt"), (1, "tr"), (2, "rr")):
                    fd_a = central(
                        lambda a: S.stress(eos, S.RiemannPair(a, pair.beta))[idx],
                        pair.alpha, h,
                    )
                    fd_b = central(
                        lambda b: S.stress(eos, S.RiemannPair(pair.alpha, b))[idx],
                        pair.beta, h,
                    )
                    assert getattr(ds, f"{name}_alpha") == pytest.approx(
                        fd_a, rel=2e-6, abs=1e-9
                    )
                    assert getattr(ds, f"{name}_beta") == pytest.approx(
                        fd_b, rel=2e-6, abs=1e-9
                    )

    def test_flux_locks_to_characteristic_speeds(self, rad, p2, rng):
        # dT^tr = c_plus dT^tt along alpha, c_minus dT^tt along beta
        for eos in (rad, p2):
            for pair in random_pairs(rng, 20):
                ds = S.stress_derivatives(eos, pair)
                cp, cm = S.char_speeds(eos, pair)
                assert ds.tr_alpha == pytest.approx(cp * ds.tt_alpha, rel=1e-12)
                assert ds.tr_beta == pytest.approx(cm * ds.tt_beta, rel=1e-12)

    def test_velocity_and_pressure_derivatives(self, rad, rng):
        for pair in random_pairs(rng, 10, zeta_range=(-0.6, 0.6)):
            h = 1e-5
            v0 = S.velocity(rad, pair)
            fd_va = central(
                lambda a: S.velocity(rad, S.RiemannPair(a, pair.beta)), pair.alpha, h
            )
            fd_vb = central(
                lambda b: S.velocity(rad, S.RiemannPair(pair.alpha, b)), pair.beta, h
            )
            assert fd_va == pytest.approx((1 - v0 * v0) / 2, rel=1e-8, abs=1e-10)
            assert fd_vb == pytest.approx(-(1 - v0 * v0) / 2, rel=1e-8, abs=1e-10)

            # dp/dalpha = dp/dbeta = (rho + p) eta / 2
            w = S.wave_state(rad, pair)
            dp = (w.rho + w.pressure(rad)) * w.eta / 2.0
            fd_pa = central(
                lambda a: S.wave_state(rad, S.RiemannPair(a, pair.beta)).pressure(rad),
                pair.alpha, h,
            )
            fd_pb = central(
                lambda b: S.wave_state(rad, S.RiemannPair(pair.alpha, b)).pressure(rad),
                pair.beta, h,
            )
            assert dp == pytest.approx(fd_pa, rel=1e-6)
            assert dp == pytest.approx(fd_pb, rel=1e-6)


def _one_lane(pair):
    """A scalar pair as a pair of (1,) lanes, and its own shape: an oracle
    evaluates a scalar as the library does, as a lane of one."""
    lanes = S.RiemannPair(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in pair))
    return lanes, np.shape(pair.alpha)


def closed_form_derivatives(eos, pair):
    """The six closed forms of :func:`S.stress_derivatives` as written."""
    pair, shape = _one_lane(pair)
    ws = S.wave_state(eos, pair)
    v, eta = ws.v, ws.eta
    w = (ws.rho + ws.pressure(eos)) / (1.0 - v**2) / (2.0 * eta)
    return tuple(np.reshape(x, shape) for x in (
        w * (1.0 + v * eta) ** 2,
        w * (v + eta) * (1.0 + v * eta),
        w * (v + eta) ** 2,
        w * (1.0 - v * eta) ** 2,
        w * (v - eta) * (1.0 - v * eta),
        w * (v - eta) ** 2,
    ))


class TestStressDerivativeRows:
    """The six derivatives are written as rows of one array and equal their
    closed forms bit for bit, for scalar and lane pairs."""

    @pytest.mark.parametrize("law", ["rad", "p2", "table"])
    def test_lanes_equal_the_closed_forms(self, law, request, rng):
        eos = request.getfixturevalue(law)
        pairs = random_pairs(rng, 60, rt_range=(-0.3, 0.3), zeta_range=(-0.8, 0.8))
        pair = S.RiemannPair(
            np.array([p.alpha for p in pairs]).reshape(4, 15),
            np.array([p.beta for p in pairs]).reshape(4, 15),
        )
        got = S.stress_derivatives(eos, pair)
        for g, w in zip(got, closed_form_derivatives(eos, pair)):
            assert g.shape == (4, 15)
            assert g.tobytes() == w.tobytes()
        # rows of one array, tt, rr and tr each along alpha then beta, which
        # the jump layer contracts at once
        base = got.tt_alpha.base
        assert base.shape == (6, 4, 15)
        order = ("tt_alpha", "tt_beta", "rr_alpha", "rr_beta", "tr_alpha", "tr_beta")
        for row, name in zip(base, order):
            assert np.shares_memory(row, getattr(got, name))
            assert row.tobytes() == getattr(got, name).tobytes()

    @pytest.mark.parametrize("law", ["rad", "p2", "table"])
    def test_scalars_equal_the_closed_forms(self, law, request, rng):
        eos = request.getfixturevalue(law)
        for pair in random_pairs(rng, 40, rt_range=(-0.3, 0.3), zeta_range=(-0.8, 0.8)):
            got = S.stress_derivatives(eos, pair)
            want = closed_form_derivatives(eos, pair)
            assert all(type(g) is float for g in got)
            assert list(got) == [float(w) for w in want]

    @pytest.mark.parametrize("law", ["rad", "p2", "table"])
    def test_potential_outside_the_density_image_is_refused(self, law, request):
        # the inversion's check of the potential against the image of
        # [rho_min, rho_max] is the one range check of a wave state
        eos = request.getfixturevalue(law)
        lo, hi = (E.potential_of_rho(eos, r) for r in (eos.rho_min, eos.rho_max))
        for rho_tilde in (lo - 1e-3, hi + 1e-3, math.nan):
            for shape in ((), (3,)):
                rt = np.full(shape, rho_tilde)
                rt.flat[0] = 0.5 * (lo + hi)
                pair = S.RiemannPair(rt if shape else rho_tilde, rt if shape else rho_tilde)
                with pytest.raises(OutOfRange, match="potential"):
                    S.wave_state(eos, pair)


# ---------------------------------------------------------------------------
# Oracle: the full state bundle the wave state replaced.  Every quantity
# comes from the public eos functions, each of which checks the density
# again.
# ---------------------------------------------------------------------------

def bundle_quantities(eos, pair, r):
    """(name, value) of every state function, through the bundle."""
    (alpha, beta), shape = _one_lane(pair)
    rho_tilde = 0.5 * (alpha + beta)
    rho = E.rho_of_potential(eos, rho_tilde)
    h = np.asarray(E.enthalpy(eos, rho), dtype=float)
    sig = np.asarray(E.sigma(eos, rho), dtype=float)
    eta2 = np.asarray(E.sound_speed_sq(eos, rho), dtype=float)
    eta = np.sqrt(eta2)
    v = -np.tanh(0.5 * (beta - alpha))
    p = np.asarray(E.pressure(eos, rho), dtype=float)
    Ew = (np.asarray(rho, dtype=float) + p) / (1.0 - v**2)
    mu = np.asarray(E.mu_coefficient(eos, rho_tilde), dtype=float)
    s = mu - (1.0 - eta2)
    one_m_v2 = 1.0 - v**2
    plus_den = 2.0 * (1.0 + v * eta) ** 2
    minus_den = 2.0 * (1.0 - v * eta) ** 2
    common = -2.0 * v * eta / np.asarray(r, dtype=float)
    w = Ew / (2.0 * eta)
    quantities = {
        "c_plus": (v + eta) / (1.0 + v * eta),
        "c_minus": (v - eta) / (1.0 - v * eta),
        "pa": one_m_v2 * mu / plus_den,
        "pb": one_m_v2 * (s - (1.0 - eta2)) / plus_den,
        "ma": one_m_v2 * ((1.0 - eta2) - s) / minus_den,
        "mb": -one_m_v2 * mu / minus_den,
        "A": common / (1.0 + v * eta),
        "B": common / (1.0 - v * eta),
        "tt": Ew - p,
        "tr": Ew * v,
        "rr": Ew * v**2 + p,
        "tt_alpha": w * (1.0 + v * eta) ** 2,
        "tr_alpha": w * (v + eta) * (1.0 + v * eta),
        "rr_alpha": w * (v + eta) ** 2,
        "tt_beta": w * (1.0 - v * eta) ** 2,
        "tr_beta": w * (v - eta) * (1.0 - v * eta),
        "rr_beta": w * (v - eta) ** 2,
        "enthalpy": h,
        "sigma": sig,
    }
    return {name: np.reshape(x, shape) for name, x in quantities.items()}


def wave_quantities(eos, pair, r):
    ws = S.wave_state(eos, pair)
    cp, cm = S.char_speeds(eos, pair)
    A, B = ws.sources(r)
    st = S.stress(eos, pair)
    return {
        "c_plus": cp,
        "c_minus": cm,
        **ws.speed_derivatives(eos),
        "A": A,
        "B": B,
        "tt": st.tt,
        "tr": st.tr,
        "rr": st.rr,
        **S.stress_derivatives(eos, pair)._asdict(),
        "enthalpy": ws.enthalpy(eos),
        "sigma": ws.sigma(eos),
    }


def enthalpy_and_sigma(eos, pair):
    ws = S.wave_state(eos, pair)
    return ws.enthalpy(eos), ws.sigma(eos)


LAWS = ["rad", "p2", "rad_generic", "table"]


class TestWaveStateMatchesBundle:
    """The lean state functions equal the bundle path bit for bit."""

    @pytest.mark.parametrize("law", LAWS)
    def test_lanes_bit_for_bit(self, law, request, rng):
        eos = request.getfixturevalue(law)
        pairs = random_pairs(rng, 64, rt_range=(-0.3, 0.3), zeta_range=(-0.8, 0.8))
        pair = S.RiemannPair(
            np.array([p.alpha for p in pairs]).reshape(8, 8),
            np.array([p.beta for p in pairs]).reshape(8, 8),
        )
        r = rng.uniform(0.5, 2.0, size=(8, 8))
        want = bundle_quantities(eos, pair, r)
        got = wave_quantities(eos, pair, r)
        assert got.keys() == want.keys()
        for name in want:
            assert np.shape(got[name]) == (8, 8), name
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("law", LAWS)
    def test_scalar_pairs_give_floats(self, law, request, rng):
        eos = request.getfixturevalue(law)
        for pair in random_pairs(rng, 4, rt_range=(-0.3, 0.3), zeta_range=(-0.8, 0.8)):
            want = bundle_quantities(eos, pair, 1.3)
            got = wave_quantities(eos, pair, 1.3)
            for name in want:
                assert type(got[name]) is float, name
                assert got[name] == float(want[name]), name

    @pytest.mark.parametrize(
        "fn",
        [
            lambda eos, pair: S.char_speeds(eos, pair),
            lambda eos, pair: S.wave_state(eos, pair).speed_derivatives(eos),
            lambda eos, pair: S.wave_state(eos, pair).sources(1.0),
            lambda eos, pair: S.stress(eos, pair),
            lambda eos, pair: S.stress_derivatives(eos, pair),
            enthalpy_and_sigma,
        ],
        ids=["char_speeds", "char_speed_derivatives", "source_terms", "stress",
             "stress_derivatives", "enthalpy_and_sigma"],
    )
    def test_one_inversion_and_one_density_check(self, rad, fn, monkeypatch):
        # the one range check is the inversion's, of the potential against
        # the image of the density range; the density it clips into that
        # range is not checked again
        counts = {"rho_of_potential": 0, "_check_in": 0, "_check_rho": 0}
        for name in counts:
            wrapped = getattr(E, name)

            def counting(*args, _name=name, _fn=wrapped, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(E, name, counting)
        fn(rad, S.RiemannPair(np.array([0.1, -0.2]), np.array([0.05, 0.3])))
        assert counts == {"rho_of_potential": 1, "_check_in": 1, "_check_rho": 0}

    @pytest.mark.parametrize("law", LAWS)
    def test_pressure_mu_and_jump_functionals_follow_the_pair(self, law, request):
        # a scalar pair gives Python floats, lanes give arrays of the same values
        eos = request.getfixturevalue(law)
        alpha, beta = np.array([0.1, -0.05, 0.2]), np.array([0.2, 0.1, -0.1])

        def values(a, b):
            pair = S.RiemannPair(a, b)
            ws = S.wave_state(eos, pair)
            behind = S.RiemannPair(a + 0.02, b + 0.001)
            return {
                "pressure": ws.pressure(eos),
                "mu": ws.mu(eos),
                "entropy_q": J.entropy_q(eos, pair),
                "hugoniot_residual": hugoniot_residual(eos, J.JumpPair(pair, behind)),
            }

        lanes = values(alpha, beta)
        for name, x in lanes.items():
            assert type(x) is np.ndarray and x.shape == (3,), name
        for k in range(3):
            for name, x in values(float(alpha[k]), float(beta[k])).items():
                assert type(x) is float, name
                assert x == pytest.approx(lanes[name][k], rel=1e-13, abs=1e-300), name

    def test_every_check_is_still_made(self, rad):
        with pytest.raises(OutOfRange, match="potential"):
            S.char_speeds(rad, S.RiemannPair(np.array([0.0, 40.0]), np.array([0.0, 40.0])))
        with pytest.raises(OutOfRange, match="r > 0"):
            S.wave_state(rad, S.RiemannPair(0.1, 0.2)).sources(np.array([1.0, 0.0]))
        stiff = E.radiation()
        stiff.dp_drho_fn = lambda r: np.full_like(np.asarray(r, dtype=float), 1.5)
        with pytest.raises(OutOfRange, match="dp/drho"):
            S.char_speeds(stiff, S.RiemannPair(0.1, 0.2))


# ---------------------------------------------------------------------------
# The lane rule: a scalar is a lane of one, and comes back as a float.
# ---------------------------------------------------------------------------

def _as_lane(x):
    """A float as a (1,) lane; pairs of floats component-wise; else as is."""
    if isinstance(x, float):
        return np.array([x])
    if isinstance(x, tuple):
        return type(x)(*map(_as_lane, x))
    return x


def _lane_calls(eos):
    """(name, function, scalar arguments) of every public lane function."""
    rho, rho_tilde = 1.3, 0.1
    ahead = S.RiemannPair(0.02, -0.01)
    behind = S.RiemannPair(0.1, J.solve_jump_beta(eos, 0.1, ahead))
    model = SA.synthesize_model(
        SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3), eos
    )
    calls = [
        (E.sound_speed_sq, (eos, rho)),
        (E.pressure, (eos, rho)),
        (E.sigma, (eos, rho)),
        (E.enthalpy, (eos, rho)),
        (E.rho_of_enthalpy, (eos, E.enthalpy(eos, rho))),
        (E.potential_of_rho, (eos, rho)),
        (E.rho_of_potential, (eos, rho_tilde)),
        (E.eta_of_potential, (eos, rho_tilde)),
        (E.mu_coefficient, (eos, rho_tilde)),
        (E.sigma_tilde_slope, (eos, E.enthalpy(eos, rho))),
        (E.eos_identity_residual, (eos, rho)),
        (S.velocity, (eos, behind)),
        (S.char_speeds, (eos, behind)),
        (S.stress, (eos, behind)),
        (S.stress_derivatives, (eos, behind)),
        (J.jump_scale, (eos, ahead)),
        (J.cubic_coefficient, (eos, ahead)),
        (J.solve_jump_beta, (eos, 0.1, ahead)),
        (J.shock_speed, (eos, J.JumpPair(ahead, behind))),
        (J.entropy_q, (eos, behind)),
        (model.eval, ("beta", 1e-4, 0.01, 1, 1)),
        (SA.singular_boundary, (model, 0.01)),
    ]
    return [(getattr(fn, "__qualname__", fn.__name__), fn, args) for fn, args in calls]


def _density_calls(eos, rho):
    """(name, function, scalar arguments) of the EOS lane functions at rho."""
    rho_tilde, h = E.potential_of_rho(eos, rho), E.enthalpy(eos, rho)
    calls = [E.sound_speed_sq, E.pressure, E.sigma, E.enthalpy, E.eos_identity_residual]
    return [(fn.__name__, fn, (eos, rho)) for fn in calls] + [
        (fn.__name__, fn, (eos, x))
        for fn, x in [
            (E.rho_of_enthalpy, h),
            (E.rho_of_potential, rho_tilde),
            (E.big_g, h * h),
            (E.sigma_tilde, h),
        ]
    ]


@pytest.mark.parametrize("law", ["rad", "p2", "table"])
def test_scalar_is_a_lane_of_one(law, request, rng):
    """Each public lane function gives a Python float for a scalar argument,
    bit for bit element 0 of the same call on a (1,) lane; the EOS functions
    at 300 sampled densities, where a last-bit difference shows."""
    eos = request.getfixturevalue(law)
    rhos = rng.uniform(max(2.0 * eos.rho_min, 0.2), min(0.5 * eos.rho_max, 4.0), 300)
    calls = _lane_calls(eos) + [c for rho in rhos.tolist() for c in _density_calls(eos, rho)]
    for name, fn, args in calls:
        scalar, lane = fn(*args), fn(*map(_as_lane, args))
        if not isinstance(scalar, tuple):
            scalar, lane = (scalar,), (lane,)
        assert len(scalar) == len(lane), name
        for s, x in zip(scalar, lane):
            assert type(s) is float, name
            assert type(x) is np.ndarray and x.shape == (1,), name
            assert np.float64(s).tobytes() == x[:1].tobytes(), name


@pytest.mark.parametrize("law", ["rad", "p2", "table"])
def test_state_squares_keep_the_lane_rule(law, request, rng):
    """The speed derivatives, (E, p) and the stress of a scalar pair are
    element 0 of the same calls on a (1,) lane, bit for bit, at 2,000
    sampled pairs: a square taken by ``**`` on a scalar rounds apart from a
    lane's at a few pairs in a thousand."""
    eos = request.getfixturevalue(law)
    for pair in random_pairs(rng, 2000, rt_range=(-0.3, 0.3), zeta_range=(-0.8, 0.8)):
        lane = _as_lane(pair)
        ws, wl = S.wave_state(eos, pair), S.wave_state(eos, lane)
        for name, scalar, one in [
            ("speed_derivatives", ws.speed_derivatives(eos).values(),
             wl.speed_derivatives(eos).values()),
            ("energy", ws.energy(eos), wl.energy(eos)),
            ("stress", S.stress(eos, pair), S.stress(eos, lane)),
        ]:
            for s, x in zip(scalar, one):
                assert np.float64(s).tobytes() == x[:1].tobytes(), (name, pair)
