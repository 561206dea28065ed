"""Pre-shock model: cusp constraints, boundary curves, carried initial data.

Oracles: exact coefficient identities by construction, 4th-order stencils
for eval self-consistency, scipy.integrate.solve_ivp and the node-by-node
RK4 march for the incoming characteristic, per-node Newton solves for the
singular boundary, and least-squares expansion fits for the corner behavior.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from shockdev import eos as E
from shockdev import fitting
from shockdev import state_ahead as SA
from shockdev.errors import InconsistentCusp, LeftBox, NonConvergence, OutOfBox
from shockdev.state import RiemannPair, char_speeds, wave_state

CUBIC_TARGET = math.sqrt(3.0) / 12.0  # lam / (6 kappa (c+0 - c-0)) at the canonical cusp


@pytest.fixture(scope="module")
def cusp(rad):
    return SA.CuspData.from_physics(
        rad, kappa=1.0, lam=1.0, alpha0=0.0, beta0=0.0, dbeta_dt0=0.3, r0=1.0
    )


@pytest.fixture(scope="module")
def model(cusp, rad):
    return SA.synthesize_model(cusp, rad, eps=0.1)


class TestCuspData:
    def test_canonical_alpha_slope(self, cusp):
        # kappa / (dc+/dalpha) with dc+/dalpha = 1/3 at the rest radiation state
        assert cusp.alpha_dot0 == pytest.approx(3.0, rel=1e-12)
        assert cusp.dcplus_dalpha0 == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert cusp.c_plus0 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert cusp.c_minus0 == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)
        assert cusp.a_tilde0 == 0.0

    def test_moving_state_source(self, rad):
        c = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, alpha0=0.4, beta0=0.0, r0=1.0, dbeta_dt0=0.0)
        v0 = math.tanh(0.2)
        eta = 1.0 / math.sqrt(3.0)
        assert c.a_tilde0 == pytest.approx(-2 * v0 * eta / (1 + v0 * eta), rel=1e-12)
        assert c.alpha_dot0 == pytest.approx(c.kappa / c.dcplus_dalpha0, rel=1e-14)

    def test_corner_limits(self, rad, cusp):
        assert cusp.f_hat0 == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert cusp.g_hat0 == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)), rel=1e-15)
        assert cusp.alpha_hat0 == 0.0
        assert cusp.beta_hat0 == pytest.approx(0.3 / 6.0, rel=1e-15)
        assert cusp.h_hat0 == pytest.approx(CUBIC_TARGET, rel=1e-14)
        # off the unit scales and at a moving state, each limit is its
        # closed form to the last bit
        c = SA.CuspData.from_physics(rad, kappa=0.9, lam=0.7, alpha0=0.4, dbeta_dt0=0.3)
        kap, lam = c.kappa, c.lam
        assert c.f_hat0 == lam / (6.0 * kap**2)
        assert c.g_hat0 == lam * c.c_plus0 / (6.0 * kap**2)
        assert c.alpha_hat0 == lam * c.a_tilde0 / (6.0 * kap**2) != 0.0
        assert c.beta_hat0 == lam / (6.0 * kap**2) * c.dbeta_dt0
        assert c.h_hat0 == lam / (6.0 * kap * (c.c_plus0 - c.c_minus0))

    @pytest.mark.parametrize("bad", [dict(kappa=-1.0), dict(kappa=0.0), dict(lam=-0.5), dict(r0=0.0)])
    def test_rejects_nonpositive_shape_data(self, rad, bad):
        args = dict(kappa=1.0, lam=1.0, alpha0=0.0, beta0=0.0, dbeta_dt0=0.0, r0=1.0)
        args.update(bad)
        with pytest.raises(InconsistentCusp):
            SA.CuspData.from_physics(rad, **args)

    def test_rejects_insensitive_sound_speed(self):
        # quadratic pressure correction tuned so the steepening coefficient
        # vanishes at the reference state: no alpha slope can refocus rays
        b = 0.09 / 1.9
        eos = E.BarotropicEos(
            label="flat-steepening",
            pressure_fn=lambda rho: 0.9 * rho - b * (rho - 1.0) ** 2,
            dp_drho_fn=lambda rho: 0.9 - 2.0 * b * (rho - 1.0),
            rho_min=0.6,
            rho_max=1.6,
        )
        with pytest.raises(InconsistentCusp):
            SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, alpha0=0.0, beta0=0.0, dbeta_dt0=0.0, r0=1.0)


class TestModelCoefficients:
    def test_radius_constraints(self, model, cusp):
        assert model.eval("r", 0, 0) == cusp.r0
        assert model.eval("r", 0, 0, dt=1) == cusp.c_plus0
        assert model.eval("r", 0, 0, dw=1) == 0.0
        assert model.eval("r", 0, 0, dw=2) == 0.0
        assert model.eval("r", 0, 0, dw=3) == -cusp.lam / cusp.kappa
        assert model.eval("r", 0, 0, dt=1, dw=1) == cusp.kappa

    def test_invariant_constraints(self, model, cusp):
        assert model.eval("alpha", 0, 0) == cusp.alpha0
        assert model.eval("alpha", 0, 0, dw=1) == cusp.alpha_dot0
        assert model.eval("alpha", 0, 0, dw=2) == cusp.alpha_ddot0
        assert model.eval("beta", 0, 0) == cusp.beta0
        assert model.eval("beta", 0, 0, dt=1) == cusp.dbeta_dt0
        assert model.eval("beta", 0, 0, dw=1) == 0.0
        assert model.eval("beta", 0, 0, dw=2) == 0.0

    def test_radius_profile_at_zero_time(self, model, cusp):
        w = 0.05
        assert model.eval("r", 0.0, w) == pytest.approx(
            cusp.r0 - cusp.lam / (6 * cusp.kappa) * w**3, rel=1e-14
        )

    def test_quartic_shape_term(self, cusp, rad):
        c = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3, r0=1.0, xi=0.6)
        m = SA.synthesize_model(c, rad, eps=0.1)
        assert m.eval("r", 0, 0, dw=4) == pytest.approx(0.6, rel=1e-14)

    def test_eval_matches_stencil_derivatives(self, model):
        fd = fitting.derivative(lambda tv: model.eval("r", tv, 0.03), 0.0, order=1, step=1e-3)
        assert fd == pytest.approx(model.eval("r", 0.0, 0.03, dt=1), abs=1e-10)
        fd3 = fitting.derivative(lambda wv: model.eval("r", 0.001, wv), 0.02, order=3, step=1e-2)
        assert fd3 == pytest.approx(model.eval("r", 0.001, 0.02, dw=3), abs=1e-8)
        mx = fitting.mixed_second(lambda tv, wv: model.eval("r", tv, wv), 0.0, 0.0)
        assert mx == pytest.approx(model.eval("r", 0.0, 0.0, dt=1, dw=1), abs=1e-8)

    def test_eval_outside_box(self, model):
        with pytest.raises(OutOfBox):
            model.eval("r", 2 * model.box_t, 0.0)
        with pytest.raises(OutOfBox):
            model.eval("alpha", 0.0, np.array([0.0, 3 * model.box_w]))
        with pytest.raises(OutOfBox):
            model.eval("beta", math.nan, 0.0)
        assert model.eval("r", np.zeros(0), 0.0).shape == (0,)

    def test_eval_rejects_bad_requests(self, model):
        with pytest.raises(ValueError):
            model.eval("pressure", 0.0, 0.0)
        with pytest.raises(ValueError):
            model.eval("r", 0.0, 0.0, dt=3, dw=2)


class TestSynthesisOverrides:
    def test_free_slot_override(self, cusp, rad):
        m = SA.synthesize_model(cusp, rad, eps=0.1, overrides={"r": {(2, 0): 0.3}})
        assert m.eval("r", 0, 0, dt=2) == pytest.approx(0.6, rel=1e-14)

    def test_constrained_slot_rejected(self, cusp, rad):
        with pytest.raises(InconsistentCusp):
            SA.synthesize_model(cusp, rad, eps=0.1, overrides={"alpha": {(0, 1): 5.0}})

    def test_degree_and_slot_validation(self, cusp, rad):
        with pytest.raises(ValueError):
            SA.synthesize_model(cusp, rad, degree=3)
        with pytest.raises(ValueError):
            SA.synthesize_model(cusp, rad, eps=0.1, overrides={"r": {(4, 4): 1.0}})
        with pytest.raises(ValueError):
            SA.synthesize_model(cusp, rad, eps=0.1, overrides={"speed": {(0, 0): 1.0}})


class TestSingularBoundary:
    def test_corner_value(self, model):
        assert SA.singular_boundary(model, 0.0) == 0.0

    def test_leading_quadratic(self, model):
        assert SA.singular_boundary(model, 0.1) == pytest.approx(0.005, rel=1e-12)

    def test_quartic_correction(self, rad):
        c = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3, r0=1.0, xi=0.6)
        m = SA.synthesize_model(c, rad, eps=0.1)
        t_star = SA.singular_boundary(m, 0.1)
        assert t_star == pytest.approx(0.005 - 0.6 / 6.0 * 0.1**3, rel=1e-12)
        # root property: the radius is exactly critical in w there
        assert abs(m.eval("r", t_star, 0.1, dw=1)) < 1e-16

    def test_array_input(self, model):
        w = np.array([0.0, 0.05, 0.1])
        t = SA.singular_boundary(model, w)
        assert t == pytest.approx(0.5 * w**2, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n_nodes", [1, 3, 65])
    @pytest.mark.parametrize("xi", [0.0, 0.6, -40.0])
    def test_lanes_bit_identical_to_per_node_solves(self, rad, n_nodes, xi):
        c = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3, r0=1.0, xi=xi)
        m = SA.synthesize_model(c, rad, eps=0.1)
        w = np.linspace(0.0, 0.2, n_nodes) if n_nodes > 1 else np.array([0.13])
        got = SA.singular_boundary(m, w)
        want = np.array([per_node_singular_boundary(m, float(wv)) for wv in w])
        assert got.shape == w.shape
        assert np.array_equal(got, want)

    def test_scalar_input_returns_float(self, model):
        t = SA.singular_boundary(model, 0.07)
        assert type(t) is float
        assert t == per_node_singular_boundary(model, 0.07)
        assert type(SA.singular_boundary(model, np.float64(0.07))) is float

    def test_shape_kept(self, model):
        w = np.array([[0.0, 0.05], [0.1, 0.02]])
        assert SA.singular_boundary(model, w).shape == (2, 2)
        assert SA.singular_boundary(model, np.zeros(0)).shape == (0,)


class TestIncomingCharacteristic:
    def test_cubic_coefficient_fit(self, model, rad):
        curve = SA.incoming_characteristic(model, rad, 0.05, 200)
        basis = np.vstack([curve.w**3, curve.w**4, curve.w**5]).T
        coef, *_ = np.linalg.lstsq(basis, curve.t, rcond=None)
        assert coef[0] == pytest.approx(CUBIC_TARGET, rel=1e-2)
        # and in fact far better; halving the interval improves the fit
        assert abs(coef[0] - CUBIC_TARGET) / CUBIC_TARGET < 1e-4
        half = SA.incoming_characteristic(model, rad, 0.025, 200)
        basis_h = np.vstack([half.w**3, half.w**4, half.w**5]).T
        coef_h, *_ = np.linalg.lstsq(basis_h, half.t, rcond=None)
        assert abs(coef_h[0] - CUBIC_TARGET) < abs(coef[0] - CUBIC_TARGET)

    def test_vanishing_low_order_terms(self, model, rad):
        curve = SA.incoming_characteristic(model, rad, 0.05, 200)
        basis = np.vstack([curve.w, curve.w**2, curve.w**3, curve.w**4]).T
        coef, *_ = np.linalg.lstsq(basis, curve.t, rcond=None)
        assert abs(coef[0]) < 1e-6
        assert abs(coef[1]) < 1e-4
        assert curve.t[0] == 0.0
        assert curve.slope[0] == 0.0

    def test_monotone_increasing(self, model, rad):
        curve = SA.incoming_characteristic(model, rad, 0.05, 100)
        assert np.all(np.diff(curve.t) > 0)

    def test_against_adaptive_integrator(self, model, rad):
        curve = SA.incoming_characteristic(model, rad, 0.05, 200)

        def rhs(wv, tv):
            a = model.eval("alpha", tv[0], wv)
            b = model.eval("beta", tv[0], wv)
            cp, cm = char_speeds(rad, RiemannPair(a, b))
            return [-model.eval("r", tv[0], wv, dw=1) / (cp - cm)]

        sol = solve_ivp(
            rhs, (0.0, 0.05), [0.0], t_eval=curve.w, rtol=1e-12, atol=1e-16, method="DOP853"
        )
        assert np.max(np.abs(sol.y[0] - curve.t)) < 1e-10

    def test_explicit_nodes(self, model, rad):
        nodes = np.linspace(0.0, 0.04, 33)
        curve = SA.incoming_characteristic(model, rad, w_nodes=nodes)
        uniform = SA.incoming_characteristic(model, rad, 0.04, 32)
        assert curve.t == pytest.approx(uniform.t, abs=1e-15)

    def test_interval_outside_box(self, model, rad):
        with pytest.raises(LeftBox, match=r"requested interval \[0, 0.3\]"):
            SA.incoming_characteristic(model, rad, 0.3, 10)
        with pytest.raises(LeftBox):
            sequential_march(model, rad, 0.3, 10)

    def test_trajectory_exit(self, rad):
        # huge quartic shape term drives the curve out of the shallow box
        c = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.0, r0=1.0, xi=-1e6)
        m = SA.synthesize_model(c, rad, eps=0.01)
        with pytest.raises(LeftBox, match=r"left the validity box at \(t, w\) = "):
            SA.incoming_characteristic(m, rad, 0.02, 64)
        with pytest.raises(LeftBox):
            sequential_march(m, rad, 0.02, 64)

    def test_pass_cap_raises_with_history(self, model, rad, monkeypatch):
        monkeypatch.setattr(SA, "_MARCH_PASSES", 1)
        with pytest.raises(NonConvergence) as info:
            SA.incoming_characteristic(model, rad, 0.05, 64)
        assert len(info.value.history) == 1
        assert info.value.history[0] > 0.0


class TestInitialData:
    def test_hatted_corner_values(self, rad):
        c = SA.CuspData.from_physics(
            rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3, r0=1.0, alpha_ddot0=0.4
        )
        m = SA.synthesize_model(c, rad, eps=0.01)
        init = SA.initial_data(m, rad, 0.01, 64)
        assert init.h_hat[0] == pytest.approx(CUBIC_TARGET, rel=1e-14)
        assert init.alpha_i_hat[0] == pytest.approx(0.2, rel=1e-12)
        assert init.alpha_i[0] == c.alpha0
        assert np.all(init.dh_du >= 0)
        # hatted time data stays near its corner value across the interval
        assert np.max(np.abs(init.h_hat - CUBIC_TARGET)) < 0.01 * CUBIC_TARGET

    def test_consistent_with_characteristic(self, model, rad):
        init = SA.initial_data(model, rad, 0.05, 50)
        curve = SA.incoming_characteristic(model, rad, 0.05, 50)
        assert init.h == pytest.approx(curve.t, abs=1e-16)
        assert init.dh_du == pytest.approx(curve.slope, abs=1e-16)
        alpha_direct = model.eval("alpha", curve.t, curve.w)
        assert init.alpha_i == pytest.approx(alpha_direct, abs=1e-16)


class TestModelSerialization:
    def test_round_trip(self, model, rad, tmp_path):
        path = tmp_path / "model.json"
        model.dump(path)
        loaded = SA.load_model(path, rad)
        assert loaded.coeffs == model.coeffs
        assert loaded.cusp == model.cusp
        assert loaded.box_t == model.box_t and loaded.box_w == model.box_w
        pts_t = np.array([0.0, 5e-3, -2e-3])
        pts_w = np.array([0.0, 0.04, 0.09])
        for field in ("r", "alpha", "beta"):
            assert loaded.eval(field, pts_t, pts_w) == pytest.approx(
                model.eval(field, pts_t, pts_w), abs=0
            )

    def test_dump_has_no_l_and_older_dump_with_l_loads(self, model, rad, tmp_path):
        path = tmp_path / "model.json"
        model.dump(path)
        payload = json.loads(path.read_text())
        assert "l" not in payload["cusp"]
        # the derived corner limits are properties, not stored fields
        assert set(payload["cusp"]) == set(dataclasses.asdict(model.cusp))
        assert "f_hat0" not in payload["cusp"]
        payload["cusp"]["l"] = 0.25
        path.write_text(json.dumps(payload))
        assert SA.load_model(path, rad).cusp == model.cusp

    def test_label_mismatch(self, model, p2, tmp_path):
        path = tmp_path / "model.json"
        model.dump(path)
        with pytest.raises(ValueError):
            SA.load_model(path, p2)


def reference_eval(model, field, t, w, dt=0, dw=0):
    """The model polynomial summed slot by slot, straight from the coefficients."""
    t_arr = np.asarray(t, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    if np.any(np.abs(t_arr) > model.box_t * (1.0 + 1e-12)) or np.any(
        np.abs(w_arr) > model.box_w * (1.0 + 1e-12)
    ):
        raise OutOfBox("outside")
    out = np.zeros(np.broadcast(t_arr, w_arr).shape)
    for (i, j), c in model.coeffs[field].items():
        if i < dt or j < dw:
            continue
        factor = c * math.perm(i, dt) * math.perm(j, dw)
        out = out + factor * t_arr ** (i - dt) * w_arr ** (j - dw)
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize(
    "overrides",
    [None, {"alpha": {(1, 1): 0.7, (2, 0): -3.0, (0, 3): 2.0}, "r": {(2, 1): 0.4, (1, 2): -0.2}}],
)
def test_initial_data_bit_identical_to_reference_eval(rad, cusp, overrides, monkeypatch):
    model = SA.synthesize_model(cusp, rad, eps=0.01, overrides=overrides)
    got = SA.initial_data(model, rad, 0.01, 64)
    monkeypatch.setattr(SA.StateAheadModel, "eval", reference_eval)
    want = SA.initial_data(model, rad, 0.01, 64)
    for name in got._fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# Node-by-node references for the lane-wise solves
# ---------------------------------------------------------------------------

def per_node_singular_boundary(model, wv):
    """Newton solve of dr/dw = 0 for t at one w, one scalar step at a time."""
    cusp = model.cusp
    tv = cusp.lam / (2.0 * cusp.kappa**2) * wv * wv
    for _ in range(50):
        step = model.eval("r", tv, wv, dw=1) / model.eval("r", tv, wv, dt=1, dw=1)
        tv -= step
        if abs(step) <= 1e-15 * (abs(tv) + wv * wv) + 1e-300:
            break
    return tv


def sequential_march(model, eos, u_max=None, n_points=None, *, w_nodes=None):
    """The RK4 march of the incoming characteristic, one interval after the

    other with Python-float right-hand sides (same nodes, series seed and
    4 substeps per interval as ``incoming_characteristic``).
    """
    if w_nodes is not None:
        w = np.asarray(w_nodes, dtype=float)
        u_max = float(w[-1])
    else:
        w = np.linspace(0.0, float(u_max), int(n_points) + 1)
    if u_max > model.box_w:
        raise LeftBox(f"requested interval [0, {u_max:g}] exceeds the validity box")
    cusp = model.cusp
    cubic = cusp.lam / (6.0 * cusp.kappa * (cusp.c_plus0 - cusp.c_minus0))

    def rhs(wv, tv):
        if abs(tv) > model.box_t or abs(wv) > model.box_w:
            raise LeftBox(f"left the validity box at (t, w) = ({tv:g}, {wv:g})")
        a = model.eval("alpha", tv, wv)
        b = model.eval("beta", tv, wv)
        cp, cm = char_speeds(eos, RiemannPair(a, b))
        return -model.eval("r", tv, wv, dw=1) / (cp - cm)

    w_series = min(4.0 * float(np.max(np.diff(w))), u_max / 8.0)
    t = np.empty_like(w)
    series = w <= w_series
    t[series] = cubic * w[series] ** 3
    for i in range(int(np.count_nonzero(series)) - 1, len(w) - 1):
        wv, tv = float(w[i]), float(t[i])
        sub = (float(w[i + 1]) - wv) / 4.0
        for _ in range(4):
            k1 = rhs(wv, tv)
            k2 = rhs(wv + sub / 2.0, tv + sub * k1 / 2.0)
            k3 = rhs(wv + sub / 2.0, tv + sub * k2 / 2.0)
            k4 = rhs(wv + sub, tv + sub * k3)
            tv += sub * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            wv += sub
        t[i + 1] = tv
    slope = np.array([rhs(float(wv), float(tv)) for wv, tv in zip(w, t)])
    return SA.CharacteristicData(w=w, t=t, slope=slope)


def assert_matches_march(curve, ref, rel=1e-15):
    """t and slope agree with the march to rel * their largest magnitude."""
    assert np.array_equal(curve.w, ref.w)
    assert np.max(np.abs(curve.t - ref.t)) <= rel * np.max(np.abs(ref.t))
    assert np.max(np.abs(curve.slope - ref.slope)) <= rel * np.max(np.abs(ref.slope))


class TestLaneMarch:
    """The whole-trajectory Newton solve against the node-by-node march."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("eos_name", ["rad", "p2"])
    def test_matches_sequential_march(self, request, eos_name, n):
        eos = request.getfixturevalue(eos_name)
        c = SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        m = SA.synthesize_model(c, eos, eps=0.01)
        assert_matches_march(
            SA.incoming_characteristic(m, eos, 0.01, n), sequential_march(m, eos, 0.01, n)
        )

    def test_non_uniform_nodes(self, model, rad):
        s = np.linspace(0.0, 1.0, 81)
        nodes = 0.05 * (s + 0.3 * s**2) / 1.3
        assert_matches_march(
            SA.incoming_characteristic(model, rad, w_nodes=nodes),
            sequential_march(model, rad, w_nodes=nodes),
        )

    def test_overridden_model(self, rad, cusp):
        overrides = {
            "alpha": {(1, 1): 0.7, (2, 0): -3.0, (0, 3): 2.0},
            "r": {(2, 1): 0.4, (1, 2): -0.2},
        }
        m = SA.synthesize_model(cusp, rad, eps=0.01, overrides=overrides)
        assert_matches_march(
            SA.incoming_characteristic(m, rad, 0.01, 64), sequential_march(m, rad, 0.01, 64)
        )

    @pytest.mark.parametrize("xi", [-1e5, 1e5])
    def test_large_shape_term(self, rad, xi):
        c = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.0, r0=1.0, xi=xi)
        m = SA.synthesize_model(c, rad, eps=0.01)
        assert_matches_march(
            SA.incoming_characteristic(m, rad, 0.02, 64), sequential_march(m, rad, 0.02, 64)
        )

    def test_generic_eos_matches_closed_form(self, rad, rad_generic):
        # the lane march evaluates the generic law on its chart; measured
        # max|dt| 4e-23 on max|t| 1.4e-7 (2.8e-16 relative) at n = 16...256
        c_rad = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        c_gen = SA.CuspData.from_physics(rad_generic, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        for n in (16, 64, 256):
            got = SA.incoming_characteristic(
                SA.synthesize_model(c_gen, rad_generic, eps=0.01), rad_generic, 0.01, n
            )
            want = SA.incoming_characteristic(
                SA.synthesize_model(c_rad, rad, eps=0.01), rad, 0.01, n
            )
            assert_matches_march(got, want)

    def test_wave_state_calls_do_not_grow_with_n(self, rad, canon_model, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return wave_state(*args, **kwargs)

        monkeypatch.setattr(SA, "wave_state", counting)
        counts = []
        for n in (64, 256):
            calls.clear()
            SA.initial_data(canon_model, rad, 0.01, n)
            counts.append(len(calls))
        # one state evaluation per right-hand side, for the speeds and their
        # derivatives together: 16 per Newton pass, at most 8 passes, one
        # slope call
        assert 0 < counts[0] == counts[1] <= 16 * 8 + 1
