"""Thermodynamic chain: closed forms, the generic chart, and identities.

Oracles: the radiation and quadratic laws have independently derived closed
chains (frozen literals below); the generic chart is checked against the
closed forms and against SciPy's adaptive ``quad``, its monotone cubic
against ``PchipInterpolator``, and the pressure inversion of the identity
residual against ``brentq``; differential identities are checked by
symmetric differencing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from shockdev import eos as E
from shockdev.errors import OutOfRange

SQRT3 = math.sqrt(3.0)

# frozen closed-chain values at rho = 2 (radiation: rho_ref = h_ref = 1)
RAD_SIGMA_2 = 2.242390440676572
RAD_H_2 = 1.189207115002721
RAD_RT_2 = 0.3001415334632359

# frozen closed-chain values at rho = 2 (p = 0.1 rho^2, rho_ref = h_ref = 1)
P2_SIGMA_2 = 2.016666666666667
P2_H_2 = 1.190082644628099
P2_RT_2 = 0.3231675021488803
P2_MU_2 = 1.2


class TestSoundSpeed:
    def test_radiation_is_one_third(self, rad):
        assert E.sound_speed_sq(rad, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_quadratic_law_value(self, p2):
        assert E.sound_speed_sq(p2, 1.0) == pytest.approx(0.2, abs=1e-15)

    def test_quadratic_law_out_of_range(self, p2):
        with pytest.raises(OutOfRange):
            E.sound_speed_sq(p2, 6.0)

    def test_subluminal_on_sampled_range(self, rad, p2, rng):
        for eos in (rad, p2):
            rho = rng.uniform(eos.rho_min, eos.rho_max, size=200)
            eta2 = E.sound_speed_sq(eos, rho)
            assert np.all(eta2 > 0) and np.all(eta2 < 1)


class TestDensityRange:
    """Every chain function rejects densities outside [rho_min, rho_max]."""

    @pytest.mark.parametrize(
        "rho",
        [math.nan, math.inf, -math.inf, 1e-7, 2e6, np.array([1.0, math.nan, 2.0])],
        ids=["nan", "plus_inf", "minus_inf", "below_min", "above_max", "nan_in_array"],
    )
    def test_rejected(self, rad, rho):
        with pytest.raises(OutOfRange, match=r"density in \[.*\] outside admissible"):
            E.pressure(rad, rho)

    def test_message_names_the_extremes(self, rad):
        with pytest.raises(OutOfRange, match=r"density in \[0\.5, 3000000\.0\]"):
            E.pressure(rad, np.array([2.0, 0.5, 3e6]))

    def test_zero_dim_input_accepted(self, rad):
        out = E.pressure(rad, np.float64(2.0))
        assert type(out) is float and out == pytest.approx(2.0 / 3.0)

    def test_array_input_accepted(self, rad):
        rho = np.array([rad.rho_min, 1.0, rad.rho_max])
        np.testing.assert_array_equal(E.pressure(rad, rho), rho / 3.0)

    def test_empty_array_accepted(self, rad):
        assert E.pressure(rad, np.array([])).shape == (0,)


class TestSoundSpeedRange:
    @pytest.fixture(scope="class")
    def nan_gap(self):
        """Radiation-like law whose dp/drho is NaN only on (5.5, 5.51),

        between the 65 construction probes, so the EOS builds.
        """

        def dp_drho(rho):
            a = np.asarray(rho, dtype=float)
            out = np.where((a > 5.5) & (a < 5.51), math.nan, 1.0 / 3.0)
            return out if out.ndim else float(out)

        return E.BarotropicEos(
            label="nan-gap",
            pressure_fn=lambda r: np.asarray(r, dtype=float) / 3.0,
            dp_drho_fn=dp_drho,
            rho_min=0.05,
            rho_max=20.0,
        )

    @pytest.mark.parametrize(
        "rho", [5.505, np.array([1.0, 5.505, 2.0])], ids=["scalar", "array"]
    )
    def test_nan_sound_speed_rejected(self, nan_gap, rho):
        with pytest.raises(OutOfRange, match=r"dp/drho left \(0, 1\) at rho="):
            E.sound_speed_sq(nan_gap, rho)

    def test_finite_values_pass(self, nan_gap):
        assert E.sound_speed_sq(nan_gap, 5.0) == 1.0 / 3.0
        np.testing.assert_array_equal(
            E.sound_speed_sq(nan_gap, np.array([1.0, 6.0])), [1.0 / 3.0, 1.0 / 3.0]
        )
        assert E.sound_speed_sq(nan_gap, np.array([])).shape == (0,)


class TestPotentialChain:
    def test_reference_point_vanishes(self, rad, p2, rad_generic):
        for eos in (rad, p2, rad_generic):
            assert E.riemann_potential(eos, eos.h_ref) == pytest.approx(0.0, abs=1e-13)

    def test_radiation_log_form(self, rad):
        # rho_tilde = sqrt(3) log h; at h = e the value is exactly sqrt(3)
        assert E.riemann_potential(rad, math.e) == pytest.approx(SQRT3, rel=1e-12)

    def test_frozen_values_radiation(self, rad):
        assert E.sigma(rad, 2.0) == pytest.approx(RAD_SIGMA_2, rel=1e-14)
        assert E.enthalpy(rad, 2.0) == pytest.approx(RAD_H_2, rel=1e-14)
        assert E.potential_of_rho(rad, 2.0) == pytest.approx(RAD_RT_2, rel=1e-14)

    def test_frozen_values_quadratic(self, p2):
        assert p2.sigma_ref == pytest.approx(1.1, rel=1e-14)
        assert E.sigma(p2, 2.0) == pytest.approx(P2_SIGMA_2, rel=1e-14)
        assert E.enthalpy(p2, 2.0) == pytest.approx(P2_H_2, rel=1e-14)
        assert E.potential_of_rho(p2, 2.0) == pytest.approx(P2_RT_2, rel=1e-14)

    def test_generic_quadrature_matches_closed_form(self, rad, rad_generic):
        # same pressure law, one instance reads the chart
        for rho in (0.2, 0.9, 1.0, 1.7, 6.3):
            assert E.sigma(rad_generic, rho) == pytest.approx(
                E.sigma(rad, rho), rel=1e-10
            )
            assert E.potential_of_rho(rad_generic, rho) == pytest.approx(
                E.potential_of_rho(rad, rho), abs=1e-10
            )
        h = E.enthalpy(rad, 1.7)
        assert E.riemann_potential(rad_generic, h) == pytest.approx(
            E.riemann_potential(rad, h), abs=1e-10
        )

    def test_generic_array_path_uses_chart(self, rad, rad_generic):
        rho = np.geomspace(0.1, 10.0, 17)
        assert np.max(np.abs(E.sigma(rad_generic, rho) - E.sigma(rad, rho))) < 1e-9
        assert (
            np.max(
                np.abs(
                    E.potential_of_rho(rad_generic, rho)
                    - E.potential_of_rho(rad, rho)
                )
            )
            < 1e-9
        )

    def test_monotone_increasing(self, rad, p2):
        for eos in (rad, p2):
            rho = np.geomspace(eos.rho_min * 2, eos.rho_max * 0.9, 40)
            pot = E.potential_of_rho(eos, rho)
            h = E.enthalpy(eos, rho)
            assert np.all(np.diff(pot) > 0)
            assert np.all(np.diff(h) > 0)

    def test_round_trip_potential(self, rad, p2, rad_generic, rng):
        # invert rho_tilde -> h by bracketing, re-apply the potential
        for eos in (rad, p2, rad_generic):
            lo = E.potential_of_rho(eos, eos.rho_min * 3)
            hi = E.potential_of_rho(eos, eos.rho_max / 3)
            for pot in rng.uniform(lo, hi, size=8):
                h = E.enthalpy_of_potential(eos, float(pot))
                assert E.riemann_potential(eos, h) == pytest.approx(
                    float(pot), abs=1e-10
                )

    def test_out_of_range_rejected(self, rad):
        with pytest.raises(OutOfRange):
            E.potential_of_rho(rad, 1e7)


class TestWaveSpeedWeight:
    def test_reference_value(self, rad, p2):
        for eos in (rad, p2):
            H_ref = eos.h_ref**2
            assert E.big_g(eos, H_ref) == pytest.approx(
                eos.sigma_ref / math.sqrt(H_ref), rel=1e-14
            )

    def test_radiation_proportional_to_H(self, rad):
        # sigma/h = sigma_ref rho^{1/2} = (4/3) H for unit references
        H = np.geomspace(0.3, 3.0, 11)
        G = np.array([E.big_g(rad, float(x)) for x in H])
        assert np.max(np.abs(G / H - 4.0 / 3.0)) < 1e-8

    def test_product_recovers_energy_density(self, rad, p2, rng):
        # G * H = sigma * h = rho + p
        for eos in (rad, p2):
            for rho in rng.uniform(eos.rho_min * 2, eos.rho_max * 0.9, size=10):
                h = E.enthalpy(eos, float(rho))
                val = E.big_g(eos, h * h) * h * h
                assert val == pytest.approx(
                    float(rho) + E.pressure(eos, float(rho)), rel=1e-8
                )


class TestNonlinearityCoefficient:
    def test_radiation_constant(self, rad):
        for rt in (-0.4, 0.0, 0.7):
            assert E.mu_coefficient(rad, rt) == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_quadratic_closed_form(self, p2):
        assert E.mu_coefficient(p2, P2_RT_2) == pytest.approx(P2_MU_2, rel=1e-12)

    def test_closed_form_matches_differencing(self, p2):
        # strip the closed slope so the symmetric-difference branch runs
        stripped = E.BarotropicEos(
            label="poly2-fd",
            pressure_fn=p2.pressure_fn,
            dp_drho_fn=p2.dp_drho_fn,
            rho_min=p2.rho_min,
            rho_max=p2.rho_max,
            rho_ref=p2.rho_ref,
            h_ref=p2.h_ref,
            sigma_cf=p2.sigma_cf,
            enthalpy_cf=p2.enthalpy_cf,
            rho_of_enthalpy_cf=p2.rho_of_enthalpy_cf,
            potential_of_rho_cf=p2.potential_of_rho_cf,
            rho_of_potential_cf=p2.rho_of_potential_cf,
        )
        for rt in (-0.1, 0.0, 0.3):
            assert E.mu_coefficient(stripped, rt) == pytest.approx(
                E.mu_coefficient(p2, rt), abs=1e-8
            )

    def test_positive_where_required(self, rad, p2, rng):
        for eos in (rad, p2):
            lo = E.potential_of_rho(eos, eos.rho_min * 3)
            hi = E.potential_of_rho(eos, eos.rho_max / 3)
            rt = rng.uniform(lo, hi, size=20)
            assert np.all(np.asarray(E.mu_coefficient(eos, rt)) > 0)


class TestStiffnessIdentities:
    def test_slope_relation(self, rad, p2):
        # d Sigma_tilde / dh == -2 mu / h^3
        for eos, rhos in ((rad, (0.5, 1.0, 2.0)), (p2, (0.5, 1.0, 2.0))):
            for rho in rhos:
                h = E.enthalpy(eos, rho)
                rt = E.potential_of_rho(eos, rho)
                lhs = E.sigma_tilde_slope(eos, h)
                rhs = -2.0 * E.mu_coefficient(eos, rt) / h**3
                assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_radiation_slope_closed_form(self, rad):
        # Sigma_tilde = (2/3) h^{-2}, so the slope is -(4/3) h^{-3}
        h = E.enthalpy(rad, 2.0)
        assert E.sigma_tilde_slope(rad, h) == pytest.approx(
            -(4.0 / 3.0) / h**3, rel=1e-7
        )

    def test_consistency_identity(self, rad, p2):
        for eos, rhos in ((rad, (0.7, 1.0, 1.7)), (p2, (0.7, 1.0, 2.0, 3.0))):
            for rho in rhos:
                lhs, rhs = E.eos_identity_residual(eos, rho)
                assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_pressure_inversion_matches_brentq(self, rad, p2, monkeypatch):
        roots = []
        newton = E.safeguarded_newton_lanes

        def recording(*args, **kw):
            roots.append(newton(*args, **kw))
            return roots[-1]

        monkeypatch.setattr(E, "safeguarded_newton_lanes", recording)
        for eos, rho in ((rad, 0.7), (rad, 1.7), (p2, 0.7), (p2, 3.0), (_nonlinear_table(), 2.0)):
            roots.clear()
            E.eos_identity_residual(eos, rho)
            assert len(roots) == 1
            p0 = E.pressure(eos, rho)
            for r, pv in zip(roots[0], (p0 - 1e-3 * p0, p0, p0 + 1e-3 * p0)):
                oracle = brentq(
                    lambda x: float(eos.pressure_fn(x)) - pv,
                    eos.rho_min, eos.rho_max, xtol=1e-15, rtol=8.9e-16,
                )
                assert r == pytest.approx(oracle, rel=2e-15, abs=0.0)


class TestTabulated:
    def _table(self, rad):
        rho = np.geomspace(0.2, 5.0, 400)
        return np.column_stack([rho, rho / 3.0])

    def test_matches_source_law(self, rad, tmp_path):
        path = tmp_path / "radiation.tsv"
        np.savetxt(path, self._table(rad))
        tab = E.from_table(path, rho_ref=1.0)
        assert E.sound_speed_sq(tab, 1.3) == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert E.sigma(tab, 1.3) == pytest.approx(E.sigma(rad, 1.3), rel=1e-6)
        assert E.potential_of_rho(tab, 1.3) == pytest.approx(
            E.potential_of_rho(rad, 1.3), abs=1e-6
        )

    def test_comma_separated(self, rad, tmp_path):
        path = tmp_path / "radiation.csv"
        rows = self._table(rad)
        with open(path, "w") as fh:
            for r, p in rows:
                fh.write(f"{float(r):.17g},{float(p):.17g}\n")
        tab = E.from_table(path, rho_ref=1.0)
        assert E.sound_speed_sq(tab, 1.3) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_rejects_non_monotone(self, tmp_path):
        bad = np.array([[0.5, 0.2], [0.4, 0.25], [0.6, 0.3], [0.7, 0.31]])
        with pytest.raises(OutOfRange):
            E.from_table(bad)

    def test_rejects_superluminal(self):
        rho = np.linspace(1.0, 2.0, 20)
        with pytest.raises(OutOfRange):
            E.from_table(np.column_stack([rho, 1.5 * rho]))

    def test_out_of_table_range(self, rad):
        tab = E.from_table(self._table(rad), rho_ref=1.0)
        with pytest.raises(OutOfRange):
            E.sound_speed_sq(tab, 10.0)


def _stripped(eos):
    """The same pressure law with every closed form removed."""
    return E.BarotropicEos(
        label=f"{eos.label}-generic",
        pressure_fn=eos.pressure_fn,
        dp_drho_fn=eos.dp_drho_fn,
        rho_min=eos.rho_min,
        rho_max=eos.rho_max,
        rho_ref=eos.rho_ref,
        h_ref=eos.h_ref,
    )


def _nonlinear_table():
    rho = np.geomspace(0.05, 4.5, 400)
    return E.from_table(np.column_stack([rho, 0.1 * rho**2 + 0.05 * rho]), rho_ref=1.0)


def _quad_chart(eos, rho):
    """sigma and rho_tilde at the sorted densities ``rho`` (rho_ref among
    them) by adaptive quad between consecutive densities."""

    def f_sigma(r):
        return 1.0 / (r + float(eos.pressure_fn(r)))

    def f_pot(r):
        return math.sqrt(float(eos.dp_drho_fn(r))) * f_sigma(r)

    pieces = [
        [quad(f, a, b, epsabs=1e-15, epsrel=1e-13)[0] for a, b in zip(rho[:-1], rho[1:])]
        for f in (f_sigma, f_pot)
    ]
    cum = np.concatenate([np.zeros((2, 1)), np.cumsum(pieces, axis=1)], axis=1)
    cum -= cum[:, [int(np.searchsorted(rho, eos.rho_ref))]]
    return eos.sigma_ref * np.exp(cum[0]), cum[1]


@pytest.fixture(scope="module")
def generic_laws(rad_generic, p2):
    """Generic laws with the densities their quad oracle steps over: the
    table's oracle steps node to node, where its pressure is one cubic."""
    table = _nonlinear_table()
    return {
        "rad_generic": (rad_generic, np.geomspace(rad_generic.rho_min, rad_generic.rho_max, 33)),
        "poly2_generic": (_stripped(p2), np.geomspace(p2.rho_min, p2.rho_max, 33)),
        "table": (table, np.geomspace(0.05, 4.5, 400)),
    }


class TestChart:
    """One route, the chart, for 0-d and array input of every law without
    closed forms."""

    def test_build_calls_each_function_at_most_twice_or_thrice(self):
        calls = {"p": 0, "dp": 0}

        def p(r):
            calls["p"] += 1
            return np.asarray(r, dtype=float) / 3.0

        def dp(r):
            calls["dp"] += 1
            return np.full_like(np.asarray(r, dtype=float), 1.0 / 3.0)

        eos = E.BarotropicEos("counted", p, dp, rho_min=0.05, rho_max=20.0)
        calls.update(p=0, dp=0)
        E._ensure_chart(eos)
        assert calls["p"] <= 3 and calls["dp"] <= 2, calls
        calls.update(p=0, dp=0)
        E.sigma(eos, np.geomspace(0.1, 10.0, 9))
        assert calls == {"p": 0, "dp": 0}

    @pytest.mark.parametrize("name", ["rad_generic", "poly2_generic", "table"])
    def test_matches_quad_oracle(self, generic_laws, name):
        eos, rho = generic_laws[name]
        rho = np.unique(np.append(rho, eos.rho_ref))
        sig, pot = _quad_chart(eos, rho)
        assert np.max(np.abs(E.sigma(eos, rho) / sig - 1.0)) < 1e-10
        assert np.max(np.abs(E.potential_of_rho(eos, rho) - pot)) < 1e-10

    @pytest.mark.parametrize("name", ["rad_generic", "poly2_generic", "table"])
    def test_inverses_round_trip(self, generic_laws, name):
        eos, _ = generic_laws[name]
        rho = np.geomspace(eos.rho_min, eos.rho_max, 1001)
        h = E.enthalpy(eos, rho)
        pot = E.potential_of_rho(eos, rho)
        # the table's pressure is only C1 at its knots; the chart takes them
        # as nodes, so the table's inverses are as accurate as a smooth law's
        assert np.max(np.abs(E.rho_of_enthalpy(eos, h) - rho)) < 1e-11
        assert np.max(np.abs(E.rho_of_potential(eos, pot) - rho)) < 1e-11

    def test_inverses_match_closed_forms(self, rad, p2, rad_generic):
        # interior densities: at the ends the closed forms may lie a rounding
        # error outside the chart's range. Near rho = 0 the quadratic law's h
        # is flat in rho, so rho(h) is held to an absolute bound there.
        for closed, generic in ((rad, rad_generic), (p2, _stripped(p2))):
            rho = np.geomspace(generic.rho_min, generic.rho_max, 257)[1:-1]
            bound = 1e-10 * np.maximum(rho, 1.0)
            h = E.enthalpy(closed, rho)
            pot = E.potential_of_rho(closed, rho)
            assert np.all(np.abs(E.rho_of_enthalpy(generic, h) - rho) < bound)
            assert np.all(np.abs(E.rho_of_potential(generic, pot) - rho) < bound)

    @pytest.mark.parametrize("name", ["rad_generic", "poly2_generic", "table"])
    def test_scalar_calls_equal_array_elements(self, generic_laws, name):
        eos, _ = generic_laws[name]
        rho = np.geomspace(eos.rho_min, eos.rho_max, 23)
        h = E.enthalpy(eos, rho)
        pot = E.potential_of_rho(eos, rho)
        for fn, x in (
            (E.sigma, rho),
            (E.enthalpy, rho),
            (E.rho_of_enthalpy, h),
            (E.potential_of_rho, rho),
            (E.rho_of_potential, pot),
        ):
            arr = fn(eos, x)
            scalar = np.array([fn(eos, float(v)) for v in x])
            assert np.array_equal(arr, scalar), fn.__name__

    def test_chart_is_built_once(self, rad_generic):
        chart = E._ensure_chart(rad_generic)
        E.rho_of_potential(rad_generic, 0.1)
        assert E._ensure_chart(rad_generic) is chart


class TestMonotoneCubic:
    """The NumPy PCHIP (Fritsch & Butland slopes, cubic Hermite) against
    SciPy's PchipInterpolator."""

    def test_value_and_slope_match_scipy(self, rng):
        x = np.sort(rng.uniform(0.0, 10.0, 50))
        y = rng.normal(size=50)
        y[10:13] = 0.3  # a flat run: zero slopes by the harmonic-mean rule
        at = E._hermite(x, y, E._pchip_slopes(x, y))
        ref = PchipInterpolator(x, y)
        q = np.concatenate([x, np.linspace(x[0], x[-1], 4001)])
        value, slope = at(q)
        for got, want in ((value, ref(q)), (slope, ref.derivative()(q))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_table_eos_uses_it(self):
        rho = np.geomspace(0.05, 4.5, 400)
        p = 0.1 * rho**2 + 0.05 * rho
        tab = E.from_table(np.column_stack([rho, p]))
        ref = PchipInterpolator(rho, p)
        q = np.concatenate([rho, np.geomspace(0.05, 4.5, 997)])
        np.testing.assert_allclose(E.pressure(tab, q), ref(q), rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            E.sound_speed_sq(tab, q), ref.derivative()(q), rtol=1e-14, atol=0
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("law", ["rad", "rad_generic", "p2"])
class TestInversionRange:
    """rho(h) and rho(rho_tilde) reject NaN, +-inf and out-of-range input,
    0-d and array, on the closed-form and on the chart route, before any
    closed form is evaluated (radiation's exp overflows at rho_tilde = 1e3,
    a RuntimeWarning and so an error here)."""

    BAD = [math.nan, math.inf, -math.inf, 100.0, -100.0, 1e3]
    IDS = ["nan", "plus_inf", "minus_inf", "above", "below", "far_above"]

    @pytest.fixture
    def eos(self, law, request):
        return request.getfixturevalue(law)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_enthalpy_inverse_rejects(self, eos, bad):
        with pytest.raises(OutOfRange):
            E.rho_of_enthalpy(eos, bad)
        with pytest.raises(OutOfRange):
            E.rho_of_enthalpy(eos, np.array([eos.h_ref, bad]))

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_potential_inverse_rejects(self, eos, bad):
        with pytest.raises(OutOfRange):
            E.rho_of_potential(eos, bad)
        with pytest.raises(OutOfRange):
            E.rho_of_potential(eos, np.array([0.1, bad]))

    @pytest.mark.parametrize("inverse, forward", [
        (E.rho_of_enthalpy, E.enthalpy),
        (E.rho_of_potential, E.potential_of_rho),
    ], ids=["enthalpy", "potential"])
    def test_range_ends_invert_into_the_range(self, eos, inverse, forward):
        # an inverse at an end of its admissible input can land one rounding
        # outside [rho_min, rho_max]; the density is clipped back, so the
        # next density check accepts it
        ends = np.array([eos.rho_min, eos.rho_max])
        x = forward(eos, ends)
        for got in (inverse(eos, x), [inverse(eos, float(v)) for v in x]):
            got = np.asarray(got)
            assert eos.rho_min <= got.min() and got.max() <= eos.rho_max
            np.testing.assert_allclose(got, ends, rtol=1e-9)
            E.sound_speed_sq(eos, got)

    def test_in_range_and_empty_accepted(self, eos):
        assert E.rho_of_enthalpy(eos, eos.h_ref) == pytest.approx(eos.rho_ref, rel=1e-12)
        assert E.rho_of_potential(eos, np.array([0.0]))[0] == pytest.approx(eos.rho_ref, rel=1e-12)
        assert E.rho_of_enthalpy(eos, np.array([])).shape == (0,)
        assert E.rho_of_potential(eos, np.array([])).shape == (0,)


class TestClosedFormInversionRange:
    """The closed-form inverses accept exactly the image of the density
    range, so poly2's tan cannot wrap around to an in-range density."""

    def test_poly2_potential_does_not_wrap(self, p2):
        lo, hi = E.potential_of_rho(p2, np.array([p2.rho_min, p2.rho_max]))
        assert (lo, hi) == pytest.approx((-0.865, 0.874), abs=1e-3)
        bad = 2.0 * math.sqrt(2.0) * math.pi  # tan repeats: the formula gives rho_ref
        with pytest.raises(OutOfRange, match="potential"):
            E.rho_of_potential(p2, bad)
        with pytest.raises(OutOfRange, match="potential"):
            E.rho_of_potential(p2, np.array([0.0, bad]))
        with pytest.raises(OutOfRange, match="potential"):
            E.rho_of_potential(p2, hi + 1e-9)

    @pytest.mark.parametrize("law", ["rad", "p2"])
    def test_range_edges_and_interior_accepted(self, law, request):
        eos = request.getfixturevalue(law)
        ends = np.array([eos.rho_min, eos.rho_max])
        pot = E.potential_of_rho(eos, ends)
        h = E.enthalpy(eos, ends)
        np.testing.assert_allclose(E.rho_of_potential(eos, pot), ends, rtol=1e-9)
        np.testing.assert_allclose(E.rho_of_enthalpy(eos, h), ends, rtol=1e-9)
        assert E.rho_of_potential(eos, 0.0) == pytest.approx(eos.rho_ref, rel=1e-14)

    def test_radiation_lower_end_is_exact(self, rad):
        # the fourth power of h(1e-6) gave 9.999999999999997e-07 unclipped
        h = E.enthalpy(rad, 1e-6)
        assert E.rho_of_enthalpy(rad, h) == 1e-6
        assert E.rho_of_enthalpy(rad, np.array([h]))[0] == 1e-6
        assert E.sound_speed_sq(rad, E.rho_of_enthalpy(rad, h)) == 1.0 / 3.0
