"""Fluid state algebra in Riemann-invariant coordinates.

A smooth spherically symmetric flow is described pointwise by the pair of
Riemann invariants (alpha, beta). They encode the enthalpy potential and the
boost angle of the fluid:

    rho_tilde = (alpha + beta) / 2      (thermodynamic state)
    zeta      = (beta - alpha) / 2      (rapidity; velocity v = -tanh zeta)

The wave-field components are psi_t = h cosh zeta, psi_r = h sinh zeta (h the
specific enthalpy), so v = -psi_r/psi_t. Characteristic speeds, the source
terms of the characteristic equations, and the stress components with their
alpha/beta derivatives are all evaluated here from (alpha, beta) and the
equation of state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import eos as eos_mod
from .errors import OutOfRange
from .fitting import _lane_result

__all__ = [
    "RiemannPair",
    "WaveState",
    "StressComponents",
    "StressDerivatives",
    "wave_state",
    "sweep_state",
    "sources_of",
    "char_speeds",
    "stress",
    "stress_derivatives",
    "velocity",
]


class RiemannPair(NamedTuple):
    """Riemann invariants (alpha, beta); scalars or same-shape arrays."""

    alpha: float
    beta: float


class StressComponents(NamedTuple):
    tt: float
    tr: float
    rr: float


class StressDerivatives(NamedTuple):
    tt_alpha: float
    tr_alpha: float
    rr_alpha: float
    tt_beta: float
    tr_beta: float
    rr_beta: float


class WaveState(NamedTuple):
    """The state at Riemann pairs after one density inversion.

    ``wave_state`` builds it from (alpha, beta): one inversion of the
    enthalpy potential, which checks the potential against the image of the
    density range, and one sound-speed check, whatever the methods read
    afterwards.  Fields are arrays of the pair's shape (scalars for a scalar
    pair); the methods give Python floats for a scalar pair.
    """

    rho_tilde: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    eta2: np.ndarray

    def speeds(self):
        """(c_plus, c_minus) of :func:`sweep_state`, from copies of v and eta."""
        cp, cm, _ = _speeds_over(np.array(self.v, dtype=float), np.array(self.eta, dtype=float))
        return _lane_result(cp), _lane_result(cm)

    def mu(self, eos: eos_mod.BarotropicEos):
        """Nonlinearity coefficient mu = d eta/d rho_tilde + 1 - eta^2."""
        return _lane_result(eos_mod._mu_at(eos, self.rho_tilde, self.eta))

    def speed_derivatives(self, eos: eos_mod.BarotropicEos) -> dict:
        """Partial derivatives of (c_plus, c_minus) in (alpha, beta).

        With mu = d eta/d rho_tilde + 1 - eta^2 and s = d eta/d rho_tilde:

            dc+/dalpha = (1-v^2) mu / (2 (1+v eta)^2)
            dc+/dbeta  = (1-v^2) (s - (1-eta^2)) / (2 (1+v eta)^2)
            dc-/dalpha = (1-v^2) ((1-eta^2) - s) / (2 (1-v eta)^2)
            dc-/dbeta  = -(1-v^2) mu / (2 (1-v eta)^2)

        Returns:
            dict with keys "pa", "pb", "ma", "mb".
        """
        mu = self.mu(eos)
        s = mu - (1.0 - self.eta2)
        # np.square, not **, keeps a scalar pair a lane of one
        one_m_v2 = 1.0 - np.square(self.v)
        ve = self.v * self.eta
        plus_den = 2.0 * np.square(1.0 + ve)
        minus_den = 2.0 * np.square(1.0 - ve)
        return {
            "pa": _lane_result(one_m_v2 * mu / plus_den),
            "pb": _lane_result(one_m_v2 * (s - (1.0 - self.eta2)) / plus_den),
            "ma": _lane_result(one_m_v2 * ((1.0 - self.eta2) - s) / minus_den),
            "mb": _lane_result(-one_m_v2 * mu / minus_den),
        }

    def sources(self, r):
        """Spherical source terms of the characteristic equations at radius r.

        d alpha along the outgoing family and d beta along the incoming
        family pick up A = -2 v eta / (r (1 + v eta)) and
        B = -2 v eta / (r (1 - v eta)); :func:`sources_of` forms them.

        Returns:
            (A, B).

        Raises:
            OutOfRange: some r <= 0.
        """
        A, B = sources_of(np.asarray(self.v * self.eta), r)
        return _lane_result(A), _lane_result(B)

    def pressure(self, eos: eos_mod.BarotropicEos):
        """Pressure at the (already checked) density."""
        return _lane_result(np.asarray(eos.pressure_fn(self.rho), dtype=float))

    def energy(self, eos: eos_mod.BarotropicEos):
        """(E, p) with E = (rho + p)/(1 - v^2), so T^tt = E - p."""
        p = self.pressure(eos)
        return (self.rho + p) / (1.0 - np.square(self.v)), p

    def enthalpy(self, eos: eos_mod.BarotropicEos):
        """Specific enthalpy h = (rho + p)/sigma at the (already checked) density."""
        return _lane_result(eos_mod._chain(eos).enthalpy(self.rho))

    def sigma(self, eos: eos_mod.BarotropicEos):
        """Flow potential sigma at the (already checked) density."""
        return _lane_result(eos_mod._chain(eos).sigma(self.rho))


def sources_of(ve: np.ndarray, r):
    """The source terms (A, B) of :meth:`WaveState.sources` from the product
    ve = v eta alone, for a caller that keeps no more of the state.

    ve is written over (with 1 - v eta), so the call holds three grids of
    the result's shape at most, ve among them.

    Raises:
        OutOfRange: some r <= 0.
    """
    r_a = np.asarray(r, dtype=float)
    if r_a.size and r_a.min() <= 0:
        raise OutOfRange("source terms need r > 0")
    # A in the storage of 1 + v eta, then B in common's
    common = np.asarray(-2.0 * ve / r_a)
    A = np.add(1.0, ve, out=np.empty_like(common))
    np.divide(common, A, out=A)
    np.subtract(1.0, ve, out=ve)
    B = np.divide(common, ve, out=common)
    return A, B


def wave_state(eos: eos_mod.BarotropicEos, pair: RiemannPair) -> WaveState:
    """Invert the enthalpy potential at Riemann pairs into a :class:`WaveState`.

    The inversion checks the potential against the image of [rho_min,
    rho_max] and clips the density into that range, so the density needs no
    check of its own.

    Raises:
        OutOfRange: the potential (alpha + beta)/2 leaves the image of the
            admissible density range, or eta^2 leaves (0, 1).
    """
    alpha = np.asarray(pair.alpha, dtype=float)
    beta = np.asarray(pair.beta, dtype=float)
    rho_tilde = 0.5 * (alpha + beta)
    rho = np.asarray(eos_mod.rho_of_potential(eos, rho_tilde), dtype=float)
    eta2 = eos_mod._sound_speed_sq_at(eos, rho)
    return WaveState(rho_tilde, rho, velocity(eos, pair), np.sqrt(eta2), eta2)


def velocity(eos: eos_mod.BarotropicEos, pair: RiemannPair):
    """Fluid velocity v = -tanh((beta - alpha)/2)."""
    alpha = np.asarray(pair.alpha, dtype=float)
    beta = np.asarray(pair.beta, dtype=float)
    return _lane_result(-np.tanh(0.5 * (beta - alpha)))


def char_speeds(eos: eos_mod.BarotropicEos, pair: RiemannPair):
    """Characteristic speeds c_pm = (v +- eta)/(1 +- v eta), each strictly
    inside (-1, 1): the first two results of :func:`sweep_state`."""
    cp, cm, _ = sweep_state(eos, pair)
    return _lane_result(cp), _lane_result(cm)


def sweep_state(eos: eos_mod.BarotropicEos, pair: RiemannPair):
    """(c_plus, c_minus, v eta) at Riemann pairs, all a sweep reads of the
    state: one :func:`wave_state`, with its inversion and checks, and the
    speeds formed over its v and eta, which nothing else keeps."""
    _, _, v, eta, _ = wave_state(eos, pair)
    return _speeds_over(np.asarray(v), np.asarray(eta))


def _speeds_over(v: np.ndarray, eta: np.ndarray):
    """(c_plus, c_minus, v eta) with c_pm = (v +- eta)/(1 +- v eta), c_minus
    in v's storage and 1 +- v eta in eta's: the caller gives both up."""
    ve = v * eta
    cp = v + eta
    cm = np.subtract(v, eta, out=v)
    cp /= np.add(1.0, ve, out=eta)
    cm /= np.subtract(1.0, ve, out=eta)
    return cp, cm, ve


def stress(eos: eos_mod.BarotropicEos, pair: RiemannPair) -> StressComponents:
    """Stress components of the perfect fluid.

    With E = (rho + p)/(1 - v^2):
        T^tt = E - p,   T^tr = E v,   T^rr = E v^2 + p.
    """
    w = wave_state(eos, pair)
    E, p = w.energy(eos)
    return StressComponents(
        _lane_result(E - p), _lane_result(E * w.v), _lane_result(E * np.square(w.v) + p)
    )


def stress_derivatives(eos: eos_mod.BarotropicEos, pair: RiemannPair) -> StressDerivatives:
    """Closed-form alpha/beta derivatives of the stress components.

    With w = E/(2 eta):
        dT^tt/dalpha = w (1 + v eta)^2     dT^tt/dbeta = w (1 - v eta)^2
        dT^tr/dalpha = w (v + eta)(1+v eta) dT^tr/dbeta = w (v - eta)(1-v eta)
        dT^rr/dalpha = w (v + eta)^2       dT^rr/dbeta = w (v - eta)^2

    These encode d T^tr = c_pm d T^tt along each family.  E is computed
    from rho and p alone.  For array pairs the six components are rows of
    one (6, *shape) array, which is their ``.base``: its rows are tt, rr and
    tr, each along alpha and then beta, so a caller contracts all six at
    once.
    """
    ws = wave_state(eos, pair)
    v, eta = ws.v, ws.eta
    w = ws.energy(eos)[0] / (2.0 * eta)
    # rows 0-3 take 1 + v eta, 1 - v eta, v + eta and v - eta; the tr rows
    # w (v +- eta) (1 +- v eta) are formed from them before rows 0-3 are
    # squared and scaled by w, each step on contiguous rows (a row taken
    # with an ellipsis stays a view for a 0-d pair too)
    d = np.empty((6,) + np.shape(w))
    ve = v * eta
    np.add(1.0, ve, out=d[0, ...])
    np.subtract(1.0, ve, out=d[1, ...])
    np.add(v, eta, out=d[2, ...])
    np.subtract(v, eta, out=d[3, ...])
    np.multiply(d[2:4], w, out=d[4:])
    d[4:] *= d[:2]
    np.square(d[:4], out=d[:4])
    d[:4] *= w
    tt_a, tt_b, rr_a, rr_b, tr_a, tr_b = map(_lane_result, d)
    return StressDerivatives(tt_a, tr_a, rr_a, tt_b, tr_b, rr_b)
