"""Cross-check oracles: independent routes to quantities the library computes.

Nothing in the solver, the report or the command line needs these; the
tests hold the library's state algebra and jump solutions against them.

* :func:`state_from_riemann` / :func:`riemann_from_state` convert between
  Riemann pairs and the wave-field components (psi_t, psi_r) =
  h (cosh zeta, sinh zeta), so v = -psi_r/psi_t.
* :func:`source_terms_wavefield_form` evaluates the spherical source terms
  through the wave-field components.
* :func:`jump_balance_residuals`, :func:`determinism_margin` and
  :func:`hugoniot_residual` measure a solved jump pair: both conservation
  conditions, the margins that make the front deterministic, and the
  Taub-adiabat mismatch.
* :func:`reference_newton_lanes` is the lane-wise safeguarded Newton solve
  written with a fresh ``np.where`` array for every update and every end
  evaluated apart, the reference for ``fitting.safeguarded_newton_lanes``.
* :func:`reference_sweep_state`, :func:`reference_gamma_inverse`,
  :func:`reference_cubic_coefficient`, :func:`reference_jump_scale` and
  :func:`reference_coincident` are the earlier routes to the sweep's state,
  the reflection ratio, the cubic seed and J scale, and the coincidence
  test: each through a full ``wave_state`` of its own (the sweep's with
  ``WaveState.speeds`` written over v eta, then v eta formed again), the
  references the lean paths must match bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from shockdev import eos as eos_mod
from shockdev.errors import NoRoot, NonConvergence, SingularGamma
from shockdev.fitting import _lane_result
from shockdev.jump import JumpPair, _coincident, shock_speed, stress_jump
from shockdev.state import RiemannPair, char_speeds, wave_state


class FluidState(NamedTuple):
    """Wave-field components (psi_t, psi_r) with psi_t > |psi_r|."""

    psi_t: float
    psi_r: float


def riemann_from_state(eos: eos_mod.BarotropicEos, state: FluidState) -> RiemannPair:
    """Invert the wave-field components into Riemann invariants.

    The enthalpy potential rho_tilde(h) = int_{h_ref}^{h} dh'/(eta h') is
    read as the potential of the density at h.

    Raises:
        ValueError: if psi_t <= |psi_r| (no physical rest frame).
        OutOfRange: if the implied enthalpy leaves the admissible range.
    """
    psi_t = np.asarray(state.psi_t, dtype=float)
    psi_r = np.asarray(state.psi_r, dtype=float)
    if np.any(psi_t <= np.abs(psi_r)):
        raise ValueError("wave field requires psi_t > |psi_r|")
    h = np.sqrt(psi_t**2 - psi_r**2)
    zeta = np.arctanh(psi_r / psi_t)
    rho = eos_mod.rho_of_enthalpy(eos, h if h.ndim else float(h))
    rho_tilde = eos_mod.potential_of_rho(eos, rho)
    alpha = rho_tilde - zeta
    beta = rho_tilde + zeta
    if np.ndim(alpha):
        return RiemannPair(np.asarray(alpha), np.asarray(beta))
    return RiemannPair(float(alpha), float(beta))


def state_from_riemann(eos: eos_mod.BarotropicEos, pair: RiemannPair) -> FluidState:
    """Wave-field components at a Riemann pair."""
    alpha = np.asarray(pair.alpha, dtype=float)
    beta = np.asarray(pair.beta, dtype=float)
    rho_tilde = 0.5 * (alpha + beta)
    zeta = 0.5 * (beta - alpha)
    rho = eos_mod.rho_of_potential(eos, rho_tilde if rho_tilde.ndim else float(rho_tilde))
    h = np.asarray(eos_mod.enthalpy(eos, rho), dtype=float)
    psi_t = h * np.cosh(zeta)
    psi_r = h * np.sinh(zeta)
    if psi_t.ndim:
        return FluidState(np.asarray(psi_t), np.asarray(psi_r))
    return FluidState(float(psi_t), float(psi_r))


def source_terms_wavefield_form(eos: eos_mod.BarotropicEos, pair: RiemannPair, r):
    """Source terms evaluated through the wave-field components.

    With F = (1/eta^2 - 1)/H, H_hat = (1 + F psi_t^2) H:

        A = (2 psi_r / (r H_hat)) (psi_t/eta + psi_r)
        B = (2 psi_r / (r H_hat)) (psi_t/eta - psi_r)
    """
    w = wave_state(eos, pair)
    st = state_from_riemann(eos, pair)
    psi_t = np.asarray(st.psi_t, dtype=float)
    psi_r = np.asarray(st.psi_r, dtype=float)
    H = np.square(w.enthalpy(eos))
    F = (1.0 / w.eta2 - 1.0) / H
    H_hat = (1.0 + F * psi_t**2) * H
    r_a = np.asarray(r, dtype=float)
    pref = 2.0 * psi_r / (r_a * H_hat)
    A = pref * (psi_t / w.eta + psi_r)
    B = pref * (psi_t / w.eta - psi_r)
    if np.ndim(A):
        return A, B
    return float(A), float(B)


def jump_balance_residuals(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Residuals of both conservation conditions at V = [T^tr]/[T^tt].

    Returns:
        (-[T^tt] V + [T^tr], -[T^tr] V + [T^rr]); the first vanishes by
        construction, the second vanishes iff J = 0.
    """
    dT = stress_jump(eos, jp)
    V = shock_speed(eos, jp)
    return -dT.tt * V + dT.tr, -dT.tr * V + dT.rr


def determinism_margin(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Margins that make the front deterministic, per lane.

    Returns:
        (m_ahead, m_behind):
        m_ahead  = [eta sigma / sqrt(1 - eta^2)] (behind minus ahead);
                   positive exactly when the behind state is the denser one.
        m_behind = c_plus(behind) - V, the subsonic margin of the front as
                   seen from behind.
        Lanes whose states (nearly) coincide, where V is 0/0, give (0, 0).
    """

    def val(state):
        w = wave_state(eos, state)
        return w.eta * w.sigma(eos) / np.sqrt(1.0 - w.eta2)

    dT = stress_jump(eos, jp)
    live = ~_coincident(eos, dT, jp.ahead)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_behind = char_speeds(eos, jp.behind)[0] - np.divide(dT.tr, dT.tt)
    m_ahead = val(jp.behind) - val(jp.ahead)
    return _lane_result(np.where(live, m_ahead, 0.0)), _lane_result(np.where(live, m_behind, 0.0))


def hugoniot_residual(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Taub-adiabat mismatch h+^2 - h-^2 - (p+ - p-)(h+/sigma+ + h-/sigma-), per lane.

    Zero at coincidence and of cubic order in the jump strength along the
    J = 0 branch (the flow potential is not exactly conserved across a
    front; its production enters at third order).
    """
    wa, wb = wave_state(eos, jp.ahead), wave_state(eos, jp.behind)
    ha, hb = wa.enthalpy(eos), wb.enthalpy(eos)
    pa, pb = wa.pressure(eos), wb.pressure(eos)
    return hb**2 - ha**2 - (pb - pa) * (hb / wb.sigma(eos) + ha / wa.sigma(eos))


# bracketed steps a lane may take in reference_newton_lanes
REFERENCE_MAX_ITER = 60


def reference_newton_lanes(fdf, x0, lo, hi, f_tol, polish: int = 6, f_ends=None):
    """Newton inside a bracket with bisection fallback, lane by lane.

    The steps of ``fitting.safeguarded_newton_lanes``: an end within f_tol
    is accepted, a Newton step is taken when it lands strictly inside the
    tightened bracket and bisection otherwise, finished lanes are frozen,
    and the root is polished while |f| decreases.  Here ``fdf`` sees lane
    arrays only: each end is evaluated in its own call (unless ``f_ends``
    gives their values), then the start in another, and every update forms
    a new array under a lane mask.
    """
    x0, lo, hi, f_tol = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(x0, lo, hi, f_tol)
    )
    blo, bhi = lo, hi
    if f_ends is None:
        flo, fhi = fdf(blo)[0], fdf(bhi)[0]
    else:
        flo, fhi = f_ends
    take_lo = np.abs(flo) < f_tol
    take_hi = ~take_lo & (np.abs(fhi) < f_tol)
    done = take_lo | take_hi
    unbracketed = ~done & ~(flo * fhi < 0)
    if unbracketed.any():
        k = int(np.flatnonzero(unbracketed)[0])
        f_lo, f_hi = (np.broadcast_to(a, unbracketed.shape).flat[k] for a in (flo, fhi))
        raise NoRoot(
            f"no sign change across [{lo.flat[k]}, {hi.flat[k]}] in lane {k}: "
            f"f = {f_lo:.3e}, {f_hi:.3e} at its ends"
        )
    x = np.where(take_lo, blo, np.where(take_hi, bhi, np.clip(x0, blo, bhi)))
    fx, dx = fdf(x)

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(REFERENCE_MAX_ITER):
            done |= np.abs(fx) < f_tol
            run = ~done
            if not run.any():
                break
            left = flo * fx <= 0
            bhi, fhi = np.where(run & left, x, bhi), np.where(run & left, fx, fhi)
            blo, flo = np.where(run & ~left, x, blo), np.where(run & ~left, fx, flo)
            xn = np.where((dx != 0) & np.isfinite(dx), x - fx / dx, np.nan)
            inside = np.isfinite(xn) & (blo < xn) & (xn < bhi)
            x = np.where(run, np.where(inside, xn, 0.5 * (blo + bhi)), x)
            fn, dn = fdf(x)
            fx, dx = np.where(run, fn, fx), np.where(run, dn, dx)
        else:
            if not done.all():
                raise NonConvergence(
                    f"newton/bisection did not reach |f| < f_tol in {REFERENCE_MAX_ITER} "
                    f"iterations on {int(np.count_nonzero(~done))} of {done.size} lanes"
                )

        going = np.ones_like(done)
        for _ in range(polish):
            xn = x - fx / dx
            going &= (dx != 0) & np.isfinite(dx) & (xn != x) & np.isfinite(xn)
            if not going.any():
                break
            fn, dn = fdf(np.where(going, xn, x))
            going &= np.abs(fn) < np.abs(fx)
            x = np.where(going, xn, x)
            fx, dx = np.where(going, fn, fx), np.where(going, dn, dx)
    return x


def reference_sweep_state(eos: eos_mod.BarotropicEos, pair: RiemannPair):
    """(c_plus, c_minus, v eta) through a full wave_state: its speeds with
    1 - v eta written over v eta, then v eta formed a second time."""
    w = wave_state(eos, pair)
    v, eta = w.v, w.eta
    ve = np.asarray(v * eta)
    cp = np.add(v, eta, out=np.empty_like(ve))
    den = np.add(1.0, ve, out=np.empty_like(ve))
    cp /= den
    cm = np.subtract(v, eta, out=den)
    np.subtract(1.0, ve, out=ve)
    cm /= ve
    return cp, cm, w.v * w.eta


def reference_gamma_inverse(bf, alpha_on_diag, eos: eos_mod.BarotropicEos):
    """Reflection ratio (V - c_bar_minus)/(c_bar_plus - V) from the full
    state of the diagonal nodes, +inf at v = 0, with the SingularGamma rule
    of ``fixed_bvp.gamma_inverse``."""
    v = bf.v
    alpha_diag = np.asarray(alpha_on_diag, dtype=float)
    V = bf.speed()
    cp, cm, _ = reference_sweep_state(eos, RiemannPair(alpha_diag, bf.beta_plus()))
    num = V - cm
    den = cp - V
    corner = v == 0.0
    bad = ~corner & (den < 0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularGamma(
            f"shock speed exceeds the behind outgoing speed at v = {v[j]:.6g} "
            f"(margin {den[j]:.3e})"
        )
    with np.errstate(divide="ignore"):
        out = num / den
    out[corner] = math.inf
    return out


def reference_cubic_coefficient(eos: eos_mod.BarotropicEos, state: RiemannPair):
    """G0 = -mu^2/(192 eta^2) from an inversion of its own."""
    w = wave_state(eos, state)
    return _lane_result(-(w.mu(eos) ** 2) / (192.0 * w.eta2))


def reference_jump_scale(eos: eos_mod.BarotropicEos, state: RiemannPair):
    """(rho + p)^2 from an inversion of its own."""
    w = wave_state(eos, state)
    return _lane_result((w.rho + w.pressure(eos)) ** 2)


def reference_coincident(eos: eos_mod.BarotropicEos, dT, ahead: RiemannPair):
    """The coincidence test against T^tt of all three stress components of
    the ahead states, E - p with E = (rho + p)/(1 - v^2)."""
    w = wave_state(eos, ahead)
    p = w.pressure(eos)
    E = (w.rho + p) / (1.0 - w.v**2)
    return np.abs(dT.tt) <= 2e-14 * np.abs(_lane_result(E - p))
