"""Shock jump conditions between two Riemann states.

A shock connects an ahead state (the side the front runs into) to a behind
state. Conservation of energy and momentum across the front requires

    -[T^tt] V + [T^tr] = 0,      -[T^tr] V + [T^rr] = 0,

with [X] = X(behind) - X(ahead) and V the front speed. Eliminating V gives
the scalar jump function

    J = [T^tt][T^rr] - [T^tr]^2,

whose zero set is the shock locus. At coincidence J is quartically
degenerate in the behind alpha: the first three pure alpha derivatives
vanish, the mixed second derivative equals (rho+p)^2, and the fourth pure
derivative equals (rho+p)^2 mu^2/(8 eta^2). Consequently the behind beta on
the physical branch follows the cubic law

    beta_behind - beta_ahead ~ G0 (alpha_behind - alpha_ahead)^3,
    G0 = -mu^2 / (192 eta^2),

which seeds the Newton solve here.

The stress jumps, J, its scale, the cubic coefficient, the behind-beta
solve and the shock speed work on lanes: their state arguments may be
arrays whose leading axes enumerate independent ahead/behind pairs (the
shock nodes of one outer step, say), and one call handles all of them.
Scalar states are the one-lane case and give Python floats.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import eos as eos_mod
from . import fitting
from .errors import DegenerateJump, NoRoot, OutOfRange
from .state import (
    RiemannPair,
    StressComponents,
    StressDerivatives,
    _lane_result,
    char_speeds,
    point_data,
    stress,
    stress_derivatives,
    wave_state,
)

__all__ = [
    "JumpPair",
    "stress_jump",
    "jump_J",
    "jump_scale",
    "cubic_coefficient",
    "solve_jump_beta",
    "shock_speed",
    "jump_balance_residuals",
    "determinism_margin",
    "entropy_q",
    "hugoniot_residual",
    "coincidence_structure",
]


class JumpPair(NamedTuple):
    """Ahead/behind Riemann states across a front."""

    ahead: RiemannPair
    behind: RiemannPair


# largest |alpha_plus - alpha_ahead| a behind-beta solve accepts, and its
# Newton tolerance on |J| relative to (rho+p)^2
_DALPHA_CAP = 0.5
_J_TOL_REL = 1e-13
# doublings of the bracket around the cubic seed before a lane has no root
_MAX_EXPAND = 4
# stencil step of the coincidence derivatives (Richardson-refined at half)
_COINCIDENCE_STEP = 1e-2

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_S = 0.5 * (_GAUSS_X + 1.0)
_GAUSS_W01 = 0.5 * _GAUSS_W


def _jump_and_behind_slopes(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Stress jumps per lane plus the stress derivatives at the behind state.

    The 8 Gauss points of every lane and the behind state itself form a
    trailing axis of 9 states, evaluated in one ``stress_derivatives`` call.
    """
    a0, b0, a1, b1 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (*jp.ahead, *jp.behind))
    )
    da, db = a1 - a0, b1 - b0
    points = RiemannPair(
        np.concatenate([a0[..., None] + _GAUSS_S * da[..., None], a1[..., None]], axis=-1),
        np.concatenate([b0[..., None] + _GAUSS_S * db[..., None], b1[..., None]], axis=-1),
    )
    d = stress_derivatives(eos, points)
    dT = StressComponents(
        *(
            da * (d_a[..., :-1] @ _GAUSS_W01) + db * (d_b[..., :-1] @ _GAUSS_W01)
            for d_a, d_b in (
                (d.tt_alpha, d.tt_beta),
                (d.tr_alpha, d.tr_beta),
                (d.rr_alpha, d.rr_beta),
            )
        )
    )
    return dT, StressDerivatives(*(x[..., -1] for x in d))


def stress_jump(eos: eos_mod.BarotropicEos, jp: JumpPair) -> StressComponents:
    """Stress jumps [T] = T(behind) - T(ahead), to relative accuracy.

    The states may be scalars or arrays of lanes (broadcast against each
    other); every lane is an independent pair and the components come back
    as lane arrays, or as floats for scalar states.

    Direct subtraction of the O(1) stress components leaves absolute
    rounding of order ulp(T), which downstream divisions by powers of the
    front strength amplify beyond any useful tolerance near coincidence.
    Integrating the closed-form stress derivatives along the straight
    segment between the states keeps every term proportional to the jump,
    so only relative rounding remains.  The fixed 8-point Gauss-Legendre
    rule is exact to machine precision for admissible front strengths
    (the integrand is analytic with O(1) variation scale, so the defect
    is of 16th order in the strength).
    """
    dT, _ = _jump_and_behind_slopes(eos, jp)
    return StressComponents(*(_lane_result(x) for x in dT))


def jump_J(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Jump function J = [T^tt][T^rr] - [T^tr]^2, per lane."""
    dT = stress_jump(eos, jp)
    return dT.tt * dT.rr - dT.tr**2


def jump_scale(eos: eos_mod.BarotropicEos, state: RiemannPair):
    """Natural size of J: (rho + p)^2 at the given state(s), per lane."""
    w = wave_state(eos, state)
    return _lane_result((w.rho + w.pressure(eos)) ** 2)


def cubic_coefficient(eos: eos_mod.BarotropicEos, state: RiemannPair):
    """Leading coefficient G0 = -mu^2/(192 eta^2) of the cubic jump law, per lane."""
    w = wave_state(eos, state)
    return _lane_result(-(w.mu(eos) ** 2) / (192.0 * w.eta2))


def solve_jump_beta(
    eos: eos_mod.BarotropicEos,
    alpha_plus,
    ahead: RiemannPair,
):
    """Behind beta on the physical branch of J = 0 at a given behind alpha.

    ``alpha_plus`` and the ``ahead`` components are scalars or arrays of
    lanes, broadcast against each other; each lane is solved on its own and
    the result has the broadcast shape (a Python float for scalar input).
    All lanes share one Newton loop, so each iteration costs one
    ``stress_derivatives`` call whatever the number of lanes.

    Per lane: lanes with zero jump in alpha return the ahead beta; the
    others seed with the cubic law, bracket around the seed with width
    8 |G0 dalpha^3| + 1e-14 (doubled up to ``_MAX_EXPAND`` times if needed),
    and run safeguarded Newton to |J| < _J_TOL_REL * (rho+p)^2, then
    polish to a machine-precision root.

    Raises:
        OutOfRange: some lane's |alpha_plus - ahead.alpha| exceeds _DALPHA_CAP.
        NoRoot: some lane has no sign change after all bracket expansions.
        NonConvergence: some lane exhausted the Newton iteration budget.
    """
    a_plus, a_ahead, b_ahead = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (alpha_plus, ahead.alpha, ahead.beta))
    )
    dalpha = a_plus - a_ahead
    over = np.abs(dalpha) > _DALPHA_CAP
    if over.any():
        raise OutOfRange(f"jump in alpha {dalpha[over][0]} exceeds the cap {_DALPHA_CAP}")
    out = np.array(b_ahead)
    lanes = np.flatnonzero(dalpha)
    if not lanes.size:
        return _lane_result(out)

    a_plus = a_plus.ravel()[lanes]
    ahead = RiemannPair(a_ahead.ravel()[lanes], b_ahead.ravel()[lanes])
    dalpha3 = dalpha.ravel()[lanes] ** 3
    g0 = cubic_coefficient(eos, ahead)
    seed = ahead.beta + g0 * dalpha3
    width = 8.0 * np.abs(g0 * dalpha3) + 1e-14

    def fdf(b):
        dT, d = _jump_and_behind_slopes(eos, JumpPair(ahead, RiemannPair(a_plus, b)))
        J = dT.tt * dT.rr - dT.tr**2
        dJ = d.tt_beta * dT.rr + dT.tt * d.rr_beta - 2.0 * dT.tr * d.tr_beta
        return J, dJ

    pending = np.ones(lanes.size, dtype=bool)
    for _ in range(_MAX_EXPAND + 1):
        lo, hi = seed - width, seed + width
        f_lo, _ = fdf(lo)
        f_hi, _ = fdf(hi)
        pending &= ~(f_lo * f_hi <= 0)
        if not pending.any():
            break
        width = np.where(pending, 2.0 * width, width)
    else:
        raise NoRoot(
            f"no sign change of J around the cubic seed after {_MAX_EXPAND} expansions "
            f"in {int(np.count_nonzero(pending))} of {pending.size} lanes"
        )
    out.flat[lanes] = fitting.safeguarded_newton_lanes(
        fdf,
        seed,
        lo,
        hi,
        f_tol=_J_TOL_REL * jump_scale(eos, ahead),
        polish=8,
        f_ends=(f_lo, f_hi),
    )
    return _lane_result(out)


def shock_speed(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Front speed V = [T^tr]/[T^tt], per lane.

    Raises:
        DegenerateJump: the states of some lane (nearly) coincide and V is 0/0.
    """
    dT = stress_jump(eos, jp)
    if np.any(_coincident(eos, dT, jp.ahead)):
        raise DegenerateJump("states coincide; front speed is indeterminate")
    return dT.tr / dT.tt


def _coincident(eos: eos_mod.BarotropicEos, dT: StressComponents, ahead: RiemannPair):
    """Lanes whose states (nearly) coincide, where V = [T^tr]/[T^tt] is 0/0."""
    return np.abs(dT.tt) <= 2e-14 * np.abs(stress(eos, ahead).tt)


def jump_balance_residuals(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Residuals of both conservation conditions at V = [T^tr]/[T^tt].

    Returns:
        (-[T^tt] V + [T^tr], -[T^tr] V + [T^rr]); the first vanishes by
        construction, the second vanishes iff J = 0.
    """
    dT = stress_jump(eos, jp)
    V = shock_speed(eos, jp)
    return -dT.tt * V + dT.tr, -dT.tr * V + dT.rr


def entropy_q(eos: eos_mod.BarotropicEos, state: RiemannPair) -> float:
    """Steepness functional q = (1/eta^2 - 1)/sigma^2 (decreases across

    a physical front).
    """
    d = point_data(eos, state)
    return (1.0 / d.eta2 - 1.0) / d.sigma**2


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
        d = point_data(eos, state)
        return d.eta * d.sigma / np.sqrt(1.0 - d.eta2)

    dT = stress_jump(eos, jp)
    live = ~_coincident(eos, dT, jp.ahead)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_behind = char_speeds(eos, jp.behind)[0] - np.divide(dT.tr, dT.tt)
    m_ahead = val(jp.behind) - val(jp.ahead)
    return _lane_result(np.where(live, m_ahead, 0.0)), _lane_result(np.where(live, m_behind, 0.0))


def hugoniot_residual(eos: eos_mod.BarotropicEos, jp: JumpPair) -> float:
    """Taub-adiabat mismatch h+^2 - h-^2 - (p+ - p-)(h+/sigma+ + h-/sigma-).

    Zero at coincidence and of cubic order in the jump strength along the
    J = 0 branch (the flow potential is not exactly conserved across a
    front; its production enters at third order).
    """
    da = point_data(eos, jp.ahead)
    db = point_data(eos, jp.behind)
    return (
        db.h**2
        - da.h**2
        - (db.p - da.p) * (db.h / db.sigma + da.h / da.sigma)
    )


def coincidence_structure(eos: eos_mod.BarotropicEos, state: RiemannPair) -> dict:
    """Derivative structure of J at a coincident pair, by 4th-order stencils.

    Returns:
        dict with the first four pure behind-alpha derivatives ("d1".."d4")
        and the mixed behind-(alpha, beta) second derivative ("mixed"),
        Richardson-refined over the steps ``_COINCIDENCE_STEP`` and half it.
    """

    def J_of(da: float, db: float = 0.0) -> float:
        behind = RiemannPair(state.alpha + da, state.beta + db)
        return jump_J(eos, JumpPair(state, behind))

    def all_at(h: float) -> dict:
        out = {
            f"d{k}": fitting.derivative(lambda a: J_of(a), 0.0, order=k, step=h)
            for k in (1, 2, 3, 4)
        }
        out["mixed"] = fitting.mixed_second(J_of, 0.0, 0.0, h, h)
        return out

    coarse = all_at(_COINCIDENCE_STEP)
    fine = all_at(_COINCIDENCE_STEP / 2)
    return {k: fitting.richardson(coarse[k], fine[k], order=4) for k in coarse}
