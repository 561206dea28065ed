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
from .fitting import _GAUSS_W, _GAUSS_X, _lane_result
from .state import (
    RiemannPair,
    StressComponents,
    StressDerivatives,
    WaveState,
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
    "jump_newton_step",
    "shock_speed",
    "entropy_q",
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

_GAUSS_S = (0.5 * (_GAUSS_X + 1.0))[:, None]  # on [0, 1], a column
_GAUSS_W01 = 0.5 * _GAUSS_W


def _jump_and_behind_slopes(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Stress jumps per lane plus the stress derivatives at the behind state.

    The 8 Gauss points of each lane (formed along the lanes, then laid out
    lane by lane) and the behind states are the states of one
    ``stress_derivatives`` call; the Gauss block is contracted with the
    weights in one product, whose rounding depends on how many lanes share
    one matrix-vector call, so 0-d states are taken as one lane, which
    rounds like a 1-D dot product.
    """
    ends = (*jp.ahead, *jp.behind)
    shape = np.broadcast(*ends).shape
    lanes = shape or (1,)
    # rows: ahead alpha, ahead beta, behind alpha, behind beta
    inv = np.empty((4,) + lanes)
    for row, end in zip(inv, ends):
        row[...] = end
    jumps = inv[2:] - inv[:2]
    m = jumps[0].size
    by_point = np.multiply(jumps.reshape(2, 1, m), _GAUSS_S)
    by_point += inv[:2].reshape(2, 1, m)
    points = np.empty((2, 9 * m))
    points[:, : 8 * m].reshape(2, m, 8)[...] = by_point.transpose(0, 2, 1)
    points[:, 8 * m :] = inv[2:].reshape(2, m)
    d = stress_derivatives(eos, RiemannPair(points[0], points[1]))
    # the six derivatives are rows of one array: (tt, rr, tr) by (alpha, beta)
    rows = d.tt_alpha.base
    gauss = (rows[:, : 8 * m].reshape((6,) + lanes + (8,)) @ _GAUSS_W01).reshape((3, 2) + lanes)
    tt, rr, tr = (jumps[0] * gauss[:, 0] + jumps[1] * gauss[:, 1]).reshape((3,) + shape)
    behind = rows[:, 8 * m :].reshape((6,) + shape)
    return (
        StressComponents(tt, tr, rr),
        StressDerivatives(behind[0], behind[4], behind[2], behind[1], behind[5], behind[3]),
    )


def _J_and_slope(dT: StressComponents, d: StressDerivatives):
    """J and dJ/dbeta from the stress jumps and the behind-state slopes."""
    J = dT.tt * dT.rr - dT.tr**2
    dJ = d.tt_beta * dT.rr + dT.tt * d.rr_beta - 2.0 * dT.tr * d.tr_beta
    return J, dJ


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
    return _lane_result(_scale_at(eos, wave_state(eos, state)))


def cubic_coefficient(eos: eos_mod.BarotropicEos, state: RiemannPair):
    """Leading coefficient G0 = -mu^2/(192 eta^2) of the cubic jump law, per lane."""
    return _lane_result(_cubic_at(eos, wave_state(eos, state)))


# the two at inverted states, so a solve that needs both inverts once
def _scale_at(eos: eos_mod.BarotropicEos, w: WaveState):
    return (w.rho + w.pressure(eos)) ** 2


def _cubic_at(eos: eos_mod.BarotropicEos, w: WaveState):
    return -(w.mu(eos) ** 2) / (192.0 * w.eta2)


def _capped_dalpha(a_plus: np.ndarray, a_ahead: np.ndarray) -> np.ndarray:
    """Jumps in alpha per lane; OutOfRange if some lane exceeds _DALPHA_CAP."""
    dalpha = a_plus - a_ahead
    over = np.abs(dalpha) > _DALPHA_CAP
    if over.any():
        raise OutOfRange(f"jump in alpha {dalpha[over][0]} exceeds the cap {_DALPHA_CAP}")
    return dalpha


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
    dalpha = _capped_dalpha(a_plus, a_ahead)
    out = np.array(b_ahead)
    lanes = np.flatnonzero(dalpha)
    if not lanes.size:
        return _lane_result(out)

    a_plus = a_plus.ravel()[lanes]
    ahead = RiemannPair(a_ahead.ravel()[lanes], b_ahead.ravel()[lanes])
    dalpha3 = dalpha.ravel()[lanes] ** 3
    w_ahead = wave_state(eos, ahead)  # for G0 and the tolerance's scale
    g0 = _cubic_at(eos, w_ahead)
    seed = ahead.beta + g0 * dalpha3
    width = 8.0 * np.abs(g0 * dalpha3) + 1e-14

    def fdf(b):
        behind = RiemannPair(a_plus, b)
        return _J_and_slope(*_jump_and_behind_slopes(eos, JumpPair(ahead, behind)))

    # the bracket ends and the seed, evaluated together; the Newton solve
    # starts from all three
    pts = np.empty((3, lanes.size))
    pts[2] = seed
    pending = np.ones(lanes.size, dtype=bool)
    for _ in range(_MAX_EXPAND + 1):
        np.subtract(seed, width, out=pts[0])
        np.add(seed, width, out=pts[1])
        start = fdf(pts)
        pending &= ~(start[0][0] * start[0][1] <= 0)
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
        pts[0],
        pts[1],
        f_tol=_J_TOL_REL * _scale_at(eos, w_ahead),
        polish=8,
        start=start,
    )
    return _lane_result(out)


def jump_newton_step(
    eos: eos_mod.BarotropicEos,
    alpha_plus,
    ahead: RiemannPair,
    beta_prev,
):
    """One Newton step on J from a previous behind beta, with the front speed.

    For a root that has moved little since ``beta_prev`` (the root of the
    previous outer step, say), one evaluation of the stress jumps and their
    behind slopes at (ahead, (alpha_plus, beta_prev)) gives both

        beta_plus = beta_prev - J / dJ/dbeta,
        V = [T^tr]/[T^tt] + dV/dbeta (beta_plus - beta_prev),

    whose errors against :func:`solve_jump_beta` and :func:`shock_speed`
    are quadratic in the distance of ``beta_prev`` from the root.  The
    arguments are lanes as in :func:`solve_jump_beta`.

    Returns:
        (beta_plus, V), or None when some lane has a zero jump in alpha,
        coincident states, a non-finite step or a step longer than
        |beta_prev - ahead.beta|; the caller then solves cold.

    Raises:
        OutOfRange: some lane's |alpha_plus - ahead.alpha| exceeds _DALPHA_CAP.
    """
    a_plus, a_ahead, b_ahead, b_prev = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (alpha_plus, *ahead, beta_prev))
    )
    dalpha = _capped_dalpha(a_plus, a_ahead)
    if not dalpha.all():
        return None
    ahead = RiemannPair(a_ahead, b_ahead)
    dT, d = _jump_and_behind_slopes(eos, JumpPair(ahead, RiemannPair(a_plus, b_prev)))
    if _coincident(eos, dT, ahead).any():
        return None
    J, dJ = _J_and_slope(dT, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -J / dJ
    if not (np.abs(step) <= np.abs(b_prev - b_ahead)).all():
        return None
    dV = (d.tr_beta * dT.tt - dT.tr * d.tt_beta) / dT.tt**2
    return _lane_result(b_prev + step), _lane_result(dT.tr / dT.tt + dV * step)


def shock_speed(eos: eos_mod.BarotropicEos, jp: JumpPair):
    """Front speed V = [T^tr]/[T^tt], per lane.

    Raises:
        DegenerateJump: the states of some lane (nearly) coincide and V is 0/0.
    """
    dT = stress_jump(eos, jp)
    if _coincident(eos, dT, jp.ahead).any():
        raise DegenerateJump("states coincide; front speed is indeterminate")
    return dT.tr / dT.tt


def _coincident(eos: eos_mod.BarotropicEos, dT: StressComponents, ahead: RiemannPair):
    """Lanes whose states (nearly) coincide, where V = [T^tr]/[T^tt] is 0/0."""
    E, p = wave_state(eos, ahead).energy(eos)
    return np.abs(dT.tt) <= 2e-14 * np.abs(E - p)


def entropy_q(eos: eos_mod.BarotropicEos, state: RiemannPair):
    """Steepness functional q = (1/eta^2 - 1)/sigma^2, which decreases
    across a physical front, per lane."""
    w = wave_state(eos, state)
    return (1.0 / _lane_result(w.eta2) - 1.0) / w.sigma(eos) ** 2


def coincidence_structure(eos: eos_mod.BarotropicEos, state: RiemannPair) -> dict:
    """Derivative structure of J at a coincident pair, by 4th-order stencils.

    The stencils of ``fitting.derivative`` and ``fitting.mixed_second`` are
    run twice: once to collect their behind-state offsets, which are then
    the lanes of one ``jump_J`` call, and once to sum the looked-up values.

    Returns:
        dict with the first four pure behind-alpha derivatives ("d1".."d4")
        and the mixed behind-(alpha, beta) second derivative ("mixed"),
        Richardson-refined over the steps ``_COINCIDENCE_STEP`` and half it.
    """

    def all_at(h: float, J_of) -> dict:
        out = {
            f"d{k}": fitting.derivative(lambda a: J_of(a, 0.0), 0.0, order=k, step=h)
            for k in (1, 2, 3, 4)
        }
        out["mixed"] = fitting.mixed_second(J_of, 0.0, 0.0, h)
        return out

    steps = (_COINCIDENCE_STEP, _COINCIDENCE_STEP / 2)
    points: dict = {}  # (d alpha, d beta) offsets, in first-use order
    for h in steps:
        all_at(h, lambda da, db: points.setdefault((da, db), 0.0))
    offsets = np.array(list(points))
    behind = RiemannPair(state.alpha + offsets[:, 0], state.beta + offsets[:, 1])
    values = dict(zip(points, np.asarray(jump_J(eos, JumpPair(state, behind))).tolist()))
    coarse, fine = (all_at(h, lambda da, db: values[da, db]) for h in steps)
    return {k: fitting.richardson(coarse[k], fine[k], order=4) for k in coarse}
