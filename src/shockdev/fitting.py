"""Shared numerical utilities: differencing, extrapolation, fits and a lane-wise Newton solve.

The differencing stencils are 4th order; the Newton solve runs over
independent bracketed 1-D problems and serves every root solve in the
package.  Its residual acts elementwise over leading axes, so both bracket
ends and the start are evaluated in one call on a (3, *lanes) stack.  The
fits and stencils are deliberately plain so they can double as independent
oracles in the test suite.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NoRoot, NonConvergence

__all__ = [
    "derivative",
    "mixed_second",
    "richardson",
    "power_law_fit",
    "extrapolate_to_zero",
    "quadratic_extrapolate",
    "safeguarded_newton_lanes",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)  # 8-point rule on [-1, 1]

# central stencils of 4th-order accuracy: order -> (offsets, coefficients)
_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12)),
    3: (
        (-3, -2, -1, 1, 2, 3),
        (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8),
    ),
    4: (
        (-3, -2, -1, 0, 1, 2, 3),
        (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6),
    ),
}


def derivative(f: Callable, x: float, order: int = 1, step: float = 1e-3) -> float:
    """n-th derivative of a scalar function by a 4th-order central stencil.

    Args:
        f: scalar function.
        x: evaluation point.
        order: derivative order, 1 through 4.
        step: stencil spacing.
    """
    if order not in _STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    offsets, coeffs = _STENCILS[order]
    acc = 0.0
    for off, c in zip(offsets, coeffs):
        acc += c * f(x + off * step)
    return acc / step**order


def mixed_second(f: Callable, x: float, y: float, step: float = 1e-3) -> float:
    """Mixed second derivative d2 f / dx dy (4th order in both directions,
    the same spacing ``step`` in each)."""
    offs, cs = _STENCILS[1]
    acc = 0.0
    for ox, cx in zip(offs, cs):
        for oy, cy in zip(offs, cs):
            acc += cx * cy * f(x + ox * step, y + oy * step)
    return acc / (step * step)


def richardson(coarse: float, fine: float, order: int) -> float:
    """Eliminate the leading O(step^order) error from two estimates.

    Args:
        coarse: estimate at step h.
        fine: estimate at step h/2.
        order: order of the leading error term.
    """
    w = 2.0**order
    return (w * fine - coarse) / (w - 1.0)


# nodes nearest zero that power_law_fit skips: relative discretization
# noise is worst there
_FIT_DROP = 3


def power_law_fit(x, y):
    """Fit |y| ~ C x^p on a log-log least-squares line.

    Uses the smallest available decade of x, excluding the ``_FIT_DROP``
    nodes nearest zero.

    Returns:
        (exponent, prefactor).
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    order = np.argsort(x)
    x, y = x[order], y[order]
    keep = (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if len(x) < 2:
        raise ValueError("power_law_fit needs at least 2 usable points")
    if len(x) > _FIT_DROP + 3:
        x, y = x[_FIT_DROP:], y[_FIT_DROP:]
    sel = x <= 10.0 * x[0]
    if np.count_nonzero(sel) >= 4:
        x, y = x[sel], y[sel]
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(math.exp(intercept))


def extrapolate_to_zero(x, y) -> float:
    """Value at x = 0 of the least-squares quadratic through all (x, y) samples."""
    coeffs = np.polynomial.polynomial.polyfit(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), 2
    )
    return float(coeffs[0])


def quadratic_extrapolate(x, y) -> float:
    """Value at 0 of the parabola through three (x, y) samples."""
    (x1, x2, x3), (y1, y2, y3) = x, y
    l1 = (0 - x2) * (0 - x3) / ((x1 - x2) * (x1 - x3))
    l2 = (0 - x1) * (0 - x3) / ((x2 - x1) * (x2 - x3))
    l3 = (0 - x1) * (0 - x2) / ((x3 - x1) * (x3 - x2))
    return float(y1 * l1 + y2 * l2 + y3 * l3)


def _lane_result(x):
    """The lane rule of every lane function: a scalar is a lane of one, whose
    (0-d) result comes back as a Python float; lanes come back as the array."""
    return x if getattr(x, "ndim", 0) else float(x)


def _hatted(v, raw, k, corner):
    """The hatting rule: raw / v^k at v > 0, the corner value at v = 0."""
    out = np.empty_like(v)
    out[0] = corner
    out[1:] = raw[1:] / v[1:] ** k
    return out


# bracketed steps a lane may take before it counts as not converged
_NEWTON_MAX_ITER = 60


def safeguarded_newton_lanes(
    fdf: Callable,
    x0,
    lo,
    hi,
    f_tol,
    polish: int = 6,
    start=None,
) -> np.ndarray:
    """Newton iteration inside a bracket with bisection fallback, lane-wise.

    Lane k solves f_k(x_k) = 0 on [lo[k], hi[k]] from x0[k] to |f_k| <
    f_tol[k]; all lanes share each ``fdf`` evaluation.  Per lane:

      1. an end point with |f| < f_tol is accepted at once; otherwise f
         must change sign across the range, which is then the bracket;
      2. each step tightens the bracket to the latest iterate and takes the
         Newton step when it lands strictly inside the bracket, else
         bisects it;
      3. once |f| < f_tol, further Newton steps polish the iterate while |f|
         keeps decreasing (at most ``polish`` of them), so the root is a
         machine-precision fixed point rather than a point of the tolerance
         band (callers difference downstream quantities against small
         scales and cannot afford tolerance-band jitter).

    Finished lanes are frozen by masks while the others continue, so each
    lane takes exactly the steps it would take alone.  While every lane
    runs, the bracket and the iterate are updated with no lane mask, and
    while every Newton step lands inside its bracket, with no bisection.

    Args:
        fdf: maps an array of iterates to the arrays (f, df/dx) at those
            iterates, elementwise: the lanes are its trailing axes, and it
            must also accept a leading axis in front of them.  Both ends
            and the start are evaluated in one call, on the stack
            (lo, hi, x0 clipped into [lo, hi]) of shape (3, *lanes).
        x0, lo, hi, f_tol: per-lane arrays (or scalars broadcast to lanes).
        start: the pair (f, df/dx) of ``fdf`` on that stack when the caller
            already has it; x0 must then lie in [lo, hi].

    Raises:
        NoRoot: some lane has neither an end within f_tol nor a sign
            change across its range (the first such lane is named).
        NonConvergence: some lane exhausted the iteration budget.
    """
    f_tol = np.asarray(f_tol, dtype=float)
    # the bracket ends and the iterate are rows of one array, updated in
    # place: a row taken with an ellipsis stays a view for 0-d lanes too
    pts = np.empty((3,) + np.broadcast(x0, lo, hi, f_tol).shape)
    blo, bhi, x = pts[0, ...], pts[1, ...], pts[2, ...]
    blo[...], bhi[...] = lo, hi
    np.maximum(x0, blo, out=x)
    np.minimum(x, bhi, out=x)
    # the values and slopes there, rows of one array in the same order
    vals = np.empty((2,) + pts.shape)
    vals[0], vals[1] = fdf(pts) if start is None else start
    flo, fhi, fx = vals[0, 0, ...], vals[0, 1, ...], vals[0, 2, ...]
    dx = vals[1, 2, ...]
    near = np.abs(vals[0, :2]) < f_tol
    take_lo, take_hi = near[0, ...], near[1, ...]
    take_hi &= ~take_lo
    done = take_lo | take_hi
    unbracketed = ~(done | (flo * fhi < 0))
    if unbracketed.any():
        k = int(np.flatnonzero(unbracketed)[0])
        raise NoRoot(
            f"no sign change across [{blo.flat[k]}, {bhi.flat[k]}] in lane {k}: "
            f"f = {flo.flat[k]:.3e}, {fhi.flat[k]:.3e} at its ends"
        )
    if done.any():
        # an accepted end is the iterate, with the value and slope there
        for take, row in ((take_lo, 0), (take_hi, 1)):
            np.copyto(pts[2, ...], pts[row, ...], where=take)
            np.copyto(vals[:, 2, ...], vals[:, row, ...], where=take)

    # the bracket ends with their values, and per end the lanes whose end
    # the latest iterate replaces
    ends, f_ends = pts[:2], vals[0, :2]
    moves = np.empty(ends.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            done |= np.abs(fx) < f_tol
            finished = np.count_nonzero(done)
            if finished == done.size:
                break
            # tighten the bracket using the latest evaluation: it replaces
            # hi where f changes sign from lo to it, else lo
            np.less_equal(flo * fx, 0, out=moves[1, ...])
            np.logical_not(moves[1, ...], out=moves[0, ...])
            run = True
            if finished:
                run = ~done
                moves &= run
            np.copyto(ends, x, where=moves)
            np.copyto(f_ends, fx, where=moves)
            # x is now an end of the bracket, so a step that a zero or
            # non-finite slope leaves non-finite or at x is not inside it
            xn = x - fx / dx
            inside = (blo < xn) & (xn < bhi)
            if not inside.all():
                xn = np.where(inside, xn, 0.5 * (blo + bhi))
            np.copyto(x, xn, where=run)
            fn, dn = fdf(x)
            np.copyto(fx, fn, where=run)
            np.copyto(dx, dn, where=run)
        else:
            if not done.all():
                raise NonConvergence(
                    f"newton/bisection did not reach |f| < f_tol in {_NEWTON_MAX_ITER} "
                    f"iterations on {int(np.count_nonzero(~done))} of {done.size} lanes"
                )

        # polish each lane until its |f| stops decreasing
        going = np.ones_like(done)
        for _ in range(polish):
            xn = x - fx / dx
            going &= (xn != x) & np.isfinite(xn)  # a 0 or non-finite dx fails too
            if not going.any():
                break
            fn, dn = fdf(np.where(going, xn, x))
            going &= np.abs(fn) < np.abs(fx)
            x = np.where(going, xn, x)
            fx, dx = np.where(going, fn, fx), np.where(going, dn, dx)
    return x
