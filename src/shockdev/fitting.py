"""Shared numerical utilities: high-order differencing, sequence

extrapolation, small-parameter fits, and the one safeguarded Newton solve
(lane-wise over independent 1-D problems) used by every root solve in the
package.  The fits and stencils are deliberately plain so they can double
as independent oracles in the test suite.
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


def mixed_second(
    f: Callable, x: float, y: float, step_x: float = 1e-3, step_y: float = 1e-3
) -> float:
    """Mixed second derivative d2 f / dx dy (4th order in both directions)."""
    offs, cs = _STENCILS[1]
    acc = 0.0
    for ox, cx in zip(offs, cs):
        for oy, cy in zip(offs, cs):
            acc += cx * cy * f(x + ox * step_x, y + oy * step_y)
    return acc / (step_x * step_y)


def richardson(coarse: float, fine: float, order: int, ratio: float = 2.0) -> float:
    """Eliminate the leading O(step^order) error from two estimates.

    Args:
        coarse: estimate at step h.
        fine: estimate at step h/ratio.
        order: order of the leading error term.
    """
    w = ratio**order
    return (w * fine - coarse) / (w - 1.0)


# nodes nearest zero that the fits skip by default: relative
# discretization noise is worst there
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
    if len(x) > _FIT_DROP + 3:
        x, y = x[_FIT_DROP:], y[_FIT_DROP:]
    sel = x <= 10.0 * x[0]
    if np.count_nonzero(sel) >= 4:
        x, y = x[sel], y[sel]
    if len(x) < 2:
        raise ValueError("power_law_fit needs at least 2 usable points")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(math.exp(intercept))


def extrapolate_to_zero(x, y, degree: int = 2, drop: int = _FIT_DROP):
    """Least-squares polynomial extrapolation of y(x) to x = 0.

    Excludes the ``drop`` nodes nearest zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.argsort(x)
    x, y = x[order], y[order]
    if drop and len(x) > drop + degree + 2:
        x, y = x[drop:], y[drop:]
    coeffs = np.polynomial.polynomial.polyfit(x, y, degree)
    return float(coeffs[0])


def quadratic_extrapolate(x, y) -> float:
    """Value at 0 of the parabola through three (x, y) samples."""
    (x1, x2, x3), (y1, y2, y3) = x, y
    l1 = (0 - x2) * (0 - x3) / ((x1 - x2) * (x1 - x3))
    l2 = (0 - x1) * (0 - x3) / ((x2 - x1) * (x2 - x3))
    l3 = (0 - x1) * (0 - x2) / ((x3 - x1) * (x3 - x2))
    return float(y1 * l1 + y2 * l2 + y3 * l3)


def safeguarded_newton_lanes(
    fdf: Callable,
    x0,
    lo,
    hi,
    f_tol,
    max_iter: int = 60,
    polish: int = 6,
) -> np.ndarray:
    """Newton iteration confined to a range with bisection fallback, lane-wise.

    Lane k solves f_k(x_k) = 0 on [lo[k], hi[k]] from x0[k] to |f_k| <
    f_tol[k]; all lanes share each ``fdf`` evaluation.  Per lane:

      1. an end point with |f| < f_tol is accepted at once;
      2. the range is a bracket if f changes sign across it; otherwise a
         bracket is adopted as soon as an iterate exposes a sign change
         against either end;
      3. each step tightens the bracket (if any) to the latest iterate and
         takes the Newton step when it lands strictly inside the bracket
         (the range, while there is none), else bisects the bracket; a
         Newton step out of range with no bracket to fall back on is an
         error;
      4. once |f| < f_tol, further Newton steps polish the iterate while |f|
         keeps decreasing (at most ``polish`` of them), so the root is a
         machine-precision fixed point rather than a point of the tolerance
         band (callers difference downstream quantities against small
         scales and cannot afford tolerance-band jitter).

    Finished lanes are frozen by masks while the others continue, so each
    lane takes exactly the steps it would take alone.

    Args:
        fdf: maps an array of iterates (one per lane) to the arrays
            (f, df/dx) at those iterates, lane by lane.
        x0, lo, hi, f_tol: per-lane arrays (or scalars broadcast to lanes).

    Raises:
        NoRoot: Newton left the range of some lane with no sign change there.
        NonConvergence: some lane exhausted the iteration budget.
    """
    x0, lo, hi, f_tol = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(x0, lo, hi, f_tol)
    )
    blo, bhi = lo, hi
    flo, _ = fdf(blo)
    fhi, _ = fdf(bhi)
    take_lo = np.abs(flo) < f_tol
    take_hi = ~take_lo & (np.abs(fhi) < f_tol)
    done = take_lo | take_hi
    bracketed = flo * fhi < 0
    x = np.where(take_lo, blo, np.where(take_hi, bhi, np.clip(x0, blo, bhi)))
    fx, dx = fdf(x)

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            done |= np.abs(fx) < f_tol
            run = ~done
            if not run.any():
                break
            # tighten any bracket we have using the latest evaluation
            tight = run & bracketed
            left = flo * fx <= 0
            bhi, fhi = np.where(tight & left, x, bhi), np.where(tight & left, fx, fhi)
            blo, flo = np.where(tight & ~left, x, blo), np.where(tight & ~left, fx, flo)
            xn = np.where((dx != 0) & np.isfinite(dx), x - fx / dx, np.nan)
            inside = np.isfinite(xn) & (blo < xn) & (xn < bhi)
            lost = run & ~inside & ~bracketed
            if lost.any():
                k = int(np.flatnonzero(lost)[0])
                raise NoRoot(
                    f"newton left [{lo.flat[k]}, {hi.flat[k]}] in lane {k} "
                    "without a sign change to fall back on"
                )
            x = np.where(run, np.where(inside, xn, 0.5 * (blo + bhi)), x)
            fn, dn = fdf(x)
            fx, dx = np.where(run, fn, fx), np.where(run, dn, dx)
            open_ = run & ~bracketed
            adopt_hi = open_ & (flo * fx < 0)
            adopt_lo = open_ & ~adopt_hi & (fhi * fx < 0)
            bhi, fhi = np.where(adopt_hi, x, bhi), np.where(adopt_hi, fx, fhi)
            blo, flo = np.where(adopt_lo, x, blo), np.where(adopt_lo, fx, flo)
            bracketed |= adopt_hi | adopt_lo
        else:
            if not done.all():
                raise NonConvergence(
                    f"newton/bisection did not reach |f| < f_tol in {max_iter} "
                    f"iterations on {int(np.count_nonzero(~done))} of {done.size} lanes"
                )

        # polish each lane until its |f| stops decreasing
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
