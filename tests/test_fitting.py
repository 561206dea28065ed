"""Lane-wise safeguarded Newton against a scalar routine as reference.

The scalar routine below is the package's former one-problem Newton, kept
here as the test oracle: it takes the same safeguard steps on one problem
that the lane-wise routine must take on each lane.  The test function is a
cubic built from + and * only, so both routines do the same floating-point
operations on every lane and must agree exactly.  Its lanes cover each
branch of the safeguard: acceptance at either end point, plain Newton
inside the bracket, and bisection when Newton leaves it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from shockdev import fitting
from shockdev.errors import NoRoot, NonConvergence


def f(x, s):
    d = x - s
    return d - d * d * d / 6.0


def df(x, s):
    d = x - s
    return 1.0 - 0.5 * d * d


# (shift, lo, hi, x0) per lane; the roots are s and s +- sqrt(6)
LANES = [
    (0.0, 0.0, 2.0, 1.0),  # root at the lower end
    (0.0, -2.0, 0.0, -1.0),  # root at the upper end
    (0.1, -1.0, 1.0, 0.5),  # bracketed, plain Newton
    (0.05, -2.0, 2.0, 1.7),  # bracketed, first Newton step leaves it: bisection
]


def safeguarded_newton(
    f,
    df,
    x0: float,
    lo: float,
    hi: float,
    f_tol: float,
    max_iter: int = 60,
    polish: int = 6,
) -> float:
    """Scalar oracle: Newton inside the bracket [lo, hi] with bisection fallback.

    After meeting ``f_tol`` the iterate is polished with further Newton
    steps until |f| stops decreasing.

    Raises:
        NoRoot: neither end is within ``f_tol`` and f does not change sign.
        NonConvergence: iteration budget exhausted.
    """

    def _polish(x, fx):
        for _ in range(polish):
            d = df(x)
            if d == 0.0 or not math.isfinite(d):
                break
            xn = x - fx / d
            if xn == x or not math.isfinite(xn):
                break
            fn = f(xn)
            if abs(fn) >= abs(fx):
                break
            x, fx = xn, fn
        return x

    blo, bhi = float(lo), float(hi)
    flo, fhi = f(blo), f(bhi)
    if abs(flo) < f_tol:
        return _polish(blo, flo)
    if abs(fhi) < f_tol:
        return _polish(bhi, fhi)
    if not flo * fhi < 0:
        raise NoRoot(f"no sign change across [{lo}, {hi}]")

    x = min(max(float(x0), blo), bhi)
    fx = f(x)
    for _ in range(max_iter):
        if abs(fx) < f_tol:
            return _polish(x, fx)
        # tighten the bracket using the latest evaluation
        if flo * fx <= 0:
            bhi, fhi = x, fx
        else:
            blo, flo = x, fx
        d = df(x)
        xn = x - fx / d if d != 0 and math.isfinite(d) else math.nan
        if not (math.isfinite(xn) and blo < xn < bhi):
            xn = 0.5 * (blo + bhi)
        x = xn
        fx = f(x)
    raise NonConvergence(
        f"newton/bisection did not reach |f| < {f_tol} in {max_iter} iterations"
    )


def scalar_roots(lanes, **kw):
    return [
        safeguarded_newton(
            lambda x, s=s: f(x, s), lambda x, s=s: df(x, s), x0, lo, hi, **kw
        )
        for s, lo, hi, x0 in lanes
    ]


def lane_roots(lanes, **kw):
    s, lo, hi, x0 = (np.array(c) for c in zip(*lanes))
    return fitting.safeguarded_newton_lanes(
        lambda x: (f(x, s), df(x, s)), x0, lo, hi, **kw
    )


class TestSafeguardedNewtonLanes:
    def test_equal_to_scalar_routine_on_every_lane(self):
        got = lane_roots(LANES, f_tol=1e-12)
        assert got.tolist() == scalar_roots(LANES, f_tol=1e-12)

    def test_single_lane(self):
        got = lane_roots(LANES[3:4], f_tol=1e-12)
        assert got.shape == (1,)
        assert got[0] == scalar_roots(LANES[3:4], f_tol=1e-12)[0]

    def test_no_root_in_one_lane_raises(self):
        # ends share a sign, though the range holds the root 0.2: the lane
        # is refused on entry and named
        lanes = LANES[:2] + [(0.2, -0.8, 3.2, -0.7)] + LANES[2:]
        with pytest.raises(NoRoot):
            scalar_roots(lanes[2:3], f_tol=1e-12)
        with pytest.raises(NoRoot, match=r"no sign change across \[-0\.8, 3\.2\] in lane 2:"):
            lane_roots(lanes, f_tol=1e-12)

    def test_same_iteration_count_per_lane(self, monkeypatch):
        # the smallest budget the scalar routine needs is exactly the one
        # the lane-wise routine needs on that lane
        def lane_converges(lane, budget):
            monkeypatch.setattr(fitting, "_NEWTON_MAX_ITER", budget)
            return converges(lane_roots, [lane])

        for lane in LANES:
            k = next(
                k for k in range(61) if converges(scalar_roots, [lane], max_iter=k)
            )
            assert lane_converges(lane, k)
            assert k == 0 or not lane_converges(lane, k - 1)

    def test_one_lane_over_budget_fails_the_batch(self, monkeypatch):
        monkeypatch.setattr(fitting, "_NEWTON_MAX_ITER", 2)
        with pytest.raises(NonConvergence):
            lane_roots(LANES, f_tol=1e-12)

    def test_given_end_values_are_not_evaluated_again(self):
        s, lo, hi, x0 = (np.array(c) for c in zip(*LANES))
        seen = []

        def fdf(x):
            seen.append(x.copy())
            return f(x, s), df(x, s)

        got = fitting.safeguarded_newton_lanes(
            fdf, x0, lo, hi, f_tol=1e-12, f_ends=(f(lo, s), f(hi, s))
        )
        assert got.tolist() == scalar_roots(LANES, f_tol=1e-12)
        assert not any(np.array_equal(x, lo) or np.array_equal(x, hi) for x in seen)
        calls = len(seen)
        seen.clear()
        fitting.safeguarded_newton_lanes(fdf, x0, lo, hi, f_tol=1e-12)
        assert len(seen) == calls + 2


class TestExtrapolation:
    """Each fit is exact on data of the form it assumes."""

    def test_extrapolate_to_zero_recovers_quadratic_constant(self):
        x = np.linspace(0.1, 1.0, 10)
        got = fitting.extrapolate_to_zero(x, 2.5 - 1.3 * x + 0.7 * x**2)
        assert got == pytest.approx(2.5, rel=1e-13)

    def test_extrapolate_to_zero_uses_every_sample(self):
        # three samples leave no least-squares slack: the fit is the
        # parabola through them, nearest node included
        x, y = [0.01, 0.5, 1.0], [7.0, -2.0, 3.0]
        want = fitting.quadratic_extrapolate(x, y)
        assert fitting.extrapolate_to_zero(x, y) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_richardson_removes_order_p_term(self, order):
        h, limit, c = 0.1, 1.5, 3.0
        coarse, fine = limit + c * h**order, limit + c * (h / 2) ** order
        assert fitting.richardson(coarse, fine, order) == pytest.approx(limit, rel=1e-14)

    def test_quadratic_extrapolate_through_three_points(self):
        x = np.array([0.1, 0.2, 0.4])
        got = fitting.quadratic_extrapolate(x, -0.75 + 4.0 * x - 9.0 * x**2)
        assert got == pytest.approx(-0.75, rel=1e-14)


class TestPowerLawFit:
    def test_recovers_exponent_and_prefactor(self):
        x = np.linspace(0.01, 0.1, 12)
        p, c = fitting.power_law_fit(x, -2.5 * x**1.5)
        assert p == pytest.approx(1.5, rel=1e-12)
        assert c == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize(
        "x, y",
        [([0.0, 1.0], [0.0, 0.0]), ([], []), ([1.0], [2.0]), ([-1.0, 0.0, 2.0], [1.0, 1.0, 0.0])],
        ids=["flat_row", "empty", "one_point", "none_positive"],
    )
    def test_too_few_usable_points_is_a_value_error(self, x, y):
        with pytest.raises(ValueError, match="at least 2 usable points"):
            fitting.power_law_fit(x, y)


def converges(roots, lanes, **kw):
    try:
        roots(lanes, f_tol=1e-12, **kw)
    except NonConvergence:
        return False
    return True
