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

import oracles
from oracles import reference_newton_lanes
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


class TestRoundingRules:
    """The stops on rounding (the inner sweep's, the polish test's and the
    incoming-characteristic march's) read these two rules."""

    def test_rounding_floor_is_two_ulp(self):
        assert fitting._rounding_floor(1.0) == 2.0**-51
        assert fitting._rounding_floor(0.0) == 2.0 * 5e-324

    def test_error_left_under_the_observed_contraction(self):
        assert fitting._error_left(1e-8, 1e-4) == 1e-8 * (1e-8 / 1e-4)
        # a change that did not shrink leaves itself
        assert fitting._error_left(1e-4, 1e-8) == 1e-4


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
        # the ends and the start are one call on the stack (lo, hi, x0); a
        # caller that hands over that call's values saves it, and no later
        # call sees the stack or either end again
        s, lo, hi, x0 = (np.array(c) for c in zip(*LANES))
        stack = np.array([lo, hi, x0])
        seen = []

        def fdf(x):
            seen.append(x.copy())
            return f(x, s), df(x, s)

        start = fdf(stack)
        seen.clear()
        got = fitting.safeguarded_newton_lanes(fdf, x0, lo, hi, f_tol=1e-12, start=start)
        assert got.tolist() == scalar_roots(LANES, f_tol=1e-12)
        assert all(x.shape == lo.shape for x in seen)
        assert not any(np.array_equal(x, lo) or np.array_equal(x, hi) for x in seen)
        calls = len(seen)
        seen.clear()
        fitting.safeguarded_newton_lanes(fdf, x0, lo, hi, f_tol=1e-12)
        assert len(seen) == calls + 1
        assert np.array_equal(seen[0], stack)


def _cubic_lanes(rng, n):
    """Random lanes of f = d - d^3/6 (d = x - s), one root s in each range
    [lo, hi] and starts anywhere in it: many first Newton steps leave the
    bracket and bisect, and the lanes finish at different steps."""
    s = rng.uniform(-1.0, 1.0, n)
    lo = s - rng.uniform(0.05, 2.2, n)
    hi = s + rng.uniform(0.05, 2.2, n)
    x0 = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
    return s, lo, hi, x0


class TestAgainstReference:
    """The lane solve returns the reference roots bit for bit
    (``oracles.reference_newton_lanes``) and fails in the same cases."""

    @staticmethod
    def both(fdf, *args, **kwargs):
        out = []
        for solve in (fitting.safeguarded_newton_lanes, reference_newton_lanes):
            try:
                out.append(solve(fdf, *args, **kwargs))
            except (NoRoot, NonConvergence) as exc:
                out.append((type(exc), str(exc)))
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lanes(self, seed):
        rng = np.random.default_rng(seed)
        s, lo, hi, x0 = _cubic_lanes(rng, 97)
        # roots exactly at an end, and ends within f_tol of one
        lo[:5], hi[5:10] = s[:5], s[5:10]
        lo[10:13], hi[13:16] = s[10:13] - 1e-14, s[13:16] + 1e-14
        got, want = self.both(lambda x: (f(x, s), df(x, s)), x0, lo, hi, f_tol=1e-12)
        assert got.tobytes() == want.tobytes()

    def test_non_finite_and_zero_slopes(self):
        # slopes of 0, +-inf and NaN at the start force bisection there
        rng = np.random.default_rng(11)
        s, lo, hi, x0 = _cubic_lanes(rng, 40)
        bad = np.resize([0.0, np.inf, -np.inf, np.nan, 1.0], 40)

        def fdf(x):
            return f(x, s), np.where(x == x0, bad, df(x, s))

        got, want = self.both(fdf, x0, lo, hi, f_tol=1e-12)
        assert got.tobytes() == want.tobytes()

    def test_scalar_lane(self):
        def fdf(x):
            return f(x, 0.1), df(x, 0.1)

        for x0 in (-1.9, -0.3, 0.1, 1.7):
            got, want = self.both(fdf, x0, -2.0, 2.0, f_tol=1e-12)
            assert got.shape == want.shape == ()
            assert got.tobytes() == want.tobytes()

    def test_no_root_in_the_same_lane(self):
        rng = np.random.default_rng(3)
        s, lo, hi, x0 = _cubic_lanes(rng, 20)
        lo[7] = s[7] + 0.1  # both ends above the root: no sign change
        got, want = self.both(lambda x: (f(x, s), df(x, s)), x0, lo, hi, f_tol=1e-12)
        assert got == want
        assert got[0] is NoRoot and "in lane 7:" in got[1]

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 4, 6])
    def test_same_budget_failures(self, budget, monkeypatch):
        monkeypatch.setattr(fitting, "_NEWTON_MAX_ITER", budget)
        monkeypatch.setattr(oracles, "REFERENCE_MAX_ITER", budget)
        rng = np.random.default_rng(5)
        s, lo, hi, x0 = _cubic_lanes(rng, 30)
        got, want = self.both(lambda x: (f(x, s), df(x, s)), x0, lo, hi, f_tol=1e-12)
        if isinstance(want, tuple):
            assert want[0] is NonConvergence
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()


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
