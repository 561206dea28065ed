"""Lane-wise safeguarded Newton against the scalar routine as reference.

The test function is a cubic built from + and * only, so both routines do
the same floating-point operations on every lane and must agree exactly.
Its lanes cover each branch of the safeguard: acceptance at an end point,
a bracket held from the start, bisection when Newton leaves the bracket,
and a bracket adopted from an iterate.
"""

from __future__ import annotations

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
    (0.1, -1.0, 1.0, 0.5),  # bracketed, plain Newton
    (0.05, -2.0, 2.0, 1.7),  # bracketed, first Newton step leaves it: bisection
    (0.2, -0.8, 3.2, -0.7),  # ends share a sign: bracket adopted from an iterate
    (-0.3, -1.3, 2.7, 2.0),  # ends share a sign, converges without a bracket
]


def scalar_roots(lanes, **kw):
    return [
        fitting.safeguarded_newton(
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
        got = lane_roots(LANES[2:3], f_tol=1e-12)
        assert got.shape == (1,)
        assert got[0] == scalar_roots(LANES[2:3], f_tol=1e-12)[0]

    def test_no_root_in_one_lane_raises(self):
        # ends share a sign and the first Newton step leaves the range
        lanes = LANES + [(0.0, -1.0, 3.0, 1.3)]
        with pytest.raises(NoRoot):
            scalar_roots(lanes[-1:], f_tol=1e-12)
        with pytest.raises(NoRoot):
            lane_roots(lanes, f_tol=1e-12)

    def test_same_iteration_count_per_lane(self):
        # the smallest budget the scalar routine needs is exactly the one
        # the lane-wise routine needs on that lane
        for lane in LANES:
            k = next(k for k in range(61) if converges(scalar_roots, [lane], k))
            assert converges(lane_roots, [lane], k)
            assert k == 0 or not converges(lane_roots, [lane], k - 1)

    def test_one_lane_over_budget_fails_the_batch(self):
        with pytest.raises(NonConvergence):
            lane_roots(LANES, f_tol=1e-12, max_iter=2)


def converges(roots, lanes, max_iter):
    try:
        roots(lanes, f_tol=1e-12, max_iter=max_iter)
    except NonConvergence:
        return False
    return True
