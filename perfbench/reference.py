"""Reference pass: a fixed Python + NumPy + SciPy loop that measures the host.

On a shared host the speed of a CPU changes by tens of percent within
seconds, and the solver's units slow down with it (their CPU time stays
equal to their wall time).  So while a unit runs, a :class:`Sampler`
interrupts it every ``SAMPLE_S`` seconds to time one reference pass; the
unit's time excludes the passes, and ``wall_ref`` divides it by their mean
time.  The loop mixes the kinds of work the solver does: small-array
NumPy calls, SciPy scalar root finding and small dense solves, all from a
Python loop.  It never calls shockdev, so no change to the solver can
move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy import optimize

_X = np.linspace(0.0, 1.0, 64)
_A = np.eye(8) * 4.0 + np.full((8, 8), 0.1)


def reference_pass() -> float:
    """Seconds taken by one pass of the fixed loop."""
    t0 = time.perf_counter()
    for k in range(1500):
        y = np.sin(_X * (k % 7 + 1)) + _X * _X
        optimize.brentq(lambda s: s * s * s - 0.5 - 1e-4 * (k % 5), 0.0, 2.0)
        np.linalg.solve(_A, y[:8])
    return time.perf_counter() - t0


# wall time of the unit between two reference passes
SAMPLE_S = 0.5


class Sampler:
    """Times a reference pass every ``SAMPLE_S`` seconds while it is active.

    The pass runs in a ``SIGALRM`` handler, so it interleaves with the
    unit's Python code in the main thread; the timer is re-armed after
    each pass, so the unit always gets ``SAMPLE_S`` seconds between two.
    ``spent`` is the wall time the passes took from the unit.
    """

    def __init__(self):
        self.passes: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.passes.append(reference_pass())
        self.spent += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def sampled(attempt):
    """Run ``attempt()`` -> (wall seconds, failure) with reference passes around and in it.

    Returns (unit seconds without the passes, failure, mean pass seconds).
    """
    before = reference_pass()
    with Sampler() as sampler:
        elapsed, err = attempt()
    after = reference_pass()
    ref = sum([before, *sampler.passes, after]) / (len(sampler.passes) + 2)
    return elapsed - sampler.spent, err, ref
