"""Smoke tests: every demo script runs to the end in-process.

Each demo runs as ``__main__`` through ``runpy`` with its standard output
captured, so the package import is shared with the rest of the suite.  The
demos that report a contraction ratio must print one in (0, 1).
"""

import contextlib
import functools
import io
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo -> a pattern its output must contain; a group captures a contraction ratio
EXPECTED = {
    "demo_eos.py": r"chain identity, worst relative defect",
    "demo_fixed_bvp.py": r"first contraction ratio: (\S+)",
    "demo_free_boundary.py": r"first contraction ratio: (\S+)",
    "demo_jump.py": r"Taub-form mismatch is cubic in the jump",
    "demo_report.py": r"PASS convergence_structure: measured (\S+)",
    "demo_state.py": r"ordering c- < v < c\+",
    "demo_state_ahead.py": r"cubic edge coefficient: fitted",
}


@functools.cache
def run_demo(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name):
    text = run_demo(name)
    match = re.search(EXPECTED[name], text)
    assert match, text
    if match.groups():
        assert 0.0 < float(match.group(1)) < 1.0


def test_outer_ratio_is_the_contraction_witness(canon_sol):
    # the free-boundary demo solves the canonical problem; the ratio it
    # prints is that of the first two raw map residuals
    m = [max(h) for h in canon_sol.outer_history]
    text = run_demo("demo_free_boundary.py")
    assert f"first contraction ratio: {m[1] / m[0]:.4f}" in text
    assert f"converged in {len(m)} outer iterations" in text
