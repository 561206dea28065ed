"""The runtime imports NumPy only: SciPy is a test dependency.

Each step runs in one fresh interpreter and reports the SciPy modules that
are loaded after it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import shockdev

SRC = Path(shockdev.__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys

import numpy as np

def loaded(step):
    mods = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps([step, mods[:5]]), flush=True)

import shockdev
from shockdev import cli, report
loaded("import")

from shockdev import eos
from shockdev.free_boundary import run_shock_development
from shockdev.state_ahead import CuspData, synthesize_model

rad = eos.radiation()
cusp = CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
model = synthesize_model(cusp, rad, eps=0.01)
sol = run_shock_development(rad, model, cusp, eps=0.01, n=8)
assert sol.diagnostics
loaded("radiation solve")

eos.eos_identity_residual(eos.poly2(0.1), 1.3)
loaded("poly2 identity residual")

rho = np.geomspace(0.2, 5.0, 40)
tab = eos.from_table(np.column_stack([rho, rho / 3.0]), rho_ref=1.0)
h = eos.enthalpy(tab, 1.3)
eos.rho_of_enthalpy(tab, h)
eos.mu_coefficient(tab, eos.potential_of_rho(tab, np.array([0.9, 1.3])))
eos.sound_speed_sq(tab, 1.3)
loaded("table chain")
"""


def test_no_scipy_at_runtime():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [s for s, _ in steps] == [
        "import", "radiation solve", "poly2 identity residual", "table chain"
    ]
    for step, mods in steps:
        assert mods == [], f"SciPy loaded after {step}: {mods}"
