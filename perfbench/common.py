"""Constants and output checks shared by the benchmark's processes.

Standard library only: the orchestrator imports this module without
loading the solver, so it can check the files a ``shockdev run`` process
wrote without paying for (or timing) a NumPy/SciPy import.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
WORK_DIR = BENCH_DIR / ".work"

# canonical cusp of the README quick start
EPS = 0.01
CUSP = {"kappa": 1.0, "lam": 1.0, "dbeta_dt0": 0.3}

# ROADMAP rule for claims: curve columns agree with the golden copy to 1e-9
TOL = 1e-9

# shock.csv columns (write_shock_csv); all of them are compared
CURVE_COLUMNS = (
    "v", "f", "g", "V", "y", "alpha_plus", "beta_plus",
    "f_hat", "g_hat", "delta_hat", "V_hat",
)

# interior fields compared against the golden copy
FIELD_NAMES = ("t", "r_off", "alpha", "beta", "dt_du", "dt_dv")


# metric -> unit, as BENCHMARK.json lists them
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "free_boundary.jump_update.calls": "count",
    "free_boundary.jump_update.s": "s",
    "free_boundary.jump_update.nodes": "count",
    "jump.solve_jump_beta.calls": "count",
    "jump.solve_jump_beta.s": "s",
    "state.stress_derivatives.calls": "count",
    "fixed_bvp.solve_fixed_bvp.calls": "count",
    "fixed_bvp.solve_fixed_bvp.s": "s",
    "fixed_bvp.solve_fixed_bvp.sweeps": "count",
    "fixed_bvp.solve_linear_t.calls": "count",
    "fixed_bvp.solve_linear_t.s": "s",
    "state_ahead.initial_data.calls": "count",
    "state_ahead.initial_data.s": "s",
    "free_boundary.outer_iterate.calls": "count",
    "free_boundary.outer_iterate.self_s": "s",
    "free_boundary.corner_expansion.calls": "count",
    "free_boundary.corner_expansion.s": "s",
    "free_boundary.solve_identification.s": "s",
    "free_boundary.diagnostics.s": "s",
    "free_boundary.retries": "count",
    "free_boundary.attempts_per_solve": "ratio",
    "report.compute_bundle.s": "s",
    "report.full_report.self_s": "s",
    "report.write.s": "s",
    "host.probe_s": "s",
    "trace.overhead_frac": "frac",
}


def run_units(attempt, seconds: float):
    """Call ``attempt`` while the next unit is expected to end within ``seconds``.

    ``attempt()`` runs one unit and returns (wall seconds, None or the
    failure, reference pass seconds).  At least one unit always runs; a
    failed unit does not stop the loop.  Returns the three as lists.
    """
    times, errors, refs = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, err, ref = attempt()
        times.append(elapsed)
        errors.append(err)
        refs.append(ref)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, errors, refs


def golden_path(kind: str, n: int) -> Path:
    return GOLDEN_DIR / f"{kind}_n{n}.json"


def load_golden(kind: str, n: int) -> dict:
    with open(golden_path(kind, n), encoding="utf-8") as fh:
        return json.load(fh)


def max_abs_diff(got: dict, want: dict) -> float:
    """Largest |got - want| over every column of ``want`` (inf on a shape mismatch)."""
    worst = 0.0
    for name, ref in want.items():
        vals = got.get(name)
        if vals is None or len(vals) != len(ref):
            return float("inf")
        for a, b in zip(vals, ref):
            d = abs(float(a) - float(b))
            if d != d:  # NaN
                return float("inf")
            worst = max(worst, d)
    return worst


def read_shock_csv(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {c: [float(r[c]) for r in rows] for c in CURVE_COLUMNS}


def report_outcome(out_dir, exit_code: int) -> dict:
    """What a ``shockdev run`` left behind: exit code, check flags, curve."""
    out_dir = Path(out_dir)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    return {
        "exit_code": exit_code,
        "passed": {c["name"]: bool(c["pass"]) for c in rep["checks"]},
        "columns": read_shock_csv(out_dir / "shock.csv"),
    }


def check_report(out_dir, exit_code: int, golden: dict) -> str | None:
    """None when a report run matches the golden copy, else what differs."""
    try:
        got = report_outcome(out_dir, exit_code)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable outputs: {type(exc).__name__}: {exc}"
    if got["exit_code"] != golden["exit_code"]:
        return f"exit code {got['exit_code']} != golden {golden['exit_code']}"
    if got["passed"] != golden["passed"]:
        names = got["passed"].keys() | golden["passed"].keys()
        flips = sorted(k for k in names if got["passed"].get(k) != golden["passed"].get(k))
        return f"check outcomes differ from golden: {flips}"
    diff = max_abs_diff(got["columns"], golden["columns"])
    if not diff <= TOL:
        return f"shock.csv differs from golden by {diff:.3e} > {TOL:g}"
    return None
