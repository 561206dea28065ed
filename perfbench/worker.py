"""Workload process of the shockdev benchmark.

``run.py`` starts this script with the checkout's ``src`` on the path and
hands it only the generated inputs:

    worker.py setup
    worker.py solve    --n N --a A --seconds S --result FILE [--trace FILE]
    worker.py interior --n N --a A --seconds S --result FILE [--trace FILE]
    worker.py report   --config FILE --out DIR --result FILE [--n N --trace FILE]

``setup`` builds the canonical problem and prints ``ready``; run.py times
it from process start.  ``solve`` and ``interior`` repeat their unit until
the time is up and write each unit's wall time, check outcome and mean
reference pass time (``reference.sampled``) to the result file.  Without
``--trace``, ``report`` is one timed report unit: run.py starts a fresh
process for each, times it and checks its files; this process runs
``shockdev run`` under a :class:`reference.Sampler` and writes the exit
code and the reference passes.  With ``--trace`` each mode instead runs
its unit once untraced and once traced and writes the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time

import shockdev
from shockdev import cli, config, fixed_bvp, free_boundary, jump, report, state_ahead
from shockdev.errors import ShockDevError

from common import (
    CURVE_COLUMNS,
    CUSP,
    EPS,
    FIELD_NAMES,
    TOL,
    check_report,
    load_golden,
    max_abs_diff,
    run_units,
)
from reference import Sampler, sampled
from tracer import Tracer


# ---------------------------------------------------------------------------
# Units: each starts from freshly built eos/cusp/model objects.
# ---------------------------------------------------------------------------

def problem(eps: float = EPS):
    eos = shockdev.radiation()
    cusp = shockdev.CuspData.from_physics(eos, **CUSP)
    return eos, cusp, state_ahead.synthesize_model(cusp, eos, eps=eps)


def seed_boundary(a: float):
    """Starting boundary iterate y = -1 + a v (the family of ``report._perturbed_seed``)."""

    def seed_fn(cusp, v):
        return fixed_bvp.BoundaryFunctions.seed(cusp, v).replace(y=-1.0 + a * v)

    return seed_fn


def solve_unit(n: int, a: float, eps: float = EPS):
    """One ``run_shock_development`` with diagnostics, as in the README."""
    eos, cusp, model = problem(eps)
    return free_boundary.run_shock_development(
        eos, model, cusp, eps=eps, n=n, seed_fn=seed_boundary(a)
    )


def interior_unit(n: int, a: float, eps: float = EPS):
    """Frozen-curve interior solve of ``demos/demo_fixed_bvp.py``."""
    eos, cusp, model = problem(eps)
    grid = fixed_bvp.TriGrid(eps, n)
    bf = seed_boundary(a)(cusp, grid.nodes)
    init = state_ahead.initial_data(model, eos, eps, n)
    fg = fixed_bvp.solve_fixed_bvp(bf, init, eos, grid)
    return eos, init, bf, fg


def report_unit(config_path, out_dir) -> int:
    """``shockdev run`` in this process (the traced form of a report unit)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])


# ---------------------------------------------------------------------------
# Output checks against the golden copies.
# ---------------------------------------------------------------------------

def curve_columns(curve) -> dict:
    return {c: getattr(curve, c).tolist() for c in CURVE_COLUMNS}


def interior_sample(fg) -> dict:
    """Fields on every 16th lattice node of the triangle plus the whole diagonal."""
    n = fg.grid.n
    step = max(n // 16, 1)
    nodes = {(i, j) for i in range(0, n + 1, step) for j in range(0, i + 1, step)}
    nodes.update((k, k) for k in range(n + 1))
    nodes = sorted(nodes)
    return {name: [float(getattr(fg, name)[i, j]) for i, j in nodes] for name in FIELD_NAMES}


def interior_outcome(out) -> dict:
    eos, init, bf, fg = out
    return {
        "fields": interior_sample(fg),
        "residual_max": float(fixed_bvp.characteristic_residuals(fg, eos, init, bf)["max"]),
    }


def check_solve(sol, golden) -> str | None:
    diff = max_abs_diff(curve_columns(sol.curve), golden["columns"])
    return None if diff <= TOL else f"curve differs from golden by {diff:.3e} > {TOL:g}"


def check_interior(out, golden) -> str | None:
    got = interior_outcome(out)
    diff = max_abs_diff(got["fields"], golden["fields"])
    if not diff <= TOL:
        return f"fields differ from golden by {diff:.3e} > {TOL:g}"
    dres = abs(got["residual_max"] - golden["residual_max"])
    if not dres <= TOL:
        return f"residual max {got['residual_max']:.3e} is {dres:.3e} off golden"
    return None


# ---------------------------------------------------------------------------
# Timed loop.
# ---------------------------------------------------------------------------

def attempt(unit, check):
    """Run one unit; returns (wall seconds, None or the failure).

    A unit that raises ``ShockDevError`` or fails its check is a failed
    unit, not a crash.
    """
    t0 = time.perf_counter()
    try:
        out = unit()
    except ShockDevError as exc:
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, check(out)


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------

def _jump_nodes(counts, args, result):
    counts["free_boundary.jump_update.nodes"] += len(args[3]) - 1


def _sweeps(counts, args, result):
    counts["fixed_bvp.solve_fixed_bvp.sweeps"] += result.sweeps


def install(tr: Tracer) -> None:
    """Wrap each layer's functions where their callers bind them."""
    spans = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "compute_bundle", "report.compute_bundle", None),
        (cli, "full_report", "report.full_report", None),
        (cli, "write_report", "report.write", None),
        (cli, "write_grid_csv", "report.write", None),
        (cli, "write_shock_csv", "report.write", None),
        (report, "build_problem", "config.build_problem", None),
        (report, "run_shock_development", "free_boundary.run_shock_development", None),
        (report, "solve_jump_beta", "jump.solve_jump_beta", None),
        (free_boundary, "run_shock_development", "free_boundary.run_shock_development", None),
        (free_boundary, "initial_data", "state_ahead.initial_data", None),
        (state_ahead, "initial_data", "state_ahead.initial_data", None),
        (free_boundary, "corner_expansion", "free_boundary.corner_expansion", None),
        (free_boundary, "outer_iterate", "free_boundary.outer_iterate", None),
        (free_boundary, "solve_fixed_bvp", "fixed_bvp.solve_fixed_bvp", _sweeps),
        (fixed_bvp, "solve_fixed_bvp", "fixed_bvp.solve_fixed_bvp", _sweeps),
        (fixed_bvp, "solve_linear_t", "fixed_bvp.solve_linear_t", None),
        (free_boundary, "solve_identification", "free_boundary.solve_identification", None),
        (free_boundary, "jump_update", "free_boundary.jump_update", _jump_nodes),
        (free_boundary, "solve_jump_beta", "jump.solve_jump_beta", None),
        (free_boundary, "curve_asymptotics", "free_boundary.diagnostics", None),
        (free_boundary, "geometry_checks", "free_boundary.diagnostics", None),
        (free_boundary, "blowup_fits", "free_boundary.diagnostics", None),
        (free_boundary, "characteristic_residuals", "free_boundary.diagnostics", None),
    ]
    for owner, attr, name, on_return in spans:
        tr.span(owner, attr, name, on_return)
    tr.count(jump, "stress_derivatives", "state.stress_derivatives")
    tr.count(report, "stress_derivatives", "state.stress_derivatives")
    tr.count(free_boundary.SolverContext, "build", "free_boundary.attempts")


def layer_metrics(tr: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer values (all but ``host.probe_s``, which run.py measures)."""
    calls, incl, self_s = tr.summary()
    counts = tr.counts
    solves = calls["free_boundary.run_shock_development"]
    attempts = counts["free_boundary.attempts"]
    return {
        "free_boundary.jump_update.calls": calls["free_boundary.jump_update"],
        "free_boundary.jump_update.s": incl["free_boundary.jump_update"],
        "free_boundary.jump_update.nodes": counts["free_boundary.jump_update.nodes"],
        "jump.solve_jump_beta.calls": calls["jump.solve_jump_beta"],
        "jump.solve_jump_beta.s": incl["jump.solve_jump_beta"],
        "state.stress_derivatives.calls": counts["state.stress_derivatives"],
        "fixed_bvp.solve_fixed_bvp.calls": calls["fixed_bvp.solve_fixed_bvp"],
        "fixed_bvp.solve_fixed_bvp.s": incl["fixed_bvp.solve_fixed_bvp"],
        "fixed_bvp.solve_fixed_bvp.sweeps": counts["fixed_bvp.solve_fixed_bvp.sweeps"],
        "fixed_bvp.solve_linear_t.calls": calls["fixed_bvp.solve_linear_t"],
        "fixed_bvp.solve_linear_t.s": incl["fixed_bvp.solve_linear_t"],
        "state_ahead.initial_data.calls": calls["state_ahead.initial_data"],
        "state_ahead.initial_data.s": incl["state_ahead.initial_data"],
        "free_boundary.outer_iterate.calls": calls["free_boundary.outer_iterate"],
        "free_boundary.outer_iterate.self_s": self_s["free_boundary.outer_iterate"],
        "free_boundary.corner_expansion.calls": calls["free_boundary.corner_expansion"],
        "free_boundary.corner_expansion.s": incl["free_boundary.corner_expansion"],
        "free_boundary.solve_identification.s": incl["free_boundary.solve_identification"],
        "free_boundary.diagnostics.s": incl["free_boundary.diagnostics"],
        "free_boundary.retries": attempts - solves,
        "free_boundary.attempts_per_solve": attempts / solves if solves else 0.0,
        "report.compute_bundle.s": incl["report.compute_bundle"],
        "report.full_report.self_s": self_s["report.full_report"],
        "report.write.s": incl["report.write"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def run_traced(unit, check, trace_path):
    """One untraced and one traced unit; spans go to ``trace_path``."""
    untraced_s, err_plain = attempt(unit, check)
    tr = Tracer()
    install(tr)
    try:
        traced_s, err_traced = attempt(unit, check)
    finally:
        tr.restore()
    tr.write(trace_path)
    _, _, self_s = tr.summary()
    return {
        "unit_s": [untraced_s, traced_s],
        "errors": [err_plain, err_traced],
        "layers": layer_metrics(tr, untraced_s, traced_s),
        "self_s_total": sum(self_s.values()),
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "solve", "interior", "report"))
    parser.add_argument("--n", type=int)
    parser.add_argument("--a", type=float, default=0.0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        config.build_problem(config.load_config(None))
        print("ready", flush=True)
        return 0

    if args.mode == "solve":
        golden = load_golden("solve", args.n)

        def unit():
            return solve_unit(args.n, args.a)

        def check(sol):
            return check_solve(sol, golden)

    elif args.mode == "interior":
        golden = load_golden("interior", args.n)["a"][repr(args.a)]

        def unit():
            return interior_unit(args.n, args.a)

        def check(out):
            return check_interior(out, golden)

    elif not args.trace:
        with Sampler() as sampler:
            code = report_unit(args.config, args.out)
        result = {"code": code, "passes": sampler.passes, "spent": sampler.spent}
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    else:
        golden = load_golden("report", args.n)

        def unit():
            return report_unit(args.config, args.out)

        def check(code):
            return check_report(args.out, code, golden)

    if args.trace:
        result = run_traced(unit, check, args.trace)
    else:
        times, errors, refs = run_units(lambda: sampled(lambda: attempt(unit, check)), args.seconds)
        result = {"unit_s": times, "errors": errors, "ref_s": refs}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
