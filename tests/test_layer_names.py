"""Module attributes that outside tooling wraps by name.

The benchmark's tracer (``perfbench/worker.py``) replaces these attributes
on the modules that call them, so renaming or removing one breaks the
traced benchmark run even when every solver test passes.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from shockdev import cli, fixed_bvp, free_boundary, jump, report, state_ahead
from shockdev import eos as eos_mod
from shockdev.config import SolverConfig
from shockdev.state import RiemannPair
from shockdev.state_ahead import CuspData, synthesize_model

WRAPPED = {
    cli: (
        "main",
        "load_config",
        "compute_bundle",
        "full_report",
        "write_report",
        "write_grid_csv",
        "write_shock_csv",
    ),
    report: ("build_problem", "run_shock_development", "solve_jump_beta", "stress_derivatives"),
    free_boundary: (
        "run_shock_development",
        "initial_data",
        "corner_expansion",
        "outer_iterate",
        "solve_fixed_bvp",
        "solve_identification",
        "jump_update",
        "solve_jump_beta",
        "curve_asymptotics",
        "geometry_checks",
        "blowup_fits",
        "characteristic_residuals",
    ),
    fixed_bvp: ("solve_fixed_bvp", "solve_linear_t"),
    state_ahead: ("initial_data",),
    jump: ("stress_derivatives",),
}


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in WRAPPED.items() for n in names],
    ids=lambda x: x if isinstance(x, str) else x.__name__.rsplit(".", 1)[-1],
)
def test_wrapped_name_is_callable(module, name):
    assert callable(getattr(module, name))


def test_solver_context_build_is_a_classmethod():
    assert isinstance(free_boundary.SolverContext.__dict__["build"], classmethod)


def test_jump_update_takes_z_fourth():
    # the tracer counts the jump nodes of a call as len(args[3]) - 1
    params = list(inspect.signature(free_boundary.jump_update).parameters)
    assert params[3] == "z"


def test_solve_linear_t_is_called_through_the_module(rad, monkeypatch):
    # the tracer counts fixed_bvp.solve_linear_t calls by replacing the
    # module attribute; a bound reference inside solve_fixed_bvp would
    # silently drop that count to 0
    direct = fixed_bvp.solve_linear_t
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return direct(*args, **kwargs)

    monkeypatch.setattr(fixed_bvp, "solve_linear_t", counting)
    eps, n = 0.01, 8
    cusp = CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    model = synthesize_model(cusp, rad, eps=eps)
    grid = fixed_bvp.TriGrid(eps, n)
    init = state_ahead.initial_data(model, rad, eps, n)
    bf = fixed_bvp.BoundaryFunctions.seed(cusp, grid.nodes)
    fg = fixed_bvp.solve_fixed_bvp(bf, init, rad, grid)
    assert len(calls) == fg.sweeps + 1


def test_stress_derivatives_is_called_through_the_jump_module(rad, monkeypatch):
    # the tracer's state.stress_derivatives.calls counts the jump layer's
    # calls by replacing jump.stress_derivatives; the behind-beta solve must
    # reach it through that attribute
    direct = jump.stress_derivatives
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return direct(*args, **kwargs)

    monkeypatch.setattr(jump, "stress_derivatives", counting)
    ahead = RiemannPair(np.zeros(3), np.zeros(3))
    jump.solve_jump_beta(rad, np.array([1e-2, 2e-2, -1e-2]), ahead)
    # the bracket ends with the seed, one Newton step and one polish step
    assert len(calls) == 3


def test_jump_layer_counts_per_canonical_solve(rad, monkeypatch):
    # the benchmark's state.stress_derivatives.calls and
    # jump.solve_jump_beta.calls of one canonical n = 64 solve from the flat
    # seed. Its 10 outer steps and polish make 11 jump updates: 8 warm ones
    # evaluate once each; 3 cold ones and the 3 corner samples solve the
    # jump cold, each bracket search evaluating both ends and the seed in
    # one call
    calls = {"stress_derivatives": 0, "solve_jump_beta": 0}
    for module, name in ((jump, "stress_derivatives"), (free_boundary, "solve_jump_beta")):
        direct = getattr(module, name)

        def counting(*args, _name=name, _direct=direct, **kwargs):
            calls[_name] += 1
            return _direct(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    cusp = CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    model = synthesize_model(cusp, rad, eps=0.01)
    sol = free_boundary.run_shock_development(rad, model, cusp, eps=0.01, n=64)
    assert len(sol.outer_history) == 10
    assert calls == {"stress_derivatives": 44, "solve_jump_beta": 6}


def test_inversions_per_canonical_solve(rad, monkeypatch):
    # enthalpy-potential inversions of one canonical n = 64 solve from the
    # flat seed, the cusp and the model built first. Each sweep state, each
    # diagonal state set of the reflection ratio, each jump residual and
    # each coincidence test inverts its states once, and a cold jump solve
    # inverts its ahead states once for the cubic seed and the tolerance
    # (110 when it inverted them once for each). The benchmark's counts
    # stay: 10 outer steps, 15 time solves, 44 stress-derivative
    # evaluations and 6 solve_jump_beta calls
    calls = dict.fromkeys(("rho_of_potential", "solve_linear_t", "stress_derivatives", "solve_jump_beta"), 0)
    for module, name in (
        (eos_mod, "rho_of_potential"),
        (fixed_bvp, "solve_linear_t"),
        (jump, "stress_derivatives"),
        (free_boundary, "solve_jump_beta"),
    ):
        direct = getattr(module, name)

        def counting(*args, _name=name, _direct=direct, **kwargs):
            calls[_name] += 1
            return _direct(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    cusp = CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    model = synthesize_model(cusp, rad, eps=0.01)
    sol = free_boundary.run_shock_development(rad, model, cusp, eps=0.01, n=64)
    assert len(sol.outer_history) == 10
    assert calls == {
        "rho_of_potential": 104,
        "solve_linear_t": 15,
        "stress_derivatives": 44,
        "solve_jump_beta": 6,
    }


def test_marches_per_canonical_bundle(monkeypatch):
    # the benchmark's state_ahead.initial_data.calls of one canonical
    # compute_bundle: its five solves run on four grids, and the base and
    # perturbed solves share (model, eps, n), so the model marches that grid
    # once for both (5 marches when each SolverContext marched its own).
    # Both bindings the tracer wraps are counted
    direct, calls = state_ahead.initial_data, []

    def counting(*args, **kwargs):
        calls.append(args[2:])
        return direct(*args, **kwargs)

    for module in (free_boundary, state_ahead):
        monkeypatch.setattr(module, "initial_data", counting)
    bundle = report.compute_bundle(SolverConfig.canonical())
    assert not bundle.errors
    assert calls == [(0.01, 64), (0.01, 32), (0.01, 128), (0.005, 64)]
    assert bundle.perturbed.context.init is bundle.base.context.init
