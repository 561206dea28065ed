"""Diagnostics report: every acceptance property measured exactly once.

The report is a deterministic JSON document for a fixed configuration: the
same config (including its RNG seed) produces bit-identical bytes.  It
contains one named check per acceptance criterion, each carrying a
descriptive source hint, a scalar target, the measured value, the
tolerance, a pass flag, and a detail block with the underlying numbers;
plus the solver's convergence histories.

Every sub-limit is a :class:`~shockdev.free_boundary.SubCheck` record,
judged by one rule: its margin is the error over its own tolerance,
|value - target| / scale / tol (scale = |target| for a relative limit, 1
for an absolute one), and it passes when the margin is at most 1.  Two
aggregation conventions keep heterogeneous criteria comparable:

* checks that bundle several sub-limits report ``measured`` as the worst
  margin of their records, with target 0 and tolerance 1, and pass when
  every record passes;
* checks with a single natural scalar report it directly.

The pointwise property checks (no PDE solve) are also exposed separately
for the fast verification path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import eos as eos_mod
from . import fitting, fixed_bvp, free_boundary
from .config import SolverConfig, build_problem
from .errors import ShockDevError
from .fixed_bvp import BoundaryFunctions
from .free_boundary import ShockSolution, SubCheck, blowup_fits, run_shock_development
from .jump import JumpPair, coincidence_structure, cubic_coefficient, jump_scale, solve_jump_beta
from .state import RiemannPair, char_speeds, stress, stress_derivatives, velocity
from .state_ahead import StateAheadModel, initial_data, singular_boundary, synthesize_model

__all__ = [
    "SolutionBundle",
    "compute_bundle",
    "full_report",
    "verify_report",
    "render_report",
    "write_report",
    "format_check_lines",
]


# ---------------------------------------------------------------------------
# Solution bundle: the PDE solves a full report draws on.
# ---------------------------------------------------------------------------

@dataclass
class SolutionBundle:
    """Converged solutions feeding the report's solver-level checks, and
    the model of the base, grid and perturbed solves, whose EOS and cusp
    the report reads.  Any solution slot may be None; the corresponding
    checks then fail with the recorded error note instead of raising.
    """

    model: StateAheadModel
    base: ShockSolution | None = None
    half_n: ShockSolution | None = None
    double_n: ShockSolution | None = None
    half_eps: ShockSolution | None = None
    perturbed: ShockSolution | None = None
    errors: dict = field(default_factory=dict)


def _perturbed_seed(cusp, v):
    bf = BoundaryFunctions.seed(cusp, v)
    return bf.replace(y=-1.0 + 0.1 * v)


def compute_bundle(cfg: SolverConfig) -> SolutionBundle:
    """Run the five solves a full report needs.

    Individual failures are recorded in ``bundle.errors`` rather than
    raised.  The solves' diagnostics are left to the checks that read them.
    """
    eos, cusp, model = build_problem(cfg)
    bundle = SolutionBundle(model)

    def attempt(tag, model_, **kw):
        try:
            return run_shock_development(eos, model_, cusp, **kw)
        except ShockDevError as exc:
            bundle.errors[tag] = f"{type(exc).__name__}: {exc}"
            return None

    bundle.base = attempt("base", model, eps=cfg.eps, n=cfg.n)
    bundle.half_n = attempt("half_n", model, eps=cfg.eps, n=max(cfg.n // 2, fixed_bvp.MIN_N))
    bundle.double_n = attempt("double_n", model, eps=cfg.eps, n=2 * cfg.n)
    model_half = synthesize_model(cusp, eos, eps=cfg.eps / 2)
    bundle.half_eps = attempt("half_eps", model_half, eps=cfg.eps / 2, n=cfg.n)
    bundle.perturbed = attempt(
        "perturbed", model, eps=cfg.eps, n=cfg.n, seed_fn=_perturbed_seed
    )
    return bundle


# ---------------------------------------------------------------------------
# Check plumbing.
# ---------------------------------------------------------------------------

def _check(name, description, source, target, tolerance, fn) -> dict:
    entry = {
        "name": name,
        "description": description,
        "source": source,
        "target": target,
        "tolerance": tolerance,
        "measured": None,
        "pass": False,
        "detail": {},
    }
    try:
        measured, ok, detail = fn()
        entry["measured"] = None if measured is None else float(measured)
        entry["pass"] = bool(ok)
        entry["detail"] = detail
    except Exception as exc:  # a failed check must not kill the report
        entry["detail"] = {"error": f"{type(exc).__name__}: {exc}"}
    return entry


def _need(bundle_slot, errors, tag):
    if bundle_slot is None:
        raise ShockDevError(errors.get(tag, f"required solve {tag!r} unavailable"))
    return bundle_slot


def _worst(records) -> tuple[float, bool]:
    """Measured value and verdict of a bundled check: worst margin, all passed."""
    records = list(records)
    return max(r.margin for r in records), all(r.passed for r in records)


# ---------------------------------------------------------------------------
# Pointwise property checks (no PDE solve).
# ---------------------------------------------------------------------------

def _sample_rhos(eos, rng):
    lo = max(2.0 * eos.rho_min, 0.2)
    hi = min(0.5 * eos.rho_max, 5.0)
    if not lo < hi:
        lo, hi = 2.0 * eos.rho_min, 0.5 * eos.rho_max
    return rng.uniform(lo, hi, size=8)


def _sample_pair(rng, count):
    """count sampled invariant pairs, as one lane pair."""
    rt = rng.uniform(-0.2, 0.3, size=count)
    zeta = rng.uniform(-0.4, 0.4, size=count)
    return RiemannPair(rt - zeta, rt + zeta)


def _sample_states(rng, count):
    """The states of :func:`_sample_pair`, one scalar pair each."""
    alpha, beta = _sample_pair(rng, count)
    return [RiemannPair(a, b) for a, b in zip(alpha.tolist(), beta.tolist())]


def _check_eos_identities(eos, rng):
    def body():
        rel_tiny = 1e-30
        sample = _sample_rhos(eos, rng)
        lhs, rhs = eos_mod.eos_identity_residual(eos, sample)
        identity = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), rel_tiny)
        # nonlinearity coefficient vs differenced sound-speed slope
        rt = eos_mod.potential_of_rho(eos, sample)
        d = 1e-5 * np.maximum(1.0, np.abs(rt))
        eta_p, eta_m, eta_0 = eos_mod.eta_of_potential(eos, np.stack([rt + d, rt - d, rt]))
        fd_mu = (eta_p - eta_m) / (2 * d) + 1.0 - eta_0**2
        mu = eos_mod.mu_coefficient(eos, rt)
        slope = np.abs(fd_mu - mu) / np.maximum(np.abs(mu), rel_tiny)
        fd_max = float(max(identity.max(), slope.max()))

        # radiation's closed forms at densities and squared enthalpies x
        rad, x = eos_mod.radiation(), np.linspace(0.5, 2.0, 7)
        eta2_defect = float(np.max(np.abs(eos_mod.sound_speed_sq(rad, x) - 1.0 / 3.0))) * 3.0
        gh_defect = float(np.max(np.abs(eos_mod.big_g(rad, x) / x - 4.0 / 3.0))) * 0.75
        closed_max = max(eta2_defect, gh_defect)
        ok = fd_max <= 1e-4 and closed_max <= 1e-8
        return fd_max, ok, {
            "fd_max_rel_defect": fd_max,
            "radiation_eta2_rel_defect": eta2_defect,
            "radiation_G_over_H_rel_defect": gh_defect,
            "closed_form_tolerance": 1e-8,
        }

    return _check(
        "eos_thermo_identities",
        "thermodynamic chain is self-consistent; radiation closed forms exact",
        "pressure-law consistency identity and nonlinearity coefficient, "
        "finite-differenced; radiation sound speed and wave-speed weight",
        0.0,
        1e-4,
        body,
    )


def _check_jump_coincidence(eos, cusp_state, rng):
    def body():
        states = [cusp_state] + _sample_states(rng, 2)
        worst = 0.0
        per_state = []
        for s in states:
            scale = jump_scale(eos, s)
            d = coincidence_structure(eos, s)
            rt = 0.5 * (s.alpha + s.beta)
            eta2 = eos_mod.sound_speed_sq(eos, eos_mod.rho_of_potential(eos, rt))
            mu = eos_mod.mu_coefficient(eos, rt)
            d4_target = scale * mu**2 / (8.0 * eta2)
            ratios = {
                "d1": abs(d["d1"]) / (1e-6 * scale),
                "d2": abs(d["d2"]) / (1e-6 * scale),
                "d3": abs(d["d3"]) / (1e-6 * scale),
                "mixed": abs(d["mixed"] - scale) / (1e-4 * scale),
                "d4": abs(d["d4"] - d4_target) / (1e-3 * abs(d4_target)),
            }
            worst = max(worst, max(ratios.values()))
            per_state.append(
                {"state": [s.alpha, s.beta], "ratios": ratios, "scale": scale}
            )
        return worst, worst <= 1.0, {"states": per_state}

    return _check(
        "jump_coincidence_structure",
        "jump polynomial degenerates to the known quartic structure at "
        "coincident states",
        "first four behind-state derivatives and the mixed second "
        "derivative of the jump polynomial at equal states",
        0.0,
        1.0,
        body,
    )


def _check_jump_cubic(eos, cusp_state):
    def body():
        g0 = cubic_coefficient(eos, cusp_state)
        da = np.array([1e-2, 5e-3])
        b = solve_jump_beta(eos, cusp_state.alpha + da, cusp_state)
        ratios = ((b - cusp_state.beta) / da**3).tolist()
        refined = fitting.richardson(ratios[0], ratios[1], order=1)
        rel = abs(refined - g0) / abs(g0)
        return rel, rel <= 0.10, {
            "target_coefficient": g0,
            "ratio_coarse": ratios[0],
            "ratio_fine": ratios[1],
            "refined": refined,
        }

    return _check(
        "jump_cubic_law",
        "incoming-invariant jump is cubic in the outgoing-invariant jump "
        "with the nonlinearity-coefficient prefactor",
        "limit of [incoming]/[outgoing]^3 for shrinking jumps at the cusp state",
        0.0,
        0.10,
        body,
    )


def _check_state_speeds(eos, rng):
    def body():
        s = _sample_pair(rng, 12)
        cp, cm = char_speeds(eos, s)
        vf = velocity(eos, s)
        superluminal = np.flatnonzero(~((np.abs(cp) < 1.0) & (np.abs(cm) < 1.0)))
        if superluminal.size:
            k = superluminal[0]
            state = [float(s.alpha[k]), float(s.beta[k])]
            return 0.0, False, {"state": state, "error": "superluminal"}
        worst_gap = float(min((cp - vf).min(), (vf - cm).min()))
        return worst_gap, worst_gap > 0.0, {"min_speed_gap": worst_gap}

    return _check(
        "state_speed_ordering",
        "characteristic speeds bracket the fluid velocity and stay subluminal",
        "speed ordering on sampled invariant pairs",
        0.0,
        1.0,
        body,
    )


def _check_state_stress(eos, rng):
    def body():
        step = 1e-6
        a, b = s = _sample_pair(rng, 6)
        # by component (tt, tr, rr), invariant (alpha, beta) and sample
        closed = np.reshape(stress_derivatives(eos, s), (2, 3, -1)).swapaxes(0, 1)
        # rows: alpha + step, alpha - step, beta + step, beta - step
        T = np.array(stress(eos, RiemannPair(np.stack([a + step, a - step, a, a]),
                                             np.stack([b, b, b + step, b - step]))))
        fd = (T[:, 0::2] - T[:, 1::2]) / (2 * step)
        worst = float((np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-12)).max())
        return worst, worst <= 1e-6, {"max_rel_defect": worst}

    return _check(
        "state_stress_derivatives",
        "closed-form stress derivatives match finite differences",
        "stress tensor derivatives in both invariants on sampled states",
        0.0,
        1e-6,
        body,
    )


def _check_ahead_structure(eos, cusp, model):
    def body():
        kap, lam = cusp.kappa, cusp.lam
        w = model.box_w * np.array([0.05, 0.1, 0.2])
        ts = np.asarray(singular_boundary(model, w), dtype=float)
        sing = fitting.quadratic_extrapolate(w, ts / w**2)
        sing_target = lam / (2.0 * kap**2)

        data = initial_data(model, eos, 0.5 * model.box_w, 32)
        edge_target = cusp.h_hat0
        edge = fitting.extrapolate_to_zero(data.u[8:], data.h_hat[8:])
        entries = {
            "singular_boundary_quadratic": SubCheck.of(
                sing, sing_target, 1e-6, scale=abs(sing_target)
            ),
            "incoming_edge_cubic": SubCheck.of(edge, edge_target, 1e-3, scale=abs(edge_target)),
        }
        return (*_worst(entries.values()), entries)

    return _check(
        "ahead_model_structure",
        "pre-shock chart has the required singular-boundary and data-edge shape",
        "quadratic coefficient of the singular boundary and cubic "
        "coefficient of the incoming characteristic",
        0.0,
        1.0,
        body,
    )


# ---------------------------------------------------------------------------
# Solver-level checks (need the bundle).
# ---------------------------------------------------------------------------

def _check_inner_asymptotics(cusp, bundle):
    def body():
        base = _need(bundle.base, bundle.errors, "base")
        double = _need(bundle.double_n, bundle.errors, "double_n")
        kap, lam = cusp.kappa, cusp.lam
        slope_target = lam / (3.0 * kap**2)

        def c_const(sol):
            # over the triangle nodes off the axes u = 0 and v = 0, where
            # the largest ratio sits on the diagonal
            fg = sol.fields
            u, v = fg.grid.nodes[1:, None], fg.grid.nodes[None, 1:]
            ratio = np.abs(fg.dt_dv[1:, 1:] - slope_target * v) / (u * v)
            return float(ratio.max(where=fg.grid.mask[1:, 1:], initial=0.0))

        c1, c2 = c_const(base), c_const(double)
        curve = base.curve
        kt = curve.trust_index
        dfdv = np.gradient(curve.f, curve.v, edge_order=2)
        samples = (dfdv[kt:]) / curve.v[kt:]
        fitted = fitting.extrapolate_to_zero(curve.v[kt:], samples)
        rel = abs(fitted - slope_target) / slope_target
        fit = SubCheck.of(fitted, slope_target, 0.02, scale=abs(slope_target))
        ok = (
            fit.passed
            and math.isfinite(c1)
            and math.isfinite(c2)
            and c2 <= 1.5 * c1
        )
        return rel, ok, {
            "df_dv_over_v": fit,
            "mixed_bound_constant": {"base": c1, "doubled_n": c2},
        }

    return _check(
        "inner_time_asymptotics",
        "time chart slope grows linearly along the shock with the predicted "
        "coefficient; mixed deviation is bounded by the product of coordinates",
        "leading behaviour of the interior time derivative near the corner",
        0.0,
        0.02,
        body,
    )


def _diagnostics_check(bundle, section, keys, name, description, source):
    """A check bundling sub-checks from the base solve's diagnostics."""

    def body():
        diag = _need(bundle.base, bundle.errors, "base").diagnostics[section]
        entries = {k: diag[k] for k in keys}
        return (*_worst(entries.values()), entries)

    return _check(name, description, source, 0.0, 1.0, body)


def _check_corner_limits(bundle):
    return _diagnostics_check(
        bundle,
        "limits",
        ("f_hat0", "g_hat0", "y0", "alpha_hat_plus0", "beta_hat_plus0"),
        "outer_corner_limits",
        "hatted shock-curve quantities reach their analytic corner limits",
        "corner limits of the hatted time, radius offset, identification "
        "slope, and both behind-state invariants",
    )


def _check_geometry(bundle):
    return _diagnostics_check(
        bundle,
        "geometry",
        (
            "past_singular_boundary",
            "singular_lead_ratio",
            "margin_ahead_slope",
            "margin_behind_slope",
            "positive_margins",
            "entropy_condition",
        ),
        "shock_geometry",
        "shock stays inside the ahead chart with one-third lead ratio; "
        "determinism margins positive with unit-curvature slopes; "
        "entropy condition q(behind) < q(ahead) at every node",
        "position of the shock relative to the singular boundary and the "
        "characteristic-speed margins on both sides",
    )


def _check_jump_residuals(bundle):
    return _diagnostics_check(
        bundle,
        "geometry",
        ("rankine_hugoniot_rel", "tangency_max"),
        "jump_residuals_on_shock",
        "jump polynomial balances at every node; curve slope matches the "
        "front speed",
        "pointwise jump-condition residual and curve tangency along the shock",
    )


def _curve_orders(coarse, base, fine):
    orders = {}
    for name in ("f", "g", "y", "V"):
        c = getattr(coarse.curve, name)
        b = getattr(base.curve, name)
        f = getattr(fine.curve, name)

        def diff(lo, hi):
            if (len(hi) - 1) % (len(lo) - 1) == 0:
                stride = (len(hi) - 1) // (len(lo) - 1)
                return float(np.max(np.abs(lo - hi[::stride])))
            v_lo = np.linspace(0, 1, len(lo))
            v_hi = np.linspace(0, 1, len(hi))
            return float(np.max(np.abs(lo - np.interp(v_lo, v_hi, hi))))

        d1, d2 = diff(c, b), diff(b, f)
        orders[name] = {
            "coarse_diff": d1,
            "fine_diff": d2,
            "order": math.log2(d1 / d2) if d1 > 0 and d2 > 0 else math.inf,
        }
    return orders


def _check_grid_convergence(cfg, bundle):
    def body():
        base = _need(bundle.base, bundle.errors, "base")
        half = _need(bundle.half_n, bundle.errors, "half_n")
        double = _need(bundle.double_n, bundle.errors, "double_n")

        def residual_max(s):
            # of the half_n and double_n solves only the residuals are read
            ctx = s.context
            return free_boundary.characteristic_residuals(
                s.fields, ctx.model.eos, ctx.init, s.boundary
            )["max"]

        res = [residual_max(half), base.diagnostics["residuals"]["max"], residual_max(double)]
        res_orders = [math.log2(res[0] / res[1]), math.log2(res[1] / res[2])]
        curve = _curve_orders(half, base, double)
        gates = {"f": 1.8, "g": 1.8, "y": 1.5, "V": 1.5}
        curve_ok = all(curve[k]["order"] >= g for k, g in gates.items())
        grid_adequate = cfg.n >= free_boundary.ADEQUATE_N
        ok = grid_adequate and min(res_orders) >= 1.8 and curve_ok
        return min(res_orders), ok, {
            "n": cfg.n,
            "n_minimum": free_boundary.ADEQUATE_N,
            "grid_adequate": grid_adequate,
            "residual_max": {"half_n": res[0], "base": res[1], "double_n": res[2]},
            "residual_orders": res_orders,
            "curve_orders": curve,
            "curve_order_gates": gates,
        }

    return _check(
        "grid_convergence",
        "characteristic residuals converge at second order and the shock "
        "curve changes at the grid-squared scale under refinement",
        "observed convergence orders across halved and doubled grids",
        2.0,
        0.2,
        body,
    )


def _check_convergence_structure(cfg, bundle):
    def body():
        base = _need(bundle.base, bundle.errors, "base")
        half = _need(bundle.half_eps, bundle.errors, "half_eps")
        pert = _need(bundle.perturbed, bundle.errors, "perturbed")
        outer_base, outer_half = base.outer_ratio, half.outer_ratio
        inner_base, inner_half = base.inner_ratio, half.inner_ratio
        uniq = 0.0
        for name in ("y", "beta_hat_plus", "V_hat"):
            uniq = max(
                uniq,
                float(np.max(np.abs(getattr(pert.curve, name) - getattr(base.curve, name)))),
            )
        uniq_bound = 5.0 * free_boundary.TOL_OUTER
        ok = (
            outer_base < 1.0
            and inner_base < 1.0
            and outer_half < outer_base
            and inner_half < inner_base
            and uniq <= uniq_bound
        )
        return outer_base, ok, {
            "outer_displacement_ratio": {"base": outer_base, "half_eps": outer_half},
            "inner_sweep_ratio": {"base": inner_base, "half_eps": inner_half},
            "uniqueness_witness": {"max_difference": uniq, "bound": uniq_bound},
        }

    return _check(
        "convergence_structure",
        "both iteration levels contract, faster on a halved domain; a "
        "perturbed start reconverges to the same curve",
        "leading contraction ratios of the inner and outer loops and a "
        "second fixed-point run from a displaced seed",
        0.0,
        1.0,
        body,
    )


def _check_blowup(bundle):
    def body():
        base = _need(bundle.base, bundle.errors, "base")
        n = base.fields.grid.n
        rows = sorted({max(n // 4, 2), n // 2, (3 * n) // 4})
        fits = {str(row): blowup_fits(base.fields, row) for row in rows}
        return (*_worst(e for fit in fits.values() for e in fit.values()), {"rows": fits})

    return _check(
        "blowup_signature",
        "time and outgoing invariant leave the data edge quadratically "
        "along interior characteristics (square-root regularity)",
        "power-law exponents of edge offsets along three interior rows",
        0.0,
        1.0,
        body,
    )


# ---------------------------------------------------------------------------
# Assembly.
# ---------------------------------------------------------------------------

def _solver_summary(cfg, bundle):
    out = {
        "converged": bundle.base is not None,
        "eps_requested": cfg.eps,
        "n": cfg.n,
        "error": bundle.errors.get("base"),
        "auxiliary_errors": {k: v for k, v in sorted(bundle.errors.items()) if k != "base"},
    }
    if bundle.base is not None:
        out.update(
            eps_used=bundle.base.eps,
            retries=bundle.base.retries,
            outer_iterations=len(bundle.base.outer_history),
            trust_index=bundle.base.curve.trust_index,
            speed_trust_index=bundle.base.curve.speed_trust_index,
        )
    return out


def _pointwise_checks(cfg: SolverConfig, eos) -> tuple[list, np.random.Generator]:
    """The three pointwise checks both reports open with, and the RNG they
    leave for the checks that follow (so the draw order is fixed)."""
    rng = np.random.default_rng(cfg.seed)
    cusp_state = RiemannPair(cfg.alpha0, cfg.beta0)
    checks = [
        _check_eos_identities(eos, rng),
        _check_jump_coincidence(eos, cusp_state, rng),
        _check_jump_cubic(eos, cusp_state),
    ]
    return checks, rng


def _document(schema: str, cfg: SolverConfig, checks: list, **sections) -> dict:
    """A report document: its schema, the config echo, ``sections``, the
    checks and their tally."""
    passed = sum(1 for c in checks if c["pass"])
    return {
        "schema": schema,
        "config": cfg.as_sections(),
        **sections,
        "checks": checks,
        "counts": {"total": len(checks), "passed": passed},
        "all_pass": passed == len(checks),
    }


def full_report(cfg: SolverConfig, bundle: SolutionBundle) -> dict:
    """Build the complete diagnostics report (one check per criterion)
    from the validated ``cfg`` and the solutions of :func:`compute_bundle`."""
    eos, cusp = bundle.model.eos, bundle.model.cusp
    checks, _ = _pointwise_checks(cfg, eos)
    checks += [
        _check_inner_asymptotics(cusp, bundle),
        _check_corner_limits(bundle),
        _check_geometry(bundle),
        _check_jump_residuals(bundle),
        _check_grid_convergence(cfg, bundle),
        _check_convergence_structure(cfg, bundle),
        _check_blowup(bundle),
    ]
    histories = {}
    if bundle.base is not None:
        histories["outer_metric"] = [list(h) for h in bundle.base.outer_history]
        histories["inner_changes_final"] = list(bundle.base.inner_changes)
    return _document(
        "shockdev-report/2",
        cfg,
        checks,
        solver=_solver_summary(cfg, bundle),
        histories=histories,
    )


def verify_report(cfg: SolverConfig) -> dict:
    """Pointwise/property checks only — no boundary-value solve."""
    eos, cusp, model = build_problem(cfg)
    checks, rng = _pointwise_checks(cfg, eos)
    checks += [
        _check_state_speeds(eos, rng),
        _check_state_stress(eos, rng),
        _check_ahead_structure(eos, cusp, model),
    ]
    return _document("shockdev-verify/2", cfg, checks)


def _pyify(obj):
    """Make a report JSON-serializable and deterministic."""
    if isinstance(obj, SubCheck):
        return _pyify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isnan(val):
            return "nan"
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    return obj


def render_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_pyify(report), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(report))


def format_check_lines(report: dict) -> list[str]:
    """One human-readable pass/fail line per check."""
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        measured = c["measured"]
        shown = "n/a" if measured is None else f"{measured:.3e}"
        lines.append(
            f"{status} {c['name']}: measured {shown} "
            f"(target {c['target']:g}, tolerance {c['tolerance']:g})"
        )
    return lines
