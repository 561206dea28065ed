"""Free-boundary outer iteration for the shock development problem.

The inner solver treats the shock-side boundary data as given.  This module
closes the loop: from a solved field triangle it re-derives the boundary
triple

  * ``y``       — ratio between the pre-shock coordinate of the shock point
                  and the diagonal parameter (z = v y),
  * ``beta_hat_plus`` — hatted incoming invariant just behind the shock,
  * ``V_hat``   — hatted shock speed,

by (1) solving the identification equation ``r_ahead(f, v y) = r0 + g``
for y at each diagonal node, (2) solving the jump conditions for the
behind invariant and the front speed at the identified ahead state, and
(3) re-hatting.  Iterating this map from the flat seed converges to the
unique shock development; the driver retries on a halved domain when the
map fails to contract.

Corner stabilization.  Hatted quantities divide by v^2 or v^3, which
amplifies quadrature error near the corner: the composite-trapezoid defect
in (g - c_plus0 f) along the diagonal, divided by v^3, is O(1/k^2) at node
k *independently of the grid spacing*, so refinement pushes the noise to
smaller v but never heals a fixed node index.  The cure is analytic: the
corner values and first v-derivatives of the hatted curve quantities are
fixed by a small closed system (:func:`corner_expansion`), so nodes below
a trust index take their hatted values from that expansion, with the
next-order coefficient anchored to a trusted node so the fill meets the
raw data smoothly.  Raw (unhatted) fields are never modified — their
errors are ordinary O(grid^2) — and the identification equation is solved
in an exactly factored form that never subtracts O(r0) quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import eos as eos_mod
from . import fitting
from .errors import NonConvergence, ShockDevError, SingularGamma
from .fixed_bvp import (
    BoundaryFunctions,
    FieldGrid,
    TriGrid,
    characteristic_residuals,
    corner_beta_hat,
    solve_fixed_bvp,
)
from .jump import JumpPair, cubic_coefficient, jump_J, jump_scale, shock_speed, solve_jump_beta
from .state import RiemannPair, char_speeds
from .state_ahead import CuspData, StateAheadModel, initial_data, singular_boundary

__all__ = [
    "CornerExpansion",
    "ShockCurve",
    "ShockSolution",
    "SolverContext",
    "corner_expansion",
    "solve_identification",
    "jump_update",
    "outer_iterate",
    "boundary_difference",
    "run_shock_development",
    "curve_asymptotics",
    "geometry_checks",
    "blowup_fits",
    "write_shock_csv",
]


@dataclass(frozen=True)
class CornerExpansion:
    """First-order corner structure of the shock curve.

    The corner *values* of the hatted curve quantities are fixed by the
    cusp data alone; their first v-derivatives close through a scalar
    fixed point.  Writing y = -1 + y1 v + O(v^2):

      * the identification equation forces
        ``y1 = -(3 kap / lam) * (deltahat1 + kap * fhat1 - r_lin)`` where
        r_lin collects the radius coefficients of combined order four
        evaluated at the corner,
      * the interior wave equation forces
        ``fhat1 = lam * y1 / (24 kap^2)``,
      * radius continuity along the shock (dg/dv = V df/dv) forces
        ``deltahat1 = lam * W2 / (12 kap^2)`` with W2 the full quadratic
        speed coefficient, which the exact jump map determines from the
        corner state family.

    The composition contracts with factor ~ kap/9, so the fixed point is
    cheap and grid-free — it doubles as an independent oracle for the
    discrete solver's corner behaviour.
    """

    y1: float
    fhat1: float
    ghat1: float
    deltahat1: float
    beta_hat_slope: float
    V_hat0: float
    W2: float


def corner_expansion(
    model: StateAheadModel,
    eos: eos_mod.BarotropicEos,
    *,
    sample_fractions=(0.2, 0.1, 0.05),
    tol: float = 1e-8,
    max_iter: int = 60,
) -> CornerExpansion:
    """Solve the corner system for the shock curve's first-order structure.

    The quadratic speed coefficient and the hatted behind-invariant slope
    are measured on the exact jump maps along the corner state family at
    three small parameter values (fractions of the model's w-box) and
    extrapolated to zero, so the result involves no field grid at all.
    The root-solve noise of the jump map, divided by the smallest sample
    squared, bounds the attainable accuracy, hence the default tolerance.
    """
    cusp = model.cusp
    kap, lam = cusp.kappa, cusp.lam
    f2 = lam / (6.0 * kap**2)
    ahat0 = lam * cusp.a_tilde0 / (6.0 * kap**2)
    bh0 = corner_beta_hat(cusp)
    vs = model.box_w * np.asarray(sample_fractions, dtype=float)

    # radius coefficients entering the identification residual at linear
    # order in v (combined order 2 i + j = 4), evaluated at y = -1
    r_lin = 0.0
    for (ti, wj), c in model.coeffs["r"].items():
        if (ti, wj) in ((0, 0), (1, 0)) or c == 0.0:
            continue
        if 2 * ti + wj == 4:
            r_lin += c * f2**ti * (-1.0) ** wj

    def sample(y1: float):
        fhat1 = lam * y1 / (24.0 * kap**2)
        f = f2 * vs**2 + fhat1 * vs**3
        z = vs * (-1.0 + y1 * vs)
        ahead = RiemannPair(model.eval("alpha", f, z), model.eval("beta", f, z))
        a_plus = model.eval("alpha", 0.0, vs) + ahat0 * vs**2
        b_plus = solve_jump_beta(eos, a_plus, ahead)
        V = shock_speed(eos, JumpPair(ahead, RiemannPair(a_plus, b_plus)))
        return (V - cusp.c_plus0) / vs**2, (b_plus - cusp.beta0) / vs**2

    def advance(y1: float):
        w2s, bhs = sample(y1)
        w2 = fitting.quadratic_extrapolate(vs, w2s)
        deltahat1 = lam * w2 / (12.0 * kap**2)
        fhat1 = lam * y1 / (24.0 * kap**2)
        y1_next = -(3.0 * kap / lam) * (deltahat1 + kap * fhat1 - r_lin)
        return y1_next, w2, deltahat1, fhat1, bhs

    y1 = 0.0
    for _ in range(max_iter):
        y1_next, w2, deltahat1, fhat1, bhs = advance(y1)
        done = abs(y1_next - y1) < tol
        y1 = y1_next
        if done:
            break
    else:
        raise NonConvergence("corner expansion fixed point did not settle")
    _, w2, deltahat1, fhat1, bhs = advance(y1)
    b_slope = fitting.quadratic_extrapolate(vs, (bhs - bh0) / vs)
    return CornerExpansion(
        y1=y1,
        fhat1=fhat1,
        ghat1=cusp.c_plus0 * fhat1 + deltahat1,
        deltahat1=deltahat1,
        beta_hat_slope=b_slope,
        V_hat0=w2 - 0.5 * kap * y1,
        W2=w2,
    )


@dataclass
class ShockCurve:
    """Shock data sampled at the diagonal nodes, raw and hatted.

    Raw quantities (f, g, both side states, V) are pointwise solver output
    at every node.  Hatted quantities are raw divisions at and above
    ``trust_index`` and carry the corner-model fill below it (see the
    module docstring); the jump conditions hold pointwise everywhere.
    """

    v: np.ndarray
    f: np.ndarray
    g: np.ndarray
    y: np.ndarray
    alpha_plus: np.ndarray
    beta_plus: np.ndarray
    V: np.ndarray
    alpha_minus: np.ndarray
    beta_minus: np.ndarray
    f_hat: np.ndarray
    g_hat: np.ndarray
    delta_hat: np.ndarray
    alpha_hat_plus: np.ndarray
    beta_hat_plus: np.ndarray
    V_hat: np.ndarray
    trust_index: int = 1
    speed_trust_index: int = 1


@dataclass
class ShockSolution:
    """Converged shock development: fields, curve, and diagnostics."""

    eps: float
    n: int
    requested_eps: float
    retries: int
    cusp: CuspData
    fields: FieldGrid
    curve: ShockCurve
    boundary: BoundaryFunctions
    outer_history: list
    corner: CornerExpansion | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SolverContext:
    """Everything one outer step needs besides the boundary functions.

    ``trust_index`` bounds the corner fill of the state-based hatted
    quantities (delta_hat, beta_hat_plus) whose raw noise is the
    grid-independent 1/k^2 quadrature law.  ``speed_trust_index`` bounds
    the fill of the hatted speed, whose raw extraction additionally
    divides ~ulp-level speed rounding by v^2, so its trusted region must
    satisfy v^2 > ulp/tolerance regardless of the grid.
    """

    eos: eos_mod.BarotropicEos
    model: StateAheadModel
    cusp: CuspData
    grid: TriGrid
    init: object
    corner: CornerExpansion
    trust_index: int
    speed_trust_index: int
    tol_inner: float = 1e-12
    max_sweeps: int = 60
    v_floor: float | None = None

    @classmethod
    def build(
        cls,
        eos: eos_mod.BarotropicEos,
        model: StateAheadModel,
        cusp: CuspData,
        eps: float,
        n: int,
        trust_index: int | None = None,
        tol_outer: float = 1e-10,
        **options,
    ) -> "SolverContext":
        grid = TriGrid(eps, n)
        init = initial_data(model, eos, eps, n)
        corner = corner_expansion(model, eos)
        if trust_index is None:
            trust_index = max(4, grid.n // 8)
        trust_index = int(min(trust_index, max(grid.n // 2, 1)))
        # hatted-speed rounding floor: ~3 ulp of the speed scale over v^2
        # must stay below a third of the convergence tolerance
        j_v = 3.0 * np.finfo(float).eps * max(1.0, abs(cusp.c_plus0))
        v_speed = math.sqrt(3.0 * j_v / tol_outer)
        kt_speed = max(trust_index, math.ceil(v_speed / grid.delta))
        kt_speed = int(min(kt_speed, max(grid.n // 2, 1)))
        return cls(
            eos=eos,
            model=model,
            cusp=cusp,
            grid=grid,
            init=init,
            corner=corner,
            trust_index=trust_index,
            speed_trust_index=kt_speed,
            **options,
        )


def _radius_tail_terms(model: StateAheadModel):
    """Radius coefficients beyond the corner value and corner slope.

    Returns (coefficient, time power, w power, hatted v power) tuples for
    the exactly factored residual: with f = v^2 f_hat and z = v y,

        c t^i w^j  ->  c f_hat^i y^j v^(2i + j),

    so dividing by v^3 leaves the nonnegative exponent 2i + j - 3 for every
    retained term (the dropped slots are exactly those absorbed by the
    corner radius and the corner slope, plus the structurally zero ones).
    """
    terms = []
    for (ti, wj), c in sorted(model.coeffs["r"].items()):
        if (ti, wj) in ((0, 0), (1, 0)) or c == 0.0:
            continue
        e = 2 * ti + wj - 3
        if e < 0:
            raise ShockDevError(
                f"radius coefficient at powers ({ti},{wj}) breaks the hatted factorization"
            )
        terms.append((c, ti, wj, e))
    return terms


def solve_identification(
    model: StateAheadModel,
    v,
    f_hat,
    delta_hat,
    *,
    y_seed=None,
    f_tol: float | None = None,
    cross_check: bool = True,
) -> np.ndarray:
    """Solve the shock-point identification for y at each diagonal node.

    The residual is ``(g + r0 - r_ahead(f, v y)) / v^3`` written in the
    exactly factored hatted form (see ``_radius_tail_terms``), whose leading
    part at v = 0 is the cubic with roots 0 and +-1; the physical corner
    root y = -1 is imposed exactly.  Nodes are solved in increasing v, each
    seeding the next (continuation), by safeguarded Newton on the bracket
    [guess - 0.5, guess + 0.5] with an analytic y-derivative.

    The raw unfactored residual is also evaluated at the largest node and
    compared against the factored one; the tolerance is 1e-9 at v = 0.01
    and scales with the v^-3 amplification of the raw form's O(r0)
    rounding.  Disagreement raises ShockDevError.

    Returns:
        y samples, y[0] = -1 exactly.
    """
    cusp = model.cusp
    v = np.asarray(v, dtype=float)
    f_hat = np.asarray(f_hat, dtype=float)
    delta_hat = np.asarray(delta_hat, dtype=float)
    if f_tol is None:
        f_tol = 1e-13 * cusp.lam / cusp.kappa
    terms = _radius_tail_terms(model)

    def residual(vk: float, fh: float, dh: float, y: float) -> float:
        acc = dh
        for c, ti, wj, e in terms:
            acc -= c * fh**ti * vk**e * y**wj
        return acc

    def residual_dy(vk: float, fh: float, y: float) -> float:
        acc = 0.0
        for c, ti, wj, e in terms:
            if wj:
                acc -= c * fh**ti * vk**e * wj * y ** (wj - 1)
        return acc

    out = np.empty_like(v)
    out[0] = -1.0
    guess = -1.0
    for k in range(1, len(v)):
        vk, fh, dh = v[k], f_hat[k], delta_hat[k]
        if y_seed is not None:
            guess = float(np.asarray(y_seed, dtype=float)[k])
        root = fitting.safeguarded_newton(
            lambda y: residual(vk, fh, dh, y),
            lambda y: residual_dy(vk, fh, y),
            guess,
            guess - 0.5,
            guess + 0.5,
            f_tol=f_tol,
        )
        out[k] = root
        guess = root

    if cross_check and len(v) > 1:
        k = len(v) - 1
        vk, fh, yk = v[k], f_hat[k], out[k]
        fk = vk**2 * fh
        gk = vk**3 * delta_hat[k] + cusp.c_plus0 * fk
        raw = (gk + cusp.r0 - model.eval("r", fk, vk * yk)) / vk**3
        fac = residual(vk, fh, delta_hat[k], yk)
        tol = 1e-9 * max(1.0, cusp.r0) * (0.01 / vk) ** 3
        if abs(raw - fac) > tol:
            raise ShockDevError(
                f"identification residual paths disagree at v = {vk:.6g}: "
                f"{raw:.3e} vs {fac:.3e} (tol {tol:.1e})"
            )
    return out


def jump_update(fg: FieldGrid, model: StateAheadModel, eos: eos_mod.BarotropicEos, z):
    """Behind invariant and front speed at each identified shock point.

    The ahead state is the pre-shock model evaluated at (f(v), z(v)); the
    behind alpha comes from the solved fields.  The corner node is the
    coincidence limit (beta_plus = beta0, V = corner outgoing speed); all
    other nodes are the lanes of one jump solve and one speed evaluation.

    Returns:
        (beta_plus, V, alpha_minus, beta_minus) arrays.
    """
    cusp = model.cusp
    z = np.asarray(z, dtype=float)
    f = fg.diagonal("t")
    alpha_plus = fg.diagonal("alpha")
    alpha_minus = np.asarray(model.eval("alpha", f, z), dtype=float)
    beta_minus = np.asarray(model.eval("beta", f, z), dtype=float)
    ahead = RiemannPair(alpha_minus[1:], beta_minus[1:])
    bp = solve_jump_beta(eos, alpha_plus[1:], ahead)
    V = shock_speed(eos, JumpPair(ahead, RiemannPair(alpha_plus[1:], bp)))
    beta_plus = np.concatenate([[cusp.beta0], bp])
    V = np.concatenate([[cusp.c_plus0], V])
    return beta_plus, V, alpha_minus, beta_minus


def _corner_fill(v, raw, kt, anchor, limit, slope):
    """Replace raw[:kt] by limit + slope v + c v^2 with c set at the anchor.

    The anchor node supplies the quadratic coefficient, so the fill is
    consistent with the trusted data to second order and meets it smoothly.
    """
    out = np.array(raw, dtype=float)
    va = v[anchor]
    curv = (out[anchor] - limit - slope * va) / va**2
    ks = slice(1, kt)
    out[ks] = limit + slope * v[ks] + curv * v[ks] ** 2
    out[0] = limit
    return out


def outer_iterate(bf: BoundaryFunctions, ctx: SolverContext):
    """One outer step: fields -> identification -> jump -> new boundary data.

    Returns:
        (next boundary functions, solved FieldGrid, ShockCurve sampled from
        this step).
    """
    cusp = ctx.cusp
    corner = ctx.corner
    fg = solve_fixed_bvp(
        bf,
        ctx.init,
        ctx.eos,
        ctx.grid,
        tol_inner=ctx.tol_inner,
        max_sweeps=ctx.max_sweeps,
        v_floor=ctx.v_floor,
    )
    v = ctx.grid.nodes
    kt = ctx.trust_index
    anchor = min(2 * kt, ctx.grid.n)
    f = fg.diagonal("t")
    g = fg.diagonal("r_off")
    alpha_plus = fg.diagonal("alpha")

    f_hat = np.empty_like(v)
    f_hat[0] = cusp.lam / (6.0 * cusp.kappa**2)
    f_hat[1:] = f[1:] / v[1:] ** 2
    g_hat = np.empty_like(v)
    g_hat[0] = cusp.lam * cusp.c_plus0 / (6.0 * cusp.kappa**2)
    g_hat[1:] = g[1:] / v[1:] ** 2

    delta_hat = np.empty_like(v)
    delta_hat[1:] = (g[1:] - cusp.c_plus0 * f[1:]) / v[1:] ** 3
    delta_hat = _corner_fill(v, delta_hat, kt, anchor, 0.0, corner.deltahat1)
    # the reported corner value stays a genuine extrapolation from trusted
    # nodes (its smallness is a diagnostic, so it must not be imposed)
    delta_hat[0] = fitting.extrapolate_to_zero(v[kt:], delta_hat[kt:], degree=2, drop=0)

    y = solve_identification(ctx.model, v, f_hat, delta_hat)
    z = v * y
    beta_plus, V, alpha_minus, beta_minus = jump_update(fg, ctx.model, ctx.eos, z)

    alpha_hat_plus = np.empty_like(v)
    alpha_hat_plus[0] = cusp.lam * cusp.a_tilde0 / (6.0 * cusp.kappa**2)
    alpha_hat_plus[1:] = (alpha_plus[1:] - ctx.init.alpha_i[1:]) / v[1:] ** 2

    beta_hat_plus = np.empty_like(v)
    beta_hat_plus[1:] = (beta_plus[1:] - cusp.beta0) / v[1:] ** 2
    beta_hat_plus = _corner_fill(
        v, beta_hat_plus, kt, anchor, corner_beta_hat(cusp), corner.beta_hat_slope
    )

    kt_v = ctx.speed_trust_index
    anchor_v = min(2 * kt_v, ctx.grid.n)
    V_hat = np.empty_like(v)
    V_hat[1:] = (V[1:] - cusp.c_plus0 - 0.5 * cusp.kappa * (1.0 + y[1:]) * v[1:]) / v[1:] ** 2
    vhat_slope = (V_hat[anchor_v] - corner.V_hat0) / v[anchor_v]
    V_hat[1:kt_v] = corner.V_hat0 + vhat_slope * v[1:kt_v]
    V_hat[0] = corner.V_hat0

    bf_next = BoundaryFunctions(
        cusp=cusp, v=v, y=y, beta_hat_plus=beta_hat_plus, V_hat=V_hat
    )
    curve = ShockCurve(
        v=v.copy(),
        f=f,
        g=g,
        y=y,
        alpha_plus=alpha_plus,
        beta_plus=beta_plus,
        V=V,
        alpha_minus=alpha_minus,
        beta_minus=beta_minus,
        f_hat=f_hat,
        g_hat=g_hat,
        delta_hat=delta_hat,
        alpha_hat_plus=alpha_hat_plus,
        beta_hat_plus=beta_hat_plus,
        V_hat=V_hat,
        trust_index=kt,
        speed_trust_index=kt_v,
    )
    return bf_next, fg, curve


def boundary_difference(a: BoundaryFunctions, b: BoundaryFunctions):
    """Differences between successive boundary iterates.

    Returns (sup |dy|, sup |d beta_hat_plus|, sup |dV_hat|, sup of the
    centered-difference derivative of d beta_hat_plus).  The first three
    sup norms are the stopping metric; the derivative mirrors the slope
    norm of the underlying contraction argument but rides on per-node
    root-solve jitter divided by the spacing, which floors it around
    1e-9 in double precision, so it is recorded for diagnostics only.
    """
    dy = float(np.max(np.abs(a.y - b.y)))
    dbhp = a.beta_hat_plus - b.beta_hat_plus
    db = float(np.max(np.abs(dbhp)))
    dvh = float(np.max(np.abs(a.V_hat - b.V_hat)))
    dslope = float(np.max(np.abs(np.gradient(dbhp, a.v, edge_order=2))))
    return dy, db, dvh, dslope


def _attempt(
    eos: eos_mod.BarotropicEos,
    model: StateAheadModel,
    cusp: CuspData,
    eps: float,
    n: int,
    *,
    tol_outer: float,
    max_outer: int,
    tol_inner: float,
    max_sweeps: int,
    v_floor: float | None,
    trust_index: int | None,
    seed_fn,
):
    ctx = SolverContext.build(
        eos,
        model,
        cusp,
        eps,
        n,
        trust_index=trust_index,
        tol_outer=tol_outer,
        tol_inner=tol_inner,
        max_sweeps=max_sweeps,
        v_floor=v_floor,
    )
    bf = seed_fn(cusp, ctx.grid.nodes)
    history = []
    for _ in range(max_outer):
        bf_next, fg, curve = outer_iterate(bf, ctx)
        metric = boundary_difference(bf_next, bf)
        history.append(metric)
        bf = bf_next
        worst = max(metric[:3])
        if worst < tol_outer:
            return bf, fg, curve, history, ctx
        if len(history) >= 3 and worst > 100.0 * (max(history[0][:3]) + 1e-300):
            raise NonConvergence(
                "outer iteration is diverging; the domain size is too large",
                [max(h[:3]) for h in history],
                diverging=True,
            )
    raise NonConvergence(
        f"outer iteration failed to reach {tol_outer:g} in {max_outer} steps",
        [max(h[:3]) for h in history],
        diverging=max(history[-1][:3]) > max(history[0][:3]),
    )


def run_shock_development(
    eos: eos_mod.BarotropicEos,
    model: StateAheadModel,
    cusp: CuspData,
    *,
    eps: float,
    n: int,
    tol_outer: float = 1e-10,
    max_outer: int = 60,
    tol_inner: float = 1e-12,
    max_sweeps: int = 60,
    v_floor: float | None = None,
    max_retries: int = 3,
    trust_index: int | None = None,
    seed_fn=None,
    collect_diagnostics: bool = True,
) -> ShockSolution:
    """Construct the shock development on the largest workable domain <= eps.

    Runs the outer iteration from the flat seed (or ``seed_fn``); if it
    fails to contract (including a singular reflection ratio), halves the
    domain and retries, up to ``max_retries`` times.

    Raises:
        NonConvergence: every attempted domain size failed.
    """
    if seed_fn is None:
        seed_fn = BoundaryFunctions.seed
    attempt_eps = float(eps)
    attempted = []
    last_exc = None
    for retry in range(max_retries + 1):
        attempted.append(attempt_eps)
        try:
            bf, fg, curve, history, ctx = _attempt(
                eos,
                model,
                cusp,
                attempt_eps,
                n,
                tol_outer=tol_outer,
                max_outer=max_outer,
                tol_inner=tol_inner,
                max_sweeps=max_sweeps,
                v_floor=v_floor,
                trust_index=trust_index,
                seed_fn=seed_fn,
            )
        except (NonConvergence, SingularGamma) as exc:
            last_exc = exc
            attempt_eps *= 0.5
            continue
        solution = ShockSolution(
            eps=attempt_eps,
            n=n,
            requested_eps=float(eps),
            retries=retry,
            cusp=cusp,
            fields=fg,
            curve=curve,
            boundary=bf,
            outer_history=history,
            corner=ctx.corner,
        )
        if collect_diagnostics:
            solution.diagnostics = {
                "limits": curve_asymptotics(curve, cusp, eos),
                "geometry": geometry_checks(curve, fg, model, eos),
                "blowup": blowup_fits(fg),
                "residuals": characteristic_residuals(fg, eos, ctx.init, bf),
                "outer_iterations": len(history),
                "attempted_eps": attempted,
            }
        return solution
    raise NonConvergence(
        f"no convergent domain size in {attempted}",
        getattr(last_exc, "history", []),
        diverging=getattr(last_exc, "diverging", True),
    )


def _fit_limit(v, samples, target, tol, *, rel=True):
    fitted = fitting.extrapolate_to_zero(v, samples, degree=2, drop=0)
    entry = {"fitted": fitted, "target": target, "tol": tol}
    if rel:
        entry["rel_err"] = abs(fitted - target) / abs(target)
        entry["pass"] = bool(entry["rel_err"] <= tol)
    else:
        entry["abs_err"] = abs(fitted - target)
        entry["pass"] = bool(entry["abs_err"] <= tol)
    return entry


def curve_asymptotics(
    curve: ShockCurve, cusp: CuspData, eos: eos_mod.BarotropicEos
) -> dict:
    """Fitted corner limits of the hatted curve data against analytic targets.

    Fits use the trusted part of the curve only (raw hatted samples above
    the corner fill).
    """
    kt = curve.trust_index
    v = curve.v[kt:]
    delta = curve.v[1] - curve.v[0]
    lam, kap = cusp.lam, cusp.kappa
    base = RiemannPair(cusp.alpha0, cusp.beta0)
    g0 = cubic_coefficient(eos, base)
    dalpha = (curve.alpha_plus - curve.alpha_minus)[kt:]
    dbeta = (curve.beta_plus - curve.beta_minus)[kt:]
    ahat_target = lam * cusp.a_tilde0 / (6 * kap**2)
    ahat_rel = ahat_target != 0.0
    return {
        "f_hat0": _fit_limit(v, curve.f_hat[kt:], lam / (6 * kap**2), 0.05),
        "g_hat0": _fit_limit(v, curve.g_hat[kt:], lam * cusp.c_plus0 / (6 * kap**2), 0.05),
        "y0": _fit_limit(v, curve.y[kt:], -1.0, 0.02, rel=False),
        "alpha_hat_plus0": _fit_limit(
            v,
            curve.alpha_hat_plus[kt:],
            ahat_target,
            0.10 if ahat_rel else 0.02 * abs(cusp.alpha_dot0),
            rel=ahat_rel,
        ),
        "beta_hat_plus0": _fit_limit(v, curve.beta_hat_plus[kt:], corner_beta_hat(cusp), 0.10),
        "delta_hat0": _fit_limit(v, curve.delta_hat[kt:], 0.0, 10.0 * delta, rel=False),
        "jump_cubic_ratio": _fit_limit(v, dbeta / dalpha**3, g0, 0.10),
        "jump_alpha_slope": _fit_limit(v, dalpha / v, 2.0 * cusp.alpha_dot0, 0.05),
    }


def geometry_checks(
    curve: ShockCurve, fg: FieldGrid, model: StateAheadModel, eos: eos_mod.BarotropicEos
) -> dict:
    """Pointwise shock-geometry invariants of a converged curve."""
    cusp = model.cusp
    v = curve.v
    kt = curve.trust_index
    delta = fg.grid.delta

    # balance of the jump polynomial at every node
    ahead = RiemannPair(curve.alpha_minus[1:], curve.beta_minus[1:])
    behind = RiemannPair(curve.alpha_plus[1:], curve.beta_plus[1:])
    rh_rel = np.abs(jump_J(eos, JumpPair(ahead, behind))) / jump_scale(eos, ahead)
    rh = float(np.max(rh_rel, initial=0.0))

    # curve tangency: time slope times speed equals radius slope
    dfdv = np.gradient(curve.f, v, edge_order=2)
    dgdv = np.gradient(curve.g, v, edge_order=2)
    tangency = float(np.max(np.abs(dfdv * curve.V - dgdv)))

    # determinism margins vanish linearly with slope kappa on both sides
    cp_ahead, _ = char_speeds(eos, RiemannPair(curve.alpha_minus, curve.beta_minus))
    cp_behind, _ = char_speeds(eos, RiemannPair(curve.alpha_plus, curve.beta_plus))
    margin_ahead = curve.V - cp_ahead
    margin_behind = cp_behind - curve.V
    slope_ahead = fitting.extrapolate_to_zero(
        v[kt:], margin_ahead[kt:] / v[kt:], degree=2, drop=0
    )
    slope_behind = fitting.extrapolate_to_zero(
        v[kt:], margin_behind[kt:] / v[kt:], degree=2, drop=0
    )

    # the shock stays in the past of the singular boundary of the ahead chart
    t_star = np.asarray(singular_boundary(model, v * curve.y), dtype=float)
    past = bool(np.all(curve.f[1:] < t_star[1:]))
    lead_ratio = fitting.extrapolate_to_zero(
        v[kt:], curve.f[kt:] / t_star[kt:], degree=2, drop=0
    )

    kap = cusp.kappa
    return {
        "rankine_hugoniot_rel": {"value": rh, "tol": 1e-10, "pass": bool(rh < 1e-10)},
        "tangency_max": {
            "value": tangency,
            "bound": 5.0 * delta**2,
            "pass": bool(tangency < 5.0 * delta**2),
        },
        "margin_ahead_slope": {
            "fitted": slope_ahead,
            "target": kap,
            "tol": 0.15,
            "rel_err": abs(slope_ahead - kap) / kap,
            "pass": bool(abs(slope_ahead - kap) <= 0.15 * kap),
        },
        "margin_behind_slope": {
            "fitted": slope_behind,
            "target": kap,
            "tol": 0.15,
            "rel_err": abs(slope_behind - kap) / kap,
            "pass": bool(abs(slope_behind - kap) <= 0.15 * kap),
        },
        "positive_margins": {
            "pass": bool(np.all(margin_ahead[1:] > 0.0) and np.all(margin_behind[1:] > 0.0))
        },
        "past_singular_boundary": {"value": past, "pass": past},
        "singular_lead_ratio": {
            "fitted": lead_ratio,
            "target": 1.0 / 3.0,
            "tol": 0.10,
            "rel_err": abs(lead_ratio - 1.0 / 3.0) * 3.0,
            "pass": bool(abs(lead_ratio - 1.0 / 3.0) <= 0.10 / 3.0),
        },
    }


def blowup_fits(fg: FieldGrid, row: int | None = None) -> dict:
    """Square-root time structure behind the incoming characteristic.

    Along a fixed-u grid row, the time and outgoing-invariant offsets from
    the data edge grow quadratically in v (no linear term), which is the
    discrete face of smoothness in sqrt(t - t_edge).
    """
    n = fg.grid.n
    if row is None:
        row = n
    v = fg.grid.nodes[1 : row + 1]
    t_off = fg.t[row, 1 : row + 1] - fg.t[row, 0]
    a_off = fg.alpha[row, 1 : row + 1] - fg.alpha[row, 0]
    exp_t, _ = fitting.power_law_fit(v, t_off)
    exp_a, _ = fitting.power_law_fit(v, a_off)
    basis = np.stack([v, v**2, v**3], axis=1)
    coef_a, *_ = np.linalg.lstsq(basis, a_off, rcond=None)
    linear_ok = abs(coef_a[0]) <= 1e-3 * abs(coef_a[1]) * fg.grid.eps
    return {
        "time_exponent": {
            "fitted": float(exp_t),
            "target": 2.0,
            "tol": 0.05,
            "pass": bool(abs(exp_t - 2.0) <= 0.05),
        },
        "alpha_exponent": {
            "fitted": float(exp_a),
            "target": 2.0,
            "tol": 0.10,
            "pass": bool(abs(exp_a - 2.0) <= 0.10),
        },
        "alpha_linear_coeff": {
            "value": float(coef_a[0]),
            "bound": float(1e-3 * abs(coef_a[1]) * fg.grid.eps),
            "pass": bool(linear_ok),
        },
        "row": int(row),
    }


def write_shock_csv(curve: ShockCurve, path) -> None:
    """Dump the shock curve as CSV with 17 significant digits."""
    cols = (
        "v",
        "f",
        "g",
        "V",
        "y",
        "alpha_plus",
        "beta_plus",
        "f_hat",
        "g_hat",
        "delta_hat",
        "V_hat",
    )
    arrays = [getattr(curve, c) for c in cols]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(curve.v)):
            fh.write(",".join("%.16e" % arr[k] for arr in arrays) + "\n")
