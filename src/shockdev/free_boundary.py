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

Acceleration.  The map contracts at a steady ratio (about 0.24 on the
canonical domain), so ``_attempt`` mixes its iterates by type-II Anderson
acceleration on the free boundary entries x = (y[1:], beta_hat_plus[1:],
V_hat) over a window of the last ``_ANDERSON_DEPTH + 1`` iterates.  The
first step is plain, and ``outer_history`` records the raw map residual
||G(x_k) - x_k|| at every point evaluated, so its first two entries, whose
ratio is the contraction witness, are those of plain iteration.  The window
restarts whenever that residual grows, and a mixed iterate at which the
step fails is replaced once by the plain one.

Inexact inner solves.  Whenever the inner sweep contracts, from step 2 on
each step evaluates G with one inner sweep warm-started from the previous
step's fields (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
1982), and its jump nodes with one Newton step on J from the previous
step's roots, which have moved by at most the outer residual.  The sweep
contracts by about 5.2e-8 on the canonical cusp, at rest; in 50 measured
moving-medium solves, at ratios up to 0.85, warm steps ended within
5.4e-11 of full steps.  The converged iterate is evaluated once more
with the cold jump solve and one sweep from its own fields, which sit at
the inner fixed point to rounding, so the full inner solve runs there
only if that sweep moves them by more.  ``_attempt`` states the rules.

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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import eos as eos_mod
from . import fitting
from .errors import NonConvergence, ShockDevError, SingularGamma
from .fitting import _hatted
from .fixed_bvp import (
    BoundaryFunctions,
    FieldGrid,
    TriGrid,
    characteristic_residuals,
    grid_errors,
    solve_fixed_bvp,
)
from .jump import (
    JumpPair,
    cubic_coefficient,
    entropy_q,
    jump_J,
    jump_newton_step,
    jump_scale,
    shock_speed,
    solve_jump_beta,
)
from .state import RiemannPair, char_speeds
# initial_data is not called here: the binding stays for tooling that wraps it by name
from .state_ahead import CuspData, StateAheadModel, initial_data, singular_boundary  # noqa: F401

# Anderson depth of the outer iteration: each mixed step uses the last
# _ANDERSON_DEPTH + 1 iterates (depths 1/2/3/8 take 12/11/10/9 steps at n = 64)
_ANDERSON_DEPTH = 3

# outer stopping tolerance, outer step budget per domain size and halvings
# of eps after a failed attempt; read at call time
TOL_OUTER, MAX_OUTER, MAX_RETRIES = 1e-10, 60, 3
# the corner fill's trust index is max(_TRUST_FLOOR, n // _TRUST_DIVISOR),
# capped at n // 2; from ADEQUATE_N up it is n // _TRUST_DIVISOR, a fixed
# fraction of the grid, so only those grids refine one discretization
_TRUST_FLOOR, _TRUST_DIVISOR = 4, 8
ADEQUATE_N = _TRUST_FLOOR * _TRUST_DIVISOR
_MACH_EPS = float(np.finfo(float).eps)

# step tolerance and iteration budget of the corner y1 fixed point
_CORNER_TOL = 1e-8
_CORNER_MAX_ITER = 60
# fractions of the model's w-box at which the corner system samples the
# jump maps
_CORNER_FRACTIONS = (0.2, 0.1, 0.05)

__all__ = [
    "CornerExpansion",
    "ShockCurve",
    "ShockSolution",
    "SolverContext",
    "SubCheck",
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

    The relations are linear in y1 except through W2, which depends on y1
    only weakly, so the fixed point (:func:`corner_expansion`) is cheap and
    grid-free — it doubles as an independent oracle for the discrete
    solver's corner behaviour.
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
) -> CornerExpansion:
    """Solve the corner system for the shock curve's first-order structure.

    The quadratic speed coefficient and the hatted behind-invariant slope
    are measured on the exact jump maps along the corner state family at
    three small parameter values (the ``_CORNER_FRACTIONS`` of the model's
    w-box) and extrapolated to zero, so the result involves no field grid
    at all.

    The three closure relations (see :class:`CornerExpansion`) are linear
    in y1 apart from W2.  Writing V_hat0(y1) = W2(y1) - kap y1 / 2 and
    solving the linear part exactly gives

        y1 = -V_hat0(y1) / (5 kap) + 12 kap r_lin / (5 lam),

    which is iterated from y1 = 0 until the step is below ``_CORNER_TOL``.
    V_hat0 barely depends on y1, so the first step lands within ~1e-8 of
    the fixed point and two or three samplings of the jump map settle it.
    The root-solve noise of the jump map, divided by the smallest sample
    squared, bounds the attainable accuracy, hence the tolerance.

    Raises:
        NonConvergence: the fixed point did not settle in
            ``_CORNER_MAX_ITER`` steps.
    """
    cusp = model.cusp
    kap, lam = cusp.kappa, cusp.lam
    f2 = cusp.f_hat0
    vs = model.box_w * np.asarray(_CORNER_FRACTIONS, dtype=float)

    # radius terms of the identification residual at linear order in v,
    # evaluated at the corner (f_hat = f2, y = -1)
    r_lin = sum(c * f2**ti * (-1.0) ** wj for c, ti, wj, e in model.radius_terms if e == 1)

    def sample(y1: float):
        fhat1 = lam * y1 / (24.0 * kap**2)
        f = f2 * vs**2 + fhat1 * vs**3
        z = vs * (-1.0 + y1 * vs)
        ahead = RiemannPair(model.eval("alpha", f, z), model.eval("beta", f, z))
        a_plus = model.eval("alpha", 0.0, vs) + cusp.alpha_hat0 * vs**2
        b_plus = solve_jump_beta(eos, a_plus, ahead)
        V = shock_speed(eos, JumpPair(ahead, RiemannPair(a_plus, b_plus)))
        w2 = fitting.quadratic_extrapolate(vs, (V - cusp.c_plus0) / vs**2)
        return w2, (b_plus - cusp.beta0) / vs**2

    y1 = 0.0
    for _ in range(_CORNER_MAX_ITER):
        w2, _ = sample(y1)
        y1_next = -(w2 - 0.5 * kap * y1) / (5.0 * kap) + 12.0 * kap * r_lin / (5.0 * lam)
        done = abs(y1_next - y1) < _CORNER_TOL
        y1 = y1_next
        if done:
            break
    else:
        raise NonConvergence("corner expansion fixed point did not settle")
    w2, bhs = sample(y1)
    fhat1 = lam * y1 / (24.0 * kap**2)
    deltahat1 = lam * w2 / (12.0 * kap**2)
    b_slope = fitting.quadratic_extrapolate(vs, (bhs - cusp.beta_hat0) / vs)
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
    """Converged shock development: fields, curve, and the context solved on.

    ``diagnostics`` is computed from ``context`` on first read and cached,
    so a solve that is never checked costs no checks.
    """

    fields: FieldGrid
    curve: ShockCurve
    boundary: BoundaryFunctions
    outer_history: list
    context: SolverContext
    # domain sizes tried, the converged one last
    attempted_eps: list
    # sweep changes of the last full inner solve: outer step 1 (whose ratio
    # decides the warm steps), or a later full step or cold polish
    inner_changes: list = field(default_factory=list)
    # the grid solved on, and the number of domain sizes tried before it
    eps = property(lambda self: self.context.grid.eps)
    n = property(lambda self: self.context.grid.n)
    retries = property(lambda self: len(self.attempted_eps) - 1)

    @property
    def corner(self) -> CornerExpansion:
        """The grid-free corner expansion of the context's model."""
        return self.context.model.corner

    @functools.cached_property
    def diagnostics(self) -> dict:
        """Corner limits, geometry, blow-up fits and characteristic
        residuals of the converged solve, computed on first read."""
        ctx, eos = self.context, self.context.model.eos
        return {
            "limits": curve_asymptotics(self.curve, ctx.model.cusp, eos),
            "geometry": geometry_checks(self.curve, self.fields, ctx.model, eos),
            "blowup": blowup_fits(self.fields),
            "residuals": characteristic_residuals(self.fields, eos, ctx.init, self.boundary),
        }

    @property
    def outer_ratio(self) -> float:
        """First contraction ratio of the outer map, the ratio of the first
        two ``outer_history`` maxima; nan when it is undefined."""
        return _first_ratio([max(h) for h in self.outer_history[:2]])

    @property
    def inner_ratio(self) -> float:
        """First contraction ratio of the inner sweep,
        inner_changes[1] / inner_changes[0]; nan when it is undefined."""
        return _first_ratio(self.inner_changes)


def _first_ratio(seq) -> float:
    """seq[1] / seq[0], or nan with fewer than two entries or seq[0] <= 0."""
    return seq[1] / seq[0] if len(seq) > 1 and seq[0] > 0 else math.nan


@dataclass(frozen=True)
class SolverContext:
    """Everything one outer step needs besides the boundary functions: the
    model and the grid, and what follows from them, formed on first read.

    ``init`` is the model's initial data on the grid.  ``trust_index``
    bounds the corner fill of the state-based hatted quantities
    (delta_hat, beta_hat_plus) whose raw noise is the grid-independent 1/k^2
    quadrature law; it is max(4, n // 8), capped at n // 2 (see
    ``ADEQUATE_N``).  ``speed_trust_index`` bounds the fill of the hatted
    speed, whose raw extraction additionally divides ~ulp-level speed
    rounding by v^2, so its trusted region must satisfy v^2 > ulp/TOL_OUTER
    regardless of the grid.  The EOS, the cusp data and the corner expansion
    (computed once per model) are those of ``model``.
    """

    model: StateAheadModel
    grid: TriGrid

    @classmethod
    def build(cls, model: StateAheadModel, eps: float, n: int) -> "SolverContext":
        return cls(model, TriGrid(eps, n))

    @functools.cached_property
    def init(self):
        return self.model.init_data(self.grid.eps, self.grid.n)

    @functools.cached_property
    def trust_index(self) -> int:
        return min(max(_TRUST_FLOOR, self.grid.n // _TRUST_DIVISOR), self.grid.n // 2)

    @functools.cached_property
    def speed_trust_index(self) -> int:
        # hatted-speed rounding floor: ~3 ulp of the speed scale over v^2
        # must stay below a third of the convergence tolerance
        j_v = 3.0 * _MACH_EPS * max(1.0, abs(self.model.cusp.c_plus0))
        kt_speed = math.ceil(math.sqrt(3.0 * j_v / TOL_OUTER) / self.grid.delta)
        return min(max(self.trust_index, kt_speed), self.grid.n // 2)


def solve_identification(
    model: StateAheadModel,
    v,
    f_hat,
    delta_hat,
) -> np.ndarray:
    """Solve the shock-point identification for y at every diagonal node.

    The residual is ``(g + r0 - r_ahead(f, v y)) / v^3`` written in the
    exactly factored hatted form of ``StateAheadModel.radius_terms``, whose
    leading part at v = 0 is the cubic with roots 0 and +-1; the physical
    corner root y = -1 is imposed exactly at node 0.  Nodes 1..n are the
    lanes of one safeguarded Newton solve with an analytic y-derivative,
    the residual and its slope evaluated as array expressions over the
    radius terms.  Every lane starts at the corner root on the bracket
    [-1.5, -0.5], which excludes the cubic's other two roots.

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
    # per radius term: its lane coefficients a = c f_hat^i v^e, its y power
    # wj and the slope's a wj
    terms = []
    for c, ti, wj, e in model.radius_terms:
        a = c * f_hat[1:] ** ti * v[1:] ** e
        terms.append((a, wj, a * wj))

    def fdf(y):
        # a y^0 and a 1 y^0 equal a and y^1 equals y bit for bit, and
        # 0.0 - x equals the first slope term subtracted from zeros
        res, slope = delta_hat[1:], 0.0
        for a, wj, aw in terms:
            if not wj:
                res = res - a
            elif wj == 1:
                res = res - a * y
                slope = slope - a
            else:
                res = res - a * y**wj
                slope = slope - aw * y ** (wj - 1)
        return res, slope

    # every lane starts at -1 on [-1.5, -0.5]: the start stack is 3 numbers
    y0, start = np.full(len(v) - 1, -1.0), fdf(np.array([[-1.5], [-0.5], [-1.0]]))
    roots = fitting.safeguarded_newton_lanes(
        fdf, y0, y0 - 0.5, y0 + 0.5, f_tol=1e-13 * cusp.lam / cusp.kappa, start=start
    )
    out = np.concatenate([[-1.0], roots])

    vk, yk = v[-1], out[-1]
    fk = vk**2 * f_hat[-1]
    gk = vk**3 * delta_hat[-1] + cusp.c_plus0 * fk
    raw = (gk + cusp.r0 - model.eval("r", fk, vk * yk)) / vk**3
    fac = fdf(roots[-1:])[0][-1]
    tol = 1e-9 * max(1.0, cusp.r0) * (0.01 / vk) ** 3
    if abs(raw - fac) > tol:
        raise ShockDevError(
            f"identification residual paths disagree at v = {vk:.6g}: "
            f"{raw:.3e} vs {fac:.3e} (tol {tol:.1e})"
        )
    return out


def jump_update(
    fg: FieldGrid, model: StateAheadModel, eos: eos_mod.BarotropicEos, z, *, beta_prev=None
):
    """Behind invariant and front speed at each identified shock point.

    The ahead state is the pre-shock model evaluated at (f(v), z(v)); the
    behind alpha comes from the solved fields.  The corner node is the
    coincidence limit (beta_plus = beta0, V = corner outgoing speed); all
    other nodes are the lanes of one jump solve and one speed evaluation.
    With ``beta_prev``, the previous step's behind invariants, the nodes
    instead take one Newton step on J from those roots
    (:func:`jump_newton_step`); where that step gives no result, the cold
    solve runs as without it.

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
    warm = None
    if beta_prev is not None:
        warm = jump_newton_step(eos, alpha_plus[1:], ahead, beta_prev[1:])
    if warm is None:
        bp = solve_jump_beta(eos, alpha_plus[1:], ahead)
        V = shock_speed(eos, JumpPair(ahead, RiemannPair(alpha_plus[1:], bp)))
    else:
        bp, V = warm
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


def outer_iterate(bf: BoundaryFunctions, ctx: SolverContext, *, warm=None):
    """One outer step: fields -> identification -> jump -> new boundary data.

    Cold (``warm`` None), the fields come from the full inner solve and the
    jump nodes from the cold root solve.  With ``warm = ((alpha, beta),
    beta_plus)`` of the previous step, the fields come from one sweep
    started at its (alpha, beta) (see :func:`solve_fixed_bvp`) and the jump
    nodes from one Newton step from its beta_plus (see :func:`jump_update`);
    with ``beta_plus`` None, the jump nodes come from the cold root solve.

    Returns:
        (next boundary functions, solved FieldGrid, ShockCurve sampled from
        this step).
    """
    cusp = ctx.model.cusp
    corner = ctx.model.corner
    sweep_from, beta_prev = (None, None) if warm is None else warm
    fg = solve_fixed_bvp(bf, ctx.init, ctx.model.eos, ctx.grid, warm=sweep_from)
    v = ctx.grid.nodes
    kt = ctx.trust_index
    anchor = min(2 * kt, ctx.grid.n)
    f = fg.diagonal("t")
    g = fg.diagonal("r_off")
    alpha_plus = fg.diagonal("alpha")

    f_hat = _hatted(v, f, 2, cusp.f_hat0)
    g_hat = _hatted(v, g, 2, cusp.g_hat0)
    # identification reads delta_hat[1:] only; the corner value of a curve
    # that a solve returns is fitted once, by _fit_corner_value
    delta_hat = _corner_fill(
        v, _hatted(v, g - cusp.c_plus0 * f, 3, 0.0), kt, anchor, 0.0, corner.deltahat1
    )

    y = solve_identification(ctx.model, v, f_hat, delta_hat)
    z = v * y
    beta_plus, V, alpha_minus, beta_minus = jump_update(
        fg, ctx.model, ctx.model.eos, z, beta_prev=beta_prev
    )

    alpha_hat_plus = _hatted(v, alpha_plus - ctx.init.alpha_i, 2, cusp.alpha_hat0)
    beta_hat_plus = _corner_fill(
        v, _hatted(v, beta_plus - cusp.beta0, 2, cusp.beta_hat0),
        kt, anchor, cusp.beta_hat0, corner.beta_hat_slope,
    )

    kt_v = ctx.speed_trust_index
    anchor_v = min(2 * kt_v, ctx.grid.n)
    V_hat = _hatted(v, V - cusp.c_plus0 - 0.5 * cusp.kappa * (1.0 + y) * v, 2, corner.V_hat0)
    vhat_slope = (V_hat[anchor_v] - corner.V_hat0) / v[anchor_v]
    V_hat[1:kt_v] = corner.V_hat0 + vhat_slope * v[1:kt_v]

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


def _fit_corner_value(curve: ShockCurve) -> None:
    """Set the reported delta_hat(0) of a returned curve, in place.

    It stays a genuine extrapolation from the trusted nodes (its smallness
    is a diagnostic, so it must not be imposed).
    """
    kt = curve.trust_index
    curve.delta_hat[0] = fitting.extrapolate_to_zero(curve.v[kt:], curve.delta_hat[kt:])


def boundary_difference(a: BoundaryFunctions, b: BoundaryFunctions):
    """Sup-norm differences between successive boundary iterates.

    Returns (sup |dy|, sup |d beta_hat_plus|, sup |dV_hat|); their maximum
    is the outer stopping metric.
    """
    dy = float(np.abs(a.y - b.y).max())
    db = float(np.abs(a.beta_hat_plus - b.beta_hat_plus).max())
    dvh = float(np.abs(a.V_hat - b.V_hat).max())
    return dy, db, dvh


def _pack(bf: BoundaryFunctions) -> np.ndarray:
    """The free entries (y[1:], beta_hat_plus[1:], V_hat) as one vector."""
    return np.concatenate([bf.y[1:], bf.beta_hat_plus[1:], bf.V_hat])


def _unpack(x: np.ndarray, like: BoundaryFunctions) -> BoundaryFunctions:
    m = len(like.v) - 1
    return like.replace(
        y=np.concatenate([like.y[:1], x[:m]]),
        beta_hat_plus=np.concatenate([like.beta_hat_plus[:1], x[m : 2 * m]]),
        V_hat=x[2 * m :],
    )


def _anderson_mix(window: list) -> np.ndarray:
    """Type-II Anderson iterate from a window of (x_k, G(x_k)) pairs.

    With residuals f_k = G(x_k) - x_k, the coefficients gamma minimize
    ||f_last - dF gamma||_2 over the residual differences dF of the window,
    and the new iterate is G(x_last) - dG gamma (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011).
    """
    X, G = (np.array(a) for a in zip(*window))
    F = G - X
    gamma = np.linalg.lstsq(np.diff(F, axis=0).T, F[-1], rcond=None)[0]
    return G[-1] - np.diff(G, axis=0).T @ gamma


def _step(bf: BoundaryFunctions, ctx: SolverContext, warm=None):
    """G at ``bf`` by :func:`outer_iterate`, warm from ``warm`` when given.

    ``warm`` is the previous step's ((alpha, beta), beta_plus), or
    ((alpha, beta), None) for the polish: the cold jump solve at a
    converged iterate, whose fields are those of the warm step at ``bf``
    itself.  The warm evaluation is kept unless it raises NonConvergence
    or SingularGamma, or, for the polish, its sweep moved the fields by
    more than ``rounding_floor``, the floor the full inner solve stops on;
    otherwise the full step runs.
    Returns (step result, whether the warm evaluation was kept).
    """
    if warm is not None:
        try:
            step = outer_iterate(bf, ctx, warm=warm)
            fg = step[1]
            if warm[1] is not None or fg.changes[0] <= fg.rounding_floor:
                return step, True
        except (NonConvergence, SingularGamma):
            pass
    return outer_iterate(bf, ctx), False


def _attempt(ctx: SolverContext, seed_fn) -> dict:
    """One outer solve on the domain of ``ctx``, Anderson-accelerated.

    Step 0 is plain, x_1 = G(x_0); later steps mix the window of the last
    ``_ANDERSON_DEPTH + 1`` iterates (:func:`_anderson_mix`).  Each history
    entry is ``boundary_difference(G(x_k), x_k)`` at the point evaluated,
    and the converged result is G(x_k) with the fields and curve of that
    step.  If the raw residual grows, the window restarts and the next step
    is plain.  If the step raises NonConvergence or SingularGamma at a mixed
    iterate, it is retried once from the plain iterate G(x_{k-1}) with the
    window cleared; a failure at a plain iterate propagates to the
    halved-domain driver.

    Inexact inner solves (the one full statement of these rules).  Steps 0
    and 1 run the full inner solve and the cold jump solve, so
    ``outer_history[0:2]`` is that of the exact map, and step 1 measures
    the inner ratio q = changes[1]/changes[0].  If q < 1 (up to 0.85 in
    every solve measured), every later step is warm: one sweep from the
    previous step's (alpha, beta) and one Newton step per jump node from
    its beta_plus (with the cold jump solve wherever :func:`jump_update`
    falls back); a warm step that fails is retried at the same iterate with
    a full step, the full inner solve and the cold jump solve, before the
    rule above applies.  Once a warm step's residual is below
    ``TOL_OUTER``, the same iterate is polished: one more sweep from that
    step's own fields, kept only if it moves (alpha, beta) by rounding
    alone, else the full inner solve, and the cold jump solve either way.
    The polish is the step's history entry and the returned result, so the
    returned fields are the inner fixed point to rounding and the returned
    curve is an exact jump root.  If that residual misses ``TOL_OUTER``,
    the iteration goes on with full steps only.  The sweep changes of the
    last full inner solve, step 1 unless a later step or the polish ran
    one, are returned with the result: they hold q.  :func:`_step` makes
    every evaluation, with its fallback to the full step.

    Returns:
        the solve's ``boundary``, ``fields``, ``curve``, ``outer_history``
        and ``inner_changes``, keyed by their :class:`ShockSolution` fields.
    """
    bf = seed_fn(ctx.model.cusp, ctx.grid.nodes)
    history = []
    window = []  # Anderson window: packed (x_k, G(x_k)), oldest first
    plain = None  # G(x_{k-1}) while bf is a mixed iterate
    warm_ok = False  # set at step 1 from the measured inner ratio
    fg = curve = None
    inner_changes = []
    for k in range(MAX_OUTER):
        warm_start = ((fg.alpha, fg.beta), curve.beta_plus) if warm_ok else None
        # a step reads no more of the step before it than warm_start
        fg = curve = None
        try:
            (bf_next, fg, curve), warm = _step(bf, ctx, warm_start)
        except (NonConvergence, SingularGamma):
            if plain is None:
                raise
            bf, plain = plain, None
            window.clear()
            (bf_next, fg, curve), warm = _step(bf, ctx)
        if k == 1:
            # an undefined ratio is nan, which keeps the steps full
            warm_ok = _first_ratio(fg.changes) < 1.0
        metric = boundary_difference(bf_next, bf)
        if warm and max(metric) < TOL_OUTER:
            warm_start = ((fg.alpha, fg.beta), None)
            fg = curve = None
            (bf_next, fg, curve), warm = _step(bf, ctx, warm_start)
            metric = boundary_difference(bf_next, bf)
            warm_ok = False  # should the polish miss, only full steps follow
        if not warm:
            inner_changes = fg.changes
        history.append(metric)
        worst = max(metric)
        if worst < TOL_OUTER:
            # an outer map that samples no curve leaves none to complete
            if curve is not None:
                _fit_corner_value(curve)
            return dict(
                boundary=bf_next,
                fields=fg,
                curve=curve,
                outer_history=history,
                inner_changes=inner_changes,
            )
        if len(history) >= 3 and worst > 100.0 * (max(history[0]) + 1e-300):
            raise NonConvergence(
                "outer iteration is diverging; the domain size is too large",
                [max(h) for h in history],
                diverging=True,
            )
        if len(history) >= 2 and worst > max(history[-2]):
            window.clear()
        window.append((_pack(bf), _pack(bf_next)))
        del window[: -_ANDERSON_DEPTH - 1]
        if len(window) > 1:
            bf, plain = _unpack(_anderson_mix(window), bf_next), bf_next
        else:
            bf, plain = bf_next, None
    raise NonConvergence(
        f"outer iteration failed to reach {TOL_OUTER:g} in {MAX_OUTER} steps",
        [max(h) for h in history],
        diverging=max(history[-1]) > max(history[0]),
    )


def run_shock_development(
    eos: eos_mod.BarotropicEos,
    model: StateAheadModel,
    cusp: CuspData,
    *,
    eps: float,
    n: int,
    seed_fn=None,
) -> ShockSolution:
    """Construct the shock development on the largest workable domain <= eps.

    Runs the outer iteration from the flat seed (or ``seed_fn``); if it
    fails to contract (including a singular reflection ratio), halves the
    domain and retries, up to ``MAX_RETRIES`` times.  The solution's
    diagnostics are computed when first read.

    Raises:
        ValueError: before any work, if cusp or eos is not the one the
            model was synthesized from, or eps or n is out of the grid's
            bounds, :func:`fixed_bvp.grid_errors`.
        NonConvergence: every attempted domain size failed.
    """
    if cusp != model.cusp:
        raise ValueError("cusp is not the cusp the model was synthesized from")
    if eos is not model.eos:
        raise ValueError("eos is not the EOS the model was synthesized from")
    if bad := grid_errors(eps, n):
        raise ValueError(" ".join(bad[0]))
    if seed_fn is None:
        seed_fn = BoundaryFunctions.seed
    attempt_eps = float(eps)
    attempted = []
    last_exc = None
    for _ in range(MAX_RETRIES + 1):
        attempted.append(attempt_eps)
        try:
            ctx = SolverContext.build(model, attempt_eps, n)
            solved = _attempt(ctx, seed_fn)
        except (NonConvergence, SingularGamma) as exc:
            last_exc = exc
            attempt_eps *= 0.5
            continue
        return ShockSolution(context=ctx, attempted_eps=attempted, **solved)
    raise NonConvergence(
        f"no convergent domain size in {attempted}",
        getattr(last_exc, "history", []),
        diverging=getattr(last_exc, "diverging", True),
    )


@dataclass(frozen=True)
class SubCheck:
    """One sub-limit of a diagnostic check, judged by a single margin rule.

    ``margin`` is the error over its tolerance, |value - target| / scale / tol
    with scale = |target| for a relative limit and 1 for an absolute one, and
    ``passed`` is ``margin <= 1``.  A zero tolerance asks for an exact match:
    the margin is then 0 without error and inf otherwise.  ``tolerance`` is
    the absolute one, tol * scale.
    """

    value: float
    target: float
    tolerance: float
    margin: float
    passed: bool

    @classmethod
    def of(cls, value, target, tol, *, scale=1.0) -> "SubCheck":
        value, target, tol, scale = map(float, (value, target, tol, scale))
        err = abs(value - target) / scale
        margin = err / tol if tol > 0 else (0.0 if err == 0.0 else math.inf)
        return cls(value, target, tol * scale, margin, bool(margin <= 1.0))


def curve_asymptotics(
    curve: ShockCurve, cusp: CuspData, eos: eos_mod.BarotropicEos
) -> dict:
    """Fitted corner limits of the hatted curve data against analytic targets.

    Fits use the trusted part of the curve only (raw hatted samples above
    the corner fill).  Returns {name: SubCheck}.
    """
    kt = curve.trust_index
    v = curve.v[kt:]
    delta = curve.v[1] - curve.v[0]
    base = RiemannPair(cusp.alpha0, cusp.beta0)
    g0 = cubic_coefficient(eos, base)
    dalpha = (curve.alpha_plus - curve.alpha_minus)[kt:]
    dbeta = (curve.beta_plus - curve.beta_minus)[kt:]
    slope_target = 2.0 * cusp.alpha_dot0

    def fit(samples, target, tol, scale=1.0):
        fitted = fitting.extrapolate_to_zero(v, samples)
        return SubCheck.of(fitted, target, tol, scale=scale)

    return {
        "f_hat0": fit(curve.f_hat[kt:], cusp.f_hat0, 0.05, abs(cusp.f_hat0)),
        "g_hat0": fit(curve.g_hat[kt:], cusp.g_hat0, 0.05, abs(cusp.g_hat0)),
        "y0": fit(curve.y[kt:], -1.0, 0.02),
        "alpha_hat_plus0": (
            fit(curve.alpha_hat_plus[kt:], cusp.alpha_hat0, 0.10, abs(cusp.alpha_hat0))
            if cusp.alpha_hat0 != 0.0
            else fit(curve.alpha_hat_plus[kt:], 0.0, 0.02 * abs(cusp.alpha_dot0))
        ),
        "beta_hat_plus0": fit(
            curve.beta_hat_plus[kt:], cusp.beta_hat0, 0.10, abs(cusp.beta_hat0)
        ),
        "delta_hat0": fit(curve.delta_hat[kt:], 0.0, 10.0 * delta),
        "jump_cubic_ratio": fit(dbeta / dalpha**3, g0, 0.10, abs(g0)),
        "jump_alpha_slope": fit(dalpha / v, slope_target, 0.05, abs(slope_target)),
    }


def geometry_checks(
    curve: ShockCurve, fg: FieldGrid, model: StateAheadModel, eos: eos_mod.BarotropicEos
) -> dict:
    """Pointwise shock-geometry invariants of a converged curve.

    Returns {name: SubCheck}; the three sign conditions (positive
    determinism margins, the entropy condition q(behind) < q(ahead) and the
    shock in the past of the singular boundary) count their violating
    nodes 1..n against an exact target of 0.
    """
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
        v[kt:], margin_ahead[kt:] / v[kt:])
    slope_behind = fitting.extrapolate_to_zero(
        v[kt:], margin_behind[kt:] / v[kt:])
    non_positive = np.count_nonzero(~((margin_ahead[1:] > 0.0) & (margin_behind[1:] > 0.0)))

    # entropy condition: the steepness functional q drops across the front
    entropy_gain = np.count_nonzero(~(entropy_q(eos, behind) - entropy_q(eos, ahead) < 0.0))

    # the shock stays in the past of the singular boundary of the ahead chart
    t_star = np.asarray(singular_boundary(model, v * curve.y), dtype=float)
    not_past = np.count_nonzero(~(curve.f[1:] < t_star[1:]))
    lead_ratio = fitting.extrapolate_to_zero(
        v[kt:], curve.f[kt:] / t_star[kt:])

    kap = cusp.kappa
    return {
        "rankine_hugoniot_rel": SubCheck.of(rh, 0.0, 1e-10),
        "tangency_max": SubCheck.of(tangency, 0.0, 5.0 * delta**2),
        "margin_ahead_slope": SubCheck.of(slope_ahead, kap, 0.15, scale=abs(kap)),
        "margin_behind_slope": SubCheck.of(slope_behind, kap, 0.15, scale=abs(kap)),
        "positive_margins": SubCheck.of(non_positive, 0.0, 0.0),
        "entropy_condition": SubCheck.of(entropy_gain, 0.0, 0.0),
        "past_singular_boundary": SubCheck.of(not_past, 0.0, 0.0),
        "singular_lead_ratio": SubCheck.of(lead_ratio, 1.0 / 3.0, 0.10, scale=1.0 / 3.0),
    }


def blowup_fits(fg: FieldGrid, row: int | None = None) -> dict:
    """Square-root time structure behind the incoming characteristic.

    Along a fixed-u grid row, the time and outgoing-invariant offsets from
    the data edge grow quadratically in v (no linear term), which is the
    discrete face of smoothness in sqrt(t - t_edge).  Returns
    {name: SubCheck} for the last row (``row`` = n) unless one is given.
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
    return {
        "time_exponent": SubCheck.of(exp_t, 2.0, 0.05),
        "alpha_exponent": SubCheck.of(exp_a, 2.0, 0.10),
        "alpha_linear_coeff": SubCheck.of(coef_a[0], 0.0, 1e-3 * abs(coef_a[1]) * fg.grid.eps),
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
    line = ",".join(["%.16e"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(line % row for row in zip(*(getattr(curve, c).tolist() for c in cols)))
