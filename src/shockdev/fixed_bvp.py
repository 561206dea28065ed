"""Inner solver on the characteristic triangle.

Given boundary functions along the shock diagonal (slope ratio y, hatted
incoming invariant, hatted shock speed) and the data carried by the incoming
characteristic, this module solves the characteristic system

    d(alpha)/dv = (dt/dv) A,   d(beta)/du = (dt/du) B,
    d(r)/dv     = (dt/dv) c+,  d(r)/du     = (dt/du) c-

on the triangle 0 <= v <= u <= eps by fixed-point iteration: a sweep
updates (alpha, beta) from the transport equations, and each sweep solves
the linear problem for t -- the integrating-factor form of the coupled
Volterra equations for dt/du and dt/dv, whose trapezoid discretization is
triangular -- in one direct marching pass, with no tolerance.  The diagonal
closes the system through the reflection ratio:
dt/dv = (dt/du) * (V - c_bar_minus)/(c_bar_plus - V) along u = v.

All quadrature is composite trapezoid (2nd order).  Column integrals that
start on the diagonal are taken as differences of cumulative integrals from
the axis; the integrand is zeroed outside the triangle, and the spurious
below-diagonal contributions cancel exactly in the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import eos as eos_mod
from .errors import NonConvergence, SingularGamma
from .state import RiemannPair, char_speeds, wave_state
from .state_ahead import CuspData, InitialData

__all__ = [
    "TriGrid",
    "BoundaryFunctions",
    "FieldGrid",
    "gamma_inverse",
    "solve_linear_t",
    "solve_fixed_bvp",
    "characteristic_residuals",
    "du_grid",
    "dv_grid",
    "write_grid_csv",
]

# sweep-change tolerance and sweep budget of the field iteration; every
# canonical solve stops at the rounding floor after 2 sweeps, well inside both
_TOL_INNER = 1e-12
_MAX_SWEEPS = 60


class TriGrid:
    """Uniform characteristic grid on the triangle 0 <= v <= u <= eps.

    Nodes are (u_i, v_j) = (i delta, j delta) for 0 <= j <= i <= n with
    delta = eps / n.  Arrays over the grid are stored (n+1, n+1) and indexed
    [i, j]; entries with j > i are outside the domain (kept finite, never
    read).  The diagonal j = i is the shock; the edge j = 0 is the incoming
    characteristic carrying the initial data.
    """

    def __init__(self, eps: float, n: int):
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        if int(n) != n or n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        self.eps = float(eps)
        self.n = int(n)
        self.delta = self.eps / self.n
        self.nodes = np.linspace(0.0, self.eps, self.n + 1)
        self.U = np.broadcast_to(self.nodes[:, None], (self.n + 1, self.n + 1)).copy()
        self.V = np.broadcast_to(self.nodes[None, :], (self.n + 1, self.n + 1)).copy()
        idx = np.arange(self.n + 1)
        self.mask = idx[None, :] <= idx[:, None]

    def __repr__(self) -> str:
        return f"TriGrid(eps={self.eps}, n={self.n})"


@dataclass
class BoundaryFunctions:
    """Shock-side boundary data in hatted form, sampled on the diagonal nodes.

    The unhatted quantities are z = v y (pre-shock w-coordinate of the shock
    point), beta_plus = beta0 + v^2 beta_hat_plus (incoming invariant behind
    the shock) and V = c_plus0 + (kappa/2)(1 + y) v + v^2 V_hat (shock
    speed).  The corner values y(0) = -1 and beta_hat_plus(0) are structural
    and are enforced on construction.
    """

    cusp: CuspData
    v: np.ndarray
    y: np.ndarray
    beta_hat_plus: np.ndarray
    V_hat: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float).copy()
        self.y = np.asarray(self.y, dtype=float).copy()
        self.beta_hat_plus = np.asarray(self.beta_hat_plus, dtype=float).copy()
        self.V_hat = np.asarray(self.V_hat, dtype=float).copy()
        sizes = {arr.shape for arr in (self.v, self.y, self.beta_hat_plus, self.V_hat)}
        if len(sizes) != 1 or self.v.ndim != 1:
            raise ValueError("boundary samples must be 1-D arrays of equal length")
        self.y[0] = -1.0
        self.beta_hat_plus[0] = self.cusp.beta_hat0

    @classmethod
    def seed(cls, cusp: CuspData, v_nodes) -> "BoundaryFunctions":
        """Starting guess: y = -1, constant hatted invariant, zero hatted speed."""
        v = np.asarray(v_nodes, dtype=float)
        return cls(
            cusp=cusp,
            v=v,
            y=np.full_like(v, -1.0),
            beta_hat_plus=np.full_like(v, cusp.beta_hat0),
            V_hat=np.zeros_like(v),
        )

    def replace(self, y=None, beta_hat_plus=None, V_hat=None) -> "BoundaryFunctions":
        return BoundaryFunctions(
            cusp=self.cusp,
            v=self.v,
            y=self.y if y is None else y,
            beta_hat_plus=self.beta_hat_plus if beta_hat_plus is None else beta_hat_plus,
            V_hat=self.V_hat if V_hat is None else V_hat,
        )

    def z(self) -> np.ndarray:
        return self.v * self.y

    def beta_plus(self) -> np.ndarray:
        return self.cusp.beta0 + self.v**2 * self.beta_hat_plus

    def speed(self) -> np.ndarray:
        c = self.cusp
        return c.c_plus0 + 0.5 * c.kappa * (1.0 + self.y) * self.v + self.v**2 * self.V_hat


def gamma_inverse(
    bf: BoundaryFunctions, alpha_on_diag, eos: eos_mod.BarotropicEos
) -> np.ndarray:
    """Reflection ratio (V - c_bar_minus)/(c_bar_plus - V) on the diagonal.

    The behind speeds c_bar_pm are evaluated at (alpha(v,v), beta_plus(v)).
    The ratio blows up like 1/v at the corner, so it is +inf exactly at
    v = 0 and num/den at every v > 0.  The consumer multiplies by the
    diagonal u-derivative, which vanishes at the corner, and replaces the
    product by its limit 0.

    Raises:
        SingularGamma: the shock is not subsonic relative to the state
            behind (c_bar_plus - V < 0) at some node v > 0.  An exactly
            sonic node (denominator 0) returns +inf instead, so the
            degenerate constant solution stays solvable.
    """
    v = bf.v
    alpha_diag = np.asarray(alpha_on_diag, dtype=float)
    V = bf.speed()
    cp, cm = char_speeds(eos, RiemannPair(alpha_diag, bf.beta_plus()))
    num = V - cm
    den = cp - V
    corner = v == 0.0
    bad = ~corner & (den < 0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularGamma(
            f"shock speed exceeds the behind outgoing speed at v = {v[j]:.6g} "
            f"(margin {den[j]:.3e})"
        )
    with np.errstate(divide="ignore"):
        out = num / den
    out[corner] = math.inf
    return out


# Cumulative trapezoid rules from 0 along v (the last axis) and along u (axis
# 0), term for term SciPy's cumulative_trapezoid(X, dx=delta, initial=0).

def _ct_v(X: np.ndarray, delta: float) -> np.ndarray:
    out = np.empty_like(X)
    out[..., 0] = 0.0
    body = np.add(X[..., 1:], X[..., :-1], out=out[..., 1:])
    body *= delta
    body /= 2.0
    np.cumsum(body, axis=-1, out=body)
    return out


def _ct_u(X: np.ndarray, delta: float) -> np.ndarray:
    out = np.empty_like(X)
    out[0] = 0.0
    body = np.add(X[1:], X[:-1], out=out[1:])
    body *= delta
    body /= 2.0
    np.cumsum(body, axis=0, out=body)
    return out


def _from_diag(CT: np.ndarray) -> np.ndarray:
    """Column integrals from the diagonal, CT[i, j] - CT[j, j], in place."""
    CT -= np.diagonal(CT).copy()
    return CT


def _sup(X: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.abs(X[mask])))


def _extrapolate_entry(sources: list) -> float | None:
    """Extrapolate the next uniform sample from up to three predecessors."""
    if len(sources) >= 3:
        return 3.0 * sources[0] - 3.0 * sources[1] + sources[2]
    if len(sources) == 2:
        return 2.0 * sources[0] - sources[1]
    if len(sources) == 1:
        return sources[0]
    return None


def dv_grid(X: np.ndarray, grid: TriGrid) -> np.ndarray:
    """2nd-order v-derivative along rows of the triangle.

    Centered in the interior, one-sided at the row ends.  The corner rows
    i = 0, 1 are too short for a second-order stencil, so their entries are
    filled by quadratic extrapolation down the columns, where full-length
    stencils exist.  Entries with j > i are 0.
    """
    d = grid.delta
    n = grid.n
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    if n >= 2:
        inner = out[:, 1:-1]
        np.subtract(X[:, 2:], X[:, :-2], out=inner, where=grid.mask[:, 2:])
        inner /= 2.0 * d
        i = np.arange(2, n + 1)
        out[i, 0] = (-3.0 * X[i, 0] + 4.0 * X[i, 1] - X[i, 2]) / (2.0 * d)
        out[i, i] = (3.0 * X[i, i] - 4.0 * X[i, i - 1] + X[i, i - 2]) / (2.0 * d)
    out[1, :2] = (X[1, 1] - X[1, 0]) / d
    for i, j in ((1, 0), (1, 1), (0, 0)):
        sources = [out[k, j] for k in range(i + 1, min(i + 4, n + 1)) if k >= j]
        fixed = _extrapolate_entry(sources)
        if fixed is not None:
            out[i, j] = fixed
    return out


def du_grid(X: np.ndarray, grid: TriGrid) -> np.ndarray:
    """2nd-order u-derivative along columns of the triangle.

    Centered in the interior, one-sided at the column ends.  The corner
    columns j = n-1, n next to the diagonal tip are too short for a
    second-order stencil, so their entries are filled by quadratic
    extrapolation along the rows.  Entries with j > i are 0.
    """
    d = grid.delta
    n = grid.n
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    if n >= 2:
        inner = out[1:-1, :]
        np.subtract(X[2:, :], X[:-2, :], out=inner, where=grid.mask[:-2, :])
        inner /= 2.0 * d
        j = np.arange(n - 1)
        out[j, j] = (-3.0 * X[j, j] + 4.0 * X[j + 1, j] - X[j + 2, j]) / (2.0 * d)
        out[n, j] = (3.0 * X[n, j] - 4.0 * X[n - 1, j] + X[n - 2, j]) / (2.0 * d)
    out[n - 1 :, n - 1] = (X[n, n - 1] - X[n - 1, n - 1]) / d
    for i, j in ((n - 1, n - 1), (n, n - 1), (n, n)):
        sources = [out[i, k] for k in range(j - 1, max(j - 4, -1), -1) if k >= 0]
        fixed = _extrapolate_entry(sources)
        if fixed is not None:
            out[i, j] = fixed
    return out


_NON_FINITE_T = "time solve produced non-finite values"


def solve_linear_t(
    mu_grid: np.ndarray,
    nu_grid: np.ndarray,
    gamma_inv_diag,
    h,
    dh_du,
    grid: TriGrid,
):
    """Solve the linear problem for the time coordinate at frozen coefficients.

    The derivative grids are the unknowns.  With P = dt/du, Q = dt/dv and
    the frozen coefficients mu = (dc+/du)/(c+ - c-), nu = (dc-/dv)/(c+ - c-),
    the cross-derivative relation turns into the pair of Volterra equations

        P(u, v) = e^{-K} [h'(u) - int_0^v e^{K} mu Q dv'],  K = int_0^v (-nu) dv'
        Q(u, v) = e^{-L} [a(v) + int_v^u e^{L} nu P du'],   L = int_v^u mu du'

    closed on the diagonal by a(v) = P(v, v) / gamma(v), with a(0) = 0 and
    a = 0 wherever P(v, v) = 0 (where gamma_inv may be +inf).  The
    trapezoid discretization of the pair is triangular, so one pass over
    the rows u_i solves it directly, with no tolerance: the column integrals
    advance by one panel per row, the row integral obeys a first-order
    linear recurrence along the row (the end-point weight couples P and Q
    at each node), and the diagonal node closes through gamma_inv.  t is
    reconstructed last so the data t(u, 0) = h(u) is exact at the nodes.

    Every product that does not change along the march (the recurrence
    weights and gamma h'(u_i)) is formed once on the whole grid; a row then
    costs fourteen in-place NumPy calls on whole-row views and preallocated
    buffers, and the diagonal node is closed in Python floats.  Every value
    comes from the same floating-point operations, in the same order, as
    in a loop that forms each row's products inside the loop, so the two
    agree bit for bit.

    Returns:
        (t, P, Q) as (n+1, n+1) arrays; P and Q are 0 outside the triangle
        (j > i), and t continues its diagonal value there.

    Raises:
        NonConvergence: non-finite values in the triangle, including an
            infinite gamma_inv at a node v > 0 whose diagonal P is nonzero,
            or a diagonal closure whose denominator vanishes.
    """
    # the march's coefficient grids are released before t is formed
    P, Q = _march_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid)
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise NonConvergence(_NON_FINITE_T, diverging=True)
    t = _ct_v(Q, grid.delta)
    t += np.asarray(h, dtype=float)[:, None]
    return t, P, Q


def _march_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid: TriGrid):
    """P and Q of :func:`solve_linear_t`, 0 outside the triangle and not
    yet checked for finiteness."""
    n = grid.n
    half = 0.5 * grid.delta
    dh = np.asarray(dh_du, dtype=float)
    dhl = dh.tolist()
    ginv = np.asarray(gamma_inv_diag, dtype=float).tolist()
    mu = np.where(grid.mask, mu_grid, 0.0)
    nu = np.where(grid.mask, nu_grid, 0.0)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # K = -int_0^v nu dv' and L = int_v^u mu du' give e^{-K}, e^{-L},
        # F = e^{K} mu and halfG = half e^{L} nu, each formed in place
        F = _ct_v(nu, grid.delta)
        emK = np.exp(F)
        np.negative(F, out=F)
        np.exp(F, out=F)
        F *= mu
        halfG = _from_diag(_ct_u(mu, grid.delta))
        del mu
        emL = np.negative(halfG)
        np.exp(emL, out=emL)
        np.exp(halfG, out=halfG)
        halfG *= half
        halfG *= nu
        del nu
        # Off the diagonal of row i, P = e^{-K} (h' - R) and Q = q - gam R,
        # with R the row integral and q the value of Q at R = 0.  Then
        # R_j = A_j R_{j-1} + half ((F q)_{j-1} + (F q)_j) / (1 + c_j) with
        # A_j = (1 - c_{j-1}) / (1 + c_j), so R_j = prod_j sum_{k <= j} W_k
        # ((F q)_{k-1} + (F q)_k), prod_j = A_1...A_j, W_k = half / ((1 + c_k) prod_k).
        gam = emL * halfG
        gam *= emK
        c = half * F
        c *= gam
        W = np.add(1.0, c)
        np.reciprocal(W, out=W)
        prod = np.empty_like(W)
        prod[:, 0] = 1.0
        np.subtract(1.0, c[:, :-1], out=prod[:, 1:])
        prod[:, 1:] *= W[:, 1:]
        np.multiply.accumulate(prod, axis=1, out=prod)
        W *= np.divide(half, prod, out=c)
        gam_dh = np.multiply(gam, dh[:, None], out=c)
        del c
        # the diagonal closure, in Python floats
        emK_d = np.diagonal(emK).tolist()
        halfF_sub = (half * np.diagonal(F, -1)).tolist()
        emK_halfF_d = (np.diagonal(emK) * half * np.diagonal(F)).tolist()
        halfG_d = np.diagonal(halfG).tolist()

        P = np.zeros_like(W)
        Q = np.zeros_like(W)
        P[0, 0] = dhl[0]
        # S[j] = a(v_j) + int_{v_j}^{u_i} e^L nu P du' along column j without
        # the end-point term of row i, which hP (halfG P of the previous row,
        # then of this one) supplies; Fq and R are row buffers.  Each row is
        # computed at full length, on whole-row views: its entries j >= i
        # feed no entry j < i, the diagonal one is closed below, and those
        # beyond the diagonal are zeroed after the march.
        S = np.zeros(n + 1)
        hP = np.zeros(n + 1)
        hP[0] = halfG_d[0] * dhl[0]
        Fq = np.empty(n + 1)
        R = np.zeros(n + 1)
        fq0, fq1, r = Fq[:-1], Fq[1:], R[1:]
        # out passed positionally: a keyword out costs more per call
        add, sub, mul, acc = np.add, np.subtract, np.multiply, np.add.accumulate
        rows = zip(emL, gam_dh, F, W[:, 1:], prod[:, 1:], emK, gam, halfG, P, Q)
        next(rows)
        for i, (el, gd, f, w, pr, ek, g, hg, p, q) in enumerate(rows, 1):
            add(S, hP, S)
            mul(el, S, q)
            add(q, gd, q)
            mul(f, q, Fq)
            add(fq0, fq1, r)
            mul(r, w, r)
            acc(r, 0, None, r)
            mul(r, pr, r)
            sub(dhl[i], R, p)
            mul(p, ek, p)
            mul(g, R, hP)
            sub(q, hP, q)
            mul(hg, p, hP)
            add(S, hP, S)
            b = emK_d[i] * (dhl[i] - R.item(i - 1) - halfF_sub[i - 1] * q.item(i - 1))
            # an infinite gamma_inv leaves Q = NaN here unless b = 0
            p_ii = q_ii = 0.0
            if b != 0.0:
                den = 1.0 + emK_halfF_d[i] * ginv[i]
                if den == 0.0:
                    raise NonConvergence(_NON_FINITE_T, diverging=True)
                p_ii = b / den
                q_ii = ginv[i] * p_ii
            p[i], q[i] = p_ii, q_ii
            hP[i] = halfG_d[i] * p_ii
            S[i] = q_ii
        outside = ~grid.mask
        np.copyto(P, 0.0, where=outside)
        np.copyto(Q, 0.0, where=outside)
    return P, Q


@dataclass
class FieldGrid:
    """Converged fields on the triangle plus the stored derivative grids.

    ``r_off`` is the radius offset r - r0 carried in its own accumulation:
    hatted quantities divide it by v^3, so recovering it by subtracting r0
    from the absolute radius would inject absolute-rounding noise of order
    ulp(r0) that the division amplifies beyond any useful tolerance near
    the corner.
    """

    grid: TriGrid
    t: np.ndarray
    r: np.ndarray
    r_off: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dt_du: np.ndarray
    dt_dv: np.ndarray
    sweeps: int = 0
    changes: list = field(default_factory=list)

    def diagonal(self, name: str) -> np.ndarray:
        """Samples of a field along the shock diagonal u = v."""
        return np.diagonal(getattr(self, name)).copy()

    @property
    def contraction_ratios(self) -> list:
        cs = self.changes
        return [cs[k + 1] / cs[k] for k in range(len(cs) - 1) if cs[k] > 0.0]


def _check_nodes(name: str, got: np.ndarray, grid: TriGrid) -> None:
    if got.shape != grid.nodes.shape or not np.allclose(
        got, grid.nodes, rtol=0.0, atol=1e-14 * grid.eps
    ):
        raise ValueError(f"{name} samples are not on the grid nodes")


def solve_fixed_bvp(
    bf: BoundaryFunctions,
    init: InitialData,
    eos: eos_mod.BarotropicEos,
    grid: TriGrid,
    *,
    warm=None,
) -> FieldGrid:
    """Solve the characteristic system for fixed boundary functions.

    Iterates (alpha, beta) -> coefficients -> direct linear t solve -> r ->
    updated (alpha, beta) from the transport integrals, starting from the
    transported boundary data (alpha constant along v, beta constant along
    u).  Once the sup-norm change in (alpha, beta) is below ``_TOL_INNER``
    and at least two sweeps have run, stops when the error the last sweep
    leaves under the observed contraction, change * min(1, change/prev),
    is within 2 ulp of max(|alpha|, |beta|) on the triangle; it also stops
    on a zero change or on the first sweep that fails to improve.  Every
    solve with a nonzero first change thus makes at least two sweeps, so
    ``changes[1] / changes[0]`` is defined.  The returned t, P, Q and r are
    re-assembled from the final (alpha, beta).

    With ``warm = (alpha, beta)``, the fields of a nearby solve, exactly
    one sweep runs from them instead: one state evaluation, one time solve
    and the transport update.  The result holds that sweep's t, P, Q and r
    with the updated (alpha, beta), ``sweeps = 1`` and ``changes`` the one
    sweep change; there is no re-assembly.  The outer iteration uses it
    between its full inner solves.

    Raises:
        NonConvergence: ``_MAX_SWEEPS`` sweeps ran without the change
            falling below ``_TOL_INNER``, a sweep change is not finite or
            grows by 100x over the first (the domain size is too large for
            contraction), or the time solve met non-finite values.
        SingularGamma, OutOfRange: propagated from the coefficients.
    """
    _check_nodes("initial data", init.u, grid)
    _check_nodes("boundary", bf.v, grid)
    d = grid.delta
    mask = grid.mask
    shape = (grid.n + 1, grid.n + 1)
    alpha_i = np.asarray(init.alpha_i, dtype=float)
    beta_p = bf.beta_plus()

    def assemble(alpha, state):
        cp, cm = state.speeds()
        spread = cp - cm
        # solve_linear_t zeroes both coefficients outside the triangle
        mu = du_grid(cp, grid)
        mu /= spread
        nu = dv_grid(cm, grid)
        nu /= spread
        del spread
        ginv = gamma_inverse(bf, np.diagonal(alpha).copy(), eos)
        t, P, Q = solve_linear_t(mu, nu, ginv, init.h, init.dh_du, grid)
        s_edge = _ct_v((cm * P)[:, 0], d)
        s = _ct_v(np.where(mask, cp * Q, 0.0), d)
        s += s_edge[:, None]
        return t, P, Q, bf.cusp.r0 + s, s

    if warm is None:
        alpha = np.broadcast_to(alpha_i[:, None], shape).copy()
        beta = np.broadcast_to(beta_p[None, :], shape).copy()
    else:
        alpha, beta = warm
    history: list[float] = []
    met = False
    prev = math.inf
    for _ in range(_MAX_SWEEPS if warm is None else 1):
        # one state evaluation serves the speeds and the sources
        state = wave_state(eos, RiemannPair(alpha, beta))
        t, P, Q, r, s = assemble(alpha, state)
        A, B = state.sources(r)
        alpha_new = _ct_v(np.where(mask, Q * A, 0.0), d)
        alpha_new += alpha_i[:, None]
        beta_new = _from_diag(_ct_u(np.where(mask, P * B, 0.0), d))
        beta_new += beta_p[None, :]
        if warm is None:
            # t, P and Q stay bound until the next time solve has allocated
            # its grids; released together with the rest, they let the
            # allocator hand the heap top back to the system, and the next
            # sweep faults those pages in again (3,300 rather than 6,200
            # minor page faults per n = 256 interior solve on Linux/glibc)
            del state, r, s, A, B
        change = max(_sup(alpha_new - alpha, mask), _sup(beta_new - beta, mask))
        alpha, beta = alpha_new, beta_new
        history.append(change)
        if not math.isfinite(change) or (history and change > 100.0 * (history[0] + 1e-300)):
            raise NonConvergence(
                "field iteration is diverging; the domain size is too large",
                history,
                diverging=True,
            )
        if warm is not None:
            # returns the warm sweep's own t, P, Q and r with the new fields
            break
        if met and change >= prev:
            break
        if change < _TOL_INNER:
            met = True
            if change == 0.0:
                break
            if len(history) >= 2:
                floor = 2.0 * np.spacing(max(_sup(alpha, mask), _sup(beta, mask)))
                if change * min(1.0, change / prev) <= floor:
                    break
        prev = change
    else:
        if not met:
            raise NonConvergence(
                f"field iteration failed to reach {_TOL_INNER:g} in {_MAX_SWEEPS} sweeps",
                history,
                diverging=history[-1] > history[0],
            )
    if warm is None:
        t, P, Q, r, s = assemble(alpha, wave_state(eos, RiemannPair(alpha, beta)))
    return FieldGrid(
        grid=grid,
        t=t,
        r=r,
        r_off=s,
        alpha=alpha,
        beta=beta,
        dt_du=P,
        dt_dv=Q,
        sweeps=len(history),
        changes=history,
    )


def characteristic_residuals(
    fg: FieldGrid,
    eos: eos_mod.BarotropicEos,
    init: InitialData,
    bf: BoundaryFunctions,
) -> dict:
    """Centered-difference residuals of the characteristic system.

    Differencing acts on baseline-subtracted fields (t, r - r0,
    alpha - alpha_i(u), beta - beta_plus(v)) so the measured defect is the
    quadrature error, not float cancellation against the O(1) offsets.
    Residual maxima are taken over nodes where the centered stencil fits
    inside the triangle.

    Returns:
        dict with per-equation maxima ("alpha", "beta", "radius_out",
        "radius_in", "time_out", "time_in") and their overall "max".
    """
    grid = fg.grid
    n = grid.n
    d = grid.delta
    idx = np.arange(n + 1)
    I, J = idx[:, None], idx[None, :]
    # stencil validity: centered in v needs 1 <= j <= i - 1; centered in u
    # needs j + 1 <= i <= n - 1
    mask_v = (J >= 1) & (J <= I - 1)
    mask_u = (I >= J + 1) & (I <= n - 1)

    state = wave_state(eos, RiemannPair(fg.alpha, fg.beta))
    cp, cm = state.speeds()
    A, B = state.sources(fg.r)

    base_alpha = fg.alpha - np.asarray(init.alpha_i, dtype=float)[:, None]
    base_beta = fg.beta - bf.beta_plus()[None, :]
    base_r = fg.r_off

    def center_v(X):
        out = np.zeros_like(X)
        out[:, 1:-1] = (X[:, 2:] - X[:, :-2]) / (2.0 * d)
        return out

    def center_u(X):
        out = np.zeros_like(X)
        out[1:-1, :] = (X[2:, :] - X[:-2, :]) / (2.0 * d)
        return out

    res = {
        "alpha": _sup(center_v(base_alpha) - fg.dt_dv * A, mask_v),
        "beta": _sup(center_u(base_beta) - fg.dt_du * B, mask_u),
        "radius_out": _sup(center_v(base_r) - cp * fg.dt_dv, mask_v),
        "radius_in": _sup(center_u(base_r) - cm * fg.dt_du, mask_u),
        "time_out": _sup(center_v(fg.t) - fg.dt_dv, mask_v),
        "time_in": _sup(center_u(fg.t) - fg.dt_du, mask_u),
    }
    res["max"] = max(res.values())
    return res


def write_grid_csv(fg: FieldGrid, path) -> None:
    """Dump the triangle nodes as CSV with 17 significant digits."""
    cols = ("t", "r", "alpha", "beta", "dt_du", "dt_dv")
    arrays = [getattr(fg, c) for c in cols]
    nodes = fg.grid.nodes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i,j,u,v," + ",".join(cols) + "\n")
        for i in range(fg.grid.n + 1):
            for j in range(i + 1):
                vals = ",".join("%.16e" % arr[i, j] for arr in arrays)
                fh.write(f"{i},{j},%.16e,%.16e," % (nodes[i], nodes[j]) + vals + "\n")
