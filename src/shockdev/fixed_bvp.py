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
from scipy.integrate import cumulative_trapezoid

from . import eos as eos_mod
from .errors import NonConvergence, SingularGamma
from .state import RiemannPair, char_speeds, source_terms
from .state_ahead import CuspData, InitialData

__all__ = [
    "TriGrid",
    "BoundaryFunctions",
    "FieldGrid",
    "corner_beta_hat",
    "gamma_inverse",
    "solve_linear_t",
    "solve_fixed_bvp",
    "characteristic_residuals",
    "du_grid",
    "dv_grid",
    "write_grid_csv",
]


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


def corner_beta_hat(cusp: CuspData) -> float:
    """Corner value of the hatted incoming invariant on the shock diagonal."""
    return cusp.lam / (6.0 * cusp.kappa**2) * cusp.dbeta_dt0


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
        self.beta_hat_plus[0] = corner_beta_hat(self.cusp)

    @classmethod
    def seed(cls, cusp: CuspData, v_nodes) -> "BoundaryFunctions":
        """Starting guess: y = -1, constant hatted invariant, zero hatted speed."""
        v = np.asarray(v_nodes, dtype=float)
        return cls(
            cusp=cusp,
            v=v,
            y=np.full_like(v, -1.0),
            beta_hat_plus=np.full_like(v, corner_beta_hat(cusp)),
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
    bf: BoundaryFunctions,
    alpha_on_diag,
    eos: eos_mod.BarotropicEos,
    v_floor: float | None = None,
) -> np.ndarray:
    """Reflection ratio (V - c_bar_minus)/(c_bar_plus - V) on the diagonal.

    The behind speeds c_bar_pm are evaluated at (alpha(v,v), beta_plus(v)).
    The ratio blows up like 1/v at the corner; below ``v_floor`` (default:
    half the node spacing, so only the corner node on a uniform grid) the
    value is the leading expansion, which is +inf exactly at v = 0.  The
    consumer multiplies by the diagonal u-derivative, which vanishes there,
    and replaces the product by its limit 0.

    Raises:
        SingularGamma: the shock is not subsonic relative to the state
            behind (c_bar_plus - V < 0) at some node v >= v_floor.  An
            exactly sonic node (denominator 0) returns +inf instead, so the
            degenerate constant solution stays solvable.
    """
    v = bf.v
    if v_floor is None:
        v_floor = 0.5 * (v[1] - v[0]) if len(v) > 1 else 0.0
    alpha_diag = np.asarray(alpha_on_diag, dtype=float)
    V = bf.speed()
    cp, cm = char_speeds(eos, RiemannPair(alpha_diag, bf.beta_plus()))
    num = V - cm
    den = cp - V
    regular = v >= v_floor
    bad = regular & (den < 0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularGamma(
            f"shock speed exceeds the behind outgoing speed at v = {v[j]:.6g} "
            f"(margin {den[j]:.3e})"
        )
    out = np.empty_like(v)
    with np.errstate(divide="ignore"):
        out[regular] = num[regular] / den[regular]
        sub = ~regular
        # leading corner expansion: (c+0 - c-0) / ((kappa/2)(1 - y) v)
        c = bf.cusp
        out[sub] = (c.c_plus0 - c.c_minus0) / (
            0.5 * c.kappa * (1.0 - bf.y[sub]) * v[sub]
        )
    return out


def _ct_v(X: np.ndarray, delta: float) -> np.ndarray:
    return cumulative_trapezoid(X, dx=delta, axis=1, initial=0.0)


def _ct_u(X: np.ndarray, delta: float) -> np.ndarray:
    return cumulative_trapezoid(X, dx=delta, axis=0, initial=0.0)


def _from_diag(CT: np.ndarray) -> np.ndarray:
    """Column integrals from the diagonal: CT[i, j] - CT[j, j]."""
    return CT - np.diagonal(CT)[None, :]


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

    Returns:
        (t, P, Q) as (n+1, n+1) arrays; P and Q are 0 outside the triangle
        (j > i), and t continues its diagonal value there.

    Raises:
        NonConvergence: non-finite values in the triangle, including an
            infinite gamma_inv at a node v > 0 whose diagonal P is nonzero.
    """
    n = grid.n
    d = grid.delta
    half = 0.5 * d
    mask = grid.mask
    h = np.asarray(h, dtype=float)
    dh = np.asarray(dh_du, dtype=float)
    ginv = np.asarray(gamma_inv_diag, dtype=float)
    mu = np.where(mask, mu_grid, 0.0)
    nu = np.where(mask, nu_grid, 0.0)
    K = _ct_v(-nu, d)
    L = _from_diag(_ct_u(mu, d))
    emK = np.exp(-K)
    emL = np.exp(-L)
    F = np.exp(K) * mu
    halfG = half * np.exp(L) * nu
    del K, L, mu, nu

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # Off the diagonal of row i, P = e^{-K} (h' - R) and Q = q - gam R,
        # with R the row integral and q the value of Q at R = 0.  Then
        # R_j = A_j R_{j-1} + half ((F q)_{j-1} + (F q)_j) / (1 + c_j) with
        # A_j = (1 - c_{j-1}) / (1 + c_j), so R_j = prod_j sum_{k <= j} W_k
        # ((F q)_{k-1} + (F q)_k), prod_j = A_1...A_j, W_k = half / ((1 + c_k) prod_k).
        gam = emL * halfG * emK
        c = half * F * gam
        W = 1.0 / (1.0 + c)
        prod = np.cumprod(np.hstack([np.ones((n + 1, 1)), (1.0 - c[:, :-1]) * W[:, 1:]]), axis=1)
        W *= half / prod
        del c

        P = np.zeros_like(F)
        Q = np.zeros_like(F)
        P[0, 0] = dh[0]
        # S[j] = a(v_j) + int_{v_j}^{u_i} e^L nu P du' along column j, at row i
        S = np.zeros(n + 1)
        for i in range(1, n + 1):
            S[:i] += halfG[i - 1, :i] * P[i - 1, :i]
            q = emL[i, :i] * S[:i] + gam[i, :i] * dh[i]
            Fq = F[i, :i] * q
            R = np.zeros(i)
            R[1:] = prod[i, 1:i] * np.cumsum((Fq[:-1] + Fq[1:]) * W[i, 1:i])
            P[i, :i] = emK[i, :i] * (dh[i] - R)
            Q[i, :i] = q - gam[i, :i] * R
            S[:i] += halfG[i, :i] * P[i, :i]
            b = emK[i, i] * (dh[i] - R[-1] - half * F[i, i - 1] * Q[i, i - 1])
            # an infinite gamma_inv leaves Q = NaN here unless b = 0
            if b != 0.0:
                P[i, i] = b / (1.0 + emK[i, i] * half * F[i, i] * ginv[i])
                Q[i, i] = ginv[i] * P[i, i]
            S[i] = Q[i, i]
    if not (np.isfinite(P[mask]).all() and np.isfinite(Q[mask]).all()):
        raise NonConvergence("time solve produced non-finite values", diverging=True)
    t = h[:, None] + _ct_v(Q, d)
    return t, P, Q


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
    tol_inner: float = 1e-12,
    max_sweeps: int = 60,
    v_floor: float | None = None,
) -> FieldGrid:
    """Solve the characteristic system for fixed boundary functions.

    Iterates (alpha, beta) -> coefficients -> direct linear t solve -> r ->
    updated (alpha, beta) from the transport integrals, starting from the
    transported boundary data (alpha constant along v, beta constant along
    u).  Once the sup-norm change in (alpha, beta) is below ``tol_inner``
    and at least two sweeps have run, stops when the error the last sweep
    leaves under the observed contraction, change * min(1, change/prev),
    is within 2 ulp of max(|alpha|, |beta|) on the triangle; it also stops
    on a zero change or on the first sweep that fails to improve.  Every
    solve with a nonzero first change thus makes at least two sweeps, so
    ``changes[1] / changes[0]`` is defined.

    Raises:
        NonConvergence: budget exhausted, the sweep changes grow by 100x
            (the domain size is too large for contraction), or the time
            solve met non-finite values.
        SingularGamma, OutOfRange: propagated from the coefficients.
    """
    _check_nodes("initial data", init.u, grid)
    _check_nodes("boundary", bf.v, grid)
    d = grid.delta
    mask = grid.mask
    shape = (grid.n + 1, grid.n + 1)
    alpha_i = np.asarray(init.alpha_i, dtype=float)
    beta_p = bf.beta_plus()
    alpha = np.broadcast_to(alpha_i[:, None], shape).copy()
    beta = np.broadcast_to(beta_p[None, :], shape).copy()

    def assemble(alpha, beta):
        cp, cm = char_speeds(eos, RiemannPair(alpha, beta))
        spread = cp - cm
        mu = np.where(mask, du_grid(cp, grid) / spread, 0.0)
        nu = np.where(mask, dv_grid(cm, grid) / spread, 0.0)
        ginv = gamma_inverse(bf, np.diagonal(alpha).copy(), eos, v_floor=v_floor)
        t, P, Q = solve_linear_t(mu, nu, ginv, init.h, init.dh_du, grid)
        s_edge = cumulative_trapezoid((cm * P)[:, 0], dx=d, initial=0.0)
        s = s_edge[:, None] + _ct_v(np.where(mask, cp * Q, 0.0), d)
        return t, P, Q, bf.cusp.r0 + s, s

    history: list[float] = []
    met = False
    prev = math.inf
    for _ in range(max_sweeps):
        t, P, Q, r, s = assemble(alpha, beta)
        A, B = source_terms(eos, RiemannPair(alpha, beta), r)
        alpha_new = alpha_i[:, None] + _ct_v(np.where(mask, Q * A, 0.0), d)
        beta_new = beta_p[None, :] + _from_diag(_ct_u(np.where(mask, P * B, 0.0), d))
        change = max(_sup(alpha_new - alpha, mask), _sup(beta_new - beta, mask))
        alpha, beta = alpha_new, beta_new
        history.append(change)
        if not math.isfinite(change) or (history and change > 100.0 * (history[0] + 1e-300)):
            raise NonConvergence(
                "field iteration is diverging; the domain size is too large",
                history,
                diverging=True,
            )
        if met and change >= prev:
            break
        if change < tol_inner:
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
                f"field iteration failed to reach {tol_inner:g} in {max_sweeps} sweeps",
                history,
                diverging=history[-1] > history[0],
            )
    t, P, Q, r, s = assemble(alpha, beta)
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

    cp, cm = char_speeds(eos, RiemannPair(fg.alpha, fg.beta))
    A, B = source_terms(eos, RiemannPair(fg.alpha, fg.beta), fg.r)

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
