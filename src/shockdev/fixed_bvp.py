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

Per-node work -- the state, its speeds and v eta, the source terms and the
transport integrands -- runs on the packed triangle of :meth:`TriGrid.pack`;
the stencils, the row and column integrals and the time solve run on the
(n+1, n+1) square.  No state or source term is evaluated above the diagonal.

Each full (n+1, n+1) grid stays bound only while a later line reads it,
and one that no later line reads is written over in place where a new grid
of its shape is due.  So the time solve consumes the coefficient grids it
is handed: :func:`solve_linear_t` writes its scaled coefficients into the
storage of mu and nu, and a caller that reads them afterwards passes copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import eos as eos_mod
from .errors import NonConvergence, SingularGamma
from .state import RiemannPair, sources_of, sweep_state
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

    Per-node work runs on the packed triangle: :meth:`pack` gathers the
    (n+1)(n+2)/2 nodes j <= i in C order through ``mask``, and
    :meth:`unpack` scatters them back, so no index array is stored.
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
        idx = np.arange(self.n + 1)
        self.mask = idx[None, :] <= idx[:, None]
        # entries j > i, which every solve on the grid sets to 0
        self.outside = ~self.mask
        # nodes 1 <= j <= i - 1, where a centred v-stencil stays inside
        self.v_inner = idx[None, :] < idx[:, None]
        self.v_inner[:, 0] = False

    def pack(self, X: np.ndarray) -> np.ndarray:
        """The triangle nodes of a grid, in C order."""
        return X[self.mask]

    def unpack(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Packed nodes scattered into ``out`` (a fresh zero grid by default),
        whose entries j > i are left as they are."""
        if out is None:
            out = np.zeros(self.mask.shape)
        out[self.mask] = x
        return out

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
    V = bf.speed()
    # the behind speeds alone, with num and den formed in their storage
    cp, cm, _ = sweep_state(eos, RiemannPair(alpha_on_diag, bf.beta_plus()))
    num = np.subtract(V, cm, out=cm)
    den = np.subtract(cp, V, out=cp)
    corner = v == 0.0
    if den.min() < 0:  # the mask only when some den is negative
        bad = ~corner & (den < 0)
        if bad.any():
            j = int(np.argmax(bad))
            raise SingularGamma(
                f"shock speed exceeds the behind outgoing speed at v = {v[j]:.6g} "
                f"(margin {den[j]:.3e})"
            )
    with np.errstate(divide="ignore"):
        num /= den
    num[corner] = math.inf
    return num


# Cumulative trapezoid rules from 0 along v (the last axis) and along u
# (axis 0), term for term SciPy's cumulative_trapezoid(X, dx=delta,
# initial=0), whose (delta x) / 2 is x (delta / 2) exactly.  With ``out =
# X`` they overwrite their integrand; a given ``out`` must be C-contiguous.
# Their pair sums and scalings run on contiguous memory, which NumPy
# passes over faster than 2-D row slices.

def _ct_v(X: np.ndarray, delta: float, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty(X.shape)
    # on the flattened rows; the sums at j = 0 wrap from the row before
    flat = X.reshape(-1)
    body = np.add(flat[1:], flat[:-1], out=out.reshape(-1)[1:])
    out[..., 0] = 0.0
    body *= 0.5 * delta
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def _ct_u(X: np.ndarray, delta: float, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty(X.shape)
    # on whole-row slices, cumulated down the columns
    body = np.add(X[1:], X[:-1], out=out[1:])
    out[0] = 0.0
    body *= 0.5 * delta
    np.cumsum(body, axis=0, out=body)
    return out


def _from_diag(CT: np.ndarray) -> np.ndarray:
    """Column integrals from the diagonal, CT[i, j] - CT[j, j], in place."""
    CT -= CT.diagonal().copy()
    return CT


def _sup(X: np.ndarray, mask: np.ndarray) -> float:
    """max |X| over mask, with |X| formed in X's own storage: X is a
    temporary its caller gives up.  A NaN entry in the mask gives NaN."""
    return float(np.abs(X, out=X).max(where=mask, initial=0.0))


def _rounding_floor(alpha: np.ndarray, beta: np.ndarray, mask: np.ndarray) -> float:
    """2 ulp of max(|alpha|, |beta|) on the triangle, |alpha| and then |beta|
    formed in one temporary."""
    scratch = np.abs(alpha)
    return 2.0 * np.spacing(max(_sup(scratch, mask), _sup(np.abs(beta, out=scratch), mask)))


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
    out = np.zeros(X.shape)
    if n >= 2:
        # on the flattened rows: contiguous, where the row-wise view is not
        inner = out.reshape(-1)[1:-1]
        flat = X.reshape(-1)
        np.subtract(flat[2:], flat[:-2], out=inner, where=grid.v_inner.reshape(-1)[1:-1])
        inner /= 2.0 * d
        # rows i >= 2: their first three entries are column views, their
        # last three diagonal views (out's diagonal, strided on its storage)
        out[2:, 0] = (-3.0 * X[2:, 0] + 4.0 * X[2:, 1] - X[2:, 2]) / (2.0 * d)
        out.reshape(-1)[2 * (n + 2) :: n + 2] = (
            3.0 * X.diagonal()[2:] - 4.0 * X.diagonal(-1)[1:] + X.diagonal(-2)
        ) / (2.0 * d)
    # the corner fix-ups run on Python floats, which round as NumPy's do
    out[1, :2] = (X.item(1, 1) - X.item(1, 0)) / d
    for i, j in ((1, 0), (1, 1), (0, 0)):
        sources = [out.item(k, j) for k in range(i + 1, min(i + 4, n + 1)) if k >= j]
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
    out = np.zeros(X.shape)
    if n >= 2:
        inner = out[1:-1, :]
        np.subtract(X[2:, :], X[:-2, :], out=inner, where=grid.mask[:-2, :])
        inner /= 2.0 * d
        # columns j <= n - 2: their first three entries are diagonal views
        # (out's diagonal, strided on its storage), their last three row views
        out.reshape(-1)[: (n - 1) * (n + 2) : n + 2] = (
            -3.0 * X.diagonal()[: n - 1]
            + 4.0 * X.diagonal(-1)[: n - 1]
            - X.diagonal(-2)
        ) / (2.0 * d)
        out[n, : n - 1] = (
            3.0 * X[n, : n - 1] - 4.0 * X[n - 1, : n - 1] + X[n - 2, : n - 1]
        ) / (2.0 * d)
    out[n - 1 :, n - 1] = (X.item(n, n - 1) - X.item(n - 1, n - 1)) / d
    for i, j in ((n - 1, n - 1), (n, n - 1), (n, n)):
        sources = [out.item(i, k) for k in range(j - 1, max(j - 4, -1), -1) if k >= 0]
        fixed = _extrapolate_entry(sources)
        if fixed is not None:
            out[i, j] = fixed
    return out


_NON_FINITE_T = "time solve produced non-finite values"


def solve_linear_t(mu_grid: np.ndarray, nu_grid: np.ndarray, gamma_inv_diag, dh_du, grid: TriGrid):
    """Solve the linear problem for the slopes of the time coordinate at
    frozen coefficients.

    The derivative grids are the unknowns.  With P = dt/du, Q = dt/dv and
    the frozen coefficients mu = (dc+/du)/(c+ - c-), nu = (dc-/dv)/(c+ - c-),
    the cross-derivative relation turns into the pair of Volterra equations

        P(u, v) = e^{k} [h'(u) - int_0^v e^{-k} mu Q dv'],  k = int_0^v nu dv'
        Q(u, v) = e^{-l} [a(v) + int_v^u e^{l} nu P du'],   l = int_v^u mu du'

    closed on the diagonal by a(v) = P(v, v) / gamma(v), with a(0) = 0 and
    a = 0 wherever P(v, v) = 0 (where gamma_inv may be +inf).  The
    trapezoid discretization of the pair is triangular, so one pass over
    the rows u_i solves it directly, with no tolerance: the column integrals
    advance by one panel per row, the row integral obeys a first-order
    linear recurrence along the row (the end-point weight couples P and Q
    at each node), and the diagonal node closes through gamma_inv.  The
    march works in the scaled variables of :func:`_march_linear_t`, in
    seven in-place NumPy calls per row, and closes the diagonal node in
    Python floats.  t itself, h(u) + int_0^v Q dv', is left to the caller
    that keeps it (:func:`_t_grid`).

    The solve overwrites ``mu_grid`` and ``nu_grid``: it forms its scaled
    coefficients in their storage (for a grid that is not C-contiguous
    float64, in a copy), and Q is returned in nu_grid's.  A caller that
    reads either grid after the call passes a copy.  Entries of mu and nu
    outside the triangle do not reach P or Q, whatever their values.

    Returns:
        (P, Q) as (n+1, n+1) arrays, 0 outside the triangle (j > i).

    Raises:
        NonConvergence: non-finite values in the triangle, including an
            infinite gamma_inv at a node v > 0 whose diagonal P is nonzero,
            or a diagonal closure whose denominator vanishes.
    """
    P, Q = _march_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid)
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise NonConvergence(_NON_FINITE_T, diverging=True)
    return P, Q


def _t_grid(h, Q: np.ndarray, delta: float) -> np.ndarray:
    """t = h(u) + int_0^v Q dv', so the data t(u, 0) = h(u) is exact at the nodes."""
    t = _ct_v(Q, delta)
    t += np.asarray(h, dtype=float)[:, None]
    return t


def _march_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid: TriGrid):
    """P and Q of :func:`solve_linear_t`, 0 outside the triangle and not
    yet checked for finiteness.

    With the integrating factors carried in scaled variables, F' = e^{-k-l}
    mu and G' = half e^{k+l} nu, row i off the diagonal has P = e^{k}
    (h'(u_i) - R) and Q = e^{-l} (U - G' R): R is the trapezoid row integral
    of F' (U - G' R) from v = 0, and U is a(v) plus the trapezoid column
    integral of e^{l} nu P from the diagonal, whose end-point term of row
    i, G' (h'(u_i) - R), enters U only as G' h'(u_i).  So
    R_j (1 + c_j) = R_{j-1} (1 - c_{j-1}) + half ((F'U)_{j-1} + (F'U)_j)
    with c = half F' G', and rho = R / prod is the cumulative sum of W_j
    ((F'U)_{j-1} + (F'U)_j), with prod_j = A_1...A_j, A_j = (1 - c_{j-1}) /
    (1 + c_j) and W_j = half / ((1 + c_j) prod_j); the next row's U is
    U + D_i - 2 G' prod rho with D_i = G' h'(u_i) + G'_{i+1} h'(u_{i+1}).
    Every product that does not change along the march is formed once on
    the whole grid; a row then costs seven NumPy calls on whole-row views,
    and P and Q are formed from rho and U once after the march.
    """
    n = grid.n
    half = 0.5 * grid.delta
    dh = np.asarray(dh_du, dtype=float)
    # F' and G' are formed in the storage of mu and nu, both taken in
    # row-major order, which the flattened passes read.  Only mu's column
    # integral starts above the diagonal, so mu alone is zeroed outside the
    # triangle; nu feeds row integrals from v = 0, whose entries j > i
    # never reach an entry j < i.
    mu = np.ascontiguousarray(mu_grid, dtype=float)
    nu = np.ascontiguousarray(nu_grid, dtype=float)
    if np.may_share_memory(mu, nu):
        nu = nu.copy()
    outside = grid.outside
    np.copyto(mu, 0.0, where=outside)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # e^{k} and e^{-l}, the only two exponentials; then F' in mu's
        # storage and G' in nu's
        ek = _ct_v(nu, grid.delta)
        np.exp(ek, out=ek)
        # -l = CT[j, j] - CT[i, j], -(CT[i, j] - CT[j, j]) but for a 0's sign
        el = _ct_u(mu, grid.delta)
        np.subtract(el.diagonal().copy(), el, out=el)
        np.exp(el, out=el)
        F = mu
        F *= el
        F /= ek
        G = nu
        G *= ek
        G /= el
        G *= half
        del mu, nu
        c = np.multiply(F, G)
        c *= half
        W = np.add(1.0, c)
        np.reciprocal(W, out=W)
        # A_j on the flattened rows, whose contiguous pass needs no buffer;
        # the wrapped entries j = 0 are then set to prod_0 = 1
        prod = np.empty(W.shape)
        flat = prod.reshape(-1)
        np.subtract(1.0, c.reshape(-1)[:-1], out=flat[1:])
        flat[1:] *= W.reshape(-1)[1:]
        prod[:, 0] = 1.0
        np.multiply.accumulate(prod, axis=1, out=prod)
        W *= np.divide(half, prod, out=c)
        # rho is written over W's rows, and rho_0 = 0 is never written
        W[:, 0] = 0.0
        # the diagonal closure, in Python floats taken by one tolist; entry
        # (i, i - 1) of a sub-diagonal at i, den_d = 1 + half F' e^{k} gamma_inv
        dg = np.zeros((9, n + 1))
        dg[[0, 3, 7, 8]] = ek.diagonal(), G.diagonal(), gamma_inv_diag, dh
        dg[[1, 4, 6], 1:] = half * F.diagonal(-1), G.diagonal(-1), prod.diagonal(-1)
        dg[2] = half * F.diagonal() * dg[0] * dg[7] + 1.0
        dg[5, :-1] = dg[4, 1:] * dh[1:]
        ek_d, halfF_sub, den_d, G_d, G_sub, Gh_next, prod_sub, ginv, dhl = dg.tolist()
        del dg
        # D_i in c's storage, by a forward pass on the flattened rows that
        # reads each row before it is written; row i of Z then holds U_{i+1}
        Z = np.multiply(G, dh[:, None], out=c)
        zf = Z.reshape(-1)
        np.add(zf[: -(n + 1)], zf[n + 1 :], out=zf[: -(n + 1)])
        del c, zf
        # 2 G' prod, in G's storage
        G *= prod
        G *= 2.0

        p_d = [dhl[0]]
        q_d = [0.0]
        # Each row is computed at full length, on whole-row views: its
        # entries j >= i feed no entry j < i, the diagonal one is closed
        # below, and those beyond the diagonal are zeroed after the march.
        # The last row's update writes U_{n+1}, which nothing reads.
        FU = np.empty(n + 1)
        ps = np.empty(n)
        fu0, fu1 = FU[:-1], FU[1:]
        T = np.empty(n + 1)
        # out passed positionally: a keyword out costs more per call
        add, sub, mul, acc = np.add, np.subtract, np.multiply, np.add.accumulate
        rows = zip(F[1:], Z, Z[1:], W[1:], W[1:, 1:], G[1:])
        for i, (f, u, z, rho, r, g2) in enumerate(rows, 1):
            mul(f, u, FU)
            add(fu0, fu1, ps)
            mul(ps, r, r)
            acc(r, 0, None, r)
            mul(g2, rho, T)
            sub(z, T, z)
            add(z, u, z)
            # R and U - G'R at the node before the diagonal close it
            R = prod_sub[i] * rho.item(i - 1)
            b = dhl[i] - R - halfF_sub[i] * (u.item(i - 1) - G_sub[i] * R)
            # an infinite gamma_inv leaves Q = NaN here unless b = 0
            pt = p_ii = q_ii = 0.0
            if b != 0.0:
                den = den_d[i]
                if den == 0.0:
                    raise NonConvergence(_NON_FINITE_T, diverging=True)
                pt = b / den
                p_ii = ek_d[i] * pt
                q_ii = ginv[i] * p_ii
            p_d.append(p_ii)
            q_d.append(q_ii)
            z[i] = q_ii + G_d[i] * pt + Gh_next[i]

        # P = e^{k} (h' - prod rho) in prod's storage, and Q = e^{-l}
        # (U - G' prod rho) in G's, row i of Q from row i - 1 of Z
        prod *= W
        P = np.subtract(dh[:, None], prod, out=prod)
        P *= ek
        Q = G
        Q *= W
        Q *= 0.5
        np.subtract(Z[:-1], Q[1:], out=Q[1:])
        Q *= el
        P.reshape(-1)[:: n + 2] = p_d
        Q.reshape(-1)[:: n + 2] = q_d
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
    the corner.  The radius itself, ``r``, is formed from it on each read.
    """

    grid: TriGrid
    t: np.ndarray
    r0: float
    r_off: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dt_du: np.ndarray
    dt_dv: np.ndarray
    sweeps: int = 0
    changes: list = field(default_factory=list)

    @property
    def r(self) -> np.ndarray:
        """The radius r0 + r_off, a fresh grid on each read."""
        return self.r0 + self.r_off

    def diagonal(self, name: str) -> np.ndarray:
        """Samples of a field along the shock diagonal u = v."""
        return getattr(self, name).diagonal().copy()

    @property
    def rounding_floor(self) -> float:
        """2 ulp of max(|alpha|, |beta|) on the triangle: the sweep change
        that rounding alone leaves, the floor :func:`solve_fixed_bvp` stops on."""
        return _rounding_floor(self.alpha, self.beta, self.grid.mask)


def _check_nodes(init: InitialData, bf: BoundaryFunctions, grid: TriGrid) -> None:
    # both sample sets in one pass, a set of another shape taken as NaN; a
    # NaN deviation fails the comparison, so NaN and +-inf samples fail too
    named, nodes = (("initial data", init.u), ("boundary", bf.v)), grid.nodes
    sets = [x if x.shape == nodes.shape else np.full(nodes.shape, np.nan) for _, x in named]
    for (name, _), dev in zip(named, np.abs(np.subtract(sets, nodes)).max(axis=1)):
        if not dev <= 1e-14 * grid.eps:
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
    between its full inner solves, and to polish its converged iterate.

    Raises:
        NonConvergence: ``_MAX_SWEEPS`` sweeps ran without the change
            falling below ``_TOL_INNER``, a sweep change is not finite or
            grows by 100x over the first (the domain size is too large for
            contraction), or the time solve met non-finite values.
        SingularGamma, OutOfRange: propagated from the coefficients.
    """
    _check_nodes(init, bf, grid)
    d = grid.delta
    mask = grid.mask
    shape = (grid.n + 1, grid.n + 1)
    alpha_i = np.asarray(init.alpha_i, dtype=float)
    beta_p = bf.beta_plus()
    r0 = float(bf.cusp.r0)

    def assemble(alpha, beta):
        """P, Q and r - r0 at (alpha, beta), and v eta on the packed
        triangle, all that a sweep's transport sources read of the state."""
        cp, cm, ve = sweep_state(eos, RiemannPair(grid.pack(alpha), grid.pack(beta)))
        # the speeds on the square for the stencils and the radius integrand,
        # c+ over 1s and c- over 0s: mu and nu stay 0 outside the triangle
        cp = grid.unpack(cp, np.ones(shape))
        cm = grid.unpack(cm)
        spread = cp - cm
        # solve_linear_t reads no coefficient outside the triangle, and
        # forms its own in the storage of mu and nu
        mu = du_grid(cp, grid)
        mu /= spread
        nu = dv_grid(cm, grid)
        nu /= spread
        cm_edge = cm[:, 0].copy()
        del spread, cm
        ginv = gamma_inverse(bf, alpha.diagonal().copy(), eos)
        P, Q = solve_linear_t(mu, nu, ginv, init.dh_du, grid)
        del mu, nu
        s_edge = _ct_v(cm_edge * P[:, 0], d)
        # P and Q are 0 outside the triangle, so are their products with
        # finite coefficients: a -0.0 adds as +0.0 to every integral from
        # v = 0 or u = 0.  cp is read for the last time here
        s = _ct_v(np.multiply(cp, Q, out=cp), d, out=cp)
        s += s_edge[:, None]
        return P, Q, s, ve

    if warm is None:
        alpha = np.broadcast_to(alpha_i[:, None], shape).copy()
        beta = np.broadcast_to(beta_p[None, :], shape).copy()
    else:
        alpha, beta = warm
    history: list[float] = []
    met = False
    prev = math.inf
    for _ in range(_MAX_SWEEPS if warm is None else 1):
        P, Q, s, ve = assemble(alpha, beta)
        A, B = sources_of(ve, r0 + grid.pack(s))
        del ve
        # Q A and P B on the packed triangle; a cold sweep reads its P and Q
        # for the last time here, so they are scattered into their storage,
        # and the warm sweep, which returns them, scatters into fresh grids
        cold = warm is None
        alpha_new = grid.unpack(np.multiply(grid.pack(Q), A, out=A), Q if cold else None)
        beta_new = grid.unpack(np.multiply(grid.pack(P), B, out=B), P if cold else None)
        del A, B
        _ct_v(alpha_new, d, out=alpha_new)
        alpha_new += alpha_i[:, None]
        _from_diag(_ct_u(beta_new, d, out=beta_new))
        beta_new += beta_p[None, :]
        if cold:
            del P, Q, s
        # a cold sweep discards its iterate, so its change is formed there;
        # a warm sweep's iterate belongs to the caller
        change = max(
            _sup(np.subtract(alpha_new, alpha, out=alpha if cold else None), mask),
            _sup(np.subtract(beta_new, beta, out=beta if cold else None), mask),
        )
        alpha, beta = alpha_new, beta_new
        history.append(change)
        if not math.isfinite(change) or (history and change > 100.0 * (history[0] + 1e-300)):
            raise NonConvergence(
                "field iteration is diverging; the domain size is too large",
                history,
                diverging=True,
            )
        if warm is not None:
            # returns the warm sweep's own P, Q and r with the new fields
            break
        if met and change >= prev:
            break
        if change < _TOL_INNER:
            met = True
            if change == 0.0:
                break
            if len(history) >= 2:
                if change * min(1.0, change / prev) <= _rounding_floor(alpha, beta, mask):
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
        P, Q, s, _ = assemble(alpha, beta)
    # only the returned Q is integrated for t: a cold sweep discards its t
    return FieldGrid(
        grid=grid,
        t=_t_grid(init.h, Q, d),
        r0=r0,
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
    The derivatives are those of :func:`dv_grid` and :func:`du_grid`, and
    residual maxima are taken over nodes where their centered stencil fits
    inside the triangle, so no one-sided or corner entry is read.

    Returns:
        dict with per-equation maxima ("alpha", "beta", "radius_out",
        "radius_in", "time_out", "time_in") and their overall "max".
    """
    grid = fg.grid
    n = grid.n
    P, Q = fg.dt_du, fg.dt_dv
    res = dict.fromkeys(("alpha", "beta", "radius_out", "radius_in", "time_out", "time_in"))

    def record(name, D, mask, dT, coef=None):
        """The sup over ``mask`` of D - coef dT, formed in place in D; a
        coefficient grid is read for the last time here and takes dT."""
        if coef is not None:
            dT = np.multiply(coef, dT, out=coef)
        D -= dT
        res[name] = _sup(D, mask)

    # the state and sources on the packed triangle, as a sweep takes them;
    # each coefficient grid is scattered when its residual is due and
    # released after it: the speeds, then the sources from v eta, whose
    # radius r0 + r_off is formed for them alone
    cp, cm, ve = sweep_state(eos, RiemannPair(grid.pack(fg.alpha), grid.pack(fg.beta)))
    # stencil validity: centered in v needs 1 <= j <= i - 1; centered in u
    # needs j + 1 <= i <= n - 1
    mask_v = grid.v_inner
    mask_u = np.tri(n + 1, k=-1, dtype=bool)
    mask_u[n] = False
    record("radius_out", dv_grid(fg.r_off, grid), mask_v, Q, grid.unpack(cp))
    del cp
    record("radius_in", du_grid(fg.r_off, grid), mask_u, P, grid.unpack(cm))
    del cm
    A, B = sources_of(ve, fg.r0 + grid.pack(fg.r_off))
    del ve
    alpha_i = np.asarray(init.alpha_i, dtype=float)[:, None]
    record("alpha", dv_grid(fg.alpha - alpha_i, grid), mask_v, Q, grid.unpack(A))
    del A
    record("beta", du_grid(fg.beta - bf.beta_plus()[None, :], grid), mask_u, P, grid.unpack(B))
    del B
    record("time_out", dv_grid(fg.t, grid), mask_v, Q)
    record("time_in", du_grid(fg.t, grid), mask_u, P)
    res["max"] = max(res.values())
    return res


def write_grid_csv(fg: FieldGrid, path) -> None:
    """Dump the triangle nodes as CSV with 17 significant digits."""
    cols = ("t", "r", "alpha", "beta", "dt_du", "dt_dv")
    # one format per row, on Python floats: %.16e gives the same bytes for
    # a float and a NumPy float64, and a list row is cheaper to read
    fields = [getattr(fg, c).tolist() for c in cols]
    nodes = fg.grid.nodes.tolist()
    line = "%d,%d" + ",%.16e" * (2 + len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i,j,u,v," + ",".join(cols) + "\n")
        for i in range(fg.grid.n + 1):
            row_i = zip(*(f[i][: i + 1] for f in fields))
            fh.writelines(
                line % (i, j, nodes[i], nodes[j], *vals) for j, vals in enumerate(row_i)
            )
