"""Tests for the characteristic-triangle inner solver."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

import shockdev.eos as E
import shockdev.fitting as fitting
import shockdev.fixed_bvp as FB
import shockdev.free_boundary as FBD
import shockdev.state_ahead as SA
from shockdev.errors import NonConvergence, OutOfRange, SingularGamma
from shockdev.state import RiemannPair, char_speeds, sweep_state, wave_state
from test_state_ahead import sequential_march

EPS = 0.01
ROOT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def cusp(rad):
    return SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.3)


@pytest.fixture(scope="module")
def model(rad, cusp):
    return SA.synthesize_model(cusp, rad, eps=EPS)


@pytest.fixture(scope="module")
def moving_cusp(rad):
    return SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, alpha0=0.4, dbeta_dt0=0.3)


@pytest.fixture(scope="module")
def moving_model(rad, moving_cusp):
    return SA.synthesize_model(moving_cusp, rad, eps=EPS)


def canonical_solve(rad, cusp, model, n, eps=EPS):
    grid = FB.TriGrid(eps, n)
    init = SA.initial_data(model, rad, eps, n)
    bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
    fg = FB.solve_fixed_bvp(bf, init, rad, grid)
    return fg, bf, init


@pytest.fixture(scope="module")
def base_run(rad, cusp, model):
    return canonical_solve(rad, cusp, model, 64)


@pytest.fixture(scope="module")
def half_run(rad, cusp, model):
    return canonical_solve(rad, cusp, model, 32)


class TestTriGrid:
    def test_nodes_and_mask(self):
        g = FB.TriGrid(0.01, 4)
        assert g.delta == pytest.approx(0.0025)
        assert g.nodes.shape == (5,)
        assert g.nodes[-1] == pytest.approx(0.01)
        assert g.mask.shape == (5, 5)
        assert g.mask[3, 3] and g.mask[3, 0]
        assert not g.mask[2, 3]

    @pytest.mark.parametrize("eps,n", [(0.0, 4), (-1.0, 4), (math.inf, 4), (0.01, 0), (0.01, 2.5)])
    def test_validation(self, eps, n):
        with pytest.raises(ValueError):
            FB.TriGrid(eps, n)

    def test_grid_and_solve_settings_share_one_floor(self, rad, canon_model, canon_cusp):
        # MIN_N = 3: the grid and the solve's entry check both refuse n = 2
        # with the text of grid_errors, and take n = 3
        assert FB.MIN_N == 3
        [(name, text)] = FB.grid_errors(0.01, 2)
        assert (name, text) == ("n", "must be at least 3, got 2")
        with pytest.raises(ValueError, match=rf"^{name} {text}$"):
            FB.TriGrid(0.01, 2)
        with pytest.raises(ValueError, match=rf"^{name} {text}$"):
            FBD.run_shock_development(rad, canon_model, canon_cusp, eps=0.01, n=2)
        assert FB.grid_errors(0.01, 3) == []
        assert FB.TriGrid(0.01, 3).n == 3
        with pytest.raises(ValueError, match=r"^n must be an integer, got 3.5$"):
            FB.TriGrid(0.01, 3.5)

    @pytest.mark.parametrize("n", [3, 4, 16])
    def test_node_sets(self, n):
        g = FB.TriGrid(0.01, n)
        i, j = np.indices((n + 1, n + 1))
        assert np.array_equal(g.mask, j <= i)
        assert np.array_equal(g.outside, j > i)
        assert np.array_equal(g.v_inner, (1 <= j) & (j <= i - 1))
        assert np.array_equal(g.u_inner, (j + 1 <= i) & (i <= n - 1))

    def test_pack_gathers_the_triangle_in_c_order(self):
        g = FB.TriGrid(0.01, 4)
        X = np.arange(25.0).reshape(5, 5)
        x = g.pack(X)
        assert x.tolist() == [X[i, j] for i in range(5) for j in range(i + 1)]
        assert np.array_equal(g.unpack(x), np.tril(X))
        out = np.full((5, 5), -1.0)
        assert g.unpack(x, out) is out
        assert np.array_equal(out[g.mask], x) and (out[g.outside] == -1.0).all()

    @pytest.mark.parametrize("law", ["rad", "p2"])
    @pytest.mark.parametrize("n", [3, 16, 257])
    def test_packed_sweep_state_matches_the_square(self, law, n, rng, request):
        # the state is evaluated node by node, so the packed triangle gives
        # the square's bits on every triangle node
        eos = request.getfixturevalue(law)
        g = FB.TriGrid(EPS, n)
        alpha = rng.uniform(-0.3, 0.3, (n + 1, n + 1))
        beta = rng.uniform(-0.3, 0.3, (n + 1, n + 1))
        packed = sweep_state(eos, RiemannPair(g.pack(alpha), g.pack(beta)))
        square = sweep_state(eos, RiemannPair(alpha, beta))
        for got, ref in zip(packed, square):
            assert got.shape == ((n + 1) * (n + 2) // 2,)
            assert got.tobytes() == g.pack(ref).tobytes()


class TestBoundaryFunctions:
    def test_seed_values(self, cusp):
        g = FB.TriGrid(EPS, 8)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes)
        assert np.all(bf.y == -1.0)
        assert np.all(bf.beta_hat_plus == pytest.approx(0.05))
        assert np.all(bf.V_hat == 0.0)

    def test_corner_enforcement(self, cusp):
        g = FB.TriGrid(EPS, 4)
        bf = FB.BoundaryFunctions(
            cusp=cusp,
            v=g.nodes,
            y=np.full(5, -0.9),
            beta_hat_plus=np.full(5, 99.0),
            V_hat=np.zeros(5),
        )
        assert bf.y[0] == -1.0
        assert bf.beta_hat_plus[0] == pytest.approx(cusp.beta_hat0)
        assert np.all(bf.y[1:] == -0.9)
        assert np.all(bf.beta_hat_plus[1:] == 99.0)

    def test_unhatting(self, cusp):
        rng = np.random.default_rng(7)
        g = FB.TriGrid(EPS, 16)
        v = g.nodes
        y = -1.0 + 0.2 * rng.random(17)
        bhp = rng.normal(size=17)
        vh = rng.normal(size=17)
        bf = FB.BoundaryFunctions(cusp=cusp, v=v, y=y, beta_hat_plus=bhp, V_hat=vh)
        assert np.allclose(bf.beta_plus(), cusp.beta0 + v**2 * bf.beta_hat_plus, atol=0)
        expect = cusp.c_plus0 + 0.5 * cusp.kappa * (1 + bf.y) * v + v**2 * bf.V_hat
        assert np.allclose(bf.speed(), expect, atol=0)

    def test_replace(self, cusp):
        g = FB.TriGrid(EPS, 4)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes)
        bf2 = bf.replace(V_hat=np.full(5, 2.0))
        assert np.all(bf2.V_hat == 2.0)
        assert np.all(bf.V_hat == 0.0)
        assert bf2.y is not bf.y

    def test_length_mismatch(self, cusp):
        with pytest.raises(ValueError):
            FB.BoundaryFunctions(
                cusp=cusp,
                v=np.zeros(4),
                y=np.zeros(5),
                beta_hat_plus=np.zeros(4),
                V_hat=np.zeros(4),
            )


class TestGammaInverse:
    def test_corner_blowup_rate(self, rad, cusp):
        g = FB.TriGrid(EPS, 64)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes)
        alpha_diag = cusp.alpha0 + cusp.alpha_dot0 * g.nodes
        ginv = FB.gamma_inverse(bf, alpha_diag, rad)
        assert ginv[0] == math.inf
        scale = (cusp.c_plus0 - cusp.c_minus0) / cusp.kappa
        assert ginv[1] * g.nodes[1] == pytest.approx(scale, rel=0.02)
        assert ginv[2] * g.nodes[2] == pytest.approx(scale, rel=0.02)
        assert np.all(np.diff(ginv[1:]) < 0)

    def test_singular_raises(self, rad, cusp):
        g = FB.TriGrid(EPS, 16)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes).replace(V_hat=np.full(17, 1e3))
        alpha_diag = cusp.alpha0 + cusp.alpha_dot0 * g.nodes
        with pytest.raises(SingularGamma):
            FB.gamma_inverse(bf, alpha_diag, rad)

    def test_exactly_sonic_returns_inf(self, rad):
        cusp0 = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.0)
        g = FB.TriGrid(EPS, 8)
        bf = FB.BoundaryFunctions.seed(cusp0, g.nodes)
        alpha_diag = np.full(9, cusp0.alpha0)
        ginv = FB.gamma_inverse(bf, alpha_diag, rad)
        assert np.all(np.isinf(ginv))

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_infinite_only_at_the_corner(self, rad, cusp, n):
        g = FB.TriGrid(EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes)
        alpha_diag = cusp.alpha0 + cusp.alpha_dot0 * g.nodes
        ginv = FB.gamma_inverse(bf, alpha_diag, rad)
        assert ginv[0] == math.inf
        assert np.all(np.isfinite(ginv[1:])) and np.all(ginv[1:] > 0)
        # node 1 against the leading corner expansion (c+0 - c-0)/((kappa/2)(1 - y) v)
        v1, y1 = g.nodes[1], bf.y[1]
        lead = (cusp.c_plus0 - cusp.c_minus0) / (0.5 * cusp.kappa * (1.0 - y1) * v1)
        assert ginv[1] == pytest.approx(lead, rel=0.05)


def second_order_line(vals, d):
    """2nd-order derivative of uniform samples: centered inside, one-sided at ends."""
    m = len(vals)
    out = np.empty(m)
    if m == 1:
        out[0] = 0.0
    elif m == 2:
        out[:] = (vals[1] - vals[0]) / d
    else:
        out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * d)
        out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * d)
        out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * d)
    return out


def per_line_dv(X, grid):
    """Reference for dv_grid: one stencil line per row, then the corner fill."""
    n = grid.n
    out = np.zeros_like(X)
    for i in range(n + 1):
        out[i, : i + 1] = second_order_line(X[i, : i + 1], grid.delta)
    for i, j in ((1, 0), (1, 1), (0, 0)):
        out[i, j] = FB._extrapolate_entry(
            [out[k, j] for k in range(i + 1, min(i + 4, n + 1)) if k >= j]
        )
    return out


def per_line_du(X, grid):
    """Reference for du_grid: one stencil line per column, then the corner fill."""
    n = grid.n
    out = np.zeros_like(X)
    for j in range(n + 1):
        out[j:, j] = second_order_line(X[j:, j], grid.delta)
    for i, j in ((n - 1, n - 1), (n, n - 1), (n, n)):
        out[i, j] = FB._extrapolate_entry(
            [out[i, k] for k in range(j - 1, max(j - 4, -1), -1) if k >= 0]
        )
    return out


class TestGridDerivatives:
    @pytest.mark.parametrize("n", [3, 4, 16, 64, 256])
    def test_bit_identical_to_per_line_reference(self, n, rng):
        g = FB.TriGrid(EPS, n)
        X = rng.normal(size=(n + 1, n + 1))
        assert np.array_equal(FB.dv_grid(X, g), per_line_dv(X, g))
        assert np.array_equal(FB.du_grid(X, g), per_line_du(X, g))

    @pytest.mark.parametrize("n", [3, 16, 257])
    def test_reads_only_the_triangle(self, n, rng):
        # bit for bit the per-line reference with NaN outside the triangle,
        # which neither derivative may read
        g = FB.TriGrid(EPS, n)
        X = rng.normal(size=(n + 1, n + 1))
        want_v, want_u = per_line_dv(X, g), per_line_du(X, g)
        X[~g.mask] = math.nan
        for layout in (X, np.asfortranarray(X)):
            assert np.array_equal(FB.dv_grid(layout, g), want_v)
            assert np.array_equal(FB.du_grid(layout, g), want_u)

    def test_quadratic_is_exact(self):
        g = FB.TriGrid(EPS, 8)
        U, V = grid_uv(g)
        X = 2.0 * U**2 - 3.0 * U * V + V**2
        assert np.allclose(FB.du_grid(X, g)[g.mask], (4.0 * U - 3.0 * V)[g.mask], atol=1e-12)
        assert np.allclose(FB.dv_grid(X, g)[g.mask], (2.0 * V - 3.0 * U)[g.mask], atol=1e-12)


class TestSup:
    @pytest.mark.parametrize("n", [2, 16, 64, 256])
    def test_equals_the_gathered_form(self, n, rng):
        # bit for bit float(np.max(np.abs(X[mask]))), the form that copied
        # the masked entries and then their absolute values
        shape = (n + 1, n + 1)
        masks = (np.tri(n + 1, dtype=bool), np.tri(n + 1, k=-1, dtype=bool) | np.eye(n + 1, dtype=bool))
        for nan_frac in (0.0, 0.01, 0.5, 1.0):
            X = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300)
            X[rng.random(shape) < 0.05] = -0.0
            X[rng.random(shape) < nan_frac] = math.nan
            for mask in (*masks, rng.random(shape) < 0.3):
                mask.flat[0] = True
                want = float(np.max(np.abs(X[mask])))
                got = FB._sup(X.copy(), mask)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_entries_outside_the_mask_are_not_read(self, rng):
        X = rng.normal(size=(9, 9))
        mask = np.tri(9, dtype=bool)
        want = float(np.max(np.abs(X[mask])))
        X[~mask] = math.nan
        assert FB._sup(X, mask) == want


def sliced_ct_v(X, delta, out=None):
    """Reference: the cumulative trapezoid along v on 2-D row slices, the
    form the contiguous passes of ``_ct_v`` and ``_ct_u`` replace; along u
    it is ``sliced_ct_v(X.T, delta).T``."""
    if out is None:
        out = np.empty_like(X)
    body = np.add(X[..., 1:], X[..., :-1], out=out[..., 1:])
    out[..., 0] = 0.0
    body *= delta
    body /= 2.0
    np.cumsum(body, axis=-1, out=body)
    return out


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestCumulativeTrapezoid:
    """The NumPy rules are bit-identical to the SciPy oracle."""

    @pytest.mark.parametrize("n", [2, 3, 65, 257])
    def test_grid_axes_match_scipy(self, n, rng):
        X = rng.normal(size=(n, n))
        d = 0.5 / (n - 1)
        assert np.array_equal(FB._ct_v(X, d), cumulative_trapezoid(X, dx=d, axis=1, initial=0.0))
        assert np.array_equal(FB._ct_u(X, d), cumulative_trapezoid(X, dx=d, axis=0, initial=0.0))
        # along u through the transpose, as the row rule reads any layout
        assert np.array_equal(
            FB._ct_v(X.T, d).T, cumulative_trapezoid(X, dx=d, axis=0, initial=0.0)
        )

    @pytest.mark.parametrize("n", [3, 64, 256])
    @pytest.mark.parametrize("masked", [False, True], ids=["random", "triangle"])
    def test_contiguous_passes_match_row_slices_bit_for_bit(self, n, masked, rng):
        # the flattened row pass and the whole-row column pass do the
        # sliced form's arithmetic in its order, in place or into a new grid
        g = FB.TriGrid(EPS, n)
        X = rng.normal(size=(n + 1, n + 1))
        if masked:
            X[g.outside] = 0.0
        d = g.delta
        want_v = sliced_ct_v(X, d)
        want_u = sliced_ct_v(X.T, d).T
        assert same_bits(FB._ct_v(X, d), want_v)
        assert same_bits(FB._ct_u(X, d), want_u)
        for rule, want in ((FB._ct_v, want_v), (FB._ct_u, want_u)):
            Y = X.copy()
            assert rule(Y, d, out=Y) is Y
            assert same_bits(Y, want)
            out = np.full_like(X, np.nan)
            assert rule(X, d, out=out) is out
            assert same_bits(out, want)

    @pytest.mark.parametrize("n", [2, 3, 65, 257])
    def test_one_dimensional_matches_scipy(self, n, rng):
        x = rng.normal(size=n)
        d = 0.01 / (n - 1)
        assert np.array_equal(FB._ct_v(x, d), cumulative_trapezoid(x, dx=d, initial=0.0))


def grid_uv(g):
    """(u, v) at every node of ``g``, as read-only (n+1, n+1) arrays [i, j]."""
    shape = g.mask.shape
    return np.broadcast_to(g.nodes[:, None], shape), np.broadcast_to(g.nodes[None, :], shape)


def manufactured_case(n, eps=0.5):
    """Exact solution of the linear pair with corner-compatible data.

    t = u + u^2/2 + u v^2 + v^2/2, so dt/du = 1 + u + v^2 and
    dt/dv = v (2u + 1), which vanishes on the data edge as required.
    """
    g = FB.TriGrid(eps, n)
    U, V = grid_uv(g)
    P_ex = 1 + U + V**2
    Q_ex = V * (2 * U + 1)
    nu = V * (0.3 + U)
    mu = ((0.3 + U) * (1 + U + V**2) - 2.0) / (2 * U + 1)
    h = g.nodes + g.nodes**2 / 2
    dh = 1 + g.nodes
    vd = g.nodes
    ginv = vd * (2 * vd + 1) / (1 + vd + vd**2)
    t_ex = U + U**2 / 2 + U * V**2 + V**2 / 2
    return g, mu, nu, ginv, h, dh, P_ex, Q_ex, t_ex


def picard_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid, tol=1e-12, max_iter=400):
    """Reference: the time solve by Picard iteration of the discrete pair.

    Iterates the trapezoid-discretized Volterra pair from Q = 0 until the
    sup-norm change drops below ``tol``, then polishes while it still
    strictly decreases; the direct march must reproduce this fixed point.
    Returns (P, Q).
    """
    d = grid.delta
    mask = grid.mask
    dh = np.asarray(dh_du, dtype=float)
    ginv = np.asarray(gamma_inv_diag, dtype=float)
    mu = np.where(mask, mu_grid, 0.0)
    nu = np.where(mask, nu_grid, 0.0)

    def ct_v(X):
        return cumulative_trapezoid(X, dx=d, axis=1, initial=0.0)

    def ct_u_from_diag(X):
        CT = cumulative_trapezoid(X, dx=d, axis=0, initial=0.0)
        return CT - np.diagonal(CT)[None, :]

    K = ct_v(-nu)
    L = ct_u_from_diag(mu)
    P = np.zeros_like(mu)
    Q = np.zeros_like(mu)
    history = []
    met = False
    prev = math.inf
    for _ in range(max_iter):
        P_new = np.exp(-K) * (dh[:, None] - ct_v(np.exp(K) * mu * Q))
        b = np.diagonal(P_new).copy()
        with np.errstate(invalid="ignore"):
            a = np.where(b == 0.0, 0.0, b * ginv)
        a[0] = 0.0
        Q_new = np.exp(-L) * (
            a[None, :] + ct_u_from_diag(np.where(mask, np.exp(L) * nu * P_new, 0.0))
        )
        change = max(np.max(np.abs(P_new - P)[mask]), np.max(np.abs(Q_new - Q)[mask]))
        P, Q = P_new, Q_new
        history.append(change)
        if not math.isfinite(change):
            raise NonConvergence("non-finite update", history, diverging=True)
        if met and change >= prev:
            break
        if change < tol:
            met = True
            if change == 0.0:
                break
        prev = change
    else:
        if not met:
            raise NonConvergence("budget exhausted", history)
    return P, Q


def row_loop_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid):
    """Reference: the direct march in unscaled variables, every row product
    formed in the loop.

    The package's former time solve: the same trapezoid system and
    diagonal closure with the integrating factors e^{+-K}, e^{+-L} taken
    apart (four exponentials), about 22 NumPy calls per row and the
    diagonal node closed in NumPy scalars.  The scaled march agrees with it
    to rounding.  Returns (P, Q).
    """
    n = grid.n
    d = grid.delta
    half = 0.5 * d
    mask = grid.mask
    dh = np.asarray(dh_du, dtype=float)
    ginv = np.asarray(gamma_inv_diag, dtype=float)
    mu = np.where(mask, mu_grid, 0.0)
    nu = np.where(mask, nu_grid, 0.0)
    K = cumulative_trapezoid(-nu, dx=d, axis=1, initial=0.0)
    CT = cumulative_trapezoid(mu, dx=d, axis=0, initial=0.0)
    L = CT - np.diagonal(CT)[None, :]
    emK = np.exp(-K)
    emL = np.exp(-L)
    F = np.exp(K) * mu
    halfG = half * np.exp(L) * nu
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        gam = emL * halfG * emK
        c = half * F * gam
        W = 1.0 / (1.0 + c)
        prod = np.cumprod(np.hstack([np.ones((n + 1, 1)), (1.0 - c[:, :-1]) * W[:, 1:]]), axis=1)
        W *= half / prod
        P = np.zeros_like(F)
        Q = np.zeros_like(F)
        P[0, 0] = dh[0]
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
            if b != 0.0:
                P[i, i] = b / (1.0 + emK[i, i] * half * F[i, i] * ginv[i])
                Q[i, i] = ginv[i] * P[i, i]
            S[i] = Q[i, i]
    if not (np.isfinite(P[mask]).all() and np.isfinite(Q[mask]).all()):
        raise NonConvergence("time solve produced non-finite values", diverging=True)
    return P, Q


def scaled_row_loop_linear_t(mu_grid, nu_grid, gamma_inv_diag, dh_du, grid):
    """Reference: the scaled march with every row product formed in the loop.

    The oracle of the precomputed march: the same scaled variables
    (F' = e^{-k-l} mu, G' = half e^{k+l} nu, U = S + G' h'(u_i), rho =
    R / prod), floating-point operations and diagonal closure, on the
    triangle part of each row only, with the diagonal node closed in NumPy
    scalars.  Returns (P, Q).
    """
    n = grid.n
    d = grid.delta
    half = 0.5 * d
    mask = grid.mask
    dh = np.asarray(dh_du, dtype=float)
    ginv = np.asarray(gamma_inv_diag, dtype=float)
    mu = np.where(mask, mu_grid, 0.0)
    nu = np.where(mask, nu_grid, 0.0)
    ek = np.exp(cumulative_trapezoid(nu, dx=d, axis=1, initial=0.0))
    CT = cumulative_trapezoid(mu, dx=d, axis=0, initial=0.0)
    el = np.exp(-(CT - np.diagonal(CT)[None, :]))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        F = mu * el / ek
        G = nu * ek / el * half
        c = F * G * half
        W = 1.0 / (1.0 + c)
        prod = np.cumprod(np.hstack([np.ones((n + 1, 1)), (1.0 - c[:, :-1]) * W[:, 1:]]), axis=1)
        W *= half / prod
        G2P = G * prod * 2.0
        P = np.zeros_like(F)
        Q = np.zeros_like(F)
        P[0, 0] = dh[0]
        U = np.zeros(n + 1)
        U[0] = G[0, 0] * dh[0] + G[1, 0] * dh[1]
        for i in range(1, n + 1):
            FU = F[i, :i] * U[:i]
            rho = np.zeros(i)
            rho[1:] = np.cumsum((FU[:-1] + FU[1:]) * W[i, 1:i])
            P[i, :i] = ek[i, :i] * (dh[i] - prod[i, :i] * rho)
            Q[i, :i] = el[i, :i] * (U[:i] - G2P[i, :i] * rho * 0.5)
            R = prod[i, i - 1] * rho[-1]
            b = dh[i] - R - half * F[i, i - 1] * (U[i - 1] - G[i, i - 1] * R)
            pt = 0.0
            if b != 0.0:
                pt = b / (1.0 + half * F[i, i] * ek[i, i] * ginv[i])
                P[i, i] = ek[i, i] * pt
                Q[i, i] = ginv[i] * P[i, i]
            if i < n:
                D = G[i, :i] * dh[i] + G[i + 1, :i] * dh[i + 1]
                U[:i] = D - G2P[i, :i] * rho + U[:i]
                U[i] = Q[i, i] + G[i, i] * pt + G[i + 1, i] * dh[i + 1]
    if not (np.isfinite(P[mask]).all() and np.isfinite(Q[mask]).all()):
        raise NonConvergence("time solve produced non-finite values", diverging=True)
    return P, Q


def copies(args):
    """The arguments of a time solve with its array inputs copied: the solve
    overwrites its coefficient grids, which the caller reads again."""
    return tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)


def assert_matches_row_loops(args):
    """The march against both row loops: bit for bit against the scaled
    loop, whose arithmetic it does, and within 1e-14 of each field's max
    on the triangle against the unscaled loop."""
    got = FB.solve_linear_t(*copies(args))
    mask = args[-1].mask
    for x, y in zip(got, scaled_row_loop_linear_t(*args)):
        assert np.array_equal(x, y)
    for x, y in zip(got, row_loop_linear_t(*args)):
        assert np.max(np.abs(x - y)[mask]) <= 1e-14 * np.max(np.abs(y[mask]))
    assert not np.any(got[0][~mask]) and not np.any(got[1][~mask])


def zero_denominator_case(n=16):
    """Coefficients whose diagonal closure 1 + e^{k} half F' gamma_inv is
    exactly 0 at node 7: nu = 0 (so k = 0), mu = 1 and delta a power of 2."""
    g = FB.TriGrid(1.0, n)
    mu = np.ones((n + 1, n + 1))
    nu = np.zeros((n + 1, n + 1))
    ginv = np.full(n + 1, 0.5)
    ginv[7] = -1.0 / (0.5 * g.delta)
    return mu, nu, ginv, 1.0 + g.nodes, g


def frozen_curve_args(rad, cusp, model, n):
    """Arguments of every time solve of a canonical frozen-curve inner solve."""
    grid = FB.TriGrid(EPS, n)
    init = SA.initial_data(model, rad, EPS, n)
    bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
    seen = []
    direct = FB.solve_linear_t

    def record(*args):
        seen.append(copies(args))
        return direct(*args)

    FB.solve_linear_t = record
    try:
        FB.solve_fixed_bvp(bf, init, rad, grid)
    finally:
        FB.solve_linear_t = direct
    return seen


def assert_matches_picard(args):
    grid = args[-1]
    got = FB.solve_linear_t(*copies(args))
    want = picard_linear_t(*args)
    for x, y in zip(got, want):
        scale = np.max(np.abs(y[grid.mask]))
        assert np.max(np.abs(x - y)[grid.mask]) <= 1e-13 * scale


def t_of(h, Q, grid):
    """t = h(u) + int_0^v Q dv', as the inner solve forms it."""
    return np.asarray(h)[:, None] + cumulative_trapezoid(Q, dx=grid.delta, axis=1, initial=0.0)


class TestSolveLinearT:
    def test_decoupled_is_exact(self, rad, cusp, model):
        n = 32
        g = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        zero = np.zeros((n + 1, n + 1))
        ginv = 1.0 + g.nodes
        P, Q = FB.solve_linear_t(zero, zero, ginv, init.dh_du, g)
        dh = np.asarray(init.dh_du)
        a = dh * ginv
        a[0] = 0.0
        assert np.array_equal(P, np.where(g.mask, dh[:, None], 0.0))
        assert np.array_equal(Q, np.where(g.mask, a[None, :], 0.0))
        assert np.array_equal(FB._t_grid(init.h, Q, g.delta), t_of(init.h, Q, g))

    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_picard_manufactured(self, n):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(n)
        assert_matches_picard((mu, nu, ginv, dh, g))

    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_picard_frozen_curve(self, rad, cusp, model, n):
        calls = frozen_curve_args(rad, cusp, model, n)
        assert len(calls) >= 2
        for args in (calls[0], calls[-1]):
            assert_matches_picard(args)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_row_loop_manufactured(self, n):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(n)
        assert_matches_row_loops((mu, nu, ginv, dh, g))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_row_loop_frozen_curve(self, rad, cusp, model, n):
        calls = frozen_curve_args(rad, cusp, model, n)
        for args in (calls[0], calls[-1]):
            assert_matches_row_loops(args)

    def test_special_nodes_match_row_loop(self):
        # gamma_inv = +inf with b != 0: all raise; with b = 0 (all data
        # zero): all close the node to 0
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        ginv = ginv.copy()
        ginv[6] = math.inf
        for solve in (FB.solve_linear_t, scaled_row_loop_linear_t, row_loop_linear_t):
            with pytest.raises(NonConvergence) as exc:
                solve(*copies((mu, nu, ginv, dh, g)))
            assert exc.value.diverging
        assert_matches_row_loops((mu, nu, np.full(17, math.inf), np.zeros(17), g))

    def test_zero_denominator_raises_non_convergence(self):
        args = zero_denominator_case()
        assert 1.0 + 0.5 * args[-1].delta * args[2][7] == 0.0
        for solve in (FB.solve_linear_t, scaled_row_loop_linear_t, row_loop_linear_t):
            with pytest.raises(NonConvergence) as exc:
                solve(*copies(args))
            assert exc.value.diverging
        # one node short of it, the closure is finite and all agree
        mu, nu, ginv, dh, g = args
        ginv = ginv.copy()
        ginv[7] = 0.5
        assert_matches_row_loops((mu, nu, ginv, dh, g))

    def test_values_beyond_the_diagonal_are_discarded(self):
        # c = half F' G' = 1 exactly at node (7, 7) makes the recurrence
        # weight W[7, 8] infinite; the row loops never read it, and the
        # full-row march must discard what it produces beyond the diagonal
        n = 16
        g = FB.TriGrid(1.0, n)
        mu = np.zeros((n + 1, n + 1))
        nu = np.zeros((n + 1, n + 1))
        mu[7, 7] = nu[7, 7] = 32.0
        nu[7, 6] = -32.0  # k(7, 7) = 0
        assert_matches_row_loops((mu, nu, np.full(n + 1, 0.5), 1.0 + g.nodes, g))

    def test_matches_row_loop_in_column_major_layout(self):
        # the march flattens its rows, whatever the inputs' memory order
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        assert_matches_row_loops((np.asfortranarray(mu), np.asfortranarray(nu), ginv, dh, g))

    def test_two_grid_exponentials(self, monkeypatch):
        # e^{k} and e^{-l}; F' and G' are formed from them
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        exp, grids = np.exp, []

        def counting(x, *args, **kwargs):
            if np.ndim(x) == 2:
                grids.append(1)
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        FB.solve_linear_t(mu, nu, ginv, dh, g)
        assert len(grids) == 2

    def test_inputs_are_not_modified(self):
        # the diagonal data are read only; the coefficient grids are the
        # solve's own (test_coefficient_grids_are_consumed)
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        before = [np.copy(x) for x in (ginv, dh)]
        FB.solve_linear_t(mu.copy(), nu.copy(), ginv, dh, g)
        for x, y in zip(before, (ginv, dh)):
            assert np.array_equal(x, y)

    def test_coefficient_grids_are_consumed(self):
        # F' and G' are formed in the storage of C-contiguous float64 grids,
        # and Q is returned in nu's; any other grid is copied and left as it
        # was, and one grid passed for both is written over once
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        want = FB.solve_linear_t(*copies((mu, nu, ginv, dh, g)))
        mu_c, nu_c = mu.copy(), nu.copy()
        P, Q = FB.solve_linear_t(mu_c, nu_c, ginv, dh, g)
        assert np.shares_memory(Q, nu_c) and not np.array_equal(mu_c, mu)
        assert same_bits(P, want[0]) and same_bits(Q, want[1])
        for layout in (np.asfortranarray, lambda x: x.astype(np.float32)):
            mu_f, nu_f = layout(mu), layout(nu)
            before = mu_f.copy(), nu_f.copy()
            FB.solve_linear_t(mu_f, nu_f, ginv, dh, g)
            assert np.array_equal(mu_f, before[0]) and np.array_equal(nu_f, before[1])
        both = mu.copy()
        got = FB.solve_linear_t(both, both, ginv, dh, g)
        for x, y in zip(got, FB.solve_linear_t(mu.copy(), mu.copy(), ginv, dh, g)):
            assert same_bits(x, y)

    def test_manufactured_second_order(self):
        errs = {}
        for n in (16, 32):
            g, mu, nu, ginv, h, dh, P_ex, Q_ex, t_ex = manufactured_case(n)
            P, Q = FB.solve_linear_t(mu, nu, ginv, dh, g)
            errs[n] = (
                np.max(np.abs(P - P_ex)[g.mask]),
                np.max(np.abs(Q - Q_ex)[g.mask]),
                np.max(np.abs(FB._t_grid(h, Q, g.delta) - t_ex)[g.mask]),
            )
        assert errs[16][0] < 1e-4 and errs[16][1] < 1e-4 and errs[16][2] < 2e-5
        for k in range(3):
            assert 3.4 < errs[16][k] / errs[32][k] < 4.6

    @pytest.mark.parametrize("where", ["mu", "nu", "dh"])
    def test_non_finite_input_raises(self, where):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        mu, nu, dh = mu.copy(), nu.copy(), dh.copy()
        if where == "dh":
            dh[5] = math.inf
        else:
            {"mu": mu, "nu": nu}[where][9, 4] = math.nan
        with pytest.raises(NonConvergence) as exc:
            FB.solve_linear_t(*copies((mu, nu, ginv, dh, g)))
        assert exc.value.diverging
        with pytest.raises(NonConvergence), np.errstate(invalid="ignore"):
            picard_linear_t(mu, nu, ginv, dh, g)

    def test_non_finite_outside_triangle_ignored(self):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        mu = np.where(g.mask, mu, math.nan)
        nu = np.where(g.mask, nu, math.inf)
        assert_matches_picard((mu, nu, ginv, dh, g))
        assert_matches_row_loops((mu, nu, ginv, dh, g))

    def test_sonic_node_with_nonzero_slope_raises(self):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        ginv = ginv.copy()
        ginv[6] = math.inf
        with pytest.raises(NonConvergence) as exc:
            FB.solve_linear_t(*copies((mu, nu, ginv, dh, g)))
        assert exc.value.diverging
        with pytest.raises(NonConvergence):
            picard_linear_t(mu, nu, ginv, dh, g)

    def test_sonic_nodes_with_zero_slope_close_to_zero(self):
        # gamma_inv = +inf at every node (the corner and exactly sonic
        # nodes): a = 0 where dt/du vanishes, with no NaN from 0 * inf
        g, mu, nu, *_ = manufactured_case(16)
        zeros = np.zeros(17)
        ginv = np.full(17, math.inf)
        P, Q = FB.solve_linear_t(mu, nu, ginv, zeros, g)
        assert not np.any(P) and not np.any(Q)


def polished_fixed_bvp(bf, init, eos, grid, tol_inner=1e-12, max_sweeps=60):
    """Reference: the field sweep with the old polish rule.

    The same sweeps as ``solve_fixed_bvp``, but once the change is below
    ``tol_inner`` it keeps sweeping while the change still strictly
    decreases (to 0 on the canonical data).  Returns (fields, changes).
    """
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
        mu = np.where(mask, FB.du_grid(cp, grid) / spread, 0.0)
        nu = np.where(mask, FB.dv_grid(cm, grid) / spread, 0.0)
        ginv = FB.gamma_inverse(bf, np.diagonal(alpha).copy(), eos)
        P, Q = FB.solve_linear_t(mu, nu, ginv, init.dh_du, grid)
        t = t_of(init.h, Q, grid)
        s_edge = cumulative_trapezoid((cm * P)[:, 0], dx=d, initial=0.0)
        s = s_edge[:, None] + FB._ct_v(np.where(mask, cp * Q, 0.0), d)
        return t, P, Q, bf.cusp.r0 + s, s

    changes = []
    met = False
    prev = math.inf
    for _ in range(max_sweeps):
        t, P, Q, r, s = assemble(alpha, beta)
        A, B = wave_state(eos, RiemannPair(alpha, beta)).sources(r)
        alpha_new = alpha_i[:, None] + FB._ct_v(np.where(mask, Q * A, 0.0), d)
        beta_new = beta_p[None, :] + FB._from_diag(FB._ct_v(np.where(mask, P * B, 0.0).T, d).T)
        change = max(FB._sup(alpha_new - alpha, mask), FB._sup(beta_new - beta, mask))
        alpha, beta = alpha_new, beta_new
        changes.append(change)
        if met and change >= prev:
            break
        if change < tol_inner:
            met = True
            if change == 0.0:
                break
        prev = change
    t, P, Q, r, s = assemble(alpha, beta)
    fields = {"t": t, "r": r, "r_off": s, "alpha": alpha, "beta": beta, "dt_du": P, "dt_dv": Q}
    return fields, changes


def assert_near_polished(fg, ref):
    """Fields within 1e-14 of each reference field's scale, and alpha and
    beta within the stop rule's own floor of the polished point."""
    m = fg.grid.mask
    for name, R in ref.items():
        scale = np.max(np.abs(R[m]))
        assert np.max(np.abs(getattr(fg, name) - R)[m]) <= 1e-14 * scale, name
    # alpha and beta sit within the stop rule's own floor of the polished point
    floor = 2.0 * np.spacing(max(np.max(np.abs(ref["alpha"][m])), np.max(np.abs(ref["beta"][m]))))
    for name in ("alpha", "beta"):
        assert np.max(np.abs(getattr(fg, name) - ref[name])[m]) <= floor, name


def assert_matches_polished(rad, cusp, model, n):
    """The floor stop agrees with the polished reference; returns the solve."""
    fg, bf, init = canonical_solve(rad, cusp, model, n)
    ref, changes = polished_fixed_bvp(bf, init, rad, fg.grid)
    assert changes[: fg.sweeps] == fg.changes
    assert_near_polished(fg, ref)
    return fg


class TestSolveFixedBvp:
    def test_degenerate_constant_solution(self, rad):
        cusp0 = SA.CuspData.from_physics(rad, kappa=1.0, lam=1.0, dbeta_dt0=0.0)
        n = 16
        g = FB.TriGrid(EPS, n)
        zeros = np.zeros(n + 1)
        init = SA.InitialData(
            u=g.nodes, h=zeros, dh_du=zeros, alpha_i=zeros, h_hat=zeros, alpha_i_hat=zeros
        )
        bf = FB.BoundaryFunctions.seed(cusp0, g.nodes)
        fg = FB.solve_fixed_bvp(bf, init, rad, g)
        assert np.all(fg.t[g.mask] == 0.0)
        assert np.all(fg.r[g.mask] == 1.0)
        assert np.all(fg.alpha[g.mask] == 0.0)
        assert np.all(fg.beta[g.mask] == 0.0)
        assert np.all(fg.dt_du[g.mask] == 0.0)
        assert np.all(fg.dt_dv[g.mask] == 0.0)
        assert fg.sweeps <= 2

    def test_three_grid_state_evaluations_per_two_sweeps(self, rad, cusp, model, monkeypatch):
        # each sweep evaluates the state on the packed triangle once, for
        # the speeds of its time solve and for its source terms; the closing
        # assemble once more
        n = 32
        grid = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
        shapes = []
        invert = E.rho_of_potential

        def counting(eos, x):
            shapes.append(np.shape(x))
            return invert(eos, x)

        monkeypatch.setattr(E, "rho_of_potential", counting)
        fg = FB.solve_fixed_bvp(bf, init, rad, grid)
        assert fg.sweeps == 2
        assert shapes.count(((n + 1) * (n + 2) // 2,)) == 3
        assert (n + 1, n + 1) not in shapes

    def test_t_integrated_once(self, rad, cusp, model, monkeypatch):
        # a cold sweep discards its t, so a cold two-sweep solve integrates
        # t once, for its re-assembly, and a warm sweep once, for itself;
        # every other full-grid integral into a fresh grid is one of the
        # two integrating factors of a time solve
        n = 32
        grid = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
        integrate, solve_t = FB._t_grid, FB.solve_linear_t
        seen, fresh, solves = [], [], []

        def counting_t(h, Q, delta):
            seen.append(Q)
            return integrate(h, Q, delta)

        def counting(rule):
            def counting_ct(X, delta, out=None):
                if out is None and X.ndim == 2:
                    fresh.append(1)
                return rule(X, delta, out)

            return counting_ct

        def counting_solve(*args):
            solves.append(1)
            return solve_t(*args)

        monkeypatch.setattr(FB, "_t_grid", counting_t)
        for name in ("_ct_v", "_ct_u"):
            monkeypatch.setattr(FB, name, counting(getattr(FB, name)))
        monkeypatch.setattr(FB, "solve_linear_t", counting_solve)
        fg = FB.solve_fixed_bvp(bf, init, rad, grid)
        assert fg.sweeps == 2 and len(solves) == 3
        assert len(seen) == 1 and seen[0] is fg.dt_dv
        assert len(fresh) == 2 * len(solves) + 1
        warm = FB.solve_fixed_bvp(bf, init, rad, grid, warm=(fg.alpha, fg.beta))
        assert len(seen) == 2 and seen[1] is warm.dt_dv
        assert len(fresh) == 2 * len(solves) + 2

    def test_converges_fast(self, base_run):
        fg, _, _ = base_run
        assert fg.sweeps <= 6
        ch = fg.changes
        assert ch[1] / ch[0] < 1e-4
        assert all(later < earlier for earlier, later in zip(ch, ch[1:]))

    def test_stops_at_the_rounding_floor(self, base_run):
        fg, _, _ = base_run
        assert fg.sweeps == 2

    def test_two_sweeps_even_under_a_loose_tolerance(self, rad, cusp, model, monkeypatch):
        # the first change is already below the sweep tolerance here; a
        # second sweep still runs, so the first contraction ratio is defined
        g = FB.TriGrid(EPS, 16)
        init = SA.initial_data(model, rad, EPS, 16)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes)
        monkeypatch.setattr(FB, "_TOL_INNER", 1e-3)
        fg = FB.solve_fixed_bvp(bf, init, rad, g)
        assert fg.changes[0] < 1e-3
        assert fg.sweeps == 2
        assert 0.0 < fg.changes[1] / fg.changes[0] < 1.0

    # n = 32 is the grid of test_contraction_shrinks_with_eps, whose larger
    # domain (EPS) contracts more slowly than its halved one
    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_matches_polished_reference(self, rad, cusp, model, n):
        fg = assert_matches_polished(rad, cusp, model, n)
        assert fg.changes[1] / fg.changes[0] < 1.0

    def test_data_edges_exact(self, base_run):
        fg, bf, init = base_run
        assert np.array_equal(fg.t[:, 0], np.asarray(init.h))
        assert np.array_equal(fg.alpha[:, 0], np.asarray(init.alpha_i))

    def test_edge_derivatives_vanish(self, base_run):
        fg, bf, init = base_run
        assert np.max(np.abs(fg.dt_dv[:, 0])) < 1e-14
        dbeta = FB.dv_grid(fg.beta - bf.beta_plus()[None, :], fg.grid)
        assert np.max(np.abs(dbeta[:, 0])) < 1e-10

    def test_outgoing_derivative_asymptote(self, base_run, half_run, cusp):
        consts = {}
        for key, (fg, _, _) in (("fine", base_run), ("coarse", half_run)):
            g = fg.grid
            U, V = grid_uv(g)
            m = g.mask & (U > 0) & (V > 0)
            lead = cusp.lam / (3 * cusp.kappa**2) * V
            consts[key] = np.max(np.abs(fg.dt_dv - lead)[m] / (U * V)[m])
        assert consts["fine"] < 1.0
        assert 0.7 < consts["coarse"] / consts["fine"] < 1.3

    def test_ingoing_derivative_asymptote(self, base_run, half_run, cusp):
        spread = cusp.c_plus0 - cusp.c_minus0
        consts = {}
        for key, (fg, _, _) in (("fine", base_run), ("coarse", half_run)):
            g = fg.grid
            U, V = grid_uv(g)
            m = g.mask & (U > 0)
            lead = cusp.lam * (3 * U**2 - V**2) / (6 * cusp.kappa * spread)
            consts[key] = np.max(np.abs(fg.dt_du - lead)[m] / U[m] ** 3)
        assert consts["fine"] < 0.5
        assert 0.7 < consts["coarse"] / consts["fine"] < 1.3

    def test_diagonal_slope_limit(self, base_run, cusp):
        fg, _, _ = base_run
        v = fg.grid.nodes
        f = fg.diagonal("t")
        dfdv = np.gradient(f, v)
        ratio = dfdv[4:13] / v[4:13]
        limit = fitting.extrapolate_to_zero(v[4:13], ratio)
        target = cusp.lam / (3 * cusp.kappa**2)
        assert limit == pytest.approx(target, rel=0.02)

    def test_coefficient_limits(self, base_run, rad, cusp):
        fg, _, _ = base_run
        g = fg.grid
        cp, cm = char_speeds(rad, RiemannPair(fg.alpha, fg.beta))
        spread = cp - cm
        mu = np.where(g.mask, FB.du_grid(cp, g) / spread, 0.0)
        nu = np.where(g.mask, FB.dv_grid(cm, g) / spread, 0.0)
        target = cusp.kappa / (cusp.c_plus0 - cusp.c_minus0)
        assert mu[1, 0] == pytest.approx(target, abs=1e-3)
        assert mu[2, 1] == pytest.approx(target, abs=1e-3)
        _, V = grid_uv(g)
        m = g.mask & (V > 0)
        assert np.max(np.abs(nu[m]) / V[m]) < 0.1

    def test_residuals_second_order(self, base_run, half_run, rad):
        res = {}
        for key, (fg, bf, init) in (("fine", base_run), ("coarse", half_run)):
            res[key] = FB.characteristic_residuals(fg, rad, init, bf)
        assert res["fine"]["max"] < 1e-8
        for name in ("alpha", "beta", "radius_out", "radius_in", "time_out", "time_in"):
            assert res["coarse"][name] / res["fine"][name] > 3.5

    def test_contraction_shrinks_with_eps(self, rad, cusp, model):
        ratios = {}
        for eps in (0.01, 0.005):
            fg, _, _ = canonical_solve(rad, cusp, model, 32, eps=eps)
            ratios[eps] = fg.changes[1] / fg.changes[0]
        assert ratios[0.01] < 1.0
        assert ratios[0.005] < 0.6 * ratios[0.01]

    def test_moving_medium_config(self, rad, moving_cusp, moving_model):
        res = {}
        for n in (32, 64):
            fg, bf, init = canonical_solve(rad, moving_cusp, moving_model, n)
            res[n] = FB.characteristic_residuals(fg, rad, init, bf)
            if n == 64:
                v = fg.grid.nodes
                f = fg.diagonal("t")
                ratio = np.gradient(f, v)[4:13] / v[4:13]
                limit = fitting.extrapolate_to_zero(v[4:13], ratio)
                target = moving_cusp.lam / (3 * moving_cusp.kappa**2)
                assert limit == pytest.approx(target, rel=0.02)
        for name in ("alpha", "beta", "radius_out", "radius_in"):
            assert res[32][name] / res[64][name] > 3.5

    def test_singular_gamma_propagates(self, rad, cusp, model):
        n = 16
        g = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes).replace(V_hat=np.full(n + 1, 1e3))
        with pytest.raises(SingularGamma):
            FB.solve_fixed_bvp(bf, init, rad, g)

    def test_budget_exhaustion(self, rad, cusp, model, monkeypatch):
        n = 16
        g = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes)
        monkeypatch.setattr(FB, "_MAX_SWEEPS", 1)
        monkeypatch.setattr(FB, "_TOL_INNER", 1e-30)
        with pytest.raises(NonConvergence, match="in 1 sweeps") as exc:
            FB.solve_fixed_bvp(bf, init, rad, g)
        assert len(exc.value.history) == 1

    def test_node_mismatch_rejected(self, rad, cusp, model):
        n = 16
        g = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes + 1e-5)
        with pytest.raises(ValueError):
            FB.solve_fixed_bvp(bf, init, rad, g)
        # a non-finite sample is off the nodes too, in either argument
        for bad in (math.nan, math.inf, -math.inf):
            nodes = g.nodes.copy()
            nodes[5] = bad
            with pytest.raises(ValueError, match="boundary"):
                FB.solve_fixed_bvp(FB.BoundaryFunctions.seed(cusp, nodes), init, rad, g)
            seed = FB.BoundaryFunctions.seed(cusp, g.nodes)
            with pytest.raises(ValueError, match="initial data"):
                FB.solve_fixed_bvp(seed, init._replace(u=nodes), rad, g)
        # within the tolerance of 1e-14 eps the samples are accepted
        bf = FB.BoundaryFunctions.seed(cusp, g.nodes + 0.5e-14 * EPS)
        FB.solve_fixed_bvp(bf, init, rad, g)


class TestWarmSweep:
    """One sweep from given fields, the outer iteration's inexact inner step."""

    def test_one_sweep_and_one_time_solve(self, base_run, rad, monkeypatch):
        fg, bf, init = base_run
        solve_t = FB.solve_linear_t
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_t(*args, **kwargs)

        monkeypatch.setattr(FB, "solve_linear_t", counting)
        warm = FB.solve_fixed_bvp(bf, init, rad, fg.grid, warm=(fg.alpha, fg.beta))
        assert len(calls) == 1
        assert warm.sweeps == 1
        assert len(warm.changes) == 1

    def test_sweeps_count_the_changes(self, base_run, rad):
        # a cold solve and a warm sweep make one change entry per sweep, and
        # the count is read off them, not stored beside them
        fg, bf, init = base_run
        warm = FB.solve_fixed_bvp(bf, init, rad, fg.grid, warm=(fg.alpha, fg.beta))
        assert fg.sweeps == len(fg.changes) > 1
        assert warm.sweeps == len(warm.changes) == 1
        assert "sweeps" not in {f.name for f in dataclasses.fields(FB.FieldGrid)}

    def test_sweep_from_converged_fields(self, base_run, rad):
        # t, P, Q and r come from the given fields: from the converged ones
        # they are the cold solve's closing re-assembly, bit for bit, and
        # (alpha, beta) move by rounding only
        fg, bf, init = base_run
        warm = FB.solve_fixed_bvp(bf, init, rad, fg.grid, warm=(fg.alpha, fg.beta))
        for name in ("t", "r", "r_off", "dt_du", "dt_dv"):
            assert np.array_equal(getattr(warm, name), getattr(fg, name)), name
        m = fg.grid.mask
        floor = 4.0 * np.spacing(max(np.max(np.abs(fg.alpha[m])), np.max(np.abs(fg.beta[m]))))
        assert warm.changes[0] <= floor
        for name in ("alpha", "beta"):
            assert np.max(np.abs(getattr(warm, name) - getattr(fg, name))[m]) <= floor

    def test_sweep_from_a_nearby_solution(self, rad, cusp, model):
        # started at the fields of a perturbed boundary, one sweep closes
        # the gap in (alpha, beta) to the cold solve by orders of magnitude
        # (4.8e-6 here; t, taken from the start fields, lags by that sweep)
        n = 32
        grid = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
        near = FB.solve_fixed_bvp(
            bf.replace(beta_hat_plus=bf.beta_hat_plus + 1.0), init, rad, grid
        )
        cold = FB.solve_fixed_bvp(bf, init, rad, grid)
        warm = FB.solve_fixed_bvp(bf, init, rad, grid, warm=(near.alpha, near.beta))
        m = grid.mask

        def gap(a, b):
            return max(np.max(np.abs(a.alpha - b.alpha)[m]), np.max(np.abs(a.beta - b.beta)[m]))

        start = gap(near, cold)
        assert start > 1e-5
        assert gap(warm, cold) <= 1e-4 * start


def out_of_range_alpha(eos, beta):
    """alpha whose potential (alpha + beta)/2 lies beyond the law's range."""
    return 2.0 * E.potential_of_rho(eos, eos.rho_max) - beta + 1.0


class TestTriangleOnly:
    """The state and source terms are evaluated on the triangle alone:
    entries above the diagonal are never read, whatever their values."""

    NAMES = ("t", "r_off", "alpha", "beta", "dt_du", "dt_dv")

    @pytest.mark.parametrize("bad", ["nan", "range"])
    def test_warm_sweep_ignores_entries_above_the_diagonal(self, base_run, rad, bad):
        fg, bf, init = base_run
        g = fg.grid
        clean = FB.solve_fixed_bvp(bf, init, rad, g, warm=(fg.alpha, fg.beta))
        alpha = fg.alpha.copy()
        alpha[g.outside] = math.nan if bad == "nan" else out_of_range_alpha(rad, 0.0)
        warm = FB.solve_fixed_bvp(bf, init, rad, g, warm=(alpha, fg.beta))
        assert warm.changes == clean.changes
        for name in self.NAMES:
            assert getattr(warm, name).tobytes() == getattr(clean, name).tobytes(), name

    @pytest.mark.parametrize("bad", ["nan", "range"])
    def test_the_same_entry_inside_the_triangle_raises(self, base_run, rad, bad):
        fg, bf, init = base_run
        alpha = fg.alpha.copy()
        alpha[7, 3] = math.nan if bad == "nan" else out_of_range_alpha(rad, fg.beta[7, 3])
        with pytest.raises(OutOfRange):
            FB.solve_fixed_bvp(bf, init, rad, fg.grid, warm=(alpha, fg.beta))

    def test_residual_check_ignores_entries_above_the_diagonal(self, base_run, rad):
        # a NaN iterate and a radius r <= 0 above the diagonal: the sources'
        # r > 0 check covers the triangle nodes alone
        fg, bf, init = base_run
        g = fg.grid
        alpha, r_off = fg.alpha.copy(), fg.r_off.copy()
        alpha[g.outside] = math.nan
        r_off[g.outside] = -2.0 * fg.r0
        dirty = dataclasses.replace(fg, alpha=alpha, r_off=r_off)
        clean = FB.characteristic_residuals(fg, rad, init, bf)
        assert FB.characteristic_residuals(dirty, rad, init, bf) == clean
        r_off[7, 3] = -2.0 * fg.r0
        with pytest.raises(OutOfRange):
            FB.characteristic_residuals(dataclasses.replace(fg, r_off=r_off), rad, init, bf)


class TestReparametrization:
    def test_shock_curve_invariant(self, rad, cusp, model, base_run, half_run):
        """A smooth change of the diagonal parameter must not move the curve."""
        eps, n, c = EPS, 64, 0.3
        fg, _, _ = base_run
        grid = fg.grid
        nodes = grid.nodes

        phi = nodes + c * nodes**2 * (eps - nodes) / eps**2
        dphi = 1 + c * (2 * nodes * (eps - nodes) - nodes**2) / eps**2
        assert np.all(np.diff(phi) > 0)

        bump = c * nodes * (eps - nodes) / eps**2
        bf_t = FB.BoundaryFunctions(
            cusp=cusp,
            v=nodes,
            y=-1.0 - bump,
            beta_hat_plus=cusp.beta_hat0 * (1 + bump) ** 2,
            V_hat=0.5 * cusp.kappa * c * (eps - nodes) / eps**2,
        )
        curve = sequential_march(model, rad, w_nodes=phi)
        alpha_t = model.eval("alpha", curve.t, phi)
        init_t = SA.InitialData(
            u=nodes,
            h=curve.t,
            dh_du=curve.slope * dphi,
            alpha_i=alpha_t,
            h_hat=np.zeros_like(nodes),
            alpha_i_hat=np.zeros_like(nodes),
        )
        fg_t = FB.solve_fixed_bvp(bf_t, init_t, rad, grid)

        # discretization scale: n-halving differences of both solves
        fg_c, _, _ = half_run
        g32 = FB.TriGrid(eps, 32)
        nodes32 = g32.nodes
        phi32 = nodes32 + c * nodes32**2 * (eps - nodes32) / eps**2
        dphi32 = 1 + c * (2 * nodes32 * (eps - nodes32) - nodes32**2) / eps**2
        bump32 = c * nodes32 * (eps - nodes32) / eps**2
        bf32 = FB.BoundaryFunctions(
            cusp=cusp,
            v=nodes32,
            y=-1.0 - bump32,
            beta_hat_plus=cusp.beta_hat0 * (1 + bump32) ** 2,
            V_hat=0.5 * cusp.kappa * c * (eps - nodes32) / eps**2,
        )
        curve32 = sequential_march(model, rad, w_nodes=phi32)
        init32 = SA.InitialData(
            u=nodes32,
            h=curve32.t,
            dh_du=curve32.slope * dphi32,
            alpha_i=model.eval("alpha", curve32.t, phi32),
            h_hat=np.zeros_like(nodes32),
            alpha_i_hat=np.zeros_like(nodes32),
        )
        fg_t32 = FB.solve_fixed_bvp(bf32, init32, rad, g32)

        for name in ("t", "r"):
            disc = max(
                np.max(np.abs(fg.diagonal(name)[::2] - fg_c.diagonal(name))),
                np.max(np.abs(fg_t.diagonal(name)[::2] - fg_t32.diagonal(name))),
            )
            spline = CubicSpline(nodes, fg.diagonal(name))
            err = np.max(np.abs(fg_t.diagonal(name) - spline(phi)))
            assert err < 5.0 * disc


def centered_residuals(fg, eos, init, bf):
    """Oracle: the residuals from their own centred stencils, zero-padded,
    rather than the interior entries of ``dv_grid``/``du_grid``."""
    n, d = fg.grid.n, fg.grid.delta
    I, J = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    mask_v = (J >= 1) & (J <= I - 1)
    mask_u = (I >= J + 1) & (I <= n - 1)
    cp, cm = char_speeds(eos, RiemannPair(fg.alpha, fg.beta))
    A, B = wave_state(eos, RiemannPair(fg.alpha, fg.beta)).sources(fg.r)
    base_alpha = fg.alpha - np.asarray(init.alpha_i, dtype=float)[:, None]
    base_beta = fg.beta - bf.beta_plus()[None, :]

    def center_v(X):
        out = np.zeros_like(X)
        out[:, 1:-1] = (X[:, 2:] - X[:, :-2]) / (2.0 * d)
        return out

    def center_u(X):
        out = np.zeros_like(X)
        out[1:-1, :] = (X[2:, :] - X[:-2, :]) / (2.0 * d)
        return out

    def sup(X, mask):
        return float(np.max(np.abs(X[mask])))

    res = {
        "alpha": sup(center_v(base_alpha) - fg.dt_dv * A, mask_v),
        "beta": sup(center_u(base_beta) - fg.dt_du * B, mask_u),
        "radius_out": sup(center_v(fg.r_off) - cp * fg.dt_dv, mask_v),
        "radius_in": sup(center_u(fg.r_off) - cm * fg.dt_du, mask_u),
        "time_out": sup(center_v(fg.t) - fg.dt_dv, mask_v),
        "time_in": sup(center_u(fg.t) - fg.dt_du, mask_u),
    }
    res["max"] = max(res.values())
    return res


def traced_peak_grids(fn, n):
    """(fn(), tracemalloc peak of the call in (n+1)^2 float64 grids).

    A tracemalloc session already running is left running, with its peak
    reset to the call's."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not running:
            tracemalloc.stop()
    return out, (peak - base) / ((n + 1) ** 2 * 8)


def test_traced_peak_grids_keeps_a_running_session():
    tracemalloc.start()
    try:
        _, peak = traced_peak_grids(lambda: np.ones((17, 17)), 16)
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert peak >= 1.0


class TestLiveSet:
    """Full grids alive at once in a frozen-curve inner solve and in its
    residual check: each grid is held only while a later line reads it,
    and the time solve forms its coefficients in the storage of the grids
    it is handed.  NumPy elides temporaries only from 256 KiB up, so n =
    128 and n = 256 peak differently; n = 256 is the benchmark's grid.
    Each pin is the measured peak plus about 0.05 grid."""

    N = 128

    @staticmethod
    def frozen_curve(rad, cusp, model, n):
        grid = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
        return grid, init, bf

    @pytest.fixture(scope="class")
    def traced_solve(self, rad, cusp, model):
        grid, init, bf = self.frozen_curve(rad, cusp, model, self.N)
        fg, peak = traced_peak_grids(lambda: FB.solve_fixed_bvp(bf, init, rad, grid), self.N)
        return fg, bf, init, peak

    def test_inner_solve_peak(self, traced_solve):
        # 11.45 measured: the sweep's alpha, beta, c+ and the packed v eta
        # around the 7 grids the time solve holds across its march (11.95
        # with v eta on the square; 15.08 when the solve copied mu and the
        # sweep kept v and eta; 24.4 when the solve held the whole state,
        # both speed grids and the previous t, P, Q)
        assert traced_solve[3] <= 11.5

    def test_residual_check_peak(self, traced_solve, rad):
        fg, bf, init, _ = traced_solve
        _, peak = traced_peak_grids(
            lambda: FB.characteristic_residuals(fg, rad, init, bf), self.N
        )
        # 3.66 measured, above the solution's 6 grids, set by the state
        # evaluation on the packed triangle; each speed and source grid is
        # scattered only for its own residual (5.11 with the state on the
        # square; 7.14 when the solution held r and speeds() peaked at 5)
        assert peak <= 3.71

    def test_inner_solve_peak_n256(self, rad, cusp, model):
        grid, init, bf = self.frozen_curve(rad, cusp, model, 256)
        _, peak = traced_peak_grids(lambda: FB.solve_fixed_bvp(bf, init, rad, grid), 256)
        # 10.83 measured (11.33 with the state on the square; 14.46 before
        # the time solve took its coefficient grids over)
        assert peak <= 10.88

    def test_solve_and_residual_check_peak_n256(self, rad, cusp, model):
        # the solve followed by its check, as the benchmark's interior
        # unit runs them: the solve sets the peak, since the check holds
        # at most about 3.7 grids above the solution's 6
        grid, init, bf = self.frozen_curve(rad, cusp, model, 256)

        def unit():
            fg = FB.solve_fixed_bvp(bf, init, rad, grid)
            return FB.characteristic_residuals(fg, rad, init, bf)

        _, peak = traced_peak_grids(unit, 256)
        # 10.84 measured (11.33 with the state on the square; 14.77 before
        # the lean high-n live set)
        assert peak <= 10.89


class TestResiduals:
    def test_keys_and_overall_max(self, base_run, rad):
        fg, bf, init = base_run
        res = FB.characteristic_residuals(fg, rad, init, bf)
        names = {"alpha", "beta", "radius_out", "radius_in", "time_out", "time_in", "max"}
        assert set(res) == names
        assert res["max"] == max(res[k] for k in names - {"max"})
        assert all(math.isfinite(x) and x >= 0 for x in res.values())

    @pytest.mark.parametrize("law", ["rad", "p2"])
    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_matches_centered_stencils_bit_for_bit(self, law, n, request):
        # the residual masks read only the centred interior entries of the
        # grid derivatives, never a one-sided or extrapolated corner entry
        eos = request.getfixturevalue(law)
        cusp = SA.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
        model = SA.synthesize_model(cusp, eos, eps=EPS)
        fg, bf, init = canonical_solve(eos, cusp, model, n)
        got = FB.characteristic_residuals(fg, eos, init, bf)
        assert got == centered_residuals(fg, eos, init, bf)


class TestGridCsv:
    def test_round_trip(self, base_run, tmp_path):
        fg, _, _ = base_run
        path = tmp_path / "grid.csv"
        FB.write_grid_csv(fg, path)
        text = path.read_text().splitlines()
        assert text[0] == "i,j,u,v,t,r,alpha,beta,dt_du,dt_dv"
        n = fg.grid.n
        assert len(text) == 1 + (n + 1) * (n + 2) // 2
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        ii = data[:, 0].astype(int)
        jj = data[:, 1].astype(int)
        assert np.array_equal(data[:, 4], fg.t[ii, jj])
        assert np.array_equal(data[:, 9], fg.dt_dv[ii, jj])
        assert np.array_equal(data[:, 2], fg.grid.nodes[ii])
