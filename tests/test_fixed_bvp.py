"""Tests for the characteristic-triangle inner solver."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

import shockdev.eos as E
import shockdev.fitting as fitting
import shockdev.fixed_bvp as FB
import shockdev.state_ahead as SA
from shockdev.errors import NonConvergence, SingularGamma
from shockdev.state import RiemannPair, char_speeds, source_terms

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
        assert np.array_equal(g.U[:, 0], g.nodes)
        assert np.array_equal(g.V[0, :], g.nodes)

    @pytest.mark.parametrize("eps,n", [(0.0, 4), (-1.0, 4), (math.inf, 4), (0.01, 0), (0.01, 2.5)])
    def test_validation(self, eps, n):
        with pytest.raises(ValueError):
            FB.TriGrid(eps, n)


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
        assert np.allclose(bf.z(), v * bf.y, rtol=0, atol=0)
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

    @pytest.mark.parametrize("n", [2, 16, 64])
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
        sources = [out[k, j] for k in range(i + 1, min(i + 4, n + 1)) if k >= j]
        fixed = FB._extrapolate_entry(sources)
        if fixed is not None:
            out[i, j] = fixed
    return out


def per_line_du(X, grid):
    """Reference for du_grid: one stencil line per column, then the corner fill."""
    n = grid.n
    out = np.zeros_like(X)
    for j in range(n + 1):
        out[j:, j] = second_order_line(X[j:, j], grid.delta)
    for i, j in ((n - 1, n - 1), (n, n - 1), (n, n)):
        sources = [out[i, k] for k in range(j - 1, max(j - 4, -1), -1) if k >= 0]
        fixed = FB._extrapolate_entry(sources)
        if fixed is not None:
            out[i, j] = fixed
    return out


class TestGridDerivatives:
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_bit_identical_to_per_line_reference(self, n, rng):
        g = FB.TriGrid(EPS, n)
        X = rng.normal(size=(n + 1, n + 1))
        assert np.array_equal(FB.dv_grid(X, g), per_line_dv(X, g))
        assert np.array_equal(FB.du_grid(X, g), per_line_du(X, g))

    def test_quadratic_is_exact(self):
        g = FB.TriGrid(EPS, 8)
        X = 2.0 * g.U**2 - 3.0 * g.U * g.V + g.V**2
        assert np.allclose(FB.du_grid(X, g)[g.mask], (4.0 * g.U - 3.0 * g.V)[g.mask], atol=1e-12)
        assert np.allclose(FB.dv_grid(X, g)[g.mask], (2.0 * g.V - 3.0 * g.U)[g.mask], atol=1e-12)


class TestCumulativeTrapezoid:
    """The NumPy rules are bit-identical to the SciPy oracle."""

    @pytest.mark.parametrize("n", [2, 3, 65, 257])
    def test_grid_axes_match_scipy(self, n, rng):
        X = rng.normal(size=(n, n))
        d = 0.5 / (n - 1)
        assert np.array_equal(FB._ct_v(X, d), cumulative_trapezoid(X, dx=d, axis=1, initial=0.0))
        assert np.array_equal(FB._ct_u(X, d), cumulative_trapezoid(X, dx=d, axis=0, initial=0.0))

    @pytest.mark.parametrize("n", [2, 3, 65, 257])
    def test_one_dimensional_matches_scipy(self, n, rng):
        x = rng.normal(size=n)
        d = 0.01 / (n - 1)
        assert np.array_equal(FB._ct_v(x, d), cumulative_trapezoid(x, dx=d, initial=0.0))


def manufactured_case(n, eps=0.5):
    """Exact solution of the linear pair with corner-compatible data.

    t = u + u^2/2 + u v^2 + v^2/2, so dt/du = 1 + u + v^2 and
    dt/dv = v (2u + 1), which vanishes on the data edge as required.
    """
    g = FB.TriGrid(eps, n)
    U, V = g.U, g.V
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


def picard_linear_t(mu_grid, nu_grid, gamma_inv_diag, h, dh_du, grid, tol=1e-12, max_iter=400):
    """Reference: the time solve by Picard iteration of the discrete pair.

    Iterates the trapezoid-discretized Volterra pair from Q = 0 until the
    sup-norm change drops below ``tol``, then polishes while it still
    strictly decreases; the direct march must reproduce this fixed point.
    """
    d = grid.delta
    mask = grid.mask
    h = np.asarray(h, dtype=float)
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
    t = h[:, None] + ct_v(np.where(mask, Q, 0.0))
    return t, P, Q


def row_loop_linear_t(mu_grid, nu_grid, gamma_inv_diag, h, dh_du, grid):
    """Reference: the direct march with every row product formed in the loop.

    The package's former time solve, kept as the oracle of the precomputed
    march: the same trapezoid system, diagonal closure and floating-point
    operations, with about 22 NumPy calls per row, the products formed in
    the loop and the diagonal node closed in NumPy scalars.
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
    t = h[:, None] + cumulative_trapezoid(Q, dx=d, axis=1, initial=0.0)
    return t, P, Q


def assert_matches_row_loop(args):
    # bit for bit: the precomputed march does the loop's arithmetic
    got = FB.solve_linear_t(*args)
    want = row_loop_linear_t(*args)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)
    mask = args[-1].mask
    assert not np.any(got[1][~mask]) and not np.any(got[2][~mask])


def zero_denominator_case(n=16):
    """Coefficients whose diagonal closure 1 + e^{-K} half F gamma_inv is
    exactly 0 at node 7: nu = 0 (so K = 0), mu = 1 and delta a power of 2."""
    g = FB.TriGrid(1.0, n)
    mu = np.ones((n + 1, n + 1))
    nu = np.zeros((n + 1, n + 1))
    ginv = np.full(n + 1, 0.5)
    ginv[7] = -1.0 / (0.5 * g.delta)
    return mu, nu, ginv, g.nodes**2, 1.0 + g.nodes, g


def frozen_curve_args(rad, cusp, model, n):
    """Arguments of every time solve of a canonical frozen-curve inner solve."""
    grid = FB.TriGrid(EPS, n)
    init = SA.initial_data(model, rad, EPS, n)
    bf = FB.BoundaryFunctions.seed(cusp, grid.nodes)
    seen = []
    direct = FB.solve_linear_t

    def record(*args):
        seen.append(args)
        return direct(*args)

    FB.solve_linear_t = record
    try:
        FB.solve_fixed_bvp(bf, init, rad, grid)
    finally:
        FB.solve_linear_t = direct
    return seen


def assert_matches_picard(args):
    grid = args[-1]
    got = FB.solve_linear_t(*args)
    want = picard_linear_t(*args)
    for x, y in zip(got, want):
        scale = np.max(np.abs(y[grid.mask]))
        assert np.max(np.abs(x - y)[grid.mask]) <= 1e-13 * scale


class TestSolveLinearT:
    def test_decoupled_is_exact(self, rad, cusp, model):
        n = 32
        g = FB.TriGrid(EPS, n)
        init = SA.initial_data(model, rad, EPS, n)
        zero = np.zeros((n + 1, n + 1))
        ginv = 1.0 + g.nodes
        t, P, Q = FB.solve_linear_t(zero, zero, ginv, init.h, init.dh_du, g)
        dh = np.asarray(init.dh_du)
        a = dh * ginv
        a[0] = 0.0
        assert np.array_equal(P, np.where(g.mask, dh[:, None], 0.0))
        assert np.array_equal(Q, np.where(g.mask, a[None, :], 0.0))
        t_manual = np.asarray(init.h)[:, None] + cumulative_trapezoid(
            np.where(g.mask, Q, 0.0), dx=g.delta, axis=1, initial=0.0
        )
        assert np.array_equal(t, t_manual)

    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_picard_manufactured(self, n):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(n)
        assert_matches_picard((mu, nu, ginv, h, dh, g))

    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_picard_frozen_curve(self, rad, cusp, model, n):
        calls = frozen_curve_args(rad, cusp, model, n)
        assert len(calls) >= 2
        for args in (calls[0], calls[-1]):
            assert_matches_picard(args)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_row_loop_manufactured(self, n):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(n)
        assert_matches_row_loop((mu, nu, ginv, h, dh, g))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_row_loop_frozen_curve(self, rad, cusp, model, n):
        calls = frozen_curve_args(rad, cusp, model, n)
        for args in (calls[0], calls[-1]):
            assert_matches_row_loop(args)

    def test_special_nodes_match_row_loop(self):
        # gamma_inv = +inf with b != 0: both raise; with b = 0 (all data
        # zero): both close the node to 0
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        ginv = ginv.copy()
        ginv[6] = math.inf
        for solve in (FB.solve_linear_t, row_loop_linear_t):
            with pytest.raises(NonConvergence) as exc:
                solve(mu, nu, ginv, h, dh, g)
            assert exc.value.diverging
        zeros = np.zeros(17)
        assert_matches_row_loop((mu, nu, np.full(17, math.inf), zeros, zeros, g))

    def test_zero_denominator_raises_non_convergence(self):
        args = zero_denominator_case()
        assert 1.0 + 0.5 * args[-1].delta * args[2][7] == 0.0
        for solve in (FB.solve_linear_t, row_loop_linear_t):
            with pytest.raises(NonConvergence) as exc:
                solve(*args)
            assert exc.value.diverging
        # one node short of it, the closure is finite and both agree
        mu, nu, ginv, h, dh, g = args
        ginv = ginv.copy()
        ginv[7] = 0.5
        assert_matches_row_loop((mu, nu, ginv, h, dh, g))

    def test_values_beyond_the_diagonal_are_discarded(self):
        # c = half F gam = 1 exactly at node (7, 7) makes the recurrence
        # weight W[7, 8] infinite; the row loop never reads it, and the
        # full-row march must discard what it produces beyond the diagonal
        n = 16
        g = FB.TriGrid(1.0, n)
        mu = np.zeros((n + 1, n + 1))
        nu = np.zeros((n + 1, n + 1))
        mu[7, 7] = nu[7, 7] = 32.0
        nu[7, 6] = -32.0  # K(7, 7) = 0
        assert_matches_row_loop((mu, nu, np.full(n + 1, 0.5), g.nodes**2, 1.0 + g.nodes, g))

    def test_inputs_are_not_modified(self):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        before = [np.copy(x) for x in (mu, nu, ginv, h, dh)]
        FB.solve_linear_t(mu, nu, ginv, h, dh, g)
        for x, y in zip(before, (mu, nu, ginv, h, dh)):
            assert np.array_equal(x, y)

    def test_manufactured_second_order(self):
        errs = {}
        for n in (16, 32):
            g, mu, nu, ginv, h, dh, P_ex, Q_ex, t_ex = manufactured_case(n)
            t, P, Q = FB.solve_linear_t(mu, nu, ginv, h, dh, g)
            errs[n] = (
                np.max(np.abs(P - P_ex)[g.mask]),
                np.max(np.abs(Q - Q_ex)[g.mask]),
                np.max(np.abs(t - t_ex)[g.mask]),
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
            FB.solve_linear_t(mu, nu, ginv, h, dh, g)
        assert exc.value.diverging
        with pytest.raises(NonConvergence), np.errstate(invalid="ignore"):
            picard_linear_t(mu, nu, ginv, h, dh, g)

    def test_non_finite_outside_triangle_ignored(self):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        mu = np.where(g.mask, mu, math.nan)
        nu = np.where(g.mask, nu, math.inf)
        assert_matches_picard((mu, nu, ginv, h, dh, g))

    def test_sonic_node_with_nonzero_slope_raises(self):
        g, mu, nu, ginv, h, dh, *_ = manufactured_case(16)
        ginv = ginv.copy()
        ginv[6] = math.inf
        with pytest.raises(NonConvergence) as exc:
            FB.solve_linear_t(mu, nu, ginv, h, dh, g)
        assert exc.value.diverging
        with pytest.raises(NonConvergence):
            picard_linear_t(mu, nu, ginv, h, dh, g)

    def test_sonic_nodes_with_zero_slope_close_to_zero(self):
        # gamma_inv = +inf at every node (the corner and exactly sonic
        # nodes): a = 0 where dt/du vanishes, with no NaN from 0 * inf
        g, mu, nu, *_ = manufactured_case(16)
        zeros = np.zeros(17)
        ginv = np.full(17, math.inf)
        t, P, Q = FB.solve_linear_t(mu, nu, ginv, zeros, zeros, g)
        assert not np.any(t) and not np.any(P) and not np.any(Q)


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
        t, P, Q = FB.solve_linear_t(mu, nu, ginv, init.h, init.dh_du, grid)
        s_edge = cumulative_trapezoid((cm * P)[:, 0], dx=d, initial=0.0)
        s = s_edge[:, None] + FB._ct_v(np.where(mask, cp * Q, 0.0), d)
        return t, P, Q, bf.cusp.r0 + s, s

    changes = []
    met = False
    prev = math.inf
    for _ in range(max_sweeps):
        t, P, Q, r, s = assemble(alpha, beta)
        A, B = source_terms(eos, RiemannPair(alpha, beta), r)
        alpha_new = alpha_i[:, None] + FB._ct_v(np.where(mask, Q * A, 0.0), d)
        beta_new = beta_p[None, :] + FB._from_diag(FB._ct_u(np.where(mask, P * B, 0.0), d))
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


def assert_matches_polished(rad, cusp, model, n):
    """The floor stop agrees with the polished reference; returns the solve."""
    fg, bf, init = canonical_solve(rad, cusp, model, n)
    ref, changes = polished_fixed_bvp(bf, init, rad, fg.grid)
    m = fg.grid.mask
    assert changes[: fg.sweeps] == fg.changes
    for name, R in ref.items():
        scale = np.max(np.abs(R[m]))
        assert np.max(np.abs(getattr(fg, name) - R)[m]) <= 1e-14 * scale, name
    # alpha and beta sit within the stop rule's own floor of the polished point
    floor = 2.0 * np.spacing(max(np.max(np.abs(ref["alpha"][m])), np.max(np.abs(ref["beta"][m]))))
    for name in ("alpha", "beta"):
        assert np.max(np.abs(getattr(fg, name) - ref[name])[m]) <= floor, name
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
        # each sweep evaluates the grid state once, for the speeds of its
        # time solve and for its source terms; the closing assemble once more
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
        assert shapes.count((n + 1, n + 1)) == 3

    def test_converges_fast(self, base_run):
        fg, _, _ = base_run
        assert fg.sweeps <= 6
        assert fg.contraction_ratios[0] < 1e-4
        assert all(r < 1.0 for r in fg.contraction_ratios)

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
        assert 0.0 < fg.contraction_ratios[0] < 1.0

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
            U, V = g.U, g.V
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
            U, V = g.U, g.V
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
        ratio = dfdv[1:13] / v[1:13]
        limit = fitting.extrapolate_to_zero(v[1:13], ratio, degree=2)
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
        m = g.mask & (g.V > 0)
        assert np.max(np.abs(nu[m]) / g.V[m]) < 0.1

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
                ratio = np.gradient(f, v)[1:13] / v[1:13]
                limit = fitting.extrapolate_to_zero(v[1:13], ratio, degree=2)
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
        curve = SA.incoming_characteristic(model, rad, w_nodes=phi)
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
        curve32 = SA.incoming_characteristic(model, rad, w_nodes=phi32)
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


class TestResiduals:
    def test_keys_and_overall_max(self, base_run, rad):
        fg, bf, init = base_run
        res = FB.characteristic_residuals(fg, rad, init, bf)
        names = {"alpha", "beta", "radius_out", "radius_in", "time_out", "time_in", "max"}
        assert set(res) == names
        assert res["max"] == max(res[k] for k in names - {"max"})
        assert all(math.isfinite(x) and x >= 0 for x in res.values())


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
