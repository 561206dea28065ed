"""Barotropic equation of state and the thermodynamic chain built on it.

A barotropic fluid is described by one function p(rho) with 0 < dp/drho < 1
(subluminal sound speed, units with the light speed equal to one and a unit
particle mass so per-mass and per-particle quantities coincide). Everything
else the solver needs is derived from it:

* squared sound speed        eta^2 = dp/drho
* flow potential             sigma(rho) = sigma_ref exp(int drho' / (rho'+p)),
                             with sigma_ref = (rho_ref + p_ref) / h_ref
* specific enthalpy          h = (rho + p) / sigma, so dh/drho = eta^2/sigma
* enthalpy potential         rho_tilde(h) = int dh' / (eta h'), zero at h_ref
* wave-speed weight          G = sigma / sqrt(H), H = h^2
* stiffness combination      Sigma_tilde = (1 - eta^2) / h^2
* nonlinearity coefficient   mu = d eta / d rho_tilde + 1 - eta^2

rho_ref and the fixed gauge h_ref = 1 fix the integration constants of sigma
and rho_tilde. Each law has one ``Chain``: the radiation and quadratic laws
carry it in closed form; any other law (tabulated, or ``closed=None``) reads
it off one chart (``_ensure_chart``), for scalar and array input alike: a
scalar is a lane of one, and its results come back as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import OutOfRange
from .fitting import _GAUSS_W, _GAUSS_X, _lane_result, safeguarded_newton_lanes

__all__ = [
    "BarotropicEos",
    "Chain",
    "radiation",
    "poly2",
    "from_table",
    "sound_speed_sq",
    "pressure",
    "sigma",
    "enthalpy",
    "rho_of_enthalpy",
    "potential_of_rho",
    "rho_of_potential",
    "eta_of_potential",
    "big_g",
    "sigma_tilde",
    "sigma_tilde_slope",
    "mu_coefficient",
    "eos_identity_residual",
]

# reference density of the built-in laws
_RHO_REF = 1.0

# chart nodes; each segment's integrals take the 8-point Gauss-Legendre rule
# (4 and 8 points agree to rounding on the tested laws)
_CHART_NODES = 4097


class Chain(NamedTuple):
    """A law's chain: sigma(rho), h(rho), rho(h), rho_tilde(rho), rho(rho_tilde)
    and d eta/d rho_tilde, each mapping a float array to a float array."""

    sigma: Callable
    enthalpy: Callable
    rho_of_enthalpy: Callable
    potential_of_rho: Callable
    rho_of_potential: Callable
    deta_dpotential: Callable


@dataclass
class BarotropicEos:
    """A barotropic pressure law plus its thermodynamic chain.

    Args:
        label: short name used in error messages and reports.
        pressure_fn: p(rho), positive on the admissible range.
        dp_drho_fn: dp/drho, must lie in (0, 1) on the admissible range.
        rho_min, rho_max: admissible density interval.
        rho_ref: reference density where the enthalpy potential vanishes.
        closed: the chain in closed form, or None to read it off the chart
            (see the module docstring), built on first use and cached.

    The enthalpy at rho_ref is the fixed gauge ``h_ref`` = 1.
    """

    h_ref: ClassVar[float] = 1.0

    label: str
    pressure_fn: Callable
    dp_drho_fn: Callable
    rho_min: float
    rho_max: float
    rho_ref: float = 1.0
    closed: Chain | None = None
    # caches: the chart's chain, and the input range of each inverse
    _chart: Chain | None = field(default=None, init=False, repr=False, compare=False)
    _ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # densities where the pressure is only C1 (a table's knots), which the
    # chart takes as nodes; set by from_table
    _knots: np.ndarray = field(
        default_factory=lambda: np.empty(0), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (0 < self.rho_min < self.rho_ref < self.rho_max):
            raise OutOfRange(
                f"{self.label}: need 0 < rho_min < rho_ref < rho_max, got "
                f"({self.rho_min}, {self.rho_ref}, {self.rho_max})"
            )
        # Admissibility is asserted on a sampled log grid at construction.
        probe = np.geomspace(self.rho_min, self.rho_max, 65)
        p = np.asarray(self.pressure_fn(probe), dtype=float)
        eta2 = np.asarray(self.dp_drho_fn(probe), dtype=float)
        if np.any(~np.isfinite(p)) or np.any(p <= 0):
            raise OutOfRange(f"{self.label}: pressure must be positive on the range")
        if np.any(~np.isfinite(eta2)) or np.any(eta2 <= 0) or np.any(eta2 >= 1):
            raise OutOfRange(
                f"{self.label}: dp/drho must lie in (0, 1) on the range"
            )
        if self.closed is not None:
            lacking = [f for f in Chain._fields if not callable(getattr(self.closed, f, None))]
            if lacking:
                raise TypeError(f"{self.label}: closed chain lacks callable {', '.join(lacking)}")

    @property
    def sigma_ref(self) -> float:
        p_ref = float(self.pressure_fn(self.rho_ref))
        return (self.rho_ref + p_ref) / self.h_ref


def _check_in(eos: BarotropicEos, x, lo, hi, name: str):
    a = np.asarray(x, dtype=float)
    if not a.size:
        return a
    amin, amax = a.min(), a.max()
    # NaN fails both comparisons and +-inf fails one, so this also rejects
    # non-finite input
    if not (lo <= amin and amax <= hi):
        raise OutOfRange(
            f"{eos.label}: {name} in [{float(amin)}, {float(amax)}] outside "
            f"admissible [{lo}, {hi}]"
        )
    return a


def _check_rho(eos: BarotropicEos, rho):
    return _check_in(eos, rho, eos.rho_min, eos.rho_max, "density")


def _hermite(x, y, dydx):
    """Cubic Hermite interpolant through (x, y) with node slopes dydx.

    Returns a function q -> (value, slope); beyond the end nodes the end
    cubics extend. The per-interval coefficients are those of SciPy's
    CubicHermiteSpline.
    """
    dx = np.diff(x)
    m = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * m) / dx
    c3, c2, c1, c0 = t / dx, (m - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]
    last = len(dx) - 1

    def at(q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, last)
        s = q - x[i]
        value = ((c3[i] * s + c2[i]) * s + c1[i]) * s + c0[i]
        slope = (3.0 * c3[i] * s + 2.0 * c2[i]) * s + c1[i]
        return value, slope

    return at


def _pchip_slopes(x, y):
    """Node slopes of the monotone cubic (Fritsch & Butland, SIAM J. Sci.
    Stat. Comput. 5, 1984), with SciPy PchipInterpolator's arithmetic:
    weighted harmonic means inside, a shape-preserving three-point estimate
    at the ends. Needs at least 3 nodes."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))

    def end(h0, h1, m0, m1):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            return 3.0 * m0
        return e

    d[0] = end(h[0], h[1], m[0], m[1])
    d[-1] = end(h[-1], h[-2], m[-1], m[-2])
    return d


# ----------------------------------------------------------------------
# Core chain: eta^2, p, sigma, h, rho_tilde and their inverses.
# ----------------------------------------------------------------------

def sound_speed_sq(eos: BarotropicEos, rho):
    """Squared sound speed eta^2 = dp/drho.

    Raises:
        OutOfRange: if rho leaves the admissible interval or eta^2 leaves
            (0, 1).
    """
    return _lane_result(_sound_speed_sq_at(eos, _check_rho(eos, rho)))


def pressure(eos: BarotropicEos, rho):
    """Pressure p(rho)."""
    return _lane_result(np.asarray(eos.pressure_fn(_check_rho(eos, rho)), dtype=float))


def _ensure_chart(eos: BarotropicEos) -> Chain:
    """The chain of a law without closed forms, off a chart built once per law.

    Nodes are log-spaced over the admissible range plus rho_ref and the
    law's knots, so each segment lies where the pressure is smooth. The core
    integrals int drho/(rho+p) and int eta drho/(rho+p) are summed over all
    segments at once by the Gauss-Legendre rule; sigma, rho_tilde and the
    inverses rho(h), rho(rho_tilde) interpolate the node values with the
    exact slopes dsigma/drho = sigma/(rho+p), drho_tilde/drho = eta/(rho+p)
    and dh/drho = eta^2/sigma (reciprocals for the inverses); h = (rho + p)/sigma,
    and d eta/d rho_tilde is a symmetric 4th-order difference along rho_tilde.
    """
    if eos._chart is not None:
        return eos._chart
    nodes = np.geomspace(eos.rho_min, eos.rho_max, _CHART_NODES)
    # place rho_ref exactly on the chart so the constants are exact there
    nodes = np.unique(np.concatenate([nodes, [eos.rho_ref], eos._knots]))
    half = 0.5 * np.diff(nodes)[:, None]
    r = 0.5 * (nodes[1:] + nodes[:-1])[:, None] + half * _GAUSS_X
    w = half * _GAUSS_W / (r + np.asarray(eos.pressure_fn(r), dtype=float))
    eta_r = np.sqrt(np.asarray(eos.dp_drho_fn(r), dtype=float))
    cum_sigma = np.concatenate([[0.0], np.cumsum(w.sum(axis=1))])
    cum_pot = np.concatenate([[0.0], np.cumsum((w * eta_r).sum(axis=1))])
    k = int(np.searchsorted(nodes, eos.rho_ref))
    cum_sigma -= cum_sigma[k]
    cum_pot -= cum_pot[k]
    sig = eos.sigma_ref * np.exp(cum_sigma)
    e = nodes + np.asarray(eos.pressure_fn(nodes), dtype=float)
    eta2 = np.asarray(eos.dp_drho_fn(nodes), dtype=float)
    eta = np.sqrt(eta2)
    h = e / sig
    sig_at, rho_of_h, pot_at, rho_of_pot = (
        _hermite(nodes, sig, sig / e), _hermite(h, nodes, sig / eta2),
        _hermite(nodes, cum_pot, eta / e), _hermite(cum_pot, nodes, e / eta),
    )

    def deta_dpotential(a):
        d = 1e-4 * (1.0 + np.abs(a))
        em2, em1, ep1, ep2 = (
            np.asarray(eta_of_potential(eos, a + j * d), dtype=float) for j in (-2, -1, 1, 2)
        )
        return (em2 - 8 * em1 + 8 * ep1 - ep2) / (12 * d)

    eos._ranges.update(enthalpy=(h[0], h[-1]), potential=(cum_pot[0], cum_pot[-1]))
    eos._chart = Chain(
        sigma=lambda x: sig_at(x)[0],
        enthalpy=lambda x: (x + np.asarray(eos.pressure_fn(x), dtype=float)) / sig_at(x)[0],
        rho_of_enthalpy=lambda x: rho_of_h(x)[0],
        potential_of_rho=lambda x: pot_at(x)[0],
        rho_of_potential=lambda x: rho_of_pot(x)[0],
        deta_dpotential=deta_dpotential,
    )
    return eos._chart


def _chain(eos: BarotropicEos) -> Chain:
    """The law's chain: its closed forms, else its chart."""
    return eos.closed if eos.closed is not None else _ensure_chart(eos)


# The ``_*_at`` helpers evaluate at a density array that has already passed
# ``_check_rho``, so a caller holding one checked density pays for one check.

def _sound_speed_sq_at(eos: BarotropicEos, a: np.ndarray) -> np.ndarray:
    """eta^2 at checked densities a; OutOfRange if it leaves (0, 1)."""
    eta2 = np.asarray(eos.dp_drho_fn(a), dtype=float)
    if eta2.size:
        lo, hi = eta2.min(), eta2.max()
        # NaN fails both comparisons, so a NaN sound speed is rejected too
        if not (0 < lo and hi < 1):
            raise OutOfRange(f"{eos.label}: dp/drho left (0, 1) at rho={a}")
    return eta2


def sigma(eos: BarotropicEos, rho):
    """Flow potential sigma(rho), the integrating factor of d(rho)/(rho+p)."""
    return _lane_result(_chain(eos).sigma(_check_rho(eos, rho)))


def enthalpy(eos: BarotropicEos, rho):
    """Specific enthalpy h = (rho + p)/sigma."""
    return _lane_result(_chain(eos).enthalpy(_check_rho(eos, rho)))


def _inverse(eos: BarotropicEos, x, forward, name: str):
    """Density at x = h or rho_tilde, by the chain's inverse.

    x is first checked against the image of [rho_min, rho_max] under the
    increasing forward map (a closed chain's taken on first use, a chart's
    when it is built), so a closed form never runs where it can wrap around
    or overflow. An inverse at an end of that image can land one rounding
    outside [rho_min, rho_max], so the density is clipped back into it.
    """
    chain = _chain(eos)
    if name not in eos._ranges:
        eos._ranges[name] = tuple(forward(eos, np.array([eos.rho_min, eos.rho_max])).tolist())
    a = _check_in(eos, x, *eos._ranges[name], name)
    out = getattr(chain, "rho_of_" + name)(a)
    # np.clip's arithmetic, without its Python wrapper
    return _lane_result(np.minimum(np.maximum(out, eos.rho_min), eos.rho_max))


def rho_of_enthalpy(eos: BarotropicEos, h):
    """Inverse of enthalpy(rho); h is strictly increasing in rho."""
    return _inverse(eos, h, enthalpy, "enthalpy")


def potential_of_rho(eos: BarotropicEos, rho):
    """Enthalpy potential as a function of density."""
    return _lane_result(_chain(eos).potential_of_rho(_check_rho(eos, rho)))


def rho_of_potential(eos: BarotropicEos, rho_tilde):
    """Density at a given enthalpy potential (inverse of potential_of_rho)."""
    return _inverse(eos, rho_tilde, potential_of_rho, "potential")


def eta_of_potential(eos: BarotropicEos, rho_tilde):
    """Sound speed eta at a given enthalpy potential."""
    return _lane_result(np.sqrt(sound_speed_sq(eos, rho_of_potential(eos, rho_tilde))))


# ----------------------------------------------------------------------
# Wave-speed weight, stiffness combination, nonlinearity coefficient.
# ----------------------------------------------------------------------

def big_g(eos: BarotropicEos, H):
    """Wave-speed weight G = sigma/sqrt(H) at squared enthalpy H = h^2."""
    a = np.asarray(H, dtype=float)
    if np.any(a <= 0):
        raise OutOfRange(f"{eos.label}: H must be positive")
    h = np.sqrt(a)
    rho = rho_of_enthalpy(eos, h)
    return _lane_result(np.asarray(sigma(eos, rho), dtype=float) / h)


def sigma_tilde(eos: BarotropicEos, h):
    """Stiffness combination Sigma_tilde = (1 - eta^2)/h^2."""
    rho = rho_of_enthalpy(eos, h)
    eta2 = np.asarray(sound_speed_sq(eos, rho), dtype=float)
    return _lane_result((1.0 - eta2) / np.square(np.asarray(h, dtype=float)))


def sigma_tilde_slope(eos: BarotropicEos, h):
    """d Sigma_tilde / dh by symmetric differencing at relative step 1e-4."""
    hv = float(h)
    d = 1e-4 * hv
    return (sigma_tilde(eos, hv + d) - sigma_tilde(eos, hv - d)) / (2.0 * d)


def mu_coefficient(eos: BarotropicEos, rho_tilde):
    """Nonlinearity coefficient mu = d eta/d rho_tilde + 1 - eta^2.

    Positive mu is what makes compression steepen into a shock; the solver
    requires it at the cusp state.
    """
    a = np.asarray(rho_tilde, dtype=float)
    return _lane_result(_mu_at(eos, a, np.asarray(eta_of_potential(eos, a), dtype=float)))


def _mu_at(eos: BarotropicEos, a: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """mu at potentials a whose sound speed eta is already known."""
    return _chain(eos).deta_dpotential(a) + 1.0 - np.square(eta)


def eos_identity_residual(eos: BarotropicEos, rho):
    """Both sides of the thermodynamic consistency identity.

    With v = 1/sigma viewed as a function of pressure along the barotrope,
    the identity reads

        3 v dv/dp + h d2v/dp2  ==  -(v^3 h^2 / eta^4) dSigma_tilde/dh.

    Returns:
        (lhs, rhs) evaluated with symmetric differencing in p (relative
        step 1e-3) and h (relative step 1e-4).
    """
    rho0 = float(rho)
    _check_rho(eos, rho0)
    p0 = pressure(eos, rho0)
    dp = 1e-3 * p0
    # invert p(rho) at p0 - dp, p0, p0 + dp, then v = 1/sigma
    pv = np.array([p0 - dp, p0, p0 + dp])

    def fdf(r):
        return (
            np.asarray(eos.pressure_fn(r), dtype=float) - pv,
            np.asarray(eos.dp_drho_fn(r), dtype=float),
        )

    r = safeguarded_newton_lanes(fdf, rho0, eos.rho_min, eos.rho_max, 1e-14 * pv)
    vm, v0, vp = (1.0 / np.asarray(sigma(eos, r))).tolist()
    dv_dp = (vp - vm) / (2 * dp)
    d2v_dp2 = (vp - 2 * v0 + vm) / dp**2
    h0 = enthalpy(eos, rho0)
    eta2 = sound_speed_sq(eos, rho0)
    lhs = 3 * v0 * dv_dp + h0 * d2v_dp2
    rhs = -(v0**3 * h0**2 / eta2**2) * sigma_tilde_slope(eos, h0)
    return lhs, rhs


# ----------------------------------------------------------------------
# Built-in pressure laws.
# ----------------------------------------------------------------------

def radiation() -> BarotropicEos:
    """Pure radiation: p = rho/3, constant eta^2 = 1/3.

    The gauge is fixed: rho_ref = h_ref = 1 and densities in [1e-6, 1e6].
    Closed chain (with x = rho/rho_ref):
        sigma = sigma_ref x^(3/4),  h = h_ref x^(1/4),
        rho_tilde = sqrt(3) log(h/h_ref),  mu = 2/3.
    """
    rho_ref, h_ref = _RHO_REF, BarotropicEos.h_ref
    sqrt3 = math.sqrt(3.0)
    sigma_ref = (rho_ref + rho_ref / 3.0) / h_ref

    return BarotropicEos(
        label="radiation",
        pressure_fn=lambda r: r / 3.0,
        dp_drho_fn=lambda r: np.full_like(np.asarray(r, dtype=float), 1.0 / 3.0),
        rho_min=1e-6,
        rho_max=1e6,
        rho_ref=rho_ref,
        closed=Chain(
            sigma=lambda r: sigma_ref * (np.asarray(r, dtype=float) / rho_ref) ** 0.75,
            enthalpy=lambda r: h_ref * (np.asarray(r, dtype=float) / rho_ref) ** 0.25,
            rho_of_enthalpy=lambda h: rho_ref * (np.asarray(h, dtype=float) / h_ref) ** 4,
            potential_of_rho=lambda r: (sqrt3 / 4.0)
            * np.log(np.asarray(r, dtype=float) / rho_ref),
            rho_of_potential=lambda pt: rho_ref
            * np.exp(4.0 * np.asarray(pt, dtype=float) / sqrt3),
            deta_dpotential=lambda pt: np.zeros_like(np.asarray(pt, dtype=float)),
        ),
    )


def poly2(k: float) -> BarotropicEos:
    """Quadratic pressure law p = k rho^2 with eta^2 = 2 k rho.

    The gauge is fixed: rho_ref = h_ref = 1. Admissible while 2 k rho < 1;
    densities run from 1e-6 to just short of that, 0.999 / (2 k).
    Closed chain with C = (1 + k rho_ref)^2 / h_ref:
        sigma = C rho / (1 + k rho),   h = (1 + k rho)^2 / C,
        rho_tilde = 2 sqrt(2) [atan(eta/sqrt2) - atan(eta_ref/sqrt2)],
        d eta/d rho_tilde = 1/2 + eta^2/4,  mu = 3/2 - (3/4) eta^2.
    """
    if k <= 0:
        raise OutOfRange("poly2: k must be positive")
    rho_ref, h_ref = _RHO_REF, BarotropicEos.h_ref
    C = (1.0 + k * rho_ref) ** 2 / h_ref
    sqrt2 = math.sqrt(2.0)
    eta_ref = math.sqrt(2.0 * k * rho_ref)
    atan_ref = math.atan(eta_ref / sqrt2)

    def rho_of_h(h):
        ha = np.asarray(h, dtype=float)
        return (np.sqrt(ha * C) - 1.0) / k

    def pot_of_rho(r):
        eta = np.sqrt(2.0 * k * np.asarray(r, dtype=float))
        return 2.0 * sqrt2 * (np.arctan(eta / sqrt2) - atan_ref)

    def rho_of_pot(pt):
        ang = atan_ref + np.asarray(pt, dtype=float) / (2.0 * sqrt2)
        eta = sqrt2 * np.tan(ang)
        return np.square(eta) / (2.0 * k)

    def deta_dpot(pt):
        ang = atan_ref + np.asarray(pt, dtype=float) / (2.0 * sqrt2)
        eta2 = 2.0 * np.square(np.tan(ang))
        return 0.5 + eta2 / 4.0

    return BarotropicEos(
        label="poly2",
        pressure_fn=lambda r: k * np.square(np.asarray(r, dtype=float)),
        dp_drho_fn=lambda r: 2.0 * k * np.asarray(r, dtype=float),
        rho_min=1e-6,
        rho_max=0.999 / (2.0 * k),
        rho_ref=rho_ref,
        closed=Chain(
            sigma=lambda r: C * np.asarray(r, dtype=float)
            / (1.0 + k * np.asarray(r, dtype=float)),
            enthalpy=lambda r: np.square(1.0 + k * np.asarray(r, dtype=float)) / C,
            rho_of_enthalpy=rho_of_h,
            potential_of_rho=pot_of_rho,
            rho_of_potential=rho_of_pot,
            deta_dpotential=deta_dpot,
        ),
    )


def from_table(table, rho_ref: float | None = None) -> BarotropicEos:
    """Tabulated barotrope from a two-column (rho, p) table.

    Args:
        table: path to a two-column text file (whitespace or comma
            separated), or an (N, 2) array.
        rho_ref: reference density; defaults to the middle table node.

    The enthalpy at rho_ref is fixed at h_ref = 1, and the label is "table".

    The pressure is interpolated with a monotone cubic, so dp/drho inherits
    the table's monotonicity. Admissibility (p > 0, dp/drho in (0, 1)) is
    checked on the nodes and midpoints.
    """
    if isinstance(table, (str, bytes)) or hasattr(table, "__fspath__"):
        try:
            data = np.loadtxt(table)
        except ValueError:
            data = np.loadtxt(table, delimiter=",")
    else:
        data = np.asarray(table, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise OutOfRange("table: need an (N >= 4, 2) table of (rho, p)")
    rho, p = data[:, 0], data[:, 1]
    if not np.all(np.diff(rho) > 0):
        raise OutOfRange("table: table densities must be strictly increasing")
    if not np.all(p > 0):
        raise OutOfRange("table: table pressures must be positive")
    interp = _hermite(rho, p, _pchip_slopes(rho, p))
    mid = 0.5 * (rho[:-1] + rho[1:])
    slopes = interp(np.concatenate([rho, mid]))[1]
    if np.any(slopes <= 0) or np.any(slopes >= 1):
        raise OutOfRange("table: table dp/drho must lie in (0, 1)")
    if rho_ref is None:
        rho_ref = float(rho[len(rho) // 2])
    eos = BarotropicEos(
        label="table",
        pressure_fn=lambda r: interp(r)[0],
        dp_drho_fn=lambda r: interp(r)[1],
        rho_min=float(rho[0]),
        rho_max=float(rho[-1]),
        rho_ref=float(rho_ref),
    )
    eos._knots = rho.copy()
    return eos
