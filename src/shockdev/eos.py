"""Barotropic equation of state and the thermodynamic chart built on it.

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

The two reference constants (rho_ref, h_ref) fix the free integration
constants of sigma and rho_tilde. The radiation and quadratic laws carry
closed forms; any other law (tabulated, or without closed forms) is read off
one chart (``_ensure_chart``), for scalar and array input alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import OutOfRange
from .fitting import safeguarded_newton_lanes

__all__ = [
    "BarotropicEos",
    "radiation",
    "poly2",
    "from_table",
    "sound_speed_sq",
    "pressure",
    "sigma",
    "enthalpy",
    "rho_of_enthalpy",
    "potential_of_rho",
    "riemann_potential",
    "rho_of_potential",
    "enthalpy_of_potential",
    "eta_of_potential",
    "big_g",
    "sigma_tilde",
    "sigma_tilde_slope",
    "mu_coefficient",
    "eos_identity_residual",
]

_CHART_NODES = 4097
# Gauss-Legendre rule for each chart segment (4 and 8 points agree to
# rounding on the tested laws)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


@dataclass
class BarotropicEos:
    """A barotropic pressure law plus the derived thermodynamic chart.

    Args:
        label: short name used in error messages and reports.
        pressure_fn: p(rho), positive on the admissible range.
        dp_drho_fn: dp/drho, must lie in (0, 1) on the admissible range.
        rho_min, rho_max: admissible density interval.
        rho_ref: reference density where the enthalpy potential vanishes.
        h_ref: specific enthalpy assigned at rho_ref.

    The optional ``*_cf`` callables are closed forms; any left as None is
    read off the chart (see the module docstring), built on first use and
    cached on the instance.
    """

    label: str
    pressure_fn: Callable
    dp_drho_fn: Callable
    rho_min: float
    rho_max: float
    rho_ref: float = 1.0
    h_ref: float = 1.0
    sigma_cf: Callable | None = None
    enthalpy_cf: Callable | None = None
    rho_of_enthalpy_cf: Callable | None = None
    potential_of_rho_cf: Callable | None = None
    rho_of_potential_cf: Callable | None = None
    deta_dpotential_cf: Callable | None = None
    _chart: dict = field(default_factory=dict, repr=False)
    _cf_range: dict = field(default_factory=dict, repr=False)
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
        if self.h_ref <= 0:
            raise OutOfRange(f"{self.label}: h_ref must be positive")
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

    @property
    def sigma_ref(self) -> float:
        p_ref = float(self.pressure_fn(self.rho_ref))
        return (self.rho_ref + p_ref) / self.h_ref


def _check_in(eos: BarotropicEos, x, lo, hi, name: str):
    a = np.asarray(x, dtype=float)
    if not a.size:
        return a
    amin, amax = (a.min(), a.max()) if a.ndim else (a, a)
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
    a = _check_rho(eos, rho)
    eta2 = np.asarray(eos.dp_drho_fn(a), dtype=float)
    if eta2.size:
        lo, hi = (eta2.min(), eta2.max()) if eta2.ndim else (eta2, eta2)
        # NaN fails both comparisons, so a NaN sound speed is rejected too
        if not (0 < lo and hi < 1):
            raise OutOfRange(f"{eos.label}: dp/drho left (0, 1) at rho={rho}")
    return eta2 if eta2.ndim else float(eta2)


def pressure(eos: BarotropicEos, rho):
    """Pressure p(rho)."""
    a = _check_rho(eos, rho)
    p = np.asarray(eos.pressure_fn(a), dtype=float)
    return p if p.ndim else float(p)


def _ensure_chart(eos: BarotropicEos):
    """Chart of the laws without closed forms, built once per instance.

    Nodes are log-spaced over the admissible range plus rho_ref and the
    law's knots, so each segment lies where the pressure is smooth. The core
    integrals int drho/(rho+p) and int eta drho/(rho+p) are summed over all
    segments at once by the Gauss-Legendre rule; sigma, rho_tilde and the
    inverses rho(h), rho(rho_tilde) interpolate the node values with the
    exact slopes dsigma/drho = sigma/(rho+p), drho_tilde/drho = eta/(rho+p)
    and dh/drho = eta^2/sigma (reciprocals for the inverses).
    """
    if eos._chart:
        return eos._chart
    nodes = np.geomspace(eos.rho_min, eos.rho_max, _CHART_NODES)
    # place rho_ref exactly on the chart so the constants are exact there
    nodes = np.unique(np.concatenate([nodes, [eos.rho_ref], eos._knots]))
    half = 0.5 * np.diff(nodes)[:, None]
    r = 0.5 * (nodes[1:] + nodes[:-1])[:, None] + half * _GL_X
    w = half * _GL_W / (r + np.asarray(eos.pressure_fn(r), dtype=float))
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
    eos._chart = {
        "sigma": _hermite(nodes, sig, sig / e),
        "potential": _hermite(nodes, cum_pot, eta / e),
        "rho_of_potential": _hermite(cum_pot, nodes, e / eta),
        "rho_of_enthalpy": _hermite(h, nodes, sig / eta2),
        "potential_range": (cum_pot[0], cum_pot[-1]),
        "enthalpy_range": (h[0], h[-1]),
    }
    return eos._chart


# The ``_*_at`` helpers evaluate at a density array that has already passed
# ``_check_rho``, so a caller holding one checked density pays for one check.

def _sigma_at(eos: BarotropicEos, a: np.ndarray) -> np.ndarray:
    if eos.sigma_cf is not None:
        return np.asarray(eos.sigma_cf(a), dtype=float)
    return np.asarray(_ensure_chart(eos)["sigma"](a)[0])


def _enthalpy_at(eos: BarotropicEos, a: np.ndarray) -> np.ndarray:
    if eos.enthalpy_cf is not None:
        return np.asarray(eos.enthalpy_cf(a), dtype=float)
    p = np.asarray(eos.pressure_fn(a), dtype=float)
    return (a + p) / _sigma_at(eos, a)


def sigma(eos: BarotropicEos, rho):
    """Flow potential sigma(rho), the integrating factor of d(rho)/(rho+p)."""
    out = _sigma_at(eos, _check_rho(eos, rho))
    return out if out.ndim else float(out)


def enthalpy(eos: BarotropicEos, rho):
    """Specific enthalpy h = (rho + p)/sigma."""
    out = _enthalpy_at(eos, _check_rho(eos, rho))
    return out if out.ndim else float(out)


def _inverse(eos: BarotropicEos, x, closed, forward, name: str):
    """Density at x = h or rho_tilde: closed form, else the chart inverse.

    Either way x is first checked against the image of [rho_min, rho_max]
    under the increasing forward map, so a closed form is never evaluated
    outside its range (where it can wrap around or overflow).  The
    closed-form image is computed once per instance.  An inverse taken at an
    end of that image can land one rounding outside [rho_min, rho_max], so
    the density is clipped back into it.
    """
    a = np.asarray(x, dtype=float)
    if closed is not None:
        if name not in eos._cf_range:
            ends = forward(eos, np.array([eos.rho_min, eos.rho_max]))
            eos._cf_range[name] = tuple(ends.tolist())
        _check_in(eos, a, *eos._cf_range[name], name)
        out = np.asarray(closed(a), dtype=float)
    else:
        chart = _ensure_chart(eos)
        _check_in(eos, a, *chart[f"{name}_range"], name)
        out = np.asarray(chart[f"rho_of_{name}"](a)[0])
    out = np.clip(out, eos.rho_min, eos.rho_max)
    return out if out.ndim else float(out)


def rho_of_enthalpy(eos: BarotropicEos, h):
    """Inverse of enthalpy(rho); h is strictly increasing in rho."""
    return _inverse(eos, h, eos.rho_of_enthalpy_cf, enthalpy, "enthalpy")


def potential_of_rho(eos: BarotropicEos, rho):
    """Enthalpy potential as a function of density."""
    a = _check_rho(eos, rho)
    if eos.potential_of_rho_cf is not None:
        out = np.asarray(eos.potential_of_rho_cf(a), dtype=float)
    else:
        out = np.asarray(_ensure_chart(eos)["potential"](a)[0])
    return out if out.ndim else float(out)


def riemann_potential(eos: BarotropicEos, h):
    """Enthalpy potential rho_tilde(h) = int_{h_ref}^{h} dh'/(eta(h') h').

    Vanishes at h_ref and is strictly increasing in h.
    """
    rho = rho_of_enthalpy(eos, h)
    return potential_of_rho(eos, rho)


def rho_of_potential(eos: BarotropicEos, rho_tilde):
    """Density at a given enthalpy potential (inverse of potential_of_rho)."""
    return _inverse(eos, rho_tilde, eos.rho_of_potential_cf, potential_of_rho, "potential")


def enthalpy_of_potential(eos: BarotropicEos, rho_tilde):
    """Specific enthalpy at a given enthalpy potential."""
    return enthalpy(eos, rho_of_potential(eos, rho_tilde))


def eta_of_potential(eos: BarotropicEos, rho_tilde):
    """Sound speed eta at a given enthalpy potential."""
    out = np.sqrt(sound_speed_sq(eos, rho_of_potential(eos, rho_tilde)))
    return out if np.ndim(out) else float(out)


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
    out = np.asarray(sigma(eos, rho), dtype=float) / h
    return out if out.ndim else float(out)


def sigma_tilde(eos: BarotropicEos, h):
    """Stiffness combination Sigma_tilde = (1 - eta^2)/h^2."""
    rho = rho_of_enthalpy(eos, h)
    eta2 = np.asarray(sound_speed_sq(eos, rho), dtype=float)
    out = (1.0 - eta2) / np.square(np.asarray(h, dtype=float))
    return out if out.ndim else float(out)


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
    out = _mu_at(eos, a, np.asarray(eta_of_potential(eos, a), dtype=float))
    return out if out.ndim else float(out)


def _mu_at(eos: BarotropicEos, a: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """mu at potentials a whose sound speed eta is already known."""
    eta2 = np.square(eta)
    if eos.deta_dpotential_cf is not None:
        slope = np.asarray(eos.deta_dpotential_cf(a), dtype=float)
    else:
        # symmetric 4th-order difference of eta along the potential
        d = 1e-4 * (1.0 + np.abs(a))
        em2 = np.asarray(eta_of_potential(eos, a - 2 * d), dtype=float)
        em1 = np.asarray(eta_of_potential(eos, a - d), dtype=float)
        ep1 = np.asarray(eta_of_potential(eos, a + d), dtype=float)
        ep2 = np.asarray(eta_of_potential(eos, a + 2 * d), dtype=float)
        slope = (em2 - 8 * em1 + 8 * ep1 - ep2) / (12 * d)
    return slope + 1.0 - eta2


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

def radiation(
    rho_ref: float = 1.0,
    h_ref: float = 1.0,
    rho_min: float = 1e-6,
    rho_max: float = 1e6,
) -> BarotropicEos:
    """Pure radiation: p = rho/3, constant eta^2 = 1/3.

    Closed chain (with x = rho/rho_ref):
        sigma = sigma_ref x^(3/4),  h = h_ref x^(1/4),
        rho_tilde = sqrt(3) log(h/h_ref),  mu = 2/3.
    """
    sqrt3 = math.sqrt(3.0)
    sigma_ref = (rho_ref + rho_ref / 3.0) / h_ref

    return BarotropicEos(
        label="radiation",
        pressure_fn=lambda r: r / 3.0,
        dp_drho_fn=lambda r: np.full_like(np.asarray(r, dtype=float), 1.0 / 3.0),
        rho_min=rho_min,
        rho_max=rho_max,
        rho_ref=rho_ref,
        h_ref=h_ref,
        sigma_cf=lambda r: sigma_ref * (np.asarray(r, dtype=float) / rho_ref) ** 0.75,
        enthalpy_cf=lambda r: h_ref * (np.asarray(r, dtype=float) / rho_ref) ** 0.25,
        rho_of_enthalpy_cf=lambda h: rho_ref * (np.asarray(h, dtype=float) / h_ref) ** 4,
        potential_of_rho_cf=lambda r: (sqrt3 / 4.0)
        * np.log(np.asarray(r, dtype=float) / rho_ref),
        rho_of_potential_cf=lambda pt: rho_ref
        * np.exp(4.0 * np.asarray(pt, dtype=float) / sqrt3),
        deta_dpotential_cf=lambda pt: np.zeros_like(np.asarray(pt, dtype=float)),
    )


def poly2(
    k: float,
    rho_ref: float = 1.0,
    h_ref: float = 1.0,
    rho_min: float = 1e-6,
    rho_max: float | None = None,
) -> BarotropicEos:
    """Quadratic pressure law p = k rho^2 with eta^2 = 2 k rho.

    Admissible while 2 k rho < 1; the default upper bound stops just short.
    Closed chain with C = (1 + k rho_ref)^2 / h_ref:
        sigma = C rho / (1 + k rho),   h = (1 + k rho)^2 / C,
        rho_tilde = 2 sqrt(2) [atan(eta/sqrt2) - atan(eta_ref/sqrt2)],
        d eta/d rho_tilde = 1/2 + eta^2/4,  mu = 3/2 - (3/4) eta^2.
    """
    if k <= 0:
        raise OutOfRange("poly2: k must be positive")
    if rho_max is None:
        rho_max = 0.999 / (2.0 * k)
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
        rho_min=rho_min,
        rho_max=rho_max,
        rho_ref=rho_ref,
        h_ref=h_ref,
        sigma_cf=lambda r: C * np.asarray(r, dtype=float)
        / (1.0 + k * np.asarray(r, dtype=float)),
        enthalpy_cf=lambda r: np.square(1.0 + k * np.asarray(r, dtype=float)) / C,
        rho_of_enthalpy_cf=rho_of_h,
        potential_of_rho_cf=pot_of_rho,
        rho_of_potential_cf=rho_of_pot,
        deta_dpotential_cf=deta_dpot,
    )


def from_table(
    table,
    rho_ref: float | None = None,
    h_ref: float = 1.0,
    label: str = "table",
) -> BarotropicEos:
    """Tabulated barotrope from a two-column (rho, p) table.

    Args:
        table: path to a two-column text file (whitespace or comma
            separated), or an (N, 2) array.
        rho_ref: reference density; defaults to the middle table node.
        h_ref: enthalpy assigned at rho_ref.

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
        raise OutOfRange(f"{label}: need an (N >= 4, 2) table of (rho, p)")
    rho, p = data[:, 0], data[:, 1]
    if not np.all(np.diff(rho) > 0):
        raise OutOfRange(f"{label}: table densities must be strictly increasing")
    if not np.all(p > 0):
        raise OutOfRange(f"{label}: table pressures must be positive")
    interp = _hermite(rho, p, _pchip_slopes(rho, p))
    mid = 0.5 * (rho[:-1] + rho[1:])
    slopes = interp(np.concatenate([rho, mid]))[1]
    if np.any(slopes <= 0) or np.any(slopes >= 1):
        raise OutOfRange(f"{label}: table dp/drho must lie in (0, 1)")
    if rho_ref is None:
        rho_ref = float(rho[len(rho) // 2])
    eos = BarotropicEos(
        label=label,
        pressure_fn=lambda r: interp(r)[0],
        dp_drho_fn=lambda r: interp(r)[1],
        rho_min=float(rho[0]),
        rho_max=float(rho[-1]),
        rho_ref=float(rho_ref),
        h_ref=h_ref,
    )
    eos._knots = rho.copy()
    return eos
