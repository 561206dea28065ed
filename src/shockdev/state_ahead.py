"""Synthetic pre-shock fields near the point where the shock forms.

The solver never evolves the smooth flow that precedes the shock; it only
needs that flow's field values and low-order derivatives in a small
coordinate box around the cusp — the spacetime point where outgoing sound
characteristics first refocus.  This module builds the minimal polynomial
fields in the pre-shock chart coordinates (t, w) realizing the structural
constraints at such a point:

* the radius is critical in w to second order, strictly cubic at third
  (flattening of the characteristic fan), and its mixed (t, w) curvature
  ``kappa`` is positive (refocusing rate);
* the incoming Riemann invariant is critical in w to second order;
* the outgoing Riemann invariant has the w-slope forced by consistency of
  the radius expansion with the outgoing characteristic speed.

Everything downstream consumes this model only through :meth:`eval` (field
and derivative values in a declared validity box) and the boundary-data
operations below: the sonic-criticality curve, the incoming characteristic
emanating from the cusp, and the initial data it carries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field as dc_field, fields
from typing import Mapping, NamedTuple

import numpy as np

from . import eos as eos_mod
from .errors import InconsistentCusp, NonConvergence, OutOfBox, ShockDevError
from .fitting import _error_left, _hatted, _lane_result, _rounding_floor
from .state import RiemannPair, wave_state

__all__ = [
    "CuspData",
    "StateAheadModel",
    "CharacteristicData",
    "InitialData",
    "synthesize_model",
    "singular_boundary",
    "incoming_characteristic",
    "initial_data",
]

# below this |dc+/dalpha| no finite alpha slope can reproduce kappa
_SLOPE_FLOOR = 1e-7

_FIELDS = ("r", "alpha", "beta")

# total degree up to which synthesize_model takes override slots; the
# constrained slots reach degree 4
_MODEL_DEGREE = 5

# Newton passes of the incoming-characteristic march before it gives up;
# it settles in 2 passes for the built-in laws at n = 1...4096
_MARCH_PASSES = 8


def _abs_max(a: np.ndarray) -> float:
    """Largest |a|: NaN if any entry is NaN, 0 for an empty array."""
    return float(np.abs(a).max(initial=0.0))


@dataclass(frozen=True)
class CuspData:
    """Scalar data characterizing the shock-formation point.

    Free parameters (the constructor's, after the EOS):
        kappa: mixed (t, w) curvature of the pre-shock radius; the rate at
            which outgoing characteristics refocus.  Must be positive.
        lam: cubic flattening of the radius in w.  Must be positive.
        alpha0, beta0: outgoing/incoming Riemann invariants at the cusp.
        dbeta_dt0: t-slope of the incoming invariant at the cusp.
        r0: cusp radius.  Must be positive.
        alpha_ddot0: second w-derivative of the outgoing invariant at the
            cusp (free shape data).
        xi: fourth w-derivative of the radius times kappa (free shape data).

    Derived from the EOS at construction, which does not keep it (so
    ``dataclasses.replace`` must be given it again):
        c_plus0, c_minus0: characteristic speeds at the cusp state.
        dcplus_dalpha0: sensitivity of the outgoing speed to the outgoing
            invariant at the cusp state.
        alpha_dot0: w-slope of the outgoing invariant, the unique value
            consistent with kappa: alpha_dot0 * dcplus_dalpha0 = kappa.
        a_tilde0: spherical source term of the outgoing invariant at the
            cusp (zero exactly when the cusp-state fluid velocity is zero).

    Raises:
        InconsistentCusp: a parameter not finite, or kappa, lam or r0 not
            positive (the one check of these bounds), or an EOS whose
            outgoing speed does not respond to the outgoing invariant at the
            cusp state (no finite alpha slope fits kappa).
    """

    eos: InitVar[eos_mod.BarotropicEos]
    kappa: float
    lam: float
    alpha0: float
    beta0: float
    dbeta_dt0: float
    r0: float
    alpha_ddot0: float
    xi: float
    c_plus0: float = dc_field(init=False)
    c_minus0: float = dc_field(init=False)
    dcplus_dalpha0: float = dc_field(init=False)
    alpha_dot0: float = dc_field(init=False)
    a_tilde0: float = dc_field(init=False)

    def __post_init__(self, eos: eos_mod.BarotropicEos) -> None:
        for name in ("kappa", "lam", "r0", "alpha0", "beta0", "dbeta_dt0", "alpha_ddot0", "xi"):
            val = float(getattr(self, name))
            positive = name in ("kappa", "lam", "r0")
            if not (math.isfinite(val) and (val > 0 or not positive)):
                rule = "finite and positive" if positive else "finite"
                raise InconsistentCusp(f"{name} must be {rule}, got {val}")
            object.__setattr__(self, name, val)
        state0 = wave_state(eos, RiemannPair(self.alpha0, self.beta0))
        c_plus0, c_minus0 = state0.speeds()
        dcplus_dalpha0 = state0.speed_derivatives(eos)["pa"]
        if abs(dcplus_dalpha0) < _SLOPE_FLOOR:
            raise InconsistentCusp(
                "outgoing speed is insensitive to the outgoing invariant at the "
                f"cusp state (slope {dcplus_dalpha0:.3e}); no finite alpha slope "
                "reproduces the refocusing rate"
            )
        a_tilde0, _ = state0.sources(self.r0)
        derived = (c_plus0, c_minus0, dcplus_dalpha0, self.kappa / dcplus_dalpha0, a_tilde0)
        for f, val in zip([f for f in fields(self) if not f.init], derived):
            object.__setattr__(self, f.name, float(val))

    @classmethod
    def from_physics(
        cls,
        eos: eos_mod.BarotropicEos,
        *,
        kappa: float,
        lam: float,
        alpha0: float = 0.0,
        beta0: float = 0.0,
        dbeta_dt0: float = 0.0,
        r0: float = 1.0,
        alpha_ddot0: float = 0.0,
        xi: float = 0.0,
    ) -> "CuspData":
        """The cusp data of ``eos`` with the free parameters not given at
        their defaults: zero, and r0 = 1."""
        return cls(eos, kappa=kappa, lam=lam, alpha0=alpha0, beta0=beta0,
                   dbeta_dt0=dbeta_dt0, r0=r0, alpha_ddot0=alpha_ddot0, xi=xi)

    # Analytic corner limits of the hatted curve and data-edge quantities.

    @property
    def f_hat0(self) -> float:
        """Corner value of the hatted shock time f / v^2."""
        return self.lam / (6.0 * self.kappa**2)

    @property
    def g_hat0(self) -> float:
        """Corner value of the hatted shock radius offset g / v^2."""
        return self.lam * self.c_plus0 / (6.0 * self.kappa**2)

    @property
    def alpha_hat0(self) -> float:
        """Corner value of the hatted behind outgoing invariant on the shock."""
        return self.lam * self.a_tilde0 / (6.0 * self.kappa**2)

    @property
    def beta_hat0(self) -> float:
        """Corner value of the hatted behind incoming invariant on the shock."""
        return self.lam / (6.0 * self.kappa**2) * self.dbeta_dt0

    @property
    def h_hat0(self) -> float:
        """Cubic coefficient h / u^3 of the incoming characteristic at the cusp."""
        return self.lam / (6.0 * self.kappa * (self.c_plus0 - self.c_minus0))


def _constrained_slots(cusp: CuspData) -> dict[str, dict[tuple[int, int], float]]:
    """Coefficient slots fixed by the cusp structure; keys are (t-power, w-power)."""
    k = cusp.kappa
    return {
        "r": {
            (0, 0): cusp.r0,
            (1, 0): cusp.c_plus0,
            (0, 1): 0.0,
            (0, 2): 0.0,
            (1, 1): k,
            (0, 3): -cusp.lam / (6.0 * k),
            (0, 4): cusp.xi / (24.0 * k),
        },
        "alpha": {
            (0, 0): cusp.alpha0,
            (0, 1): cusp.alpha_dot0,
            (0, 2): cusp.alpha_ddot0 / 2.0,
        },
        "beta": {
            (0, 0): cusp.beta0,
            (1, 0): cusp.dbeta_dt0,
            (0, 1): 0.0,
            (0, 2): 0.0,
        },
    }


@dataclass(frozen=True)
class StateAheadModel:
    """Polynomial pre-shock fields in (t, w) with a declared validity box.

    coeffs maps field name -> {(t-power, w-power): coefficient}; absent
    slots are zero.  Immutable after synthesis; safe for concurrent reads.
    What is derived from it (term tables, radius factorization, corner
    expansion, initial data per grid) is computed once, on first use.
    """

    cusp: CuspData
    eos: eos_mod.BarotropicEos
    box_t: float
    box_w: float
    coeffs: Mapping[str, Mapping[tuple[int, int], float]]
    # (factor, t-power, w-power) of every term, per (field, dt, dw)
    _terms: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    # InitialData per (eps, n)
    _init: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def eval(self, field: str, t, w, dt: int = 0, dw: int = 0):
        """Evaluate a field or one of its partial derivatives.

        Args:
            field: "r", "alpha" or "beta".
            t, w: scalars or broadcastable arrays inside the validity box.
            dt, dw: derivative orders in t and w (total order at most 4).

        Raises:
            OutOfBox: any requested point outside |t| <= box_t, |w| <= box_w
                (NaN counts as outside), the first one named: the one box
                check, which the incoming-characteristic march passes too.
        """
        key = (field, dt, dw)
        if key not in self._terms:
            if field not in self.coeffs:
                raise ValueError(f"unknown field {field!r}; expected one of {_FIELDS}")
            if dt < 0 or dw < 0 or dt + dw > 4:
                raise ValueError(
                    "derivative multi-index must be non-negative with total order <= 4"
                )
            self._terms[key] = tuple(
                (c * math.perm(i, dt) * math.perm(j, dw), i - dt, j - dw)
                for (i, j), c in self.coeffs[field].items()
                if i >= dt and j >= dw
            )
        t_arr = np.asarray(t, dtype=float)
        w_arr = np.asarray(w, dtype=float)
        t_max, w_max = self.box_t * (1.0 + 1e-12), self.box_w * (1.0 + 1e-12)
        if not (_abs_max(t_arr) <= t_max and _abs_max(w_arr) <= w_max):
            tb, wb = (x.ravel() for x in np.broadcast_arrays(t_arr, w_arr))
            k = int(np.argmin((np.abs(tb) <= t_max) & (np.abs(wb) <= w_max)))
            raise OutOfBox(
                f"evaluation outside validity box |t| <= {self.box_t:g}, |w| <= {self.box_w:g} "
                f"at (t, w) = ({tb[k]:g}, {wb[k]:g})"
            )
        out = np.zeros(np.broadcast(t_arr, w_arr).shape)
        for factor, pt, pw in self._terms[key]:
            # a zero power is an exact factor 1, so skipping it changes no bit
            term = factor * t_arr**pt if pt else factor
            out = out + (term * w_arr**pw if pw else term)
        return _lane_result(out)

    @functools.cached_property
    def radius_terms(self) -> tuple:
        """The radius terms beyond the corner value and corner slope, in the
        exactly factored form of the identification residual.

        With f = v^2 f_hat and z = v y, c t^i w^j is c f_hat^i y^j v^(2i + j);
        each entry is (c, i, j, 2i + j - 3), its v power over v^3.

        Raises:
            ShockDevError: a retained term's v power over v^3 is negative.
        """
        terms = []
        for (ti, wj), c in sorted(self.coeffs["r"].items()):
            if (ti, wj) in ((0, 0), (1, 0)) or c == 0.0:
                continue
            e = 2 * ti + wj - 3
            if e < 0:
                raise ShockDevError(
                    f"radius coefficient at powers ({ti},{wj}) breaks the hatted factorization"
                )
            terms.append((c, ti, wj, e))
        return tuple(terms)

    @functools.cached_property
    def corner(self):
        """``free_boundary.corner_expansion`` of the model, computed once."""
        from . import free_boundary  # which imports this module
        return free_boundary.corner_expansion(self, self.eos)

    def init_data(self, eps: float, n: int) -> "InitialData":
        """:func:`initial_data` of the model on [0, eps] at n + 1 nodes,
        marched once per (eps, n): its callers share the arrays, read-only."""
        if (eps, n) not in self._init:
            self._init[eps, n] = initial_data(self, self.eos, eps, n)
        return self._init[eps, n]


def synthesize_model(
    cusp: CuspData,
    eos: eos_mod.BarotropicEos,
    eps: float = 0.01,
    overrides: Mapping[str, Mapping[tuple[int, int], float]] | None = None,
) -> StateAheadModel:
    """Build the minimal polynomial model realizing the cusp constraints.

    All constrained coefficient slots are set from ``cusp``; every other
    slot up to total degree ``_MODEL_DEGREE`` defaults to zero and may be
    set via ``overrides`` (mapping field name -> {(t-power, w-power): value}).

    Validity box: |t| <= 10 eps^2, |w| <= 2 eps.

    Raises:
        ValueError: eps not finite and positive, unknown override field,
            override beyond the model degree, or a non-finite override.
        InconsistentCusp: an override targets a constrained slot.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    tables = _constrained_slots(cusp)
    constrained = {field: set(table) for field, table in tables.items()}
    for field, extra in (overrides or {}).items():
        if field not in tables:
            raise ValueError(f"unknown field {field!r} in overrides; expected one of {_FIELDS}")
        for slot, value in extra.items():
            i, j = (int(slot[0]), int(slot[1]))
            if i < 0 or j < 0 or i + j > _MODEL_DEGREE:
                raise ValueError(f"override slot {slot} outside degree-{_MODEL_DEGREE} table")
            if (i, j) in constrained[field]:
                raise InconsistentCusp(
                    f"coefficient (t^{i} w^{j}) of {field} is fixed by the cusp data "
                    "and cannot be overridden"
                )
            if not math.isfinite(float(value)):
                raise ValueError(f"override of {field} slot {slot} must be finite, got {value}")
            tables[field][(i, j)] = float(value)
    return StateAheadModel(
        cusp=cusp,
        eos=eos,
        box_t=10.0 * eps * eps,
        box_w=2.0 * eps,
        coeffs=tables,
    )


def singular_boundary(model: StateAheadModel, w):
    """Sonic-criticality curve t(w): where the radius becomes critical in w.

    Solves d(r)/dw = 0 for t at fixed w by Newton iteration seeded with the
    leading quadratic (lam / 2 kappa^2) w^2; exact in one step for the
    minimal model, and the quartic shape term contributes the cubic
    correction -(xi / 6 kappa^2) w^3.  All nodes iterate together; each one
    stops at its own first step below 1e-15 (|t| + w^2), so it takes the
    same steps as a solve of that node alone.
    """
    w_arr = np.asarray(w, dtype=float)
    cusp = model.cusp
    wv = w_arr.ravel()
    tv = cusp.lam / (2.0 * cusp.kappa**2) * wv * wv
    live = np.arange(wv.size)
    for _ in range(50):
        if not live.size:
            break
        ta, wa = tv[live], wv[live]
        step = model.eval("r", ta, wa, dw=1) / model.eval("r", ta, wa, dt=1, dw=1)
        ta = ta - step
        tv[live] = ta
        live = live[~(np.abs(step) <= 1e-15 * (np.abs(ta) + wa * wa) + 1e-300)]
    return _lane_result(tv.reshape(w_arr.shape))


class CharacteristicData(NamedTuple):
    """Sampled incoming characteristic through the cusp: t(w) and its slope."""

    w: np.ndarray
    t: np.ndarray
    slope: np.ndarray


def incoming_characteristic(
    model: StateAheadModel,
    eos: eos_mod.BarotropicEos,
    u_max: float,
    n_points: int,
) -> CharacteristicData:
    """Integrate the incoming characteristic emanating from the cusp.

    The curve t(w) obeys dt/dw = -(dr/dw) / (c_plus - c_minus) with the
    speeds evaluated at the model state along the curve.  Nodes with
    w <= min(4 * spacing, u_max / 8) are seeded by the exact cubic limit
    lam w^3 / (6 kappa (c_plus0 - c_minus0)) — the right-hand side is
    degenerate at the corner — and the rest follows classical 4th-order
    Runge-Kutta with 4 substeps per node interval.  Every substep endpoint
    is a shooting node: with tau_j the time there, tau_{j+1} = phi_j(tau_j)
    is one RK4 step, and the node values are every 4th tau.

    That recurrence is solved for all substeps at once by Newton's method
    on the whole trajectory (multiple shooting; Gander & Vandewalle, SIAM
    J. Sci. Comput. 29, 2007), seeded by the cubic on every shooting node.
    Each pass runs the 4 RK4 stages once on all 4 m substep lanes of the
    m marched intervals, carrying dphi_j/dtau_j along, and the bidiagonal
    Newton system d_{j+1} = phi_j' d_j + r_j (d = 0 on the last seeded
    node) is solved by one cumulative product/sum.  The march stops when
    max|d|, or the error it leaves under quadratic convergence (``fitting``'s
    rules), is within 2 ulp of max|tau|: 2 passes, 9 right-hand-side
    evaluations with the slope, for the built-in laws at n = 1...4096.

    Args:
        u_max, n_points: uniform sampling of [0, u_max] with n_points
            subdivisions.

    Raises:
        ValueError: u_max is not finite and positive, or n_points is not an
            integer >= 1.
        OutOfBox: the requested interval, or a Runge-Kutta stage of any
            pass, leaves the model's validity box (:meth:`StateAheadModel.eval`
            names the first point outside).
        NonConvergence: the Newton corrections have not settled after
            ``_MARCH_PASSES`` passes; ``history`` holds max|d| per pass.
    """
    if not (math.isfinite(u_max) and u_max > 0):
        raise ValueError(f"u_max must be finite and positive, got {u_max}")
    if not (n_points >= 1 and float(n_points).is_integer()):
        raise ValueError(f"n_points must be an integer >= 1, got {n_points}")
    w = np.linspace(0.0, float(u_max), int(n_points) + 1)

    def rhs(wv: np.ndarray, tv: np.ndarray):
        """dt/dw on lanes and its partial derivative in t."""
        pair = RiemannPair(model.eval("alpha", tv, wv), model.eval("beta", tv, wv))
        state = wave_state(eos, pair)
        cp, cm = state.speeds()
        f = -model.eval("r", tv, wv, dw=1) / (cp - cm)
        d = state.speed_derivatives(eos)
        dgap_dt = (d["pa"] - d["ma"]) * model.eval("alpha", tv, wv, dt=1) + (
            d["pb"] - d["mb"]
        ) * model.eval("beta", tv, wv, dt=1)
        return f, -(model.eval("r", tv, wv, dt=1, dw=1) + f * dgap_dt) / (cp - cm)

    step_ref = float(np.max(np.diff(w)))
    w_series = min(4.0 * step_ref, u_max / 8.0)
    start = int(np.count_nonzero(w <= w_series)) - 1
    sub = np.diff(w[start:]) / 4.0
    # substep lanes: the start points w_i, w_i + s_i, (w_i + s_i) + s_i, ...
    # of every marched interval, in order
    wl = [w[start:-1]]
    for _ in range(3):
        wl.append(wl[-1] + sub)
    wl = np.stack(wl, axis=1).ravel()
    sub = np.repeat(sub, 4)
    # tau at every substep endpoint, the shooting nodes; w is every 4th
    tau = model.cusp.h_hat0 * np.append(wl, w[-1]) ** 3
    history = []
    for _ in range(_MARCH_PASSES):
        # phi_j(tau_j) and dphi_j/dtau_j: one RK4 step on every substep lane
        tv = tau[:-1]
        k1, d1 = rhs(wl, tv)
        k2, d2 = rhs(wl + sub / 2.0, tv + sub * k1 / 2.0)
        d2 = d2 * (1.0 + sub * d1 / 2.0)
        k3, d3 = rhs(wl + sub / 2.0, tv + sub * k2 / 2.0)
        d3 = d3 * (1.0 + sub * d2 / 2.0)
        k4, d4 = rhs(wl + sub, tv + sub * k3)
        d4 = d4 * (1.0 + sub * d3)
        phi = tv + sub * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        dphi = 1.0 + sub * (d1 + 2.0 * d2 + 2.0 * d3 + d4) / 6.0
        # d_{j+1} = dphi_j d_j + r_j from d_0 = 0: d_{j+1} = G_j sum_{k <= j} r_k / G_k
        # with G_j = dphi_0...dphi_j
        gain = np.cumprod(dphi)
        delta = gain * np.cumsum((phi - tau[1:]) / gain)
        tau[1:] += delta
        # rounding alone moves tau by 1-6 ulp per pass at n = 64...256, so
        # max|d| itself need not fall to 2 ulp; the passes converge
        # quadratically, so this update leaves about max|d| times the ratio
        # of max|d| to the previous pass's
        size = _abs_max(delta)
        left = _error_left(size, history[-1]) if history else size
        history.append(size)
        if left <= _rounding_floor(_abs_max(tau)):
            break
    else:
        raise NonConvergence(
            f"incoming characteristic march did not settle in {_MARCH_PASSES} Newton passes",
            history,
            diverging=history[-1] > history[0],
        )
    t = model.cusp.h_hat0 * w**3
    t[start:] = tau[::4]
    return CharacteristicData(w=w, t=t, slope=rhs(w, t)[0])


class InitialData(NamedTuple):
    """Data the incoming characteristic carries into the solution domain.

    h is the time coordinate along the characteristic parameterized by u,
    alpha_i the outgoing invariant there; h_hat = h / u^3 and
    alpha_i_hat = (alpha_i - alpha0 - alpha_dot0 u) / u^2 are the hatted
    forms with their corner values filled by the analytic limits.
    """

    u: np.ndarray
    h: np.ndarray
    dh_du: np.ndarray
    alpha_i: np.ndarray
    h_hat: np.ndarray
    alpha_i_hat: np.ndarray


def initial_data(
    model: StateAheadModel, eos: eos_mod.BarotropicEos, eps: float, n: int
) -> InitialData:
    """Sample the initial data h(u), alpha_i(u) on [0, eps] at n + 1 nodes."""
    curve = incoming_characteristic(model, eos, eps, n)
    u, h = curve.w, curve.t
    cusp = model.cusp
    alpha_i = np.asarray(model.eval("alpha", h, u), dtype=float)
    tail = alpha_i - cusp.alpha0 - cusp.alpha_dot0 * u
    return InitialData(
        u=u, h=h, dh_du=curve.slope, alpha_i=alpha_i, h_hat=_hatted(u, h, 3, cusp.h_hat0),
        alpha_i_hat=_hatted(u, tail, 2, cusp.alpha_ddot0 / 2.0),
    )
