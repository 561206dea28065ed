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

import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import Mapping, NamedTuple

import numpy as np

from . import eos as eos_mod
from .errors import InconsistentCusp, LeftBox, NonConvergence, OutOfBox
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
    "load_model",
]

# below this |dc+/dalpha| no finite alpha slope can reproduce kappa
_SLOPE_FLOOR = 1e-7

_FIELDS = ("r", "alpha", "beta")

# Newton passes of the incoming-characteristic march before it gives up;
# it settles in 2 passes for the built-in laws at n = 1...4096
_MARCH_PASSES = 8


def _abs_max(a: np.ndarray) -> float:
    """Largest |a|: NaN if any entry is NaN, 0 for an empty array."""
    return abs(float(a)) if a.ndim == 0 else float(np.abs(a).max(initial=0.0))


@dataclass(frozen=True)
class CuspData:
    """Scalar data characterizing the shock-formation point.

    Free parameters:
        kappa: mixed (t, w) curvature of the pre-shock radius; the rate at
            which outgoing characteristics refocus.  Must be positive.
        lam: cubic flattening of the radius in w.  Must be positive.
        alpha0, beta0: outgoing/incoming Riemann invariants at the cusp.
        dbeta_dt0: t-slope of the incoming invariant at the cusp.
        r0: cusp radius.  Must be positive.
        alpha_ddot0: second w-derivative of the outgoing invariant at the
            cusp (free shape data, defaults to 0).
        xi: fourth w-derivative of the radius times kappa (free shape data).

    Derived (filled in by :meth:`from_physics`):
        c_plus0, c_minus0: characteristic speeds at the cusp state.
        dcplus_dalpha0: sensitivity of the outgoing speed to the outgoing
            invariant at the cusp state.
        alpha_dot0: w-slope of the outgoing invariant, the unique value
            consistent with kappa: alpha_dot0 * dcplus_dalpha0 = kappa.
        a_tilde0: spherical source term of the outgoing invariant at the
            cusp (zero exactly when the cusp-state fluid velocity is zero).
    """

    kappa: float
    lam: float
    alpha0: float
    beta0: float
    dbeta_dt0: float
    r0: float
    alpha_ddot0: float
    xi: float
    c_plus0: float
    c_minus0: float
    dcplus_dalpha0: float
    alpha_dot0: float
    a_tilde0: float

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
        """Build cusp data, deriving the constrained quantities from the EOS.

        Raises:
            InconsistentCusp: non-positive kappa/lam/r0, or an EOS whose
                outgoing speed does not respond to the outgoing invariant at
                the cusp state (no finite alpha slope fits kappa).
        """
        for name, val in (("kappa", kappa), ("lam", lam), ("r0", r0)):
            if not (math.isfinite(val) and val > 0):
                raise InconsistentCusp(f"{name} must be finite and positive, got {val}")
        state0 = wave_state(eos, RiemannPair(float(alpha0), float(beta0)))
        c_plus0, c_minus0 = state0.speeds()
        dcplus_dalpha0 = state0.speed_derivatives(eos)["pa"]
        if abs(dcplus_dalpha0) < _SLOPE_FLOOR:
            raise InconsistentCusp(
                "outgoing speed is insensitive to the outgoing invariant at the "
                f"cusp state (slope {dcplus_dalpha0:.3e}); no finite alpha slope "
                "reproduces the refocusing rate"
            )
        alpha_dot0 = kappa / dcplus_dalpha0
        a_tilde0, _ = state0.sources(r0)
        return cls(
            kappa=float(kappa),
            lam=float(lam),
            alpha0=float(alpha0),
            beta0=float(beta0),
            dbeta_dt0=float(dbeta_dt0),
            r0=float(r0),
            alpha_ddot0=float(alpha_ddot0),
            xi=float(xi),
            c_plus0=float(c_plus0),
            c_minus0=float(c_minus0),
            dcplus_dalpha0=float(dcplus_dalpha0),
            alpha_dot0=float(alpha_dot0),
            a_tilde0=float(a_tilde0),
        )

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
    """

    cusp: CuspData
    eos: eos_mod.BarotropicEos
    degree: int
    box_t: float
    box_w: float
    coeffs: Mapping[str, Mapping[tuple[int, int], float]]
    # (factor, t-power, w-power) of every term, per (field, dt, dw)
    _terms: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def eval(self, field: str, t, w, dt: int = 0, dw: int = 0):
        """Evaluate a field or one of its partial derivatives.

        Args:
            field: "r", "alpha" or "beta".
            t, w: scalars or broadcastable arrays inside the validity box.
            dt, dw: derivative orders in t and w (total order at most 4).

        Raises:
            OutOfBox: any requested point outside |t| <= box_t, |w| <= box_w
                (NaN counts as outside).
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
        slack = 1.0 + 1e-12
        if not (_abs_max(t_arr) <= self.box_t * slack and _abs_max(w_arr) <= self.box_w * slack):
            raise OutOfBox(
                f"evaluation outside validity box |t| <= {self.box_t:g}, |w| <= {self.box_w:g}"
            )
        out = np.zeros(np.broadcast(t_arr, w_arr).shape)
        for factor, pt, pw in self._terms[key]:
            # a zero power is an exact factor 1, so skipping it changes no bit
            term = factor * t_arr**pt if pt else factor
            out = out + (term * w_arr**pw if pw else term)
        return float(out) if out.ndim == 0 else out

    def dump(self, path) -> None:
        """Write the model (cusp data + nonzero coefficients) as JSON."""
        payload = {
            "eos_label": self.eos.label,
            "degree": self.degree,
            "box_t": self.box_t,
            "box_w": self.box_w,
            "cusp": asdict(self.cusp),
            "coefficients": {
                field: {f"{i},{j}": c for (i, j), c in sorted(table.items())}
                for field, table in self.coeffs.items()
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_model(path, eos: eos_mod.BarotropicEos) -> StateAheadModel:
    """Rebuild a model dumped by :meth:`StateAheadModel.dump`.

    Raises:
        ValueError: the stored EOS label does not match the supplied EOS.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["eos_label"] != eos.label:
        raise ValueError(
            f"model was dumped with EOS {payload['eos_label']!r}, got {eos.label!r}"
        )
    coeffs = {
        field: {
            tuple(int(p) for p in key.split(",")): float(c) for key, c in table.items()
        }
        for field, table in payload["coefficients"].items()
    }
    # older dumps also carry "l", a cusp slope no computation used
    cusp = {k: v for k, v in payload["cusp"].items() if k != "l"}
    return StateAheadModel(
        cusp=CuspData(**cusp),
        eos=eos,
        degree=int(payload["degree"]),
        box_t=float(payload["box_t"]),
        box_w=float(payload["box_w"]),
        coeffs=coeffs,
    )


def synthesize_model(
    cusp: CuspData,
    eos: eos_mod.BarotropicEos,
    degree: int = 5,
    eps: float = 0.01,
    overrides: Mapping[str, Mapping[tuple[int, int], float]] | None = None,
) -> StateAheadModel:
    """Build the minimal polynomial model realizing the cusp constraints.

    All constrained coefficient slots are set from ``cusp``; every other
    slot up to total degree ``degree`` defaults to zero and may be set via
    ``overrides`` (mapping field name -> {(t-power, w-power): value}).

    Validity box: |t| <= 10 eps^2, |w| <= 2 eps.

    Raises:
        ValueError: degree < 4, unknown override field, or override beyond
            the declared degree.
        InconsistentCusp: an override targets a constrained slot.
    """
    if degree < 4:
        raise ValueError(f"model degree must be at least 4, got {degree}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    tables = _constrained_slots(cusp)
    constrained = {field: set(table) for field, table in tables.items()}
    for field, extra in (overrides or {}).items():
        if field not in tables:
            raise ValueError(f"unknown field {field!r} in overrides; expected one of {_FIELDS}")
        for slot, value in extra.items():
            i, j = (int(slot[0]), int(slot[1]))
            if i < 0 or j < 0 or i + j > degree:
                raise ValueError(f"override slot {slot} outside degree-{degree} table")
            if (i, j) in constrained[field]:
                raise InconsistentCusp(
                    f"coefficient (t^{i} w^{j}) of {field} is fixed by the cusp data "
                    "and cannot be overridden"
                )
            tables[field][(i, j)] = float(value)
    return StateAheadModel(
        cusp=cusp,
        eos=eos,
        degree=int(degree),
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
    return float(tv[0]) if w_arr.ndim == 0 else tv.reshape(w_arr.shape)


class CharacteristicData(NamedTuple):
    """Sampled incoming characteristic through the cusp: t(w) and its slope."""

    w: np.ndarray
    t: np.ndarray
    slope: np.ndarray


def incoming_characteristic(
    model: StateAheadModel,
    eos: eos_mod.BarotropicEos,
    u_max: float | None = None,
    n_points: int | None = None,
    *,
    w_nodes=None,
) -> CharacteristicData:
    """Integrate the incoming characteristic emanating from the cusp.

    The curve t(w) obeys dt/dw = -(dr/dw) / (c_plus - c_minus) with the
    speeds evaluated at the model state along the curve.  Nodes with
    w <= min(4 * spacing, u_max / 8) are seeded by the exact cubic limit
    lam w^3 / (6 kappa (c_plus0 - c_minus0)) — the right-hand side is
    degenerate at the corner — and the rest follows classical 4th-order
    Runge-Kutta with 4 substeps per node interval, t_{i+1} = Phi_i(t_i).

    That recurrence is solved for all intervals at once by Newton's method
    on the whole trajectory, seeded by the cubic on every node.  Each pass
    runs the 4 x 4 stages once on all intervals, carrying dPhi_i/dt_i
    along, and the bidiagonal Newton system d_{i+1} = Phi_i' d_i + r_i
    (d = 0 on the seeded nodes) is solved by one cumulative product/sum.
    The march stops when max|d|, or the error it leaves under quadratic
    convergence, max|d| times its ratio to the previous pass's max|d|, is
    within 2 ulp of max|t|: 2 passes for the built-in laws at n = 1...4096.

    Args:
        u_max, n_points: uniform sampling of [0, u_max] with n_points
            subdivisions; alternatively pass an explicit increasing
            ``w_nodes`` array starting at 0.

    Raises:
        LeftBox: the requested interval, or a Runge-Kutta stage of any pass,
            leaves the model's validity box (the first such stage node is
            named).
        NonConvergence: the Newton corrections have not settled after
            ``_MARCH_PASSES`` passes; ``history`` holds max|d| per pass.
    """
    if w_nodes is not None:
        w = np.asarray(w_nodes, dtype=float)
        if w.ndim != 1 or len(w) < 2 or w[0] != 0.0 or np.any(np.diff(w) <= 0):
            raise ValueError("w_nodes must be a 1-D increasing array starting at 0")
        u_max = float(w[-1])
    else:
        if u_max is None or n_points is None:
            raise ValueError("provide either (u_max, n_points) or w_nodes")
        w = np.linspace(0.0, float(u_max), int(n_points) + 1)
    if u_max > model.box_w:
        raise LeftBox(
            f"requested interval [0, {u_max:g}] exceeds the validity box |w| <= {model.box_w:g}"
        )

    def rhs(wv: np.ndarray, tv: np.ndarray):
        """dt/dw on lanes and its partial derivative in t."""
        outside = (np.abs(tv) > model.box_t) | (np.abs(wv) > model.box_w)
        if outside.any():
            k = int(np.argmax(outside))
            raise LeftBox(
                f"incoming characteristic left the validity box at (t, w) = ({tv[k]:g}, {wv[k]:g})"
            )
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
    t = model.cusp.h_hat0 * w**3
    history = []
    for _ in range(_MARCH_PASSES):
        # Phi_i(t_i) and dPhi_i/dt_i for every interval i >= start
        tv, wv, dphi = t[start:-1], w[start:-1], 1.0
        for _ in range(4):
            k1, d1 = rhs(wv, tv)
            k2, d2 = rhs(wv + sub / 2.0, tv + sub * k1 / 2.0)
            d2 = d2 * (1.0 + sub * d1 / 2.0)
            k3, d3 = rhs(wv + sub / 2.0, tv + sub * k2 / 2.0)
            d3 = d3 * (1.0 + sub * d2 / 2.0)
            k4, d4 = rhs(wv + sub, tv + sub * k3)
            d4 = d4 * (1.0 + sub * d3)
            tv = tv + sub * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            dphi = dphi * (1.0 + sub * (d1 + 2.0 * d2 + 2.0 * d3 + d4) / 6.0)
            wv = wv + sub
        # d_{i+1} = dphi_i d_i + r_i from d_start = 0: d_{i+1} = G_i sum_{k <= i} r_k / G_k
        # with G_i = dphi_start...dphi_i
        gain = np.cumprod(dphi)
        delta = gain * np.cumsum((tv - t[start + 1:]) / gain)
        t[start + 1:] += delta
        # rounding alone moves t by 1-6 ulp per pass at n = 64...256, so
        # max|d| itself need not fall to 2 ulp; the passes converge
        # quadratically, so this update leaves about max|d| times the ratio
        # of max|d| to the previous pass's
        size = _abs_max(delta)
        left = size * min(1.0, size / history[-1]) if history else size
        history.append(size)
        if left <= 2.0 * np.spacing(_abs_max(t)):
            break
    else:
        raise NonConvergence(
            f"incoming characteristic march did not settle in {_MARCH_PASSES} Newton passes",
            history,
            diverging=history[-1] > history[0],
        )
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
    h_hat = np.empty_like(h)
    h_hat[0] = cusp.h_hat0
    h_hat[1:] = h[1:] / u[1:] ** 3
    alpha_i_hat = np.empty_like(h)
    alpha_i_hat[0] = cusp.alpha_ddot0 / 2.0
    alpha_i_hat[1:] = (alpha_i[1:] - cusp.alpha0 - cusp.alpha_dot0 * u[1:]) / u[1:] ** 2
    return InitialData(
        u=u, h=h, dh_du=curve.slope, alpha_i=alpha_i, h_hat=h_hat, alpha_i_hat=alpha_i_hat
    )
