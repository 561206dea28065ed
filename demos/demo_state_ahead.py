"""Pre-shock state: cusp data, polynomial chart, initial data extraction.

The state ahead of the shock is a smooth solution that focuses at a cusp:
the incoming characteristics cross there, and ahead of the crossing the
solution is still a classical one. This demo builds the cusp-regular
chart, locates the singular boundary where the chart's Jacobian
degenerates, shows the cubic profile of the incoming invariant along the
data edge, and extracts the initial data used by the interior solver.
"""

import numpy as np

import shockdev
from shockdev import fitting
from shockdev.state_ahead import initial_data, singular_boundary, synthesize_model


def main():
    eos = shockdev.radiation()
    cusp = shockdev.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    print("cusp data:")
    print(f"  characteristic speeds  c+ = {cusp.c_plus0:+.6f}, c- = {cusp.c_minus0:+.6f}")
    print(f"  outgoing-invariant rate  alpha_dot0 = {cusp.alpha_dot0:.6f}")
    print(f"  cusp radius r0 = {cusp.r0}")

    eps = 0.01
    model = synthesize_model(cusp, eos, eps=eps)
    print(f"\npolynomial chart valid for |t| <= {model.box_t:g}, |w| <= {model.box_w:g}")

    # The singular boundary is quadratic in the chart coordinate: the
    # coefficient is the focusing scale lam / (2 kappa^2).
    w = model.box_w * np.array([0.05, 0.1, 0.2, 0.4])
    ts = np.asarray(singular_boundary(model, w), dtype=float)
    coef = fitting.quadratic_extrapolate(w[:3], ts[:3] / w[:3] ** 2)
    print("\nsingular boundary t*(w):")
    for wi, ti in zip(w, ts):
        print(f"  w = {wi:8.5f}  ->  t* = {ti:.3e}   t*/w^2 = {ti / wi**2:.6f}")
    print(f"quadratic coefficient -> {coef:.8f} "
          f"(lam / 2 kappa^2 = {cusp.lam / (2 * cusp.kappa**2):.8f})")

    # Initial data along the data edge: the incoming invariant departs
    # from its cusp value cubically; its hatted version has a finite limit.
    data = initial_data(model, eos, eps, 32)
    target = cusp.h_hat0
    fitted = fitting.extrapolate_to_zero(data.u[8:], data.h_hat[8:], degree=2, drop=0)
    print("\ninitial data along the edge (u = edge coordinate):")
    print(f"{'u':>10} {'h':>13} {'h_hat = h/u^3':>14} {'alpha_i':>12}")
    for k in (4, 8, 16, 32):
        print(f"{data.u[k]:>10.5f} {data.h[k]:>13.4e} {data.h_hat[k]:>14.8f} "
              f"{data.alpha_i[k]:>12.6f}")
    print(f"cubic edge coefficient: fitted {fitted:.8f}, analytic {target:.8f}")


if __name__ == "__main__":
    main()
