"""The full construction: shock development from a cusp.

Runs the nested fixed-point solve — inner characteristic sweeps against
an outer update of the free boundary through the identification map and
the jump conditions — then walks through everything the solution
certifies: the outer contraction history, the grid-free corner expansion
against the fitted limits, the geometry of the front, the pointwise jump
balance, and the square-root blow-up signature behind the data edge.
"""

import numpy as np

import shockdev
from shockdev.free_boundary import blowup_fits, corner_expansion
from shockdev.state_ahead import synthesize_model


def main():
    eos = shockdev.radiation()
    cusp = shockdev.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    eps, n = 0.01, 64
    model = synthesize_model(cusp, eos, eps=eps)

    print(f"solving shock development: eps = {eps}, grid n = {n} ...")
    sol = shockdev.run_shock_development(eos, model, cusp, eps=eps, n=n)
    print(f"converged in {len(sol.outer_history)} outer iterations, "
          f"{sol.retries} domain retries\n")

    print("outer iteration history (largest of the three curve updates):")
    metric = [max(h) for h in sol.outer_history]
    for k in (0, 1, 2, 3, len(metric) - 1):
        print(f"  iteration {k + 1:>2}: {metric[k]:.3e}")
    print(f"  first contraction ratio: {sol.outer_ratio:.4f}\n")

    corner = sol.corner
    print("grid-free corner expansion vs fitted limits of the curve:")
    lim = sol.diagnostics["limits"]
    rows = [
        ("f_hat(0)", lim["f_hat0"].value, lim["f_hat0"].target),
        ("g_hat(0)", lim["g_hat0"].value, lim["g_hat0"].target),
        ("y(0)", lim["y0"].value, lim["y0"].target),
        ("beta_hat+(0)", lim["beta_hat_plus0"].value, lim["beta_hat_plus0"].target),
        ("V_hat(0)", sol.curve.V_hat[0], corner.V_hat0),
    ]
    for name, fitted, target in rows:
        print(f"  {name:>13}: fitted {fitted:+.8f}   analytic {target:+.8f}")
    print(f"  first-order coefficients: y' = {corner.y1:+.8f}, "
          f"f_hat' = {corner.fhat1:+.8f}, g_hat' = {corner.ghat1:+.8f}\n")

    geo = sol.diagnostics["geometry"]
    print("front geometry:")
    print(f"  jump balance residual (relative):   {geo['rankine_hugoniot_rel'].value:.3e}")
    print(f"  curve tangency defect:              {geo['tangency_max'].value:.3e}")
    print(f"  determinism margin slopes (+/-):    "
          f"{geo['margin_behind_slope'].value:.4f} / "
          f"{geo['margin_ahead_slope'].value:.4f}")
    print(f"  singular-boundary lead ratio:       "
          f"{geo['singular_lead_ratio'].value:.4f}  (one third)\n")

    fit = blowup_fits(sol.fields)
    print("blow-up signature along the last interior row:")
    print(f"  time offset exponent:  {fit['time_exponent'].value:.4f}  (2 = sqrt regularity)")
    print(f"  alpha offset exponent: {fit['alpha_exponent'].value:.4f}\n")

    print("shock curve samples:")
    print(f"{'v':>9} {'y':>12} {'V':>10} {'alpha+':>11} {'beta+':>12} {'delta_hat':>11}")
    for k in (0, n // 4, n // 2, n):
        c = sol.curve
        print(f"{c.v[k]:>9.5f} {c.y[k]:>12.7f} {c.V[k]:>10.6f} "
              f"{c.alpha_plus[k]:>11.3e} {c.beta_plus[k]:>12.4e} {c.delta_hat[k]:>11.6f}")

    print(f"\nidentification slope at the edge: y({eps}) = {sol.curve.y[-1]:.7f}")
    print("the corner expansion alone (no grid) would be available via "
          "corner_expansion(model, eos):")
    ce = corner_expansion(model, eos)
    print(f"  y'(0) = {ce.y1:+.8f}, V_hat(0) = {ce.V_hat0:+.8f}, W2 = {ce.W2:+.8f}")


if __name__ == "__main__":
    main()
