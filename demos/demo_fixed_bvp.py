"""Interior solve: characteristic boundary-value problem on a fixed curve.

With the shock curve frozen (here: the seed guess derived from the cusp
data), the interior of the development region is a Goursat-type problem
on a triangular characteristic grid. This demo runs the inner sweep
iteration, shows its contraction history, and evaluates the discrete
characteristic-equation residuals that certify second-order accuracy.
"""

import numpy as np

import shockdev
from shockdev.fixed_bvp import (
    BoundaryFunctions,
    TriGrid,
    characteristic_residuals,
    solve_fixed_bvp,
)
from shockdev.state_ahead import initial_data, synthesize_model


def solve_at(eos, cusp, model, eps, n):
    grid = TriGrid(eps, n)
    bf = BoundaryFunctions.seed(cusp, grid.nodes)
    init = initial_data(model, eos, eps, n)
    fg = solve_fixed_bvp(bf, init, eos, grid)
    return bf, init, fg


def main():
    eos = shockdev.radiation()
    cusp = shockdev.CuspData.from_physics(eos, kappa=1.0, lam=1.0, dbeta_dt0=0.3)
    eps = 0.01
    model = synthesize_model(cusp, eos, eps=eps)

    print(f"seed boundary: hatted incoming invariant starts at "
          f"{cusp.beta_hat0:.6f} (lam dbeta_dt0 / 6 kappa^2)")

    bf, init, fg = solve_at(eos, cusp, model, eps, 32)
    print(f"\ninner iteration on a {fg.grid.n}x{fg.grid.n} triangle:")
    print(f"  sweeps: {fg.sweeps}")
    print("  update sizes per sweep:")
    for k, ch in enumerate(fg.changes):
        print(f"    sweep {k + 1}: {ch:.3e}")
    if len(fg.changes) > 1 and fg.changes[0] > 0:
        print(f"  first contraction ratio: {fg.changes[1] / fg.changes[0]:.3e}")

    res = characteristic_residuals(fg, eos, init, bf)
    print(f"\ncharacteristic residual maximum: {res['max']:.3e}")

    print("\ngrid refinement of the residual maximum:")
    prev = None
    for n in (16, 32, 64):
        _, init_n, fg_n = solve_at(eos, cusp, model, eps, n)
        r = characteristic_residuals(fg_n, eos, init_n,
                                     BoundaryFunctions.seed(cusp, fg_n.grid.nodes))["max"]
        order = "" if prev is None else f"   order {np.log2(prev / r):.2f}"
        print(f"  n = {n:>3}: {r:.3e}{order}")
        prev = r

    # A corner-to-edge slice of the solution fields.
    n = fg.grid.n
    print("\ndiagonal of the solved fields (u = v line):")
    print(f"{'v':>10} {'t':>13} {'r - r0':>13} {'alpha':>13} {'beta':>13}")
    for k in (0, n // 4, n // 2, n):
        v = fg.grid.nodes[k]
        print(f"{v:>10.5f} {fg.t[k, k]:>13.4e} {fg.r[k, k] - cusp.r0:>13.4e} "
              f"{fg.alpha[k, k]:>13.4e} {fg.beta[k, k]:>13.4e}")


if __name__ == "__main__":
    main()
