"""Jump conditions: behind-state root, speed, cubic small-jump law.

Given the state ahead of the shock and the outgoing invariant behind it,
conservation of momentum and energy determines the incoming invariant
behind and the front speed. This demo solves that root problem across a
range of jump strengths, then shrinks the jump to expose the cubic law
with the analytic nonlinearity coefficient, and prints the conditions
that select the physical root: positive determinism margins on both
sides (the front outruns the outgoing characteristic ahead and is
outrun by the one behind) and a drop of the steepness functional q.
"""

import numpy as np

import shockdev
from shockdev.jump import (
    JumpPair,
    coincidence_structure,
    cubic_coefficient,
    entropy_q,
    jump_scale,
    solve_jump_beta,
    stress_jump,
)
from shockdev.state import RiemannPair, char_speeds, wave_state


def taub_mismatch(eos, ahead, behind):
    """h+^2 - h-^2 - (p+ - p-)(h+/sigma+ + h-/sigma-) across the front."""
    wa, wb = wave_state(eos, ahead), wave_state(eos, behind)
    ha, hb = wa.enthalpy(eos), wb.enthalpy(eos)
    pa, pb = wa.pressure(eos), wb.pressure(eos)
    return hb**2 - ha**2 - (pb - pa) * (hb / wb.sigma(eos) + ha / wa.sigma(eos))


def main():
    eos = shockdev.radiation()
    ahead = RiemannPair(0.0, 0.0)

    print("jump family over increasing outgoing-invariant jumps:")
    print(f"{'[alpha]':>9} {'beta+':>13} {'speed':>10} {'ahead margin':>13} "
          f"{'behind margin':>14} {'entropy q':>11}")
    for da in (0.02, 0.05, 0.1, 0.2):
        behind = RiemannPair(ahead.alpha + da, solve_jump_beta(eos, ahead.alpha + da, ahead))
        jp = JumpPair(ahead, behind)
        V = shockdev.shock_speed(eos, jp)
        m_ahead = V - char_speeds(eos, ahead)[0]
        m_behind = char_speeds(eos, behind)[0] - V
        dq = entropy_q(eos, behind) - entropy_q(eos, ahead)
        assert m_ahead > 0 and m_behind > 0 and dq < 0
        print(f"{da:>9.3f} {behind.beta:>13.4e} {V:>10.6f} {m_ahead:>13.6f} "
              f"{m_behind:>14.6f} {dq:>11.4e}")
        # both conservation conditions -[T^tt] V + [T^tr] and -[T^tr] V + [T^rr]
        dT = stress_jump(eos, jp)
        res = (-dT.tt * V + dT.tr, -dT.tr * V + dT.rr)
        assert max(abs(r) for r in res) < 1e-12 * jump_scale(eos, ahead)

    cp_ahead, _ = char_speeds(eos, ahead)
    print(f"\nahead outgoing speed c+ = {cp_ahead:.6f}: the front is supersonic "
          "relative to the state ahead, subsonic relative to the state behind.")

    g0 = cubic_coefficient(eos, ahead)
    print(f"\nsmall-jump law [beta] ~ G0 [alpha]^3, analytic G0 = {g0:.10f}")
    print(f"{'[alpha]':>9} {'[beta]/[alpha]^3':>18}")
    for da in (1e-1, 1e-2, 1e-3):
        db = solve_jump_beta(eos, ahead.alpha + da, ahead) - ahead.beta
        print(f"{da:>9.0e} {db / da**3:>18.10f}")

    print("\ndegeneracy structure of the jump polynomial at coincident states")
    d = coincidence_structure(eos, ahead)
    scale = jump_scale(eos, ahead)
    for k in ("d1", "d2", "d3"):
        print(f"  {k}/scale = {d[k] / scale:+.3e}  (vanishes)")
    print(f"  mixed/scale = {d['mixed'] / scale:+.6f}  (equals 1)")
    print(f"  d4/scale = {d['d4'] / scale:+.6f}  (first nonzero derivative)")

    print("\nTaub-form mismatch is cubic in the jump (zero only at coincidence):")
    for da in (1e-1, 1e-2):
        behind = RiemannPair(da, solve_jump_beta(eos, da, ahead))
        mis = taub_mismatch(eos, ahead, behind)
        print(f"  [alpha] = {da:.0e}: mismatch / [alpha]^3 = {mis / da**3:+.6f}")


if __name__ == "__main__":
    main()
