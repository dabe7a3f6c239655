#!/usr/bin/env python3
"""Walk through the static force balance and its multiple branches.

The shared resonator feels the restoring force plus one radiation-pressure
Lorentzian per cavity.  At the reference drive powers that balance has five
real roots: the small central displacement the router actually operates at,
and two pairs hugging the points where a cavity is pulled through resonance.
This script prints all branches, shows which one the solver's power ramp
selects (at each of 10 power scales, 0.1 to 1.0, the root nearest the one
kept at the previous scale, starting from q = 0), and checks the fixed point
by hand.  The ramp can step past a fold and leave the branch connected to
the undriven state; ROADMAP item 7 replaces it with that branch in closed
form.
"""

import numpy as np

from omrouter import (drive_amplitudes, force_balance, operating_point,
                      parse_config, steady_residual)


def main():
    cfg = parse_config(env={})
    params, state = operating_point(cfg.base_params(), cfg.pin_optical,
                                    cfg.pin_microwave)
    print("reference device, both pumps on "
          f"(optical {params.power_l * 1e6:.0f} uW, "
          f"microwave {params.power_p * 1e9:.0f} nW)")
    eps_l, eps_p = drive_amplitudes(params)
    print(f"drive amplitudes: eps_l = {eps_l:.4e} 1/s, "
          f"eps_p = {eps_p:.4e} 1/s\n")

    for note in state.warnings:
        print(f"warning: {note}")
    print(f"force balance has {len(state.branches)} real roots (metres):")
    for i, q in enumerate(state.branches):
        print(f"  [{i}] q = {q:+.6e}   F(q) = {force_balance(params, q):+.3e} N")

    print(f"\npower ramp selects branch {state.branch_index} "
          f"(nearest root at each power scale, from q = 0):")
    print(f"  q_s = {state.q_s:+.6e} m")
    print(f"  |a_s|^2 = {abs(state.a_s)**2:.4e} photons, "
          f"|c_s|^2 = {abs(state.c_s)**2:.4e}")
    print(f"  effective detunings / omega_m: "
          f"{state.delta1 / params.omega_m:.6f}, "
          f"{state.delta2 / params.omega_m:.6f}")
    print(f"  fixed-point residual: {steady_residual(params, state):.3e}")

    print("\nbranch structure vs microwave power:")
    for power in np.array([0.0, 0.1, 0.5, 1.0, 5.0]) * 300e-9:
        _, state = operating_point(cfg.base_params(float(power)),
                                   cfg.pin_optical, cfg.pin_microwave)
        print(f"  power_p = {power * 1e9:7.1f} nW: {len(state.branches)} "
              f"branches, selected q_s = {state.q_s:+.3e} m")
        for note in state.warnings:
            print(f"    warning: {note}")


if __name__ == "__main__":
    main()
