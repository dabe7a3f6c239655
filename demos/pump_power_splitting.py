#!/usr/bin/env python3
"""How the microwave pump power steers the two reflected output channels.

The splitting of the transparency window grows like the square root of the
microwave power (it is the phonon-microwave normal-mode splitting), so the
two reflect ports at ``center +- omega0`` can be dialled continuously.  This
is the router's tuning knob: the sweep below maps power to port frequencies.
"""

import numpy as np

from omrouter import (operating_point, parse_config, power_sweep,
                      routing_report)


def main():
    cfg = parse_config(env={})
    params, state = operating_point(cfg.base_params(), cfg.pin_optical,
                                    cfg.pin_microwave)

    report = routing_report(params, state=state)
    for note in state.warnings + report.warnings:
        print(f"warning: {note}")
    print("routing report at the reference power "
          f"({params.power_p * 1e9:.0f} nW):")
    for port in report.ports:
        print(f"  {port.label:<14} omega/omega_m = "
              f"{port.omega / cfg.omega_m:.5f}  R = {port.r_value:.4f}  "
              f"T = {port.t_value:.2e}")

    powers = np.linspace(50e-9, 1500e-9, 25)
    sweep = power_sweep(cfg.base_params(), powers,
                        pin_optical=cfg.pin_optical,
                        pin_microwave=cfg.pin_microwave)
    print("\npower sweep (splitting should follow sqrt(power)):")
    print(f"  {'power_p [nW]':>12}  {'omega0/omega_m':>14}  "
          f"{'omega0/sqrt(P) [rad/s/sqrt(W)]':>30}")
    for row in sweep.rows:
        norm = row.omega0 / np.sqrt(row.power_p)
        print(f"  {row.power_p * 1e9:12.1f}  "
              f"{row.omega0 / cfg.omega_m:14.5f}  {norm:30.4e}")

    omega0 = np.array([row.omega0 for row in sweep.rows])
    ratio = omega0 / np.sqrt(powers)
    print(f"\nsqrt-law check: omega0/sqrt(P) varies by "
          f"{(ratio.max() - ratio.min()) / ratio.mean() * 100:.2f}% "
          f"across the sweep")


if __name__ == "__main__":
    main()
