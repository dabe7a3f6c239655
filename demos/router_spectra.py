#!/usr/bin/env python3
"""Reflection/transmission spectra with the microwave pump off and on.

Pump off, the mechanical interference blocks the optical probe at the
sideband frequency (reflect-everything).  Pump on, the transparency window
splits: the probe passes at the centre and is reflected at the two split
frequencies instead.  Writes ``router_spectra.csv`` and, when matplotlib is
available, saves a two-panel figure next to it.
"""

import numpy as np

from omrouter import operating_point, parse_config, scan_spectrum


def main():
    cfg = parse_config(env={})
    grid = cfg.omega_m * np.linspace(0.7, 1.3, 4001)
    axis = grid / cfg.omega_m

    curves = {}
    for label, power in (("off", 0.0), ("on", None)):
        params, state = operating_point(cfg.base_params(power),
                                        cfg.pin_optical, cfg.pin_microwave)
        for note in state.warnings:
            print(f"warning: pump {label}: {note}")
        result = scan_spectrum(params, grid, state=state)
        curves[label] = (result.column("r_refl"), result.column("t_trans"))

    with open("router_spectra.csv", "w", encoding="utf-8") as out:
        out.write("omega_over_omega_m,r_off,r_on,t_off,t_on\n")
        for i, x in enumerate(axis):
            out.write(f"{x:.9f},{curves['off'][0][i]:.9e},"
                      f"{curves['on'][0][i]:.9e},{curves['off'][1][i]:.9e},"
                      f"{curves['on'][1][i]:.9e}\n")
    print("wrote router_spectra.csv")

    center = np.argmin(np.abs(axis - 1.0))
    print(f"T at the sideband: pump off {curves['off'][1][center]:.2e}, "
          f"pump on {curves['on'][1][center]:.4f}")
    print(f"R at the sideband: pump off {curves['off'][0][center]:.4f}, "
          f"pump on {curves['on'][0][center]:.2e}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
        return

    fig, (ax_t, ax_r) = plt.subplots(1, 2, figsize=(9, 3.5), sharex=True)
    ax_t.plot(axis, curves["off"][1], "r--", label="pump off")
    ax_t.plot(axis, curves["on"][1], "b-", label="pump on")
    ax_t.set_xlabel(r"$\omega/\omega_m$")
    ax_t.set_ylabel("transmission")
    ax_t.legend()
    ax_r.plot(axis, curves["off"][0], "r--", label="pump off")
    ax_r.plot(axis, curves["on"][0], "b-", label="pump on")
    ax_r.set_xlabel(r"$\omega/\omega_m$")
    ax_r.set_ylabel("reflection")
    ax_r.legend()
    fig.tight_layout()
    fig.savefig("router_spectra.png", dpi=150)
    print("wrote router_spectra.png")


if __name__ == "__main__":
    main()
