#!/usr/bin/env python3
"""Output noise floor of the router at millikelvin temperature.

Besides the routed probe photon, the optical output carries two noise
contributions: vacuum inputs scattered through the counter-rotating channel
(``s_vacuum``) and mechanical thermal noise transduced onto the light
(``s_thermal``).  Both must stay far below one photon per unit bandwidth for
single-photon routing to make sense; this demo quantifies them at 20 mK and
shows how the thermal term scales with temperature.
"""

from dataclasses import replace

import numpy as np

from omrouter import operating_point, parse_config, scan_spectrum

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    cfg = parse_config(env={})
    grid = cfg.omega_m * np.linspace(0.7, 1.3, 4001)
    axis = grid / cfg.omega_m

    print(f"{'T [mK]':>8}  {'max s_vacuum':>14}  {'max s_thermal':>14}")
    curves = {}
    for temperature in (0.0, 0.02, 0.1, 0.3):
        params, state = operating_point(
            replace(cfg.base_params(), temperature=temperature),
            cfg.pin_optical, cfg.pin_microwave)
        for note in state.warnings:
            print(f"warning: {note}")
        result = scan_spectrum(params, grid, state=state)
        sv = result.column("s_vacuum")
        st = result.column("s_thermal")
        curves[temperature] = st
        print(f"{temperature * 1e3:8.0f}  {sv.max():14.4e}  "
              f"{st.max():14.4e}")

    print("\nat 20 mK both terms sit well below the single-photon signal; "
          "the thermal term grows linearly with the bath occupation.")

    if plt is None:
        print("matplotlib not installed; skipping the plot")
        return
    fig, ax = plt.subplots(figsize=(6, 3.5))
    for temperature, st in curves.items():
        if temperature == 0.0:
            continue
        ax.semilogy(axis, np.maximum(st, 1e-12),
                    label=f"T = {temperature * 1e3:.0f} mK")
    ax.set_xlabel(r"$\omega/\omega_m$")
    ax.set_ylabel("thermal output noise")
    ax.legend()
    fig.tight_layout()
    fig.savefig("output_noise.png", dpi=150)
    print("wrote output_noise.png")


if __name__ == "__main__":
    main()
