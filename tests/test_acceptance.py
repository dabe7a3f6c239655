"""End-to-end acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import filecmp
import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from omrouter.analysis import routing_report, window_splitting
from omrouter.cli import main
from omrouter.config import parse_config
from omrouter.model import CONSTANTS, SystemParams, thermal_occupation
from omrouter.response import (closed_vs_oracle_deviation, reflection,
                               scan_spectrum, thermal_noise_spectrum,
                               transmission, vacuum_noise_spectrum)
from omrouter.steady import enumerate_branches, solve_steady_state

TAU = 2.0 * math.pi


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{detail}]")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(env={})


def test_criterion_1_oracle_equivalence(cfg):
    t0 = time.perf_counter()
    worst = 0.0
    for power_p in (0.0, 300e-9, 1500e-9):
        params = cfg.system_params(power_p=power_p)
        state = solve_steady_state(params)
        grid = params.omega_m * np.linspace(0.5, 1.5, 2001)
        worst = max(worst, closed_vs_oracle_deviation(params, state,
                                                      grid)["max"])
    elapsed = time.perf_counter() - t0
    report(1, "oracle equivalence",
           worst < 1e-9 and elapsed < 5.0,
           f"max relative deviation {worst:.3e} over 3x2001 points, "
           f"{elapsed:.2f} s")


def test_criterion_2_bare_cavity_analytics(cfg):
    params = replace(cfg.system_params(), g1=0.0, g2=0.0)
    state = solve_steady_state(params)
    k1 = params.kappa1
    grid = params.omega_m * np.linspace(0.5, 1.5, 1001)
    worst_coeff = 0.0
    for omega in grid:
        from omrouter.response import closed_form_coefficients
        c = closed_form_coefficients(params, state, float(omega))
        expected = 2.0 * k1 / (2.0 * k1 + 1j * (state.delta1 - omega))
        got = math.sqrt(2.0 * k1) * c.e1
        worst_coeff = max(worst_coeff, abs(got - expected) / abs(expected))
    total = reflection(params, state, grid) + transmission(params, state,
                                                           grid)
    worst_sum = float(np.max(np.abs(total - 1.0)))
    report(2, "bare-cavity analytics",
           worst_coeff <= 1e-12 and worst_sum <= 1e-12,
           f"coefficient dev {worst_coeff:.2e}, |R+T-1| {worst_sum:.2e} "
           f"over 1001 points")


def test_criterion_3_steady_state_correctness():
    rng = np.random.default_rng(20260810)
    worst_residual = 0.0
    counts_ok = True
    for _ in range(100):
        wm = TAU * 10 ** rng.uniform(6.0, 7.5)
        params = SystemParams(
            omega_m=wm,
            mass=10 ** rng.uniform(-13.0, -10.0),
            gamma_m=TAU * 10 ** rng.uniform(0.5, 2.5),
            kappa1=TAU * 10 ** rng.uniform(4.0, 5.5),
            kappa2=TAU * 10 ** rng.uniform(2.5, 4.0),
            g1=10 ** rng.uniform(17.0, 19.5),
            g2=10 ** rng.uniform(18.0, 20.0),
            delta_a=rng.uniform(-2.0, 2.0) * wm,
            delta_c=rng.uniform(-2.0, 2.0) * wm,
            omega_l=TAU * 195e12,
            omega_p=TAU * 7.1e9,
            power_l=10 ** rng.uniform(-7.0, -3.5),
            power_p=10 ** rng.uniform(-9.0, -6.0),
            temperature=0.02)
        counts_ok &= len(enumerate_branches(params)) % 2 == 1
        worst_residual = max(worst_residual,
                             solve_steady_state(params).residual)

    worst_swap = 0.0
    for _ in range(25):
        wm = TAU * 10 ** rng.uniform(6.0, 7.3)
        common = dict(
            omega_m=wm, mass=10 ** rng.uniform(-12.5, -10.5),
            gamma_m=TAU * 10 ** rng.uniform(1.0, 2.0),
            kappa1=TAU * 10 ** rng.uniform(3.5, 5.0),
            kappa2=TAU * 10 ** rng.uniform(3.5, 5.0),
            g1=10 ** rng.uniform(17.5, 19.0),
            g2=None, delta_a=rng.uniform(0.3, 1.8) * wm, delta_c=None,
            omega_l=TAU * 10e9, omega_p=TAU * 10e9,
            power_l=10 ** rng.uniform(-8.0, -6.0),
            power_p=10 ** rng.uniform(-8.0, -6.0),
            temperature=0.02)
        common["kappa2"] = common["kappa1"]
        common["g2"] = common["g1"]
        common["delta_c"] = common["delta_a"]
        params = SystemParams(**common)
        swapped = replace(params, power_l=params.power_p,
                          power_p=params.power_l)
        q = solve_steady_state(params).q_s
        q_swapped = solve_steady_state(swapped).q_s
        scale = max(abs(q), abs(q_swapped), 1e-300)
        worst_swap = max(worst_swap, abs(q_swapped + q) / scale)

    report(3, "steady-state correctness",
           worst_residual < 1e-10 and counts_ok and worst_swap <= 1e-12,
           f"100 sets: max residual {worst_residual:.2e}, odd counts "
           f"{counts_ok}, swap antisymmetry {worst_swap:.2e}")


def test_criterion_4_router_behavior(cfg):
    t0 = time.perf_counter()
    wm = cfg.omega_m

    p_off = cfg.system_params(power_p=0.0)
    s_off = solve_steady_state(p_off)
    r_off = reflection(p_off, s_off, wm)
    t_off = transmission(p_off, s_off, wm)

    p_on = cfg.system_params()
    s_on = solve_steady_state(p_on)
    r_on = reflection(p_on, s_on, wm)
    t_on = transmission(p_on, s_on, wm)
    rep = routing_report(p_on, state=s_on)
    reflect_ports = [p for p in rep.ports if p.label.startswith("reflect")]

    w_low = window_splitting(p_on, state=s_on)
    p_high = cfg.system_params(power_p=1500e-9)
    w_high = window_splitting(p_high, solve_steady_state(p_high))

    elapsed = time.perf_counter() - t0
    ok = (r_off > 0.99 and t_off < 0.01
          and t_on > 0.95 and r_on < 0.05
          and len(reflect_ports) == 2
          and all(p.r_value > 0.99 for p in reflect_ports)
          and 0.0 < w_low < w_high
          and elapsed < 10.0)
    report(4, "router behavior", ok,
           f"off: R={r_off:.4f} T={t_off:.2e}; on: T={t_on:.4f} "
           f"R={r_on:.2e}, reflect R={[round(p.r_value, 4) for p in reflect_ports]}; "
           f"omega0 {w_low:.4g}->{w_high:.4g}; {elapsed:.2f} s")


def test_criterion_5_noise_insignificance(cfg):
    params = cfg.system_params()
    state = solve_steady_state(params)
    grid = params.omega_m * np.linspace(cfg.spectrum_min, cfg.spectrum_max,
                                        cfg.spectrum_points)
    result = scan_spectrum(params, grid, state=state)
    max_sv = float(np.max(result.column("s_vacuum")))
    max_st = float(np.max(result.column("s_thermal")))

    cold = replace(params, temperature=0.0)
    st_cold = thermal_noise_spectrum(cold, state, grid)
    decoupled = replace(params, g1=0.0)
    s_dec = solve_steady_state(decoupled)
    sv_dec = vacuum_noise_spectrum(decoupled, s_dec, grid)
    st_dec = thermal_noise_spectrum(decoupled, s_dec, grid)

    ok = (max_sv < 0.01 and max_st < 0.05
          and np.all(st_cold == 0.0)
          and np.all(sv_dec == 0.0) and np.all(st_dec == 0.0))
    report(5, "noise insignificance", ok,
           f"max S_V {max_sv:.4f} (<0.01), max S_T {max_st:.4f} (<0.05), "
           f"T=0 and g1=0 columns identically zero: "
           f"{bool(np.all(st_cold == 0.0) and np.all(sv_dec == 0.0))}")


def test_criterion_6_thermal_correlator_identity():
    mp.mp.dps = 50
    temperature = 0.02
    xs = np.logspace(-4, math.log10(50.0), 1000)
    omegas = xs * CONSTANTS.k_B * temperature / CONSTANTS.hbar
    nbars = np.atleast_1d(thermal_occupation(omegas, temperature))
    worst = 0.0
    for x, nbar in zip(xs, nbars):
        exact = (mp.coth(mp.mpf(repr(float(x))) / 2) - 1) / 2
        worst = max(worst, abs(nbar - float(exact)) / float(exact))
    report(6, "thermal-correlator identity", worst < 1e-12,
           f"max relative deviation {worst:.2e} over 1000 samples, "
           f"x in [1e-4, 50]")


def test_criterion_7_determinism(tmp_path):
    dir_a, dir_b, dir_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["--out", str(dir_a), "figure", "fig2"]) == 0
    assert main(["--out", str(dir_b), "figure", "fig2"]) == 0
    identical = all(
        filecmp.cmp(dir_a / name, dir_b / name, shallow=False)
        for name in ("fig2_reflection.csv", "fig2_transmission.csv"))
    assert main(["--config", str(dir_a / "resolved.cfg"), "--out",
                 str(dir_c), "figure", "fig2"]) == 0
    from_echo = all(
        filecmp.cmp(dir_a / name, dir_c / name, shallow=False)
        for name in ("fig2_reflection.csv", "fig2_transmission.csv"))
    report(7, "determinism and reproducibility", identical and from_echo,
           f"repeat-run identical: {identical}, echo-run identical: "
           f"{from_echo}")


def test_criterion_8_figure_suite_runtime(tmp_path):
    t0 = time.perf_counter()
    for figure_id in ("fig2", "fig3", "fig4"):
        assert main(["--out", str(tmp_path), "figure", figure_id]) == 0
    elapsed = time.perf_counter() - t0
    report(8, "figure-suite runtime", elapsed < 10.0,
           f"fig2+fig3+fig4 in {elapsed:.2f} s (< 10 s), single process")
