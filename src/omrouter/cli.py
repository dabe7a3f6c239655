"""Command-line interface: steady state, spectra, routing, sweeps, figures.

Every subcommand writes ``resolved.cfg`` (the fully resolved configuration)
into the output directory next to its data files; re-running any command
from that echo reproduces the outputs byte for byte.  CSV files use a comma
separator, one header row with bracketed units, LF line endings, and
17-significant-digit scientific floats.

Exit codes: 0 success, 1 physics/convergence failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import power_sweep, routing_report
from .config import RunConfig, parse_config
from .errors import ConfigError, RouterError
from .response import closed_vs_oracle_deviation, scan_spectrum
from .steady import operating_point

__all__ = ["main", "run_figure"]

_ORACLE_GRID_POINTS = 2001
_ORACLE_GRID_SPAN = (0.5, 1.5)
_ORACLE_TOL = 1e-9


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def _operating_point(cfg: RunConfig, power_p: float | None = None):
    """The pinned params and steady state at ``power_p`` (default: the
    configured one), by :func:`~omrouter.steady.operating_point`; the
    state's warnings, a missed ``auto`` detuning among them, go to stderr.
    """
    params, state = operating_point(
        cfg.base_params(power_p), cfg.pin_optical, cfg.pin_microwave,
        q_seed=0.0 if cfg.branch_policy == "direct" else None,
        residual_tol=cfg.residual_tol)
    for note in state.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return params, state


def _prepare_outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = "\n".join(cfg.echo_lines()) + "\n"
    (out / "resolved.cfg").write_text(echo, encoding="utf-8", newline="\n")
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")


def _spectrum_grid(cfg: RunConfig) -> np.ndarray:
    return cfg.omega_m * np.linspace(cfg.spectrum_min, cfg.spectrum_max,
                                     cfg.spectrum_points)


def _report_kwargs(cfg: RunConfig) -> dict:
    return dict(r_reflect_min=cfg.r_reflect_min,
                t_transmit_min=cfg.t_transmit_min, method=cfg.method)


def _cmd_steady(cfg: RunConfig) -> int:
    _prepare_outdir(cfg)
    state = _operating_point(cfg)[1]
    print(f"branches ({len(state.branches)}):")
    for i, q in enumerate(state.branches):
        marker = " *" if i == state.branch_index else ""
        print(f"  [{i}] q = {_fmt(q)} m{marker}")
    print(f"q_s      = {_fmt(state.q_s)} m")
    print(f"p_s      = {_fmt(state.p_s)} kg*m/s")
    print(f"a_s      = {state.a_s!r}  (|a_s|^2 = {_fmt(abs(state.a_s)**2)})")
    print(f"c_s      = {state.c_s!r}  (|c_s|^2 = {_fmt(abs(state.c_s)**2)})")
    print(f"delta1   = {_fmt(state.delta1)} rad/s")
    print(f"delta2   = {_fmt(state.delta2)} rad/s")
    print(f"residual = {state.residual:.3e}")
    return 0


def _write_scans(cfg: RunConfig, outputs: dict) -> list[Path]:
    """Write the CSV files of ``spectrum`` or a figure.

    ``outputs`` maps each file name to its columns after the
    ``omega/omega_m`` axis, each ``(header, power_p, ScanResult column)``.
    Each distinct power is solved and scanned once, in order of first use,
    and a scan's failed nodes go to stderr.
    """
    out = _prepare_outdir(cfg)
    grid = _spectrum_grid(cfg)
    axis = (grid / cfg.omega_m).tolist()
    scans = {}
    for power in (p for columns in outputs.values() for _, p, _ in columns):
        if power not in scans:
            params, state = _operating_point(cfg, power)
            scans[power] = scan_spectrum(params, grid, method=cfg.method,
                                         state=state)
            for index, omega, message in scans[power].errors:
                print(f"warning: node {index} (omega={omega!r}): {message}",
                      file=sys.stderr)
    for name, columns in outputs.items():
        header = ["omega_over_omega_m[1]"] + [h for h, _, _ in columns]
        values = (scans[p].column(c).tolist() for _, p, c in columns)
        _write_csv(out / name, header, zip(axis, *values))
    return [out / name for name in outputs]


def _cmd_spectrum(cfg: RunConfig) -> int:
    on = cfg.power_p
    columns = [("reflection[1]", on, "r_refl"),
               ("transmission[1]", on, "t_trans"),
               ("s_thermal[1]", on, "s_thermal"),
               ("s_vacuum[1]", on, "s_vacuum")]
    for path in _write_scans(cfg, {"spectrum.csv": columns}):
        print(f"wrote {path}")
    return 0


def _cmd_route(cfg: RunConfig) -> int:
    out = _prepare_outdir(cfg)
    params, state = _operating_point(cfg)
    report = routing_report(params, state=state, **_report_kwargs(cfg))
    wm = cfg.omega_m
    print(f"pump_on   = {report.pump_on}")
    print(f"center    = {_fmt(report.center)} rad/s "
          f"({report.center / wm:.6f} omega_m)")
    print(f"omega0    = {_fmt(report.omega0)} rad/s "
          f"({report.omega0 / wm:.6f} omega_m)")
    if report.omega0_window is not None:
        print(f"omega0 by t-minima = {_fmt(report.omega0_window)} rad/s")
    print(f"degenerate = {report.degenerate}")
    for port in report.ports:
        print(f"  {port.label:<14} omega/omega_m = {port.omega / wm:.6f}  "
              f"R = {port.r_value:.6f}  T = {port.t_value:.6f}  "
              f"threshold_met = {port.threshold_met}")
    payload = {
        "pump_on": report.pump_on,
        "center": report.center,
        "omega0": report.omega0,
        "omega0_window": report.omega0_window,
        "degenerate": report.degenerate,
        "ports": [{"label": p.label, "omega": p.omega, "r": p.r_value,
                   "t": p.t_value, "threshold_met": p.threshold_met}
                  for p in report.ports],
    }
    path = out / "routing_report.json"
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8", newline="\n")
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote {path}")
    return 0


def _cmd_sweep_power(cfg: RunConfig) -> int:
    out = _prepare_outdir(cfg)
    # each row pins its own detunings, so none is pinned at power_p
    result = power_sweep(cfg.base_params(), cfg.sweep_powers,
                         pin_optical=cfg.pin_optical,
                         pin_microwave=cfg.pin_microwave,
                         **_report_kwargs(cfg))
    messages = {i: msg for i, _, msg in result.errors}

    def row_values(i, row):
        ports = {p.label: p for p in row.ports}
        center = ports.get("transmit") or ports.get("reflect")
        lower = ports.get("reflect-lower")
        upper = ports.get("reflect-upper")
        nan = float("nan")
        return (row.power_p, row.omega0,
                center.omega if center else nan,
                center.r_value if center else nan,
                center.t_value if center else nan,
                lower.omega if lower else nan,
                lower.r_value if lower else nan,
                upper.omega if upper else nan,
                upper.r_value if upper else nan,
                "error" if i in messages else "ok")

    path = out / "sweep_power.csv"
    _write_csv(path,
               ["power_p[W]", "omega0[rad/s]", "center_omega[rad/s]",
                "center_r[1]", "center_t[1]", "lower_omega[rad/s]",
                "lower_r[1]", "upper_omega[rad/s]", "upper_r[1]", "status"],
               (row_values(i, row) for i, row in enumerate(result.rows)))
    for i, row in enumerate(result.rows):
        notes = [messages[i]] if i in messages else row.warnings
        for note in notes:
            print(f"warning: row {i} (power_p={row.power_p!r}): {note}",
                  file=sys.stderr)
    print(f"wrote {path}")
    return 0


def run_figure(figure_id: str, cfg: RunConfig) -> list[Path]:
    """Produce the CSV files behind one of the bundled demo figures.

    ``fig2``: reflection and transmission vs omega/omega_m with the
    microwave pump off and on.  ``fig3``: transmission at each configured
    microwave power.  ``fig4``: vacuum and thermal output noise.  Every
    column spans ``spectrum_min..spectrum_max`` (0.7 to 1.3 omega_m by
    default).  With both detunings ``auto`` the lower reflect port leaves
    that range at about 2 uW (0.6995 omega_m at 2 uW, 0.655 at 2.5 uW):
    set a lower ``spectrum_min`` for ``fig3_powers`` above that.
    """
    on = cfg.power_p
    if figure_id == "fig2":
        outputs = {f"fig2_{name}.csv": [(f"{name[0]}_pump_off[1]", 0.0, col),
                                        (f"{name[0]}_pump_on[1]", on, col)]
                   for name, col in (("reflection", "r_refl"),
                                     ("transmission", "t_trans"))}
    elif figure_id == "fig3":
        columns = [(f"t_at_{p!r}W[1]", p, "t_trans")
                   for p in cfg.fig3_powers]
        outputs = {"fig3_transmission.csv": columns}
    elif figure_id == "fig4":
        outputs = {"fig4_noise.csv": [("s_vacuum[1]", on, "s_vacuum"),
                                      ("s_thermal[1]", on, "s_thermal")]}
    else:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    return _write_scans(cfg, outputs)


def _cmd_validate(cfg: RunConfig) -> int:
    _prepare_outdir(cfg)
    params, state = _operating_point(cfg)
    lo, hi = _ORACLE_GRID_SPAN
    grid = cfg.omega_m * np.linspace(lo, hi, _ORACLE_GRID_POINTS)
    devs = closed_vs_oracle_deviation(params, state, grid)
    for name in ("e1", "f1", "e2", "f2", "v"):
        print(f"max relative deviation {name}: {devs[name]:.3e}")
    print(f"max relative deviation overall: {devs['max']:.3e} "
          f"(tolerance {_ORACLE_TOL:.0e})")
    if devs["max"] >= _ORACLE_TOL:
        print("validation FAILED", file=sys.stderr)
        return 1
    print("validation passed")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` leaves it unchanged: each call gets a fresh namespace and
    a copy of the ``--set`` default, so calls of :func:`main` do not share
    arguments.
    """
    parser = argparse.ArgumentParser(
        prog="omrouter",
        description="Hybrid microwave/optical photon-router simulator.")
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (key = value lines)")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides output_dir)")
    parser.add_argument("--oracle", action="store_true",
                        help="evaluate responses via the matrix-solve path")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", help="print the steady state and all branches")
    sub.add_parser("spectrum", help="emit the spectrum CSV over the "
                                    "configured grid")
    sub.add_parser("route", help="print and save the routing report")
    sub.add_parser("sweep-power", help="routing behaviour vs microwave power")
    fig = sub.add_parser("figure", help="reproduce a bundled demo figure")
    fig.add_argument("figure_id", choices=("fig2", "fig3", "fig4"))
    sub.add_parser("validate", help="closed-form vs matrix-solve "
                                    "equivalence check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.oracle:
        overrides.append("oracle=true")
    if args.out is not None:
        overrides.append(f"output_dir={args.out}")
    try:
        cfg = parse_config(args.config, overrides)
        if args.command == "figure":
            for path in run_figure(args.figure_id, cfg):
                print(f"wrote {path}")
            return 0
        return {"steady": _cmd_steady, "spectrum": _cmd_spectrum,
                "route": _cmd_route, "sweep-power": _cmd_sweep_power,
                "validate": _cmd_validate}[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RouterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
