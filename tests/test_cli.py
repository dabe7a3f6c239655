import argparse
import json
import math
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import omrouter.cli as cli_module
import omrouter.config as config_module
import omrouter.steady as steady_module
from omrouter.analysis import find_extrema, window_splitting
from omrouter.cli import _build_parser, main, run_figure
from omrouter.config import parse_config
from omrouter.errors import ConfigError, ConvergenceError
from omrouter.response import scan_spectrum
from omrouter.steady import operating_point

TAU = 2.0 * math.pi


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in handle]
    columns = {}
    for i, name in enumerate(header):
        values = [row[i] for row in rows]
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:
            columns[name] = values
    return columns


def test_steady_prints_branches_and_state(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "steady"]) == 0
    out = capsys.readouterr().out
    assert "branches (5):" in out
    assert "residual" in out
    assert (tmp_path / "resolved.cfg").exists()


@pytest.mark.parametrize("policy", ["ramp", "direct"])
def test_steady_enumerates_once_and_lists_those_roots(tmp_path, capsys,
                                                      monkeypatch, policy):
    seen = []
    real_stages = steady_module._stages

    def recording(params, scales):
        seen.append(params)
        return real_stages(params, scales)

    monkeypatch.setattr(steady_module, "_stages", recording)
    assert main(["--out", str(tmp_path), "--set", f"branch_policy={policy}",
                 "steady"]) == 0
    assert len(seen) == 1
    listed = [line.split(" = ")[1].split(" m")[0]
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("  [")]
    monkeypatch.undo()
    roots = steady_module.enumerate_branches(seen[0])
    assert listed == [f"{q:.16e}" for q in roots]


def test_spectrum_writes_csv(tmp_path):
    code = main(["--out", str(tmp_path), "--set", "spectrum_points=101",
                 "spectrum"])
    assert code == 0
    cols = read_csv(tmp_path / "spectrum.csv")
    assert list(cols) == ["omega_over_omega_m[1]", "reflection[1]",
                          "transmission[1]", "s_thermal[1]", "s_vacuum[1]"]
    assert cols["omega_over_omega_m[1]"].size == 101
    assert np.all(np.isfinite(cols["reflection[1]"]))


def test_spectrum_empty_grid_exits_2(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--set", "spectrum_points=0",
                 "spectrum"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--set", "bogus=1", "steady"]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "power_p=1e400", "mass=1e400", "g1=1e400", "omega_m=2pi*1e400MHz",
    "power_p=1e310W", "g2=2pi*1e308"])
def test_overflowing_value_exits_2(tmp_path, capsys, setting):
    # an inf would reach the solver, and resolved.cfg could not echo it
    out = tmp_path / "out"
    assert main(["--out", str(out), "--set", setting, "route"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert setting.partition("=")[0] in err
    assert not (out / "resolved.cfg").exists()


@pytest.mark.parametrize("setting, command", [
    ("power_p=1e-400", "route"), ("power_p=1e-395uW", "route"),
    ("g1=2pi*1e-400", "steady"), ("omega_m=2pi*1e-400MHz", "route")])
def test_underflowing_value_exits_2(tmp_path, capsys, setting, command):
    # a nonzero literal must not silently read as 0 (a pump turned off)
    out = tmp_path / "out"
    assert main(["--out", str(out), "--set", setting, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert setting.partition("=")[0] in err and "underflows" in err
    assert not (out / "resolved.cfg").exists()


def test_route_pump_off_single_port(tmp_path):
    code = main(["--out", str(tmp_path), "--set", "power_p=0", "route"])
    assert code == 0
    payload = json.loads((tmp_path / "routing_report.json").read_text())
    assert payload["pump_on"] is False
    assert payload["omega0"] == 0.0
    assert len(payload["ports"]) == 1
    port = payload["ports"][0]
    assert port["label"] == "reflect"
    assert port["r"] > 0.99 and port["t"] < 0.01 and port["threshold_met"]


def test_route_pump_on_three_ports(tmp_path):
    assert main(["--out", str(tmp_path), "route"]) == 0
    payload = json.loads((tmp_path / "routing_report.json").read_text())
    labels = [p["label"] for p in payload["ports"]]
    assert labels == ["transmit", "reflect-lower", "reflect-upper"]
    assert all(p["threshold_met"] for p in payload["ports"])
    # window-based splitting measure agrees with the port-based one
    assert payload["omega0_window"] == pytest.approx(payload["omega0"],
                                                     rel=0.02)


@pytest.mark.parametrize("power_p", ["0", "300nW", "2.5uW"])
def test_route_splitting_is_window_splitting(tmp_path, power_p):
    assert main(["--out", str(tmp_path), "--set", f"power_p={power_p}",
                 "route"]) == 0
    payload = json.loads((tmp_path / "routing_report.json").read_text())
    cfg = parse_config(overrides=[f"power_p={power_p}"], env={})
    params, state = operating_point(cfg.base_params(), cfg.pin_optical,
                                    cfg.pin_microwave)
    assert payload["omega0_window"] == window_splitting(params, state=state)


@pytest.mark.parametrize("power_p, warns", [("1e-12", True),
                                            ("1.5e-06", False),
                                            ("2.5e-06", False),
                                            ("2e-05", False)])
def test_route_warns_on_collapsed_pumped_report(tmp_path, capsys, power_p,
                                                warns):
    # the report itself is written unchanged; the warning goes to stderr.
    # At 1 pW the split lines are a single T dip, so one reflect port.
    assert main(["--out", str(tmp_path), "--set", f"power_p={power_p}",
                 "route"]) == 0
    err = capsys.readouterr().err
    assert ("warning: pump on, but 1 of 3 ports" in err) == warns


@pytest.mark.parametrize("power_p, warns", [("7uW", False), ("8uW", True)])
def test_auto_detuning_miss_warns(tmp_path, capsys, power_p, warns):
    # above about 7.5 uW the ramped solve settles where the auto detunings
    # are off omega_m (delta1, delta2 = 0.983, 1.042 omega_m at 8 uW); the
    # outputs stay as they are and each miss is a warning on stderr
    for command in ("route", "steady"):
        assert main(["--out", str(tmp_path), "--set", f"power_p={power_p}",
                     command]) == 0
        out, err = capsys.readouterr()
        assert "warning" not in out
        notes = [line for line in err.splitlines() if "= auto missed" in line]
        assert len(notes) == (2 if warns else 0)
        if warns:
            assert notes[0].startswith("warning: delta_a = auto missed")
            assert notes[1].startswith("warning: delta_c = auto missed")


def test_operating_point_notes_the_route_warnings(tmp_path, capsys):
    # at 8 uW with both sides auto the library call carries the two
    # missed-pin notes that route prints on stderr
    assert main(["--out", str(tmp_path), "--set", "power_p=8uW",
                 "route"]) == 0
    err = capsys.readouterr().err.splitlines()
    cfg = parse_config(overrides=["power_p=8uW"], env={})
    _, state = operating_point(cfg.base_params(), True, True)
    notes = [f"warning: {note}" for note in state.warnings]
    assert len(notes) == 2
    assert notes[0].startswith("warning: delta_a = auto missed omega_m")
    assert notes[1].startswith("warning: delta_c = auto missed omega_m")
    assert [line for line in err if "= auto missed" in line] == notes


@pytest.mark.parametrize("power_p", ["2uW", "2.5uW", "3uW", "4uW", "5uW"])
def test_route_three_ports_past_default_window(tmp_path, power_p):
    # the lower split line lies outside +-0.30 omega_m; each port lies
    # within one grid step of the maximum nearest it in a full scan of
    # +-0.6 omega_m (R for a reflect port, T for the transmit port)
    assert main(["--out", str(tmp_path), "--set", f"power_p={power_p}",
                 "route"]) == 0
    payload = json.loads((tmp_path / "routing_report.json").read_text())
    ports = {p["label"]: p for p in payload["ports"]}
    assert list(ports) == ["transmit", "reflect-lower", "reflect-upper"]
    lower, mid, upper = (ports[k]["omega"] for k in
                         ("reflect-lower", "transmit", "reflect-upper"))
    assert lower < mid < upper
    assert ports["reflect-lower"]["r"] > 0.99
    assert ports["reflect-upper"]["r"] > 0.99

    cfg = parse_config(overrides=[f"power_p={power_p}"], env={})
    params, state = operating_point(cfg.base_params(), cfg.pin_optical,
                                    cfg.pin_microwave)
    grid = params.omega_m * np.linspace(0.4, 1.6, 8001)
    scan = scan_spectrum(params, grid, state=state)
    for label, port in ports.items():
        column = "R" if label.startswith("reflect") else "T"
        nearest = min(abs(e.omega - port["omega"])
                      for e in find_extrema(scan, column).maxima)
        assert nearest < grid[1] - grid[0]


def test_route_one_sided_pinning_three_ports(tmp_path, capsys):
    # with delta_c bare, delta2 = 0.815 omega_m and the lower reflect
    # peak sits at 0.494 omega_m, where R = 0.9992
    assert main(["--out", str(tmp_path), "--set", "delta_c=2pi*10.56MHz",
                 "--set", "power_p=2uW", "route"]) == 0
    assert "warning" not in capsys.readouterr().err
    payload = json.loads((tmp_path / "routing_report.json").read_text())
    ports = {p["label"]: p for p in payload["ports"]}
    assert list(ports) == ["transmit", "reflect-lower", "reflect-upper"]
    omega_m = parse_config(env={}).omega_m
    assert ports["reflect-lower"]["omega"] / omega_m == pytest.approx(
        0.494, abs=1e-3)
    assert all(p["threshold_met"] for p in payload["ports"])


def test_readme_cli_examples_run(tmp_path, capsys):
    # every command of README's example block, with its output directory
    # moved under tmp_path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("Example:\n\n```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.strip()]
    assert len(commands) >= 4
    for i, argv in enumerate(commands):
        assert argv[0] == "omrouter"
        argv = argv[1:]
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        else:
            argv = ["--out", str(tmp_path / f"run{i}")] + argv
        assert main(argv) == 0, argv
    assert "warning" not in capsys.readouterr().err


def test_hash_in_output_dir_exits_2(tmp_path, capsys):
    out = tmp_path / "a#b"
    assert main(["--out", str(out), "steady"]) == 2
    assert "output_dir" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a\nb", "a\rb"], ids=["lf", "cr"])
def test_line_break_in_output_dir_exits_2(tmp_path, capsys, name):
    # resolved.cfg would echo output_dir over two lines
    assert main(["--out", str(tmp_path / name), "steady"]) == 2
    assert "output_dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg"), "steady"])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_validate_passes_on_defaults(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "validate"]) == 0
    out = capsys.readouterr().out
    assert "validation passed" in out
    assert "max relative deviation overall" in out


def test_validate_oracle_flag(tmp_path, capsys):
    # --oracle only switches the default evaluation path; validate still
    # compares both paths and passes
    assert main(["--out", str(tmp_path), "--oracle", "validate"]) == 0


def test_figure_fig2_columns(tmp_path):
    assert main(["--out", str(tmp_path), "figure", "fig2"]) == 0
    refl = read_csv(tmp_path / "fig2_reflection.csv")
    trans = read_csv(tmp_path / "fig2_transmission.csv")
    axis = trans["omega_over_omega_m[1]"]
    t_off = trans["t_pump_off[1]"]
    t_on = trans["t_pump_on[1]"]
    # pump off: transparency dip pinned to the mechanical frequency up to
    # the optical-spring pull (a physical shift, larger than the grid step)
    assert abs(axis[np.argmin(t_off)] - 1.0) < 2e-3
    # pump on: transparent at the centre, blocked at the split dips
    center = np.argmin(np.abs(axis - 1.0))
    assert t_on[center] > 0.95
    assert refl["r_pump_off[1]"][np.argmin(np.abs(axis - 1.0))] > 0.99


def test_figure_fig3_dip_separation_grows(tmp_path):
    assert main(["--out", str(tmp_path), "figure", "fig3"]) == 0
    cols = read_csv(tmp_path / "fig3_transmission.csv")
    axis = cols["omega_over_omega_m[1]"]
    names = [n for n in cols if n.startswith("t_at_")]
    assert len(names) == 2

    def separation(t):
        lower = axis < 1.0
        return (axis[~lower][np.argmin(t[~lower])]
                - axis[lower][np.argmin(t[lower])])

    low_power, high_power = names
    assert separation(cols[high_power]) > separation(cols[low_power])


def test_figure_fig4_thermal_zero_at_zero_temperature(tmp_path):
    code = main(["--out", str(tmp_path), "--set", "temperature=0",
                 "figure", "fig4"])
    assert code == 0
    cols = read_csv(tmp_path / "fig4_noise.csv")
    assert np.all(cols["s_thermal[1]"] == 0.0)
    assert np.all(cols["s_vacuum[1]"] >= 0.0)


def test_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["--out", str(tmp_path), "figure", "fig9"])
    assert info.value.code == 2


def test_run_figure_rejects_spectrum(tmp_path):
    # spectrum shares the figures' writer but is not a figure
    cfg = parse_config(overrides=[f"output_dir={tmp_path}"], env={})
    with pytest.raises(ConfigError, match="^unknown figure id 'spectrum'$"):
        run_figure("spectrum", cfg)


@pytest.mark.parametrize("argv, scans, columns", [
    (["--set", "power_p=0", "figure", "fig2"], [0.0],
     {"fig2_reflection.csv": 3, "fig2_transmission.csv": 3}),
    (["--set", "fig3_powers=300nW, 1uW, 300nW", "figure", "fig3"],
     [3e-7, 1e-6], {"fig3_transmission.csv": 4}),
    (["figure", "fig4"], [3e-7], {"fig4_noise.csv": 3}),
    (["spectrum"], [3e-7], {"spectrum.csv": 5})])
def test_each_power_scanned_once(tmp_path, monkeypatch, argv, scans,
                                 columns):
    # a power that several columns share is solved and scanned once, in
    # order of first use
    seen = []
    real_scan = cli_module.scan_spectrum

    def recording(params, *args, **kwargs):
        seen.append(params.power_p)
        return real_scan(params, *args, **kwargs)

    monkeypatch.setattr(cli_module, "scan_spectrum", recording)
    assert main(["--out", str(tmp_path), "--set", "spectrum_points=11",
                 *argv]) == 0
    assert seen == scans
    for name, count in columns.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 12
        assert {len(line.split(",")) for line in lines} == {count}


def test_repeated_fig3_power_gives_equal_columns(tmp_path):
    assert main(["--out", str(tmp_path), "--set", "spectrum_points=11",
                 "--set", "fig3_powers=300nW, 1uW, 300nW",
                 "figure", "fig3"]) == 0
    lines = (tmp_path / "fig3_transmission.csv").read_text().splitlines()
    assert lines[0].split(",")[1:] == [
        "t_at_3e-07W[1]", "t_at_1e-06W[1]", "t_at_3e-07W[1]"]
    for line in lines[1:]:
        values = line.split(",")
        assert values[1] == values[3] != values[2]


def test_near_equal_fig3_powers_get_distinct_headers(tmp_path):
    # two powers that agree to 6 significant digits: each header carries
    # its power's shortest round-trip repr
    assert main(["--out", str(tmp_path), "--set", "spectrum_points=3",
                 "--set", "fig3_powers=300nW, 300.0000001nW",
                 "figure", "fig3"]) == 0
    lines = (tmp_path / "fig3_transmission.csv").read_text().splitlines()
    assert lines[0].split(",")[1:] == [
        "t_at_3e-07W[1]", "t_at_3.000000001e-07W[1]"]


def test_figure_reports_failed_nodes(tmp_path, capsys, monkeypatch):
    # each scan's failed nodes go to stderr, as spectrum's do: fig2 makes
    # two scans, pump off and pump on
    real_scan = cli_module.scan_spectrum

    def failing(*args, **kwargs):
        result = real_scan(*args, **kwargs)
        return replace(result, errors=[
            (4, float(result.omega[4]), "singular response denominator")])

    monkeypatch.setattr(cli_module, "scan_spectrum", failing)
    assert main(["--out", str(tmp_path), "--set", "spectrum_points=11",
                 "figure", "fig2"]) == 0
    out, err = capsys.readouterr()
    omega = float(parse_config(env={}).omega_m * np.linspace(0.7, 1.3, 11)[4])
    assert err.splitlines() == [
        f"warning: node 4 (omega={omega!r}): singular response "
        "denominator"] * 2
    assert out.count("wrote ") == 2


def test_solve_failure_exits_1(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ConvergenceError("steady-state residual too large")

    monkeypatch.setattr(steady_module, "solve_steady_state", failing)
    assert main(["--out", str(tmp_path), "route"]) == 1
    out, err = capsys.readouterr()
    assert err == ("error: ConvergenceError: steady-state residual too "
                   "large\n")
    assert not (tmp_path / "routing_report.json").exists()


def test_validate_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_module, "_ORACLE_TOL", 0.0)
    assert main(["--out", str(tmp_path), "validate"]) == 1
    out, err = capsys.readouterr()
    assert "(tolerance 0e+00)" in out
    assert "validation passed" not in out
    assert err == "validation FAILED\n"


def test_sweep_power_ordering(tmp_path):
    assert main(["--out", str(tmp_path), "sweep-power"]) == 0
    cols = read_csv(tmp_path / "sweep_power.csv")
    omega0 = cols["omega0[rad/s]"]
    assert omega0[0] == 0.0
    assert omega0[1] > 0.0 and omega0[2] > omega0[1]
    assert cols["status"] == ["ok", "ok", "ok"]


def test_sweep_power_warns_on_collapsed_rows(tmp_path, capsys):
    # the CSV is unchanged; the collapsed row's report warning goes to
    # stderr, tagged with its row, and so do the 20 uW state's two missed
    # auto detunings
    assert main(["--out", str(tmp_path), "--set",
                 "sweep_powers=1pW, 2.5uW, 20uW", "sweep-power"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err[0].startswith("warning: row 0 (power_p=1e-12)")
    assert "): pump on, but 1 of 3 ports" in err[0]
    assert all(line.startswith("warning: row 2 (power_p=2e-05)")
               for line in err[1:])
    assert "): delta_a = auto missed omega_m" in err[1]
    assert "): delta_c = auto missed omega_m" in err[2]
    assert read_csv(tmp_path / "sweep_power.csv")["status"] == ["ok"] * 3


def test_sweep_power_warns_on_missed_auto_detuning(tmp_path, capsys,
                                                   monkeypatch):
    # the 8 uW row, seeded from 7 uW, misses both auto detunings: stderr
    # warns for that row only, and the CSV is the one written without
    # the check
    argv = ["--set", "sweep_powers=7uW, 8uW", "sweep-power"]
    assert main(["--out", str(tmp_path / "checked"), *argv]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in err] == [
        ["warning", " row 1 (power_p=8e-06)"]] * 2
    assert "delta_a = auto missed omega_m" in err[0]
    assert "delta_c = auto missed omega_m" in err[1]
    monkeypatch.setattr(steady_module, "_PIN_TOL", math.inf)
    assert main(["--out", str(tmp_path / "unchecked"), *argv]) == 0
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "checked" / "sweep_power.csv").read_bytes()
            == (tmp_path / "unchecked" / "sweep_power.csv").read_bytes())


def test_sweep_power_pins_only_its_rows(tmp_path, capsys, monkeypatch):
    # power_p is not a row: the sweep pins at 0 and 300 nW only
    pinned_at = []

    def spy(pin):
        def wrapped(params, *pins):
            pinned_at.append(params.power_p)
            return pin(params, *pins)
        return wrapped

    for module in (steady_module, config_module):
        monkeypatch.setattr(module, "pin_effective_detunings",
                            spy(module.pin_effective_detunings))
    argv = ["--set", "delta_c=2pi*10.56MHz", "--set", "power_p=8uW",
            "--set", "sweep_powers=0, 300nW"]
    assert main(["--out", str(tmp_path), *argv, "sweep-power"]) == 0
    assert capsys.readouterr().err == ""
    assert pinned_at == [0.0, 3e-7]
    cols = read_csv(tmp_path / "sweep_power.csv")
    assert cols["status"] == ["ok", "ok"]
    assert cols["omega0[rad/s]"][0] == 0.0 < cols["omega0[rad/s]"][1]


@pytest.mark.parametrize("bare, power_p, missed", [
    ("delta_a", "2.5uW", None), ("delta_a", "3uW", None),
    ("delta_c", "8uW", "delta_a")])
def test_route_one_sided_pinning_from_the_cubic(tmp_path, capsys, bare,
                                                power_p, missed):
    # the pinned root exists at every power; the ramped solve lands on it
    # with delta_a bare at 2.5 and 3 uW, and on another root with delta_c
    # bare at 8 uW
    assert main(["--out", str(tmp_path), "--set", f"{bare}=2pi*10.56MHz",
                 "--set", f"power_p={power_p}", "route"]) == 0
    err = capsys.readouterr().err
    if missed is None:
        assert "warning" not in err
    else:
        assert f"warning: {missed} = auto missed omega_m" in err


def test_resolved_config_written_next_to_outputs(tmp_path):
    assert main(["--out", str(tmp_path), "figure", "fig4"]) == 0
    echo = (tmp_path / "resolved.cfg").read_text(encoding="utf-8")
    assert "omega_m = " in echo
    assert echo.endswith("\n")


def test_csv_float_format_is_17_significant_digits(tmp_path):
    assert main(["--out", str(tmp_path), "--set", "spectrum_points=3",
                 "spectrum"]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    first = lines[1].split(",")[0]
    mantissa = first.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17


def test_parser_built_once_and_calls_share_no_arguments(tmp_path, capsys,
                                                        monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out", str(first), "--oracle", "--set",
                 "spectrum_points=7", "steady"]) == 0
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["--out", str(second), "--set", "residual_tol=1e-9",
                 "steady"]) == 0
    assert built == []
    assert _build_parser().get_default("overrides") == []

    def echo(path):
        lines = (path / "resolved.cfg").read_text(encoding="utf-8")
        return dict(line.split(" = ", 1) for line in lines.splitlines()
                    if not line.startswith("#"))

    defaults = parse_config(env={})
    one, two = echo(first), echo(second)
    assert (one["oracle"], two["oracle"]) == ("true", "false")
    assert (one["spectrum_points"], two["spectrum_points"]) == (
        "7", str(defaults.spectrum_points))
    assert (one["residual_tol"], two["residual_tol"]) == (
        repr(defaults.residual_tol), "1e-09")
    assert (one["output_dir"], two["output_dir"]) == (str(first),
                                                      str(second))
