import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import omrouter.analysis as analysis_module
import omrouter.steady as steady_module
from omrouter.config import DEFAULTS, RunConfig, parse_config
from omrouter.errors import ConfigError

TAU = 2.0 * math.pi


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_builtin_values(self, default_cfg):
        approx = pytest.approx
        assert default_cfg.omega_m == approx(TAU * 10.56e6, rel=1e-15)
        assert default_cfg.mass == approx(48e-12, rel=1e-15)
        assert default_cfg.gamma_m == approx(TAU * 32.0, rel=1e-15)
        assert default_cfg.kappa1 == approx(TAU * 100e3, rel=1e-15)
        assert default_cfg.kappa2 == approx(TAU * 1e3, rel=1e-15)
        assert default_cfg.omega_p == approx(TAU * 7.1e9, rel=1e-15)
        assert default_cfg.power_l == approx(130e-6, rel=1e-15)
        assert default_cfg.power_p == approx(300e-9, rel=1e-15)
        assert default_cfg.temperature == approx(0.02, rel=1e-15)
        assert default_cfg.delta_a == "auto"

    def test_empty_file_is_pure_defaults(self, tmp_path, default_cfg):
        path = write_cfg(tmp_path, "# nothing here\n\n   \n")
        cfg = parse_config(path, env={})
        assert cfg == default_cfg

    def test_library_defaults_agree(self):
        # the library states these defaults too; they must not drift apart
        assert DEFAULTS["residual_tol"] == steady_module._DEFAULT_RESIDUAL_TOL
        assert DEFAULTS["r_reflect_min"] == (
            analysis_module.DEFAULT_R_REFLECT_MIN)
        assert DEFAULTS["t_transmit_min"] == (
            analysis_module.DEFAULT_T_TRANSMIT_MIN)
        assert DEFAULTS["r_reflect_min"] == (
            analysis_module.CalibrationTargets().r_reflect_min)


class TestValueParsing:
    def test_two_pi_and_unit_suffixes(self, tmp_path):
        path = write_cfg(tmp_path, "\n".join([
            "omega_m = 2pi*1.5MHz",
            "mass = 5ng",
            "power_p = 2.5nW",
            "temperature = 250mK",
            "kappa1 = 2pi*200kHz",   # doubled-linewidth variant
        ]))
        cfg = parse_config(path, env={})
        assert cfg.omega_m == pytest.approx(TAU * 1.5e6)
        assert cfg.mass == pytest.approx(5e-12)
        assert cfg.power_p == pytest.approx(2.5e-9)
        assert cfg.temperature == pytest.approx(0.25)
        assert cfg.kappa1 == pytest.approx(TAU * 200e3)

    def test_bare_numbers_are_si(self, tmp_path):
        path = write_cfg(tmp_path, "omega_m = 6.6e7\npower_p = 0\n")
        cfg = parse_config(path, env={})
        assert cfg.omega_m == 6.6e7
        assert cfg.power_p == 0.0

    def test_micro_sign_accepted(self, tmp_path):
        path = write_cfg(tmp_path, "power_l = 130µW\n")
        assert parse_config(path, env={}).power_l == pytest.approx(130e-6)

    def test_detuning_auto_and_numeric(self, tmp_path):
        path = write_cfg(tmp_path,
                         "delta_a = 2pi*10MHz\ndelta_c = auto\n")
        cfg = parse_config(path, env={})
        assert cfg.delta_a == pytest.approx(TAU * 10e6)
        assert cfg.delta_c == "auto"
        assert not cfg.pin_optical and cfg.pin_microwave

    def test_power_list(self, tmp_path):
        path = write_cfg(tmp_path, "sweep_powers = 0, 300nW, 1.5uW\n")
        cfg = parse_config(path, env={})
        assert cfg.sweep_powers == pytest.approx((0.0, 300e-9, 1.5e-6))

    @pytest.mark.parametrize("key, text, value", [
        ("power_p", "300nW", 3e-07), ("power_p", "2.5uW", 2.5e-06),
        ("power_p", "3e2nW", 3e-07), ("power_l", "130uW", 1.3e-04),
        ("mass", "48ng", 4.8e-11), ("temperature", "20mK", 0.02),
        ("sweep_powers", "0, 300nW, 2.5uW", (0.0, 3e-07, 2.5e-06))])
    def test_unit_suffix_gives_nearest_double(self, key, text, value):
        # 300 * 1e-9 rounds twice and lands one ulp above 3e-07
        cfg = parse_config(overrides=[f"{key}={text}"], env={})
        assert getattr(cfg, key) == value

    def test_two_pi_values_keep_their_bits(self, default_cfg):
        assert default_cfg.omega_m.hex() == (TAU * 10.56 * 1e6).hex()
        assert default_cfg.kappa1.hex() == (TAU * 100.0 * 1e3).hex()
        assert default_cfg.omega_l.hex() == (TAU * 195.0 * 1e12).hex()

    @pytest.mark.parametrize("text, value", [
        ("0", 0.0), ("0.0nW", 0.0), ("0e5", 0.0), ("-0", 0.0),
        ("1e-320", 1e-320)])
    def test_zero_and_subnormal_accepted(self, text, value):
        # only a nonzero literal that underflows to 0 is rejected
        cfg = parse_config(overrides=[f"power_p={text}"], env={})
        assert cfg.power_p == value

    def test_overlong_exponent_rejected(self):
        with pytest.raises(ConfigError, match="power_p"):
            parse_config(overrides=["power_p=1e" + "1" * 5000 + "nW"],
                         env={})

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write_cfg(tmp_path, "omega_m = 1e7\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=r"2: unknown key 'bogus_key'"):
            parse_config(path, env={})

    @pytest.mark.parametrize("key, value", [("scan_points", "20001"),
                                            ("t_blocked_max", "0.01"),
                                            ("splitting_window", "0.30"),
                                            ("splitting_points", "4001"),
                                            ("splitting_mode", "t-minima"),
                                            ("ramp_steps", "11")],
                             ids=["scan_points", "t_blocked_max",
                                  "splitting_window", "splitting_points",
                                  "splitting_mode", "ramp_steps"])
    def test_removed_key_rejected(self, tmp_path, key, value):
        # branch enumeration has no sampling density to set, no command
        # reads a blocked-transmission threshold from the config, the
        # routing window is sized from the solved state, the routing
        # report measures its splitting one way only, and the ramp's
        # power scales are fixed
        path = write_cfg(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"1: unknown key '{key}'"):
            parse_config(path, env={})

    def test_unit_mismatch_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "omega_m = 48ng\n")
        with pytest.raises(ConfigError, match="frequency"):
            parse_config(path, env={})

    def test_hz_without_two_pi_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "omega_m = 10.56MHz\n")
        with pytest.raises(ConfigError, match="2pi"):
            parse_config(path, env={})

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "power_p = lots\n")
        with pytest.raises(ConfigError, match="power_p"):
            parse_config(path, env={})

    def test_missing_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "omega_m 1e7\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path, env={})


    @pytest.mark.parametrize("setting, message", [
        ("power_p=3furlongs", "unknown unit 'furlongs' for power_p"),
        ("omega_m=2pi*3furlongs", "unknown unit 'furlongs' for omega_m"),
        ("mass=3nW", "mass expects mass, got 'nW' (power)"),
        ("omega_m=2pi*3nW", "omega_m expects a frequency, got 'nW'"),
        ("omega_m=10.56MHz", "omega_m is angular; write 2pi*10.56MHz or "
                             "give the rad/s number directly"),
        ("power_p=2pi*3nW",
         "2pi* is only valid with frequency-like keys, not power_p"),
        ("mass=2pi*3", "2pi* is only valid with frequency-like keys, "
                       "not mass"),
        # the unit is checked before the 2pi* prefix
        ("power_p=2pi*3Hz", "power_p expects power, got 'Hz' (frequency)"),
        ("mass=2pi*3Hz", "mass expects mass, got 'Hz' (frequency)"),
        ("g1=2pi*3nW", "g1 expects coupling, got 'nW' (power)"),
        ("g1=5e19Hz", "g1 expects coupling, got 'Hz' (frequency)"),
        ("oracle=maybe", "oracle expects true/false, got 'maybe'")])
    def test_value_message(self, setting, message):
        key = setting.partition("=")[0]
        with pytest.raises(ConfigError) as info:
            parse_config(overrides=[setting], env={})
        assert str(info.value) == f"override {key!r}: {message}"


class TestPrecedence:
    def test_env_below_file(self, tmp_path):
        path = write_cfg(tmp_path, "power_p = 5nW\n")
        cfg = parse_config(path, env={"OMROUTER_POWER_P": "7nW"})
        assert cfg.power_p == pytest.approx(5e-9)

    def test_env_applies_without_file(self):
        cfg = parse_config(env={"OMROUTER_POWER_P": "7nW"})
        assert cfg.power_p == pytest.approx(7e-9)

    def test_override_beats_file(self, tmp_path):
        path = write_cfg(tmp_path, "power_p = 5nW\n")
        cfg = parse_config(path, overrides=["power_p=0"], env={})
        assert cfg.power_p == 0.0

    def test_unknown_env_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(env={"OMROUTER_BOGUS": "1"})

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(overrides=["power_p"], env={})


class TestValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="spectrum"):
            parse_config(overrides=["spectrum_points=0"], env={})

    def test_decreasing_sweep_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(overrides=["sweep_powers=1nW, 1nW"], env={})

    def test_hash_in_output_dir_rejected(self):
        # resolved.cfg echoes output_dir verbatim, and '#' would cut it short
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config(overrides=["output_dir=run#1"], env={})

    @pytest.mark.parametrize("text", ["a\nb", "a\rb"], ids=["lf", "cr"])
    def test_line_break_in_output_dir_rejected(self, text):
        # a line break would split the resolved.cfg echo over two lines
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config(overrides=[f"output_dir={text}"], env={})

    @pytest.mark.parametrize("setting, message", [
        ("residual_tol=0", "residual_tol must be > 0"),
        ("spectrum_min=1.3", "spectrum_min must be < spectrum_max"),
        ("spectrum_min=0", "spectrum_min must be > 0"),
        ("r_reflect_min=1", "r_reflect_min must be in (0, 1)"),
        ("fig3_powers=-1nW", "powers must be nonnegative")])
    def test_validation_message(self, setting, message):
        with pytest.raises(ConfigError) as info:
            parse_config(overrides=[setting], env={})
        assert str(info.value) == message

    def test_invalid_physics_surfaces_as_config_error(self):
        cfg = parse_config(overrides=["mass=-1"], env={})
        with pytest.raises(ConfigError, match="mass"):
            cfg.base_params()


class TestParserRobustness:
    @given(st.text(max_size=60))
    def test_any_value_parses_or_raises_config_error(self, text):
        # the parser may reject garbage, but only ever with ConfigError
        for key in ("omega_m", "power_p", "mass", "sweep_powers",
                    "spectrum_points", "branch_policy"):
            try:
                parse_config(overrides=[f"{key}={text}"], env={})
            except ConfigError:
                pass

    @given(st.text(max_size=40))
    def test_any_line_parses_or_raises_config_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.cfg"
            path.write_text(text + "\n", encoding="utf-8")
            try:
                parse_config(path, env={})
            except ConfigError:
                pass


class TestEchoRoundTrip:
    def test_roundtrip_reproduces_config(self, tmp_path, default_cfg):
        echo = write_cfg(tmp_path, "\n".join(default_cfg.echo_lines()) + "\n")
        again = parse_config(echo, env={})
        for field in fields(default_cfg):
            assert getattr(again, field.name) == getattr(default_cfg,
                                                         field.name)

    def test_roundtrip_after_overrides(self, tmp_path):
        cfg = parse_config(overrides=["power_p=0", "spectrum_points=11",
                                      "delta_a=2pi*9MHz"], env={})
        echo = write_cfg(tmp_path, "\n".join(cfg.echo_lines()) + "\n")
        again = parse_config(echo, env={})
        assert again == cfg


def test_readme_names_every_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    missing = [f.name for f in fields(RunConfig)
               if f"`{f.name}`" not in section]
    assert missing == []


def test_readme_removed_keys_are_unknown():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    sentence = re.search(r"A config that sets a removed key \(([^)]*)\) "
                         r"is rejected as an unknown key\.", text)
    removed = re.findall(r"`(\w+)`", sentence.group(1))
    assert "pump_hbar" in removed
    names = {f.name for f in fields(RunConfig)}
    for key in removed:
        assert key not in names
        with pytest.raises(ConfigError, match=re.escape(
                f"override {key!r}: unknown key {key!r}")):
            parse_config(overrides=[f"{key}=1"], env={})


class TestSystemParams:
    def test_auto_pinning_hits_target(self, default_cfg):
        from omrouter.steady import solve_steady_state
        params = default_cfg.system_params()
        state = solve_steady_state(params)
        assert state.delta1 == pytest.approx(params.omega_m, rel=1e-12)
        assert state.delta2 == pytest.approx(params.omega_m, rel=1e-12)

    def test_power_override_repins(self, default_cfg):
        p_hi = default_cfg.system_params(power_p=1500e-9)
        p_lo = default_cfg.system_params()
        assert p_hi.power_p == 1500e-9
        assert p_hi.delta_c != p_lo.delta_c

    def test_explicit_detunings_pass_through(self):
        cfg = parse_config(overrides=["delta_a=2pi*9MHz",
                                      "delta_c=2pi*11MHz"], env={})
        params = cfg.system_params()
        assert params.delta_a == pytest.approx(TAU * 9e6)
        assert params.delta_c == pytest.approx(TAU * 11e6)
