"""Configuration ingestion: flat ``key = value`` files with unit suffixes.

Values may carry a ``2pi*`` prefix and an SI unit suffix, so figure-caption
style entries like ``omega_m = 2pi*10.56MHz`` or ``mass = 48ng`` are accepted
literally.  Precedence, lowest to highest: built-in defaults, ``OMROUTER_*``
environment variables, the config file, inline overrides.  Unknown keys are
rejected with the offending line.

The bundled defaults describe the calibrated reference device; ``g1``/``g2``
are calibration choices produced by :func:`omrouter.analysis.calibrate_couplings`
(the experimental record this parameter set is modelled on does not fix
them), and ``delta_a = auto`` pins the effective detunings to the mechanical
frequency at the solved operating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, InvalidParameterError
from .model import SystemParams
from .steady import pin_effective_detunings

__all__ = ["RunConfig", "parse_config", "DEFAULTS", "ENV_PREFIX"]

ENV_PREFIX = "OMROUTER_"

_TAU = 2.0 * math.pi

# unit suffix -> (dimension, multiplier to SI)
_UNITS = {
    "Hz": ("frequency", 1.0), "kHz": ("frequency", 1e3),
    "MHz": ("frequency", 1e6), "GHz": ("frequency", 1e9),
    "THz": ("frequency", 1e12),
    "W": ("power", 1.0), "mW": ("power", 1e-3), "uW": ("power", 1e-6),
    "µW": ("power", 1e-6), "nW": ("power", 1e-9), "pW": ("power", 1e-12),
    "kg": ("mass", 1.0), "g": ("mass", 1e-3), "mg": ("mass", 1e-6),
    "ug": ("mass", 1e-9), "µg": ("mass", 1e-9), "ng": ("mass", 1e-12),
    "pg": ("mass", 1e-15),
    "K": ("temperature", 1.0), "mK": ("temperature", 1e-3),
    "uK": ("temperature", 1e-6), "µK": ("temperature", 1e-6),
    "nK": ("temperature", 1e-9),
}

_VALUE_RE = re.compile(
    r"^(?P<tau>2pi\*)?(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*(?P<unit>[A-Za-zµ]*)$")


def _parse_quantity(text: str, kind: str, key: str, where: str) -> float:
    """Parse one numeric value of the given dimension kind.

    ``kind``: "angular" (rad/s; accepts ``2pi*<f><Hz-unit>``), "coupling"
    (rad/(s*m); accepts a ``2pi*`` multiplier), or "power"/"mass"/
    "temperature"/"plain" (SI number, matching unit suffix allowed).
    """
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{where}: cannot parse value {text!r} for {key}")
    num = float(m.group("num"))
    tau = m.group("tau") is not None
    unit = m.group("unit")

    if unit:
        if unit not in _UNITS:
            raise ConfigError(f"{where}: unknown unit {unit!r} for {key}")
        dim, mult = _UNITS[unit]
        if kind == "angular":
            if dim != "frequency":
                raise ConfigError(
                    f"{where}: {key} expects a frequency, got {unit!r}")
            if not tau:
                raise ConfigError(
                    f"{where}: {key} is angular; write 2pi*{text.strip()} "
                    f"or give the rad/s number directly")
            return _TAU * num * mult
        if dim != kind:
            raise ConfigError(
                f"{where}: {key} expects {kind}, got {unit!r} ({dim})")
        if tau:
            raise ConfigError(f"{where}: 2pi* is only valid with "
                              f"frequency-like keys, not {key}")
        return num * mult

    if tau:
        if kind not in ("angular", "coupling"):
            raise ConfigError(f"{where}: 2pi* is only valid with "
                              f"frequency-like keys, not {key}")
        return _TAU * num
    return num


def _parse_bool(text, key, where):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{where}: {key} expects true/false, got {text!r}")


def _parse_int(text, key, where):
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: {key} expects an integer, "
                          f"got {text!r}") from None


def _parse_choice(options):
    def parse(text, key, where):
        t = text.strip()
        if t not in options:
            raise ConfigError(f"{where}: {key} must be one of "
                              f"{sorted(options)}, got {t!r}")
        return t
    return parse


def _parse_power_list(text, key, where):
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise ConfigError(f"{where}: {key} needs at least one power")
    return tuple(_parse_quantity(s, "power", key, where) for s in items)


def _quantity_parser(kind):
    def parse(text, key, where):
        return _parse_quantity(text, kind, key, where)
    return parse


def _detuning_parser(text, key, where):
    if text.strip().lower() == "auto":
        return "auto"
    return _parse_quantity(text, "angular", key, where)


# key -> parser; insertion order is the canonical echo order
_SCHEMA = {
    "omega_m": _quantity_parser("angular"),
    "mass": _quantity_parser("mass"),
    "gamma_m": _quantity_parser("angular"),
    "kappa1": _quantity_parser("angular"),
    "kappa2": _quantity_parser("angular"),
    "g1": _quantity_parser("coupling"),
    "g2": _quantity_parser("coupling"),
    "delta_a": _detuning_parser,
    "delta_c": _detuning_parser,
    "omega_l": _quantity_parser("angular"),
    "omega_p": _quantity_parser("angular"),
    "power_l": _quantity_parser("power"),
    "power_p": _quantity_parser("power"),
    "temperature": _quantity_parser("temperature"),
    "pump_hbar": _parse_bool,
    "ramp_steps": _parse_int,
    "residual_tol": _quantity_parser("plain"),
    "branch_policy": _parse_choice({"ramp", "direct"}),
    "oracle": _parse_bool,
    "spectrum_min": _quantity_parser("plain"),
    "spectrum_max": _quantity_parser("plain"),
    "spectrum_points": _parse_int,
    "splitting_window": _quantity_parser("plain"),
    "splitting_points": _parse_int,
    "splitting_mode": _parse_choice({"t-minima", "r-maxima"}),
    "r_reflect_min": _quantity_parser("plain"),
    "t_transmit_min": _quantity_parser("plain"),
    "t_blocked_max": _quantity_parser("plain"),
    "sweep_powers": _parse_power_list,
    "fig3_powers": _parse_power_list,
    "output_dir": lambda text, key, where: text.strip(),
}

# Canonical default strings, run through the same parsers as config files so
# that the bundled reference file and the built-in defaults can never drift
# apart by a rounding step.
_DEFAULT_TEXT = {
    # reference device (toroid + microwave LC sharing one membrane-scale NR)
    "omega_m": "2pi*10.56MHz",
    "mass": "48ng",
    "gamma_m": "2pi*32Hz",
    "kappa1": "2pi*100kHz",
    "kappa2": "2pi*1kHz",
    "g1": "5.0e19",          # calibrated, see module docstring
    "g2": "1.2e20",          # calibrated
    "delta_a": "auto",
    "delta_c": "auto",
    "omega_l": "2pi*195THz",
    "omega_p": "2pi*7.1GHz",
    "power_l": "130uW",
    "power_p": "300nW",
    "temperature": "20mK",
    "pump_hbar": "true",
    "ramp_steps": "11",
    "residual_tol": "1e-10",
    "branch_policy": "ramp",
    "oracle": "false",
    "spectrum_min": "0.7",
    "spectrum_max": "1.3",
    "spectrum_points": "4001",
    "splitting_window": "0.30",
    "splitting_points": "4001",
    "splitting_mode": "t-minima",
    "r_reflect_min": "0.99",
    "t_transmit_min": "0.95",
    "t_blocked_max": "0.01",
    "sweep_powers": "0, 300nW, 1.5uW",
    "fig3_powers": "300nW, 1.5uW",
    "output_dir": "out",
}

DEFAULTS: dict = {key: _SCHEMA[key](text, key, "builtin default")
                  for key, text in _DEFAULT_TEXT.items()}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (physics plus solver knobs)."""

    omega_m: float
    mass: float
    gamma_m: float
    kappa1: float
    kappa2: float
    g1: float
    g2: float
    delta_a: float | str
    delta_c: float | str
    omega_l: float
    omega_p: float
    power_l: float
    power_p: float
    temperature: float
    pump_hbar: bool
    ramp_steps: int
    residual_tol: float
    branch_policy: str
    oracle: bool
    spectrum_min: float
    spectrum_max: float
    spectrum_points: int
    splitting_window: float
    splitting_points: int
    splitting_mode: str
    r_reflect_min: float
    t_transmit_min: float
    t_blocked_max: float
    sweep_powers: tuple[float, ...]
    fig3_powers: tuple[float, ...]
    output_dir: str

    @property
    def method(self) -> str:
        return "oracle" if self.oracle else "closed"

    @property
    def pin_optical(self) -> bool:
        return self.delta_a == "auto"

    @property
    def pin_microwave(self) -> bool:
        return self.delta_c == "auto"

    def base_params(self) -> SystemParams:
        """System parameters with ``auto`` detunings left at omega_m."""
        da = self.omega_m if self.pin_optical else float(self.delta_a)
        dc = self.omega_m if self.pin_microwave else float(self.delta_c)
        try:
            return SystemParams(
                omega_m=self.omega_m, mass=self.mass, gamma_m=self.gamma_m,
                kappa1=self.kappa1, kappa2=self.kappa2, g1=self.g1,
                g2=self.g2, delta_a=da, delta_c=dc, omega_l=self.omega_l,
                omega_p=self.omega_p, power_l=self.power_l,
                power_p=self.power_p, temperature=self.temperature,
                pump_hbar=self.pump_hbar)
        except InvalidParameterError as exc:
            raise ConfigError(f"invalid physics configuration: {exc}") from exc

    def system_params(self, power_p: float | None = None) -> SystemParams:
        """System parameters with ``auto`` detunings resolved by pinning."""
        params = self.base_params()
        if power_p is not None:
            params = replace(params, power_p=power_p)
        if self.pin_optical or self.pin_microwave:
            params = pin_effective_detunings(
                params, self.pin_optical, self.pin_microwave)
        return params

    def validate(self) -> None:
        if self.ramp_steps < 2:
            raise ConfigError("ramp_steps must be >= 2")
        if not self.residual_tol > 0.0:
            raise ConfigError("residual_tol must be > 0")
        if self.spectrum_points < 1:
            raise ConfigError("spectrum grid is empty "
                              "(spectrum_points must be >= 1)")
        if not self.spectrum_min < self.spectrum_max:
            raise ConfigError("spectrum_min must be < spectrum_max")
        if not 0.0 < self.spectrum_min:
            raise ConfigError("spectrum_min must be > 0")
        if not 0.0 < self.splitting_window < 1.0:
            raise ConfigError("splitting_window must be in (0, 1)")
        if self.splitting_points < 3:
            raise ConfigError("splitting_points must be >= 3")
        for name in ("r_reflect_min", "t_transmit_min", "t_blocked_max"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1)")
        if any(p < 0.0 for p in self.sweep_powers + self.fig3_powers):
            raise ConfigError("powers must be nonnegative")
        if any(b <= a for a, b in zip(self.sweep_powers,
                                      self.sweep_powers[1:])):
            raise ConfigError("sweep_powers must be strictly increasing")

    def echo_lines(self) -> list[str]:
        """Canonical serialization; parsing it back reproduces this config."""
        lines = ["# omrouter resolved configuration",
                 "# values in SI (rad/s, kg, W, K); couplings in rad/(s*m)"]
        for key in _SCHEMA:
            value = getattr(self, key)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ", ".join(repr(float(p)) for p in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return lines


def _read_file_entries(path) -> list[tuple[str, str, str]]:
    entries = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries.append((key.strip(), value.strip(),
                            f"{path}:{lineno}"))
    return entries


def parse_config(path=None, overrides=(), env=None) -> RunConfig:
    """Build a :class:`RunConfig` from defaults, environment, file, overrides.

    ``overrides`` are ``"key=value"`` strings (highest precedence).  ``env``
    defaults to ``os.environ``; only ``OMROUTER_``-prefixed entries are
    consulted and unknown ones are rejected.
    """
    if env is None:
        import os
        env = os.environ

    merged = dict(DEFAULTS)

    def apply(key, text, where):
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        merged[key] = _SCHEMA[key](text, key, where)

    for name in sorted(k for k in env if k.startswith(ENV_PREFIX)):
        apply(name[len(ENV_PREFIX):].lower(), env[name], f"environment {name}")

    if path is not None:
        for key, value, where in _read_file_entries(path):
            apply(key, value, where)

    for i, item in enumerate(overrides):
        if "=" not in item:
            raise ConfigError(f"override #{i + 1}: expected key=value, "
                              f"got {item!r}")
        key, _, value = item.partition("=")
        apply(key.strip(), value.strip(), f"override {key.strip()!r}")

    known = {f.name for f in fields(RunConfig)}
    config = RunConfig(**{k: v for k, v in merged.items() if k in known})
    config.validate()
    return config
