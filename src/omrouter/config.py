"""Configuration ingestion: flat ``key = value`` files with unit suffixes.

Values may carry a ``2pi*`` prefix and an SI unit suffix, so figure-caption
style entries like ``omega_m = 2pi*10.56MHz`` or ``mass = 48ng`` are accepted
literally.  Precedence, lowest to highest: built-in defaults, ``OMROUTER_*``
environment variables, the config file, inline overrides.  Unknown keys are
rejected with the offending line.

Each key is declared once, as a :class:`RunConfig` field whose metadata
holds its parser and its canonical default string; the key lookup, the
built-in :data:`DEFAULTS` and the ``resolved.cfg`` echo order all derive
from that field list.

The built-in defaults describe the calibrated reference device; ``g1``/``g2``
are calibration choices produced by :func:`omrouter.analysis.calibrate_couplings`
(the experimental record this parameter set is modelled on does not fix
them), and ``delta_a = auto`` pins the effective detunings to the mechanical
frequency at the solved operating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, InvalidParameterError
from .model import SystemParams
from .steady import pin_effective_detunings

__all__ = ["RunConfig", "parse_config", "DEFAULTS", "ENV_PREFIX"]

ENV_PREFIX = "OMROUTER_"

_TAU = 2.0 * math.pi

# unit suffix -> (dimension, power of ten to SI)
_UNITS = {
    "Hz": ("frequency", 0), "kHz": ("frequency", 3),
    "MHz": ("frequency", 6), "GHz": ("frequency", 9),
    "THz": ("frequency", 12),
    "W": ("power", 0), "mW": ("power", -3), "uW": ("power", -6),
    "µW": ("power", -6), "nW": ("power", -9), "pW": ("power", -12),
    "kg": ("mass", 0), "g": ("mass", -3), "mg": ("mass", -6),
    "ug": ("mass", -9), "µg": ("mass", -9), "ng": ("mass", -12),
    "pg": ("mass", -15),
    "K": ("temperature", 0), "mK": ("temperature", -3),
    "uK": ("temperature", -6), "µK": ("temperature", -6),
    "nK": ("temperature", -9),
}

_VALUE_RE = re.compile(
    r"^(?P<tau>2pi\*)?(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*(?P<unit>[A-Za-zµ]*)$")


def _parse_quantity(text: str, kind: str, key: str, where: str) -> float:
    """Parse one numeric value of the given dimension kind.

    ``kind``: "angular" (rad/s; accepts ``2pi*<f><Hz-unit>``), "coupling"
    (rad/(s*m); accepts a ``2pi*`` multiplier), or "power"/"mass"/
    "temperature"/"plain" (SI number, matching unit suffix allowed).

    A unit suffix shifts the decimal exponent, so ``300nW`` is the double
    nearest 3e-7, as ``float("300e-9")`` gives.  A ``2pi*`` frequency is
    ``2*pi * num * 10**exponent`` in floating point.  A value that
    overflows a double, or a nonzero literal that underflows to 0, raises
    :class:`ConfigError`.
    """
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{where}: cannot parse value {text!r} for {key}")
    num = float(m.group("num"))
    mantissa, _, shift = m.group("num").lower().partition("e")
    tau = m.group("tau") is not None
    unit = m.group("unit")

    exponent = 0
    if unit:
        if unit not in _UNITS:
            raise ConfigError(f"{where}: unknown unit {unit!r} for {key}")
        dim, exponent = _UNITS[unit]
        if kind == "angular" and dim != "frequency":
            raise ConfigError(
                f"{where}: {key} expects a frequency, got {unit!r}")
        if kind != "angular" and dim != kind:
            raise ConfigError(
                f"{where}: {key} expects {kind}, got {unit!r} ({dim})")
        if kind == "angular" and not tau:
            raise ConfigError(
                f"{where}: {key} is angular; write 2pi*{text.strip()} "
                f"or give the rad/s number directly")
    if tau and kind not in ("angular", "coupling"):
        raise ConfigError(f"{where}: 2pi* is only valid with "
                          f"frequency-like keys, not {key}")
    if tau:  # exponent is 0 unless an angular key has a unit
        value = _TAU * num * 10**exponent
    elif not unit:
        value = num
    else:
        try:
            value = float(f"{mantissa}e{int(shift or 0) + exponent}")
        except ValueError:  # int() refuses exponents of over 4300 digits
            raise ConfigError(f"{where}: exponent of {key} is too "
                              "long") from None
    # an overflow, or a literal with a nonzero mantissa that rounds to 0
    if not math.isfinite(value) or value == 0.0 != float(mantissa):
        raise ConfigError(f"{where}: value {text!r} for {key} " + (
            "underflows to 0" if value == 0.0 else "overflows a double"))
    return value


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


_ANGULAR = _quantity_parser("angular")
_COUPLING = _quantity_parser("coupling")
_POWER = _quantity_parser("power")
_MASS = _quantity_parser("mass")
_TEMPERATURE = _quantity_parser("temperature")
_PLAIN = _quantity_parser("plain")


def _parse_text(text, key, where):
    return text.strip()


def _key(parse, default: str):
    """Declare one configuration key: its parser and canonical default.

    The default is a config-file string run through the same parser as a
    config file, so a file that spells a default the same way parses to
    the built-in value exactly.
    """
    return field(metadata={"parse": parse, "default": default})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (physics plus solver knobs).

    The field list is the configuration schema: field order is the echo
    order, and each field carries its parser and its default string.
    """

    # reference device (toroid + microwave LC sharing one membrane-scale NR)
    omega_m: float = _key(_ANGULAR, "2pi*10.56MHz")
    mass: float = _key(_MASS, "48ng")
    gamma_m: float = _key(_ANGULAR, "2pi*32Hz")
    kappa1: float = _key(_ANGULAR, "2pi*100kHz")
    kappa2: float = _key(_ANGULAR, "2pi*1kHz")
    g1: float = _key(_COUPLING, "5.0e19")   # calibrated, see module docstring
    g2: float = _key(_COUPLING, "1.2e20")   # calibrated
    delta_a: float | str = _key(_detuning_parser, "auto")
    delta_c: float | str = _key(_detuning_parser, "auto")
    omega_l: float = _key(_ANGULAR, "2pi*195THz")
    omega_p: float = _key(_ANGULAR, "2pi*7.1GHz")
    power_l: float = _key(_POWER, "130uW")
    power_p: float = _key(_POWER, "300nW")
    temperature: float = _key(_TEMPERATURE, "20mK")
    residual_tol: float = _key(_PLAIN, "1e-10")
    branch_policy: str = _key(_parse_choice({"ramp", "direct"}), "ramp")
    oracle: bool = _key(_parse_bool, "false")
    spectrum_min: float = _key(_PLAIN, "0.7")
    spectrum_max: float = _key(_PLAIN, "1.3")
    spectrum_points: int = _key(_parse_int, "4001")
    r_reflect_min: float = _key(_PLAIN, "0.99")
    t_transmit_min: float = _key(_PLAIN, "0.95")
    sweep_powers: tuple[float, ...] = _key(_parse_power_list,
                                           "0, 300nW, 1.5uW")
    fig3_powers: tuple[float, ...] = _key(_parse_power_list, "300nW, 1.5uW")
    output_dir: str = _key(_parse_text, "out")

    @property
    def method(self) -> str:
        return "oracle" if self.oracle else "closed"

    @property
    def pin_optical(self) -> bool:
        return self.delta_a == "auto"

    @property
    def pin_microwave(self) -> bool:
        return self.delta_c == "auto"

    def base_params(self, power_p: float | None = None) -> SystemParams:
        """System parameters with ``auto`` detunings left at omega_m, at
        microwave power ``power_p`` if given."""
        values = {f.name: getattr(self, f.name) for f in fields(SystemParams)}
        if self.pin_optical:
            values["delta_a"] = self.omega_m
        if self.pin_microwave:
            values["delta_c"] = self.omega_m
        try:
            params = SystemParams(**values)
        except InvalidParameterError as exc:
            raise ConfigError(f"invalid physics configuration: {exc}") from exc
        return params if power_p is None else replace(params, power_p=power_p)

    def system_params(self, power_p: float | None = None) -> SystemParams:
        """:meth:`base_params` with ``auto`` detunings resolved by pinning."""
        return pin_effective_detunings(self.base_params(power_p),
                                       self.pin_optical, self.pin_microwave)

    def validate(self) -> None:
        if not self.residual_tol > 0.0:
            raise ConfigError("residual_tol must be > 0")
        if self.spectrum_points < 1:
            raise ConfigError("spectrum grid is empty "
                              "(spectrum_points must be >= 1)")
        if not self.spectrum_min < self.spectrum_max:
            raise ConfigError("spectrum_min must be < spectrum_max")
        if not 0.0 < self.spectrum_min:
            raise ConfigError("spectrum_min must be > 0")
        for name in ("r_reflect_min", "t_transmit_min"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1)")
        if any(p < 0.0 for p in self.sweep_powers + self.fig3_powers):
            raise ConfigError("powers must be nonnegative")
        if any(b <= a for a, b in zip(self.sweep_powers,
                                      self.sweep_powers[1:])):
            raise ConfigError("sweep_powers must be strictly increasing")
        if any(c in self.output_dir for c in "#\n\r"):
            raise ConfigError("output_dir must not contain '#' or a line "
                              "break, which would cut its resolved.cfg line")

    def echo_lines(self) -> list[str]:
        """Canonical serialization; parsing it back reproduces this config."""
        lines = ["# omrouter resolved configuration",
                 "# values in SI (rad/s, kg, W, K); couplings in rad/(s*m)"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ", ".join(repr(float(p)) for p in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{f.name} = {text}")
        return lines


# key -> parser, in echo order
_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}

DEFAULTS: dict = {f.name: f.metadata["parse"](f.metadata["default"], f.name,
                                              "builtin default")
                  for f in fields(RunConfig)}


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
        if key not in _PARSERS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        merged[key] = _PARSERS[key](text, key, where)

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

    config = RunConfig(**merged)
    config.validate()
    return config
