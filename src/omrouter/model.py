"""Physical parameters and elementary relations of the hybrid router model.

The system is a driven optical cavity and a driven microwave circuit that
share one nanomechanical resonator.  Everything downstream (steady state,
frequency response, routing analysis) is written in terms of the quantities
defined here.

Unit conventions
----------------
Strict SI with *angular* frequencies: every rate, frequency, and detuning is
in rad/s.  Literature values quoted as ``2pi x f`` are converted on ingestion
(see :mod:`omrouter.config`).  Couplings ``g1``/``g2`` are cavity frequency
pulls per unit displacement, rad/(s*m).  Pump amplitudes are photon-flux
normalised, so ``|a_s|**2`` counts intracavity photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "SystemParams",
    "pump_amplitude",
    "drive_amplitudes",
    "effective_detunings",
    "thermal_occupation",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants (2019 SI exact definitions), J*s and J/K."""

    hbar: float = 6.62607015e-34 / (2.0 * math.pi)
    k_B: float = 1.380649e-23


CONSTANTS = PhysicalConstants()


def _require_finite(**values) -> None:
    """Raise ``<name> must be finite`` at the first NaN or infinite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class SystemParams:
    """All knobs of the hybrid opto-electromechanical router.

    Attributes
    ----------
    omega_m : float
        Mechanical angular frequency (rad/s).
    mass : float
        Effective mass of the mechanical mode (kg).
    gamma_m : float
        Mechanical energy damping rate (rad/s).
    kappa1, kappa2 : float
        Optical / microwave amplitude decay parameters (rad/s).  The total
        photon leak rate of the optical cavity is ``2 * kappa1``.
    g1, g2 : float
        Optomechanical / electromechanical frequency pull per displacement
        (rad/(s*m)).
    delta_a, delta_c : float
        Bare cavity-pump detunings (rad/s).
    omega_l, omega_p : float
        Optical / microwave pump carrier frequencies (rad/s).
    power_l, power_p : float
        Optical / microwave pump powers (W).
    temperature : float
        Mechanical bath temperature (K).
    """

    omega_m: float
    mass: float
    gamma_m: float
    kappa1: float
    kappa2: float
    g1: float
    g2: float
    delta_a: float
    delta_c: float
    omega_l: float
    omega_p: float
    power_l: float
    power_p: float
    temperature: float

    def __post_init__(self):
        _require_finite(**vars(self))
        for name in ("omega_m", "mass", "gamma_m", "kappa1", "kappa2",
                     "omega_l", "omega_p"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be > 0")
        for name in ("g1", "g2", "power_l", "power_p", "temperature"):
            if not getattr(self, name) >= 0.0:
                raise InvalidParameterError(f"{name} must be >= 0")


def pump_amplitude(power, omega_carrier, kappa):
    """Drive amplitude (s^-1) delivered by a pump of the given power.

    The photon-flux normalization ``sqrt(2*kappa*P/(hbar*omega))``, so
    that squared intracavity amplitudes count photons.  Every argument
    must be finite.
    """
    if not omega_carrier > 0.0:
        raise InvalidParameterError("omega_carrier must be > 0")
    if not kappa > 0.0:
        raise InvalidParameterError("kappa must be > 0")
    if not power >= 0.0:
        raise InvalidParameterError("power must be >= 0")
    if math.inf in (power, omega_carrier, kappa):  # NaN failed a sign check
        _require_finite(power=power, omega_carrier=omega_carrier, kappa=kappa)
    return math.sqrt(2.0 * kappa * power / (omega_carrier * CONSTANTS.hbar))


def drive_amplitudes(params: SystemParams) -> tuple[float, float]:
    """(optical, microwave) pump amplitudes for the given parameter set."""
    return (pump_amplitude(params.power_l, params.omega_l, params.kappa1),
            pump_amplitude(params.power_p, params.omega_p, params.kappa2))


def effective_detunings(params: SystemParams, q_s: float) -> tuple[float, float]:
    """Detunings seen by the two cavities once the resonator sits at ``q_s``.

    The static displacement pulls the optical resonance by ``+g1*q_s`` and
    the microwave resonance by ``-g2*q_s``.
    """
    delta1 = params.delta_a + params.g1 * q_s
    delta2 = params.delta_c - params.g2 * q_s
    return delta1, delta2


def thermal_occupation(omega, temperature):
    """Bose occupation ``1/(exp(hbar*omega/(k_B*T)) - 1)``.

    Accepts scalars or arrays for ``omega`` (rad/s, must be > 0); the
    temperature must be finite.  Returns 0 at ``temperature = 0``.  For
    x = hbar*omega/(k_B*T) this equals ``(coth(x/2) - 1)/2``, the form in
    which it enters the thermal force correlator, but evaluated through
    ``expm1`` so it stays accurate for x anywhere in [1e-6, 700] and
    cleanly underflows to 0 beyond.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise InvalidParameterError("omega must be > 0")
    if not temperature >= 0.0:
        raise InvalidParameterError("temperature must be >= 0")
    _require_finite(temperature=temperature)
    x = (CONSTANTS.hbar * omega / (CONSTANTS.k_B * temperature)
         if temperature > 0.0 else np.full_like(omega, np.inf))
    result = np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
    return float(result) if result.ndim == 0 else result
