"""Simulator for a tunable single-photon router built from an optical cavity
and a microwave circuit sharing one nanomechanical resonator.

The library solves the driven system's self-consistent steady state,
evaluates the optical port's reflection/transmission and output noise
spectra through two independent numerical paths, and analyzes the routing
behaviour (transparency-window splitting, port assignment) as a function of
the microwave pump power.
"""

from .analysis import (CalibrationTargets, ExtremaList, Extremum, Port,
                       RoutingReport, SweepResult, SweepRow,
                       calibrate_couplings, find_extrema, power_sweep,
                       routing_report, window_splitting)
from .config import DEFAULTS, RunConfig, parse_config
from .errors import (AnalysisError, BracketingError, CalibrationError,
                     ConfigError, ConvergenceError, InvalidParameterError,
                     RouterError, SingularPointError)
from .model import (CONSTANTS, PhysicalConstants, SystemParams,
                    drive_amplitudes, effective_detunings, pump_amplitude,
                    thermal_occupation)
from .response import (ResponseCoefficients, ScanResult,
                       closed_form_coefficients, closed_vs_oracle_deviation,
                       coefficients, linear_solve_coefficients, reflection,
                       scan_spectrum, thermal_noise_spectrum, transmission,
                       vacuum_noise_spectrum)
from .steady import (SteadyState, enumerate_branches, force_balance,
                     operating_point, pin_effective_detunings,
                     solve_steady_state, steady_residual)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "BracketingError", "CONSTANTS", "CalibrationError",
    "CalibrationTargets", "ConfigError", "ConvergenceError", "DEFAULTS",
    "Extremum", "ExtremaList", "InvalidParameterError", "PhysicalConstants",
    "Port", "ResponseCoefficients", "RouterError", "RoutingReport",
    "RunConfig", "ScanResult", "SingularPointError", "SteadyState",
    "SweepResult", "SweepRow", "SystemParams",
    "calibrate_couplings", "closed_form_coefficients",
    "closed_vs_oracle_deviation", "coefficients", "drive_amplitudes",
    "effective_detunings", "enumerate_branches", "find_extrema",
    "force_balance", "linear_solve_coefficients", "operating_point",
    "parse_config", "pin_effective_detunings", "power_sweep",
    "pump_amplitude", "reflection", "routing_report", "scan_spectrum",
    "solve_steady_state", "steady_residual", "thermal_noise_spectrum",
    "thermal_occupation", "transmission", "vacuum_noise_spectrum",
    "window_splitting", "__version__",
]
