"""Exception hierarchy shared by all omrouter modules."""

__all__ = ["RouterError", "InvalidParameterError", "BracketingError",
           "ConvergenceError", "SingularPointError", "AnalysisError",
           "CalibrationError", "ConfigError"]


class RouterError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(RouterError, ValueError):
    """A physical parameter or function argument violates its domain."""


class BracketingError(RouterError, RuntimeError):
    """Root bracketing failed; indicates a bug, not bad user input."""


class ConvergenceError(RouterError):
    """A solver finished without meeting its residual tolerance."""


class SingularPointError(RouterError):
    """Frequency response is singular at the requested evaluation point."""


class AnalysisError(RouterError):
    """Spectrum analysis could not extract the requested feature."""


class CalibrationError(RouterError):
    """Coupling calibration could not reach its target inside the bracket."""

    def __init__(self, message, closest=None):
        super().__init__(message)
        self.closest = closest


class ConfigError(RouterError, ValueError):
    """Configuration file, override, or environment entry is invalid."""
