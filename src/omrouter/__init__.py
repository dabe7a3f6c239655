"""Simulator for a tunable single-photon router built from an optical cavity
and a microwave circuit sharing one nanomechanical resonator.

The library solves the driven system's self-consistent steady state,
evaluates the optical port's reflection/transmission and output noise
spectra through two independent numerical paths, and analyzes the routing
behaviour (transparency-window splitting, port assignment) as a function of
the microwave pump power.
"""

# each module's __all__ is its public list; the package re-exports them all
from . import analysis, config, errors, model, response, steady
from .analysis import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .response import *  # noqa: F401,F403
from .steady import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (analysis, config, errors, model, response,
                               steady) for name in module.__all__]
__all__.append("__version__")
