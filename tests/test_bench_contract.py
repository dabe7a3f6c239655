"""The names that bench/tracing.py binds in omrouter still exist.

The benchmark's span wrapper looks up each public function it traces by
name, reads ``find_extrema``'s first argument and ``scan_spectrum``'s
arguments by parameter name, and takes ``len()`` of the scan passed to
``find_extrema`` as its node count.  These tests read the tracing module
without changing it and fail when an API change would break those lookups.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from omrouter.analysis import find_extrema
from omrouter.response import scan_spectrum

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"omrouter.{layer}")
        for name in names:
            target = home
            for part in name.split("."):
                target = getattr(target, part)
            assert callable(target), f"omrouter.{layer}.{name}"


def test_find_extrema_first_parameter_is_points():
    first = next(iter(inspect.signature(find_extrema).parameters))
    assert first == "points"


def test_scan_length_is_node_count(params_on, state_on):
    grid = params_on.omega_m * np.linspace(0.9, 1.1, 7)
    assert len(scan_spectrum(params_on, grid, state=state_on)) == grid.size


def test_scan_spectrum_parameters():
    parameters = inspect.signature(scan_spectrum).parameters
    assert {"params", "omega_grid", "method", "state"} <= set(parameters)
