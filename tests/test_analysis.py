import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import omrouter.analysis as analysis_module
import omrouter.response as response_module
from omrouter.analysis import (CalibrationTargets, calibrate_couplings,
                               find_extrema, power_sweep, routing_report,
                               window_splitting)
from omrouter.errors import (AnalysisError, CalibrationError,
                             InvalidParameterError, RouterError,
                             SingularPointError)
from omrouter.analysis import Extremum, ExtremaList
from omrouter.response import ScanResult
from omrouter.steady import solve_steady_state

from test_model import make_params

TAU = 2.0 * math.pi


def t_points(x, y):
    zeros = np.zeros(len(x))
    return ScanResult(omega=x, r_refl=zeros, t_trans=y, s_thermal=zeros,
                      s_vacuum=zeros, errors=[])


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    """Vertex of the parabola through three (possibly nonuniform) samples.

    Returns None when the points are collinear or the vertex escapes the
    sample triple, in which case the discrete sample should be kept.
    """
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    if curv == 0.0 or not np.isfinite(curv):
        return None
    xv = 0.5 * (x0 + x1) - d1 / (2.0 * curv)
    if not (x0 <= xv <= x2):
        return None
    yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return float(xv), float(yv)


def reference_find_extrema(x, y):
    """Node-by-node loop that find_extrema must reproduce bit for bit."""
    minima, maxima = [], []
    for i in range(1, len(x) - 1):
        triple = y[i - 1:i + 2]
        if not np.all(np.isfinite(triple)):
            continue
        is_min = y[i] < y[i - 1] and y[i] < y[i + 1]
        is_max = y[i] > y[i - 1] and y[i] > y[i + 1]
        if not (is_min or is_max):
            continue
        vertex = _parabolic_vertex(x[i - 1], x[i], x[i + 1], *triple)
        if vertex is None:
            entry = Extremum(float(x[i]), float(y[i]), False)
        else:
            entry = Extremum(vertex[0], vertex[1], True)
        (minima if is_min else maxima).append(entry)
    return ExtremaList(tuple(minima), tuple(maxima))


# sample values that make plateaus, collinear triples, NaN nodes and
# overflowing vertices likely next to generic values
_SAMPLE = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.nan, math.inf]),
                    st.sampled_from([1e308, -1e308]),
                    st.floats(min_value=-1e3, max_value=1e3))


@st.composite
def extrema_columns(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    start = draw(st.floats(min_value=-1e3, max_value=1e3))
    if draw(st.booleans()):
        steps = [draw(st.sampled_from([1e-3, 0.5, 1.0, 1e3]))] * (n - 1)
    else:
        steps = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                              min_size=n - 1, max_size=n - 1))
    x = start + np.concatenate([[0.0], np.cumsum(steps)])
    y = np.array(draw(st.lists(_SAMPLE, min_size=n, max_size=n)))
    return x, y


class TestFindExtremaReference:
    @given(extrema_columns())
    def test_matches_reference_loop_bit_for_bit(self, column):
        x, y = column
        # the cumulative sum can round two nodes together
        assume(np.all(np.diff(x) > 0.0))
        with np.errstate(all="ignore"):
            expected = reference_find_extrema(x, y)
        # repr tells every distinct float apart, NaN and -0.0 included
        assert repr(find_extrema(t_points(x, y), "T")) == repr(expected)


class TestFindExtrema:
    def test_monotone_column_has_no_extrema(self):
        x = np.linspace(0.0, 1.0, 50)
        result = find_extrema(t_points(x, x**2 + 1.0), "T")
        assert result.minima == () and result.maxima == ()

    def test_requires_three_points(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            find_extrema(t_points(x, x), "T")

    def test_requires_increasing_omega(self):
        pts = t_points([0.0, 2.0, 1.0], [1.0, 0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            find_extrema(pts, "T")

    def test_unknown_column(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(InvalidParameterError):
            find_extrema(t_points(x, x), "Q")

    def test_plateau_is_not_strict(self):
        pts = t_points([0, 1, 2, 3], [1.0, 0.5, 0.5, 1.0])
        result = find_extrema(pts, "T")
        assert result.minima == ()

    def test_endpoint_minimum_not_reported(self):
        x = np.linspace(0.0, 1.0, 20)
        result = find_extrema(t_points(x, 1.0 + x), "T")
        assert result.minima == ()  # smallest sample sits at the endpoint

    def test_synthetic_double_dip(self):
        delta, width = 1.0, 0.03
        x = np.linspace(-2.0, 2.0, 4001)
        step = x[1] - x[0]
        y = (1.0
             - 1.0 / (1.0 + ((x - delta) / width) ** 2)
             - 1.0 / (1.0 + ((x + delta) / width) ** 2))
        result = find_extrema(t_points(x, y), "T")
        assert len(result.minima) == 2
        lo, hi = result.minima
        assert abs(lo.omega + delta) < step / 10.0
        assert abs(hi.omega - delta) < step / 10.0
        assert lo.refined and hi.refined

    def test_quadratic_vertex_recovered_exactly(self):
        # nonuniform grid; a parabola through three samples is exact
        x = np.array([0.0, 0.11, 0.35, 0.52, 1.0])
        y = (x - 0.3) ** 2 + 0.25
        result = find_extrema(t_points(x, y), "T")
        assert len(result.minima) == 1
        assert result.minima[0].omega == pytest.approx(0.3, abs=1e-12)
        assert result.minima[0].value == pytest.approx(0.25, abs=1e-12)
        assert result.minima[0].refined

    @given(center=st.floats(min_value=-0.8, max_value=0.8),
           curvature=st.floats(min_value=0.1, max_value=50.0),
           offset=st.floats(min_value=-5.0, max_value=5.0))
    def test_parabola_property(self, center, curvature, offset):
        x = np.linspace(-1.5, 1.5, 61)
        y = curvature * (x - center) ** 2 + offset
        result = find_extrema(t_points(x, y), "T")
        assert len(result.minima) == 1
        scale = max(1.0, abs(center))
        assert abs(result.minima[0].omega - center) <= 1e-9 * scale

    def test_maxima_reported(self):
        x = np.linspace(-1.0, 1.0, 201)
        y = 1.0 / (1.0 + (x / 0.2) ** 2)
        result = find_extrema(t_points(x, y), "T")
        assert len(result.maxima) == 1
        assert abs(result.maxima[0].omega) < 1e-3

    def test_nan_nodes_skipped(self):
        # failed scan nodes carry NaN columns; triples touching them are
        # ignored rather than poisoning the extrema list
        x = np.linspace(0.0, 1.0, 11)
        y = (x - 0.5) ** 2
        y[2] = math.nan
        result = find_extrema(t_points(x, y), "T")
        assert len(result.minima) == 1
        assert result.minima[0].omega == pytest.approx(0.5, abs=1e-12)


class TestWindowSplitting:
    def test_pump_off_is_zero(self, params_off, state_off):
        assert window_splitting(params_off, state=state_off) == 0.0

    def test_pump_on_is_positive(self, params_on, state_on):
        omega0 = window_splitting(params_on, state=state_on)
        assert omega0 > 5.0 * 2.0 * params_on.kappa1

    def test_grows_with_power(self, default_cfg, params_on, state_on):
        low = window_splitting(params_on, state=state_on)
        p_high = default_cfg.system_params(power_p=1500e-9)
        high = window_splitting(p_high)
        assert high > low

    def test_modes_agree(self, params_on, state_on):
        by_t = window_splitting(params_on, mode="t-minima", state=state_on)
        by_r = window_splitting(params_on, mode="r-maxima", state=state_on)
        assert by_r == pytest.approx(by_t, rel=0.02)

    def test_unknown_mode(self, params_on, state_on):
        with pytest.raises(InvalidParameterError):
            window_splitting(params_on, mode="midpoints", state=state_on)

    def test_no_structure_raises(self):
        params = make_params(g1=0.0)
        with pytest.raises(AnalysisError):
            window_splitting(params)

    def test_continuous_under_small_power_change(self, default_cfg,
                                                 params_on, state_on):
        base = window_splitting(params_on, state=state_on)
        nudged = window_splitting(default_cfg.system_params(
            power_p=params_on.power_p * 1.01))
        grid_step = 2 * 0.3 * params_on.omega_m / 4000
        assert abs(nudged - base) < 10 * grid_step


class TestRoutingReport:
    def test_pump_off_single_reflect_port(self, params_off, state_off):
        report = routing_report(params_off, state=state_off)
        assert not report.pump_on
        assert report.omega0 == 0.0
        assert not report.degenerate
        assert len(report.ports) == 1
        port = report.ports[0]
        assert port.label == "reflect"
        assert port.r_value > 0.99
        assert port.t_value < 0.01
        assert port.threshold_met
        assert abs(port.omega / params_off.omega_m - 1.0) < 0.01

    def test_pump_on_three_ports(self, params_on, state_on):
        report = routing_report(params_on, state=state_on)
        assert report.pump_on and not report.degenerate
        labels = [p.label for p in report.ports]
        assert labels == ["transmit", "reflect-lower", "reflect-upper"]
        transmit, lower, upper = report.ports
        assert transmit.t_value > 0.95 and transmit.threshold_met
        assert lower.r_value > 0.99 and lower.threshold_met
        assert upper.r_value > 0.99 and upper.threshold_met
        assert lower.omega < transmit.omega < upper.omega
        assert report.omega0 == pytest.approx(
            0.5 * (upper.omega - lower.omega), rel=1e-12)

    def test_reflect_ports_nearly_symmetric_about_transmit(self, params_on,
                                                           state_on):
        # position-type coupling pulls both reflect ports down by about
        # omega0^2/(2*omega_m); beyond that, the pattern is symmetric
        report = routing_report(params_on, state=state_on)
        transmit, lower, upper = report.ports
        midpoint = 0.5 * (lower.omega + upper.omega)
        pull = report.omega0**2 / (2.0 * params_on.omega_m)
        assert abs(transmit.omega - midpoint) < 2.0 * pull

    def test_decoupled_is_degenerate(self):
        params = make_params(g1=0.0)
        report = routing_report(params)
        assert report.degenerate
        assert [p.label for p in report.ports] == ["transmit"]
        assert report.ports[0].t_value > 0.95
        assert report.omega0 == 0.0

    def test_report_is_deterministic(self, params_on):
        first = routing_report(params_on)
        second = routing_report(params_on)
        assert first == second

    def test_one_kernel_call_per_port(self, params_on, state_on,
                                      monkeypatch):
        # one window scan, three local re-scans, one evaluation per port
        real_arrays = response_module._arrays
        calls = []

        def counting(*args):
            calls.append(args)
            return real_arrays(*args)

        monkeypatch.setattr(response_module, "_arrays", counting)
        report = routing_report(params_on, state=state_on)
        assert len(report.ports) == 3
        assert len(calls) == 7

    def test_singular_port_raises(self, params_on, state_on, monkeypatch):
        real_arrays = response_module._arrays

        def singular_nodes(params, state, omega, method):
            arrs, bad = real_arrays(params, state, omega, method)
            if np.size(omega) == 1:
                bad[:] = True
            return arrs, bad

        monkeypatch.setattr(response_module, "_arrays", singular_nodes)
        with pytest.raises(SingularPointError):
            routing_report(params_on, state=state_on)


class TestPowerSweep:
    def test_single_power_matches_report(self, default_cfg, params_on):
        result = power_sweep(params_on, [params_on.power_p],
                             pin_optical=True, pin_microwave=True)
        assert result.errors == []
        row = result.rows[0]
        report = routing_report(default_cfg.system_params())
        assert row.omega0 == report.omega0
        assert [p.omega for p in row.ports] == [p.omega for p in report.ports]

    def test_reference_power_ordering(self, params_on):
        result = power_sweep(params_on, [0.0, 300e-9, 1500e-9],
                             pin_optical=True, pin_microwave=True)
        assert result.errors == []
        omega0 = [row.omega0 for row in result.rows]
        assert omega0[0] == 0.0
        assert 0.0 < omega0[1] < omega0[2]

    def test_dense_sweep_monotone(self, params_on):
        powers = np.linspace(100e-9, 1500e-9, 50)
        result = power_sweep(params_on, powers,
                             pin_optical=True, pin_microwave=True)
        assert result.errors == []
        omega0 = np.array([row.omega0 for row in result.rows])
        assert np.all(np.diff(omega0) >= 0.0)

    def test_rejects_bad_power_lists(self, params_on):
        with pytest.raises(InvalidParameterError):
            power_sweep(params_on, [-1e-9])
        with pytest.raises(InvalidParameterError):
            power_sweep(params_on, [1e-9, 1e-9])

    def test_row_errors_recorded(self, params_on, monkeypatch):
        real_solve = analysis_module.solve_steady_state

        def failing(params, *args, **kwargs):
            if params.power_p == 600e-9:
                raise RouterError("forced failure")
            return real_solve(params, *args, **kwargs)

        monkeypatch.setattr(analysis_module, "solve_steady_state", failing)
        result = power_sweep(params_on, [300e-9, 600e-9, 900e-9],
                             pin_optical=True, pin_microwave=True)
        assert len(result.rows) == 3
        assert [e[0] for e in result.errors] == [1]
        assert math.isnan(result.rows[1].omega0)
        assert result.rows[2].omega0 > 0.0


class TestCalibration:
    def test_targets_already_met(self, params_on):
        g1, g2 = calibrate_couplings(params_on)
        assert (g1, g2) == (params_on.g1, params_on.g2)

    def test_unreachable_target(self, params_on):
        tiny = replace(params_on, g1=1e10)
        with pytest.raises(CalibrationError) as info:
            calibrate_couplings(tiny, g1_bracket=(1e10, 2e10))
        assert info.value.closest is not None
        assert info.value.closest["t_center_off"] > 0.5

    def test_closed_loop_from_weak_couplings(self, params_on):
        weak = replace(params_on, g1=params_on.g1 / 10.0,
                       g2=params_on.g2 / 10.0)
        g1, g2 = calibrate_couplings(
            weak,
            g1_bracket=(weak.g1, params_on.g1 * 10.0),
            g2_bracket=(weak.g2, params_on.g2 * 2.0))
        assert g1 > weak.g1 and g2 > weak.g2
        calibrated = replace(params_on, g1=g1, g2=g2)
        report = routing_report(
            analysis_module.pin_effective_detunings(calibrated))
        targets = CalibrationTargets()
        reflect = [p for p in report.ports if p.label.startswith("reflect")]
        assert report.omega0 > 5.0 * 2.0 * params_on.kappa1
        assert len(reflect) == 2
        assert all(p.r_value > targets.r_reflect_min for p in reflect)

    def test_depth_stage_raises_g1(self, params_on):
        # at 0.3*g1 the pump-off window is already blocked and the window
        # already split wide enough, but the reflect ports miss R > 0.99:
        # only the depth stage moves, bisecting g1 upward
        weak = replace(params_on, g1=0.3 * params_on.g1)
        g1, g2 = calibrate_couplings(
            weak, g1_bracket=(weak.g1, params_on.g1),
            g2_bracket=(weak.g2, 2.0 * weak.g2))
        assert g2 == weak.g2
        assert weak.g1 < g1 < params_on.g1

        def reflect_r(g):
            report = routing_report(analysis_module.pin_effective_detunings(
                replace(weak, g1=g)))
            return [p.r_value for p in report.ports
                    if p.label.startswith("reflect")]

        r_min = CalibrationTargets().r_reflect_min
        assert min(reflect_r(g1)) > r_min
        # bisection stops within 1e-3 (relative) of the threshold
        assert min(reflect_r(g1 * (1.0 - 1e-3))) <= r_min

    def test_checks_at_one_pair_share_a_window_scan(self, params_on,
                                                     monkeypatch):
        # the depth-stage calibration visits 13 distinct (g1, g2) pairs;
        # the splitting and depth checks at one pair scan its window once
        real_scan = analysis_module.scan_spectrum
        windows = []

        def counting(params, grid, *args, **kwargs):
            if len(grid) == analysis_module.DEFAULT_WINDOW_POINTS:
                windows.append((params.g1, params.g2))
            return real_scan(params, grid, *args, **kwargs)

        monkeypatch.setattr(analysis_module, "scan_spectrum", counting)
        weak = replace(params_on, g1=0.3 * params_on.g1)
        calibrate_couplings(weak, g1_bracket=(weak.g1, params_on.g1),
                            g2_bracket=(weak.g2, 2.0 * weak.g2))
        assert len(windows) == len(set(windows)) <= 13

    def test_depth_unreachable_inside_bracket(self, params_on):
        weak = replace(params_on, g1=0.3 * params_on.g1)
        top = 0.4 * params_on.g1
        with pytest.raises(CalibrationError,
                           match="reflect-port depth") as info:
            calibrate_couplings(weak, g1_bracket=(weak.g1, top))
        closest = info.value.closest
        assert closest["g1"] == top and closest["g2"] == weak.g2
        reflect = [p for p in closest["report"].ports
                   if p.label.startswith("reflect")]
        assert len(reflect) == 2
        assert not all(p.threshold_met for p in reflect)
