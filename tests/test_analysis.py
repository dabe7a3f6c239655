import math
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import omrouter.analysis as analysis_module
import omrouter.response as response_module
import omrouter.steady as steady_module
from omrouter.analysis import (CalibrationTargets, calibrate_couplings,
                               find_extrema, power_sweep, routing_report,
                               window_splitting)
from omrouter.model import CONSTANTS
from omrouter.errors import (AnalysisError, CalibrationError,
                             InvalidParameterError, RouterError,
                             SingularPointError)
from omrouter.analysis import Extremum, ExtremaList
from omrouter.response import ScanResult, scan_spectrum
from omrouter.config import parse_config
from omrouter.steady import (operating_point, pin_effective_detunings,
                             solve_steady_state)

from test_model import make_params
from test_steady import criterion3_params

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


class TestWindowScan:
    """The routing ports against a full scan of a window around them, and
    against the ports that the former window search reported."""

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("power_p", [0.0, 300e-9, 2.5e-6])
    def test_extrema_equal_full_scan(self, default_cfg, method, power_p):
        # each port lies within one grid step of the maximum that
        # find_extrema finds nearest it in a full scan (R for a reflect
        # port, T for the transmit port), and so do the deepest T dips
        # behind omega0_window
        params = default_cfg.system_params(power_p=power_p)
        state = solve_steady_state(params)
        report = routing_report(params, state=state, method=method)
        wm = params.omega_m
        full = scan_spectrum(params, wm * np.linspace(0.5, 1.5, 4001),
                             method=method, state=state)
        step = 2.5e-4 * wm
        for port in report.ports:
            column = "R" if port.label.startswith("reflect") else "T"
            nearest = min(abs(e.omega - port.omega)
                          for e in find_extrema(full, column).maxima)
            assert nearest < step
        dips = find_extrema(full, "T").minima
        lo, hi = (min(side, key=lambda e: e.value).omega if side else None
                  for side in ([e for e in dips if e.omega < wm],
                               [e for e in dips if e.omega >= wm]))
        expected = 0.0 if lo is None or hi is None else 0.5 * (hi - lo)
        assert abs(report.omega0_window - expected) < step

    # the ports that the +-0.30 omega_m window and its 401-node re-scans
    # reported, in omega_m, in report order
    WINDOW_PORTS = {0.0: [0.9986450318210385],
                    30e-9: [0.9999973573437149, 0.9672515941142846,
                            1.0304150304301685],
                    1.5e-6: [0.9999998146429141, 0.7467588126090061,
                             1.199308686723596],
                    1.6e-6: [0.9999998256646463, 0.7369894053165358,
                             1.205296699646286]}

    @pytest.mark.parametrize("power_p", [0.0, 30e-9, 1.5e-6, 1.6e-6])
    def test_default_window_kept(self, default_cfg, power_p):
        # where every port fit in the former +-0.30 omega_m window, the
        # stationary points keep those ports to within 1.5e-9 omega_m
        params = default_cfg.system_params(power_p=power_p)
        report = routing_report(params, solve_steady_state(params))
        ports = [p.omega / params.omega_m for p in report.ports]
        assert ports == pytest.approx(self.WINDOW_PORTS[power_p], abs=1.5e-9)


class TestStationaryPoints:
    """The closed form's polynomials, and each port against a 50-digit
    evaluation of the response."""

    @pytest.mark.parametrize("power_p", [0.0, 300e-9, 2.5e-6])
    def test_polynomials_match_closed_form(self, default_cfg, power_p):
        # N/D is the second, expanded form of z = sqrt(2*kappa1)*e1
        params = default_cfg.system_params(power_p=power_p)
        state = solve_steady_state(params)
        grid = params.omega_m * np.linspace(0.7, 1.3, 4001)
        arrs, _ = response_module._closed_arrays(params, state, grid)
        z = math.sqrt(2.0 * params.kappa1) * arrs["e1"]
        num, den = analysis_module._port_polynomials(
            analysis_module._port_factors(params, state))
        y = grid / params.omega_m - 1.0
        ratio = np.polyval(num, y) / np.polyval(den, y)
        assert np.max(np.abs(ratio - z) / np.abs(z)) < 1e-12

    @pytest.mark.parametrize("power_p", [0.0, 300e-9, 2.5e-6, 7.4e-6])
    def test_ports_are_sign_changes(self, default_cfg, power_p):
        # at 50 digits, dR/domega falls through zero across each reflect
        # port, dT/domega across the transmit port, and dT/domega rises
        # through zero across each T dip
        params = default_cfg.system_params(power_p=power_p)
        state = solve_steady_state(params)
        report = routing_report(params, state=state)
        t_min = analysis_module._stationary_points(params, state)[0]
        z = mp_response(params, state)

        def slope(column, omega):
            if column == "T":
                return mpmath.diff(lambda w: abs(z(w)) ** 2, omega)
            return mpmath.diff(lambda w: abs(z(w) - 1) ** 2, omega)

        points = [("R" if p.label.startswith("reflect") else "T", p.omega,
                   -1) for p in report.ports]
        points += [("T", omega, 1) for _, omega in t_min]
        assert len(points) == (1 if power_p == 0.0 else 3) + len(t_min)
        with mpmath.workdps(50):
            for column, omega, rise in points:
                below, above = (slope(column, mpmath.mpf(omega) * (1 + s))
                                for s in (-1e-11, 1e-11))
                assert rise * below < 0 < rise * above


def mp_response(params, state):
    """``z = sqrt(2*kappa1)*e1`` of the closed form in ``mpmath``
    arithmetic, straight from ``response._intermediates`` in SI units."""
    f = mpmath.mpf
    hbar = f(CONSTANTS.hbar)
    d1, d2 = f(state.delta1), f(state.delta2)
    k1, k2 = f(params.kappa1), f(params.kappa2)
    g1, g2, mass = f(params.g1), f(params.g2), f(params.mass)
    a_sq = abs(mpmath.mpc(state.a_s)) ** 2
    c_sq = abs(mpmath.mpc(state.c_s)) ** 2

    def z(w):
        a1, b1 = d1 + w + 2j * k1, d1 - w - 2j * k1
        a2, b2 = d2 + w + 2j * k2, d2 - w - 2j * k2
        n = w**2 + 1j * w * f(params.gamma_m) - f(params.omega_m) ** 2
        d = (2 * hbar * a_sq * g1**2 * d1 * a2 * b2
             + 2 * hbar * c_sq * g2**2 * d2 * a1 * b1
             + mass * n * a1 * b1 * a2 * b2)
        num = (hbar * a_sq * g1**2 * a2 * b2
               + 2 * hbar * c_sq * g2**2 * d2 * a1 + mass * n * a1 * a2 * b2)
        return -2j * k1 * num / d

    return z


class TestWindowSplitting:
    def test_pump_off_is_zero(self, params_off, state_off):
        assert window_splitting(params_off, state=state_off) == 0.0

    def test_pump_on_is_positive(self, params_on, state_on):
        omega0 = window_splitting(params_on, state=state_on)
        assert omega0 > 5.0 * 2.0 * params_on.kappa1

    def test_grows_with_power(self, default_cfg, params_on, state_on):
        low = window_splitting(params_on, state=state_on)
        p_high = default_cfg.system_params(power_p=1500e-9)
        high = window_splitting(p_high, solve_steady_state(p_high))
        assert high > low

    def test_no_structure_raises(self):
        params = make_params(g1=0.0)
        with pytest.raises(AnalysisError):
            window_splitting(params, solve_steady_state(params))

    def test_continuous_under_small_power_change(self, default_cfg,
                                                 params_on, state_on):
        base = window_splitting(params_on, state=state_on)
        p_nudged = default_cfg.system_params(
            power_p=params_on.power_p * 1.01)
        nudged = window_splitting(p_nudged, solve_steady_state(p_nudged))
        grid_step = 2 * 0.3 * params_on.omega_m / 4000
        assert abs(nudged - base) < 10 * grid_step

    def test_evaluates_no_port(self, params_on, state_on, monkeypatch):
        calls, real_arrays = [], response_module._arrays
        monkeypatch.setattr(response_module, "_arrays", lambda *args: (
            calls.append(args) or real_arrays(*args)))
        assert window_splitting(params_on, state=state_on) > 0.0
        assert calls == []

    @pytest.mark.parametrize("pins", [(True, True), (True, False),
                                      (False, True)])
    def test_is_the_report_measure(self, default_cfg, pins):
        # the CLI matrix's route powers, pinned both-sided and one-sided
        for power in ("0", "30nW", "300nW", "1uW", "1.5uW", "1.6uW", "2.5uW",
                      "5uW", "7.4uW", "8uW", "20uW", "30uW"):
            cfg = parse_config(overrides=[f"power_p={power}"], env={})
            params, state = operating_point(cfg.base_params(), *pins)
            expected = routing_report(params, state=state).omega0_window
            assert window_splitting(params, state=state) == expected

    def test_survives_singular_ports(self, params_on, state_on,
                                     monkeypatch):
        expected = window_splitting(params_on, state=state_on)
        real_arrays = response_module._arrays

        def singular_ports(params, state, omega, method):
            arrs, bad = real_arrays(params, state, omega, method)
            bad[:] = True
            return arrs, bad

        monkeypatch.setattr(response_module, "_arrays", singular_ports)
        with pytest.raises(SingularPointError):
            routing_report(params_on, state=state_on)
        assert window_splitting(params_on, state=state_on) == expected


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
        report = routing_report(params, solve_steady_state(params))
        assert report.degenerate
        assert [p.label for p in report.ports] == ["transmit"]
        assert report.ports[0].t_value > 0.95
        assert report.omega0 == 0.0

    def test_report_is_deterministic(self, params_on):
        first = routing_report(params_on, solve_steady_state(params_on))
        second = routing_report(params_on, solve_steady_state(params_on))
        assert first == second

    def test_one_kernel_call_per_port(self, params_on, state_on, params_off,
                                      state_off, monkeypatch):
        # pump on: one call for all three ports; pump off: one call for
        # the one port
        real_arrays = response_module._arrays
        shapes = []

        def counting(params, state, omega, method):
            shapes.append(np.shape(omega))
            return real_arrays(params, state, omega, method)

        monkeypatch.setattr(response_module, "_arrays", counting)
        report = routing_report(params_on, state=state_on)
        assert len(report.ports) == 3
        assert shapes == [(3,)]
        shapes.clear()
        routing_report(params_off, state=state_off)
        assert shapes == [(1,)]

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("power_p", [0.0, 300e-9, 2.5e-6])
    def test_ports_need_no_scan(self, default_cfg, monkeypatch, method,
                                power_p):
        # no kernel call on more than the 3 ports, one eigenvalue call,
        # and a small traced peak: the report allocates no grid
        params = default_cfg.system_params(power_p=power_p)
        state = solve_steady_state(params)
        real_arrays, real_eigvals = response_module._arrays, np.linalg.eigvals
        sizes, eigvals = [], []

        def counting(params, state, omega, method):
            sizes.append(np.size(omega))
            return real_arrays(params, state, omega, method)

        def counting_eigvals(a):
            eigvals.append(np.shape(a))
            return real_eigvals(a)

        monkeypatch.setattr(response_module, "_arrays", counting)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        first = routing_report(params, state=state, method=method)
        assert len(sizes) == 1 and max(sizes) <= 3
        assert eigvals == [(2, 21, 21)]
        tracemalloc.start()
        try:
            again = routing_report(params, state=state, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 64 * 1024

    def test_singular_port_raises(self, params_on, state_on, monkeypatch):
        ports = routing_report(params_on, state=state_on).ports
        real_arrays = response_module._arrays
        flagged = []

        def singular_ports(params, state, omega, method):
            # the port batch is the only 1-D call with at most 3 nodes
            arrs, bad = real_arrays(params, state, omega, method)
            if np.ndim(omega) == 1 and np.size(omega) <= 3:
                bad[flagged] = True
            return arrs, bad

        monkeypatch.setattr(response_module, "_arrays", singular_ports)
        # every port singular: the error names the first, the transmit port
        flagged[:] = [0, 1, 2]
        with pytest.raises(SingularPointError, match=re.escape(
                f"omega={ports[0].omega!r}") + "$"):
            routing_report(params_on, state=state_on)
        # one port singular: the error names that port
        flagged[:] = [2]
        with pytest.raises(SingularPointError, match=re.escape(
                f"omega={ports[2].omega!r}") + "$"):
            routing_report(params_on, state=state_on)

    def test_no_reflection_maximum_raises(self, params_on, state_on,
                                          monkeypatch):
        # T dips but no R maximum: no reflect port can be placed
        real_points = analysis_module._stationary_points

        def no_r_maximum(params, state):
            t_min, t_max, _ = real_points(params, state)
            return t_min, t_max, []

        monkeypatch.setattr(analysis_module, "_stationary_points",
                            no_r_maximum)
        with pytest.raises(AnalysisError,
                           match="^no reflection maximum at omega >= 0$"):
            routing_report(params_on, state=state_on)

    def test_reflect_ports_sit_on_reflection_peaks(self, default_cfg):
        # each reflect port is the R maximum beside its T dip, so R falls
        # on both sides of it, also at 7.4 uW, near the instability, where
        # the lower R peak lies far below its T dip
        off_peak = []
        for power_p in np.linspace(0.0, 12e-6, 61).tolist():
            params = default_cfg.system_params(power_p=power_p)
            state = solve_steady_state(params)
            report = routing_report(params, state=state)
            ports = {p.label: p for p in report.ports}
            if power_p == 0.0:
                assert list(ports) == ["reflect"]
            else:
                assert list(ports) == ["transmit", "reflect-lower",
                                       "reflect-upper"]
                assert (ports["reflect-lower"].omega
                        < ports["transmit"].omega
                        < ports["reflect-upper"].omega)
            step = 3e-6 * params.omega_m
            for port in report.ports:
                if not port.label.startswith("reflect"):
                    continue
                assert port.r_value > 0.99
                below, at, above = response_module._node_spectra(
                    params, state, [port.omega - step, port.omega,
                                    port.omega + step], "closed")["r_refl"]
                if not below < at > above:
                    off_peak.append((round(power_p * 1e9), port.label))
        assert off_peak == []

    @pytest.mark.parametrize("power_p, warns", [
        (0.0, False), (1e-12, True), (1.5e-6, False), (2.5e-6, False),
        (2e-5, False)])
    def test_collapsed_pumped_report_warns(self, default_cfg, power_p,
                                           warns):
        # at 1 pW the split lines are one T dip, below omega_m; at 20 uW
        # the upper split line is a T dip at 2.1 omega_m
        params = default_cfg.system_params(power_p=power_p)
        report = routing_report(params, solve_steady_state(params))
        assert report.pump_on == (power_p > 0.0)
        assert bool(report.warnings) == warns
        if warns:
            assert [p.label for p in report.ports] == ["reflect"]
            assert report.omega0 == 0.0
            assert "1 of 3 ports" in report.warnings[0]

    def test_dips_sharing_a_reflection_peak_give_one_port(self):
        # a draw of criterion 3's distribution (detunings -0.63 and -2.37
        # omega_m) has T dips at 0.63 and 1.17 omega_m and its only R
        # maximum at 1.05 omega_m: one reflect port, and a warning
        rng = np.random.default_rng(4242)
        for _ in range(326):
            params = criterion3_params(rng)
        state = solve_steady_state(params)
        t_min = analysis_module._stationary_points(params, state)[0]
        assert [w < params.omega_m for _, w in t_min] == [True, False]
        report = routing_report(params, state=state)
        assert [p.label for p in report.ports] == ["reflect"]
        assert report.omega0 == 0.0
        assert "1 of 3 ports" in report.warnings[0]


def serial_report(params, state, report, method):
    """Each port of ``report`` evaluated by its own single-node kernel
    call, as ``[(label, omega, R, T, threshold_met), ...]``."""
    rows = []
    for port in report.ports:
        node = response_module._node_spectra(params, state, port.omega,
                                             method)
        r, t = float(node["r_refl"][0]), float(node["t_trans"][0])
        met = (r > analysis_module.DEFAULT_R_REFLECT_MIN
               if port.label.startswith("reflect")
               else t > analysis_module.DEFAULT_T_TRANSMIT_MIN)
        rows.append((port.label, port.omega.hex(), r.hex(), t.hex(), met))
    return rows


def batched_report(report):
    return [(p.label, p.omega.hex(), p.r_value.hex(), p.t_value.hex(),
             p.threshold_met) for p in report.ports]


class TestBatchedRefinement:
    """The port spectra of the one batched kernel call against one call
    per port, bit for bit, and the port order."""

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_default_device_power_range(self, default_cfg, method):
        # the ports are found on the closed form whatever the method, so
        # the oracle report has the closed report's port frequencies
        for power_p in np.linspace(0.0, 1.6e-6, 30).tolist():
            params = default_cfg.system_params(power_p=power_p)
            state = solve_steady_state(params)
            report = routing_report(params, state=state, method=method)
            assert batched_report(report) == serial_report(
                params, state, report, method)
            closed = routing_report(params, state=state)
            assert [p.omega for p in report.ports] == [
                p.omega for p in closed.ports]

    def test_criterion_3_draws(self):
        # criterion 3's 100 parameter sets; each of them gives a report,
        # and a three-port report lists lower < transmit < upper
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            params = criterion3_params(rng)
            state = solve_steady_state(params)
            report = routing_report(params, state=state)
            assert batched_report(report) == serial_report(
                params, state, report, "closed")
            if len(report.ports) == 3:
                transmit, lower, upper = (p.omega for p in report.ports)
                assert lower < transmit < upper

    def test_criterion_3_transmit_port_fallback_warns(self):
        # 13 of the draws have no T maximum at omega > 0: each puts its
        # transmit port at omega_m, where T is monotone, and says so
        note = ("no transmission maximum at omega > 0: transmit port "
                "placed at omega_m")
        rng = np.random.default_rng(20260810)
        warned = []
        for k in range(100):
            params = criterion3_params(rng)
            state = solve_steady_state(params)
            report = routing_report(params, state=state)
            at_wm = [p.label for p in report.ports
                     if p.omega == params.omega_m]
            if note in report.warnings:
                warned.append(k)
                assert report.degenerate and at_wm == ["transmit"]
                below, at, above = response_module._node_spectra(
                    params, state,
                    params.omega_m * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]),
                    "closed")["t_trans"]
                assert below < at < above or below > at > above
            else:
                assert at_wm == []
        assert len(warned) == 13


class TestPowerSweep:
    def test_single_power_matches_report(self, default_cfg, params_on):
        result = power_sweep(params_on, [params_on.power_p],
                             pin_optical=True, pin_microwave=True)
        assert result.errors == []
        row = result.rows[0]
        params = default_cfg.system_params()
        report = routing_report(params, solve_steady_state(params))
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

    def test_rows_carry_report_warnings(self, params_on):
        # at 1 pW the pinned report collapses and warns; at 20 uW the
        # state misses both pinned detunings, and the report finds three
        # ports
        result = power_sweep(params_on, [1e-12, 2.5e-6, 2e-5],
                             pin_optical=True, pin_microwave=True)
        assert result.errors == []
        (collapsed,) = result.rows[0].warnings
        assert "1 of 3 ports" in collapsed
        assert result.rows[1].warnings == ()
        assert len(result.rows[1].ports) == len(result.rows[2].ports) == 3
        missed_a, missed_c = result.rows[2].warnings
        assert missed_a.startswith("delta_a = auto missed omega_m")
        assert missed_c.startswith("delta_c = auto missed omega_m")

    def test_row_errors_recorded(self, params_on, monkeypatch):
        real_solve = steady_module.solve_steady_state

        def failing(params, *args, **kwargs):
            if params.power_p == 600e-9:
                raise RouterError("forced failure")
            return real_solve(params, *args, **kwargs)

        monkeypatch.setattr(steady_module, "solve_steady_state", failing)
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

    def test_unreachable_splitting(self, params_on):
        # g1 already blocks the pump-off window, but no g2 in the bracket
        # splits it far enough
        weak = replace(params_on, g2=1e17)
        with pytest.raises(CalibrationError, match=re.escape(
                "unreachable for g2 <= 2e+17")) as info:
            calibrate_couplings(weak, g2_bracket=(1e17, 2e17))
        assert str(info.value).startswith("splitting target ")
        assert info.value.closest == {"g1": params_on.g1, "g2": 2e17}

    def test_closed_loop_from_weak_couplings(self, params_on):
        weak = replace(params_on, g1=params_on.g1 / 10.0,
                       g2=params_on.g2 / 10.0)
        g1, g2 = calibrate_couplings(
            weak,
            g1_bracket=(weak.g1, params_on.g1 * 10.0),
            g2_bracket=(weak.g2, params_on.g2 * 2.0))
        assert g1 > weak.g1 and g2 > weak.g2
        calibrated = replace(params_on, g1=g1, g2=g2)
        pinned = pin_effective_detunings(calibrated)
        report = routing_report(pinned, solve_steady_state(pinned))
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
            pinned = pin_effective_detunings(replace(weak, g1=g))
            report = routing_report(pinned, solve_steady_state(pinned))
            return [p.r_value for p in report.ports
                    if p.label.startswith("reflect")]

        r_min = CalibrationTargets().r_reflect_min
        assert min(reflect_r(g1)) > r_min
        # bisection stops within 1e-3 (relative) of the threshold
        assert min(reflect_r(g1 * (1.0 - 1e-3))) <= r_min

    def test_checks_at_one_pair_share_a_window_scan(self, params_on,
                                                     monkeypatch):
        # the depth-stage calibration visits 13 distinct (g1, g2) pairs;
        # the splitting and depth checks at one pair read one report, so
        # they search its stationary points once
        real_points = analysis_module._stationary_points
        windows = []

        def counting(params, state):
            windows.append((params.g1, params.g2))
            return real_points(params, state)

        monkeypatch.setattr(analysis_module, "_stationary_points", counting)
        weak = replace(params_on, g1=0.3 * params_on.g1)
        calibrate_couplings(weak, g1_bracket=(weak.g1, params_on.g1),
                            g2_bracket=(weak.g2, 2.0 * weak.g2))
        assert len(windows) == len(set(windows)) <= 13

    def test_splitting_met_inside_default_bracket(self, params_on):
        # at g2 = 6e19 the default bracket (6e19, 6e22] holds the default
        # g2 = 1.2e20, whose splitting meets the target; from 1e22 up the
        # pins are missed and the report has one port
        weak = replace(params_on, g2=6e19)
        g1, g2 = calibrate_couplings(weak)
        p, state = operating_point(replace(weak, g1=g1, g2=g2), True, True)
        report = routing_report(p, state=state)
        assert report.omega0 > 5.0 * 2.0 * params_on.kappa1

    def test_no_microwave_coupling_raises_promptly(self, params_on,
                                                   monkeypatch):
        # with g2 = 0 the default g2 bracket starts at 0, so the search
        # inside it tries nothing: stage 2 reads g2 = 0 and the top only
        real_points = analysis_module._stationary_points
        tried = []

        def counting(params, state):
            tried.append(params.g2)
            return real_points(params, state)

        monkeypatch.setattr(analysis_module, "_stationary_points", counting)
        with pytest.raises(CalibrationError, match="^splitting target "):
            calibrate_couplings(replace(params_on, g2=0.0))
        assert tried == [0.0, 1e3]

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
