"""Router semantics on top of the raw spectra.

Turns reflection/transmission scans into the quantities one would quote for
the device: dip and peak locations, the splitting of the transparency window
when the microwave pump is on, a port-by-port routing report, power sweeps,
and a calibration routine for the two couplings.  Scans stay columnar
``ScanResult`` arrays throughout, and one :func:`window_scan` can serve
both :func:`window_splitting` and :func:`routing_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AnalysisError, CalibrationError, InvalidParameterError, RouterError
from .model import SystemParams
from .response import ScanResult, _node_spectra, scan_spectrum, transmission
from .steady import SteadyState, pin_effective_detunings, solve_steady_state

__all__ = [
    "Extremum",
    "ExtremaList",
    "find_extrema",
    "window_scan",
    "window_splitting",
    "Port",
    "RoutingReport",
    "routing_report",
    "SweepRow",
    "SweepResult",
    "power_sweep",
    "CalibrationTargets",
    "calibrate_couplings",
]

DEFAULT_WINDOW_FRAC = 0.30
DEFAULT_WINDOW_POINTS = 4001
DEFAULT_R_REFLECT_MIN = 0.99
DEFAULT_T_TRANSMIT_MIN = 0.95
DEFAULT_T_BLOCKED_MAX = 0.01

_REFINE_POINTS = 401  # nodes of the narrow re-scan around a coarse maximum
_BISECT_REL_TOL = 1e-3
_BISECT_MAX_ITER = 80

_COLUMN_ALIASES = {"r": "r_refl", "R": "r_refl",
                   "t": "t_trans", "T": "t_trans"}


@dataclass(frozen=True)
class Extremum:
    omega: float
    value: float
    refined: bool


@dataclass(frozen=True)
class ExtremaList:
    """Strict local minima and maxima of one spectrum column, by omega."""

    minima: tuple[Extremum, ...]
    maxima: tuple[Extremum, ...]


def find_extrema(points: ScanResult, column: str) -> ExtremaList:
    """Strict local extrema of one column, parabola-refined.

    ``column`` names a column of the scan ``points`` (``"R"``/``"T"`` or
    field names).  Triples touching a non-finite node and endpoints are
    skipped.  Each extremum moves to the vertex of the parabola through its
    triple unless they are collinear or the vertex escapes the triple.
    Requires at least 3 points on a strictly increasing frequency grid.
    """
    y = points.column(_COLUMN_ALIASES.get(column, column))
    if len(points) < 3:
        raise InvalidParameterError("need at least 3 points to find extrema")
    x = points.omega
    if not np.all(np.diff(x) > 0.0):
        raise InvalidParameterError("omega values must be strictly increasing")

    y0, y1, y2 = y[:-2], y[1:-1], y[2:]
    finite = np.isfinite(y0) & np.isfinite(y1) & np.isfinite(y2)
    is_min = finite & (y1 < y0) & (y1 < y2)
    is_max = finite & (y1 > y0) & (y1 > y2)
    i = np.flatnonzero(is_min | is_max)

    x0, x1, x2 = x[i], x[i + 1], x[i + 2]
    y0, y1, y2 = y[i], y[i + 1], y[i + 2]
    with np.errstate(all="ignore"):
        d1 = (y1 - y0) / (x1 - x0)
        d2 = (y2 - y1) / (x2 - x1)
        curv = (d2 - d1) / (x2 - x0)
        xv = 0.5 * (x0 + x1) - d1 / (2.0 * curv)
        yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    refined = (curv != 0.0) & np.isfinite(curv) & (x0 <= xv) & (xv <= x2)
    entries = [Extremum(float(w), float(v), bool(r)) for w, v, r in
               zip(np.where(refined, xv, x1), np.where(refined, yv, y1),
                   refined)]
    kinds = is_min[i].tolist()
    return ExtremaList(tuple(e for e, m in zip(entries, kinds) if m),
                       tuple(e for e, m in zip(entries, kinds) if not m))


def window_scan(params: SystemParams, state: SteadyState,
                window_frac: float = DEFAULT_WINDOW_FRAC,
                n_points: int = DEFAULT_WINDOW_POINTS,
                method: str = "closed") -> ScanResult:
    """Spectra on ``n_points`` nodes over ``[1-window_frac,
    1+window_frac]*omega_m``: the scan that :func:`window_splitting` and
    :func:`routing_report` analyse, and may share."""
    wm = params.omega_m
    grid = wm * np.linspace(1.0 - window_frac, 1.0 + window_frac, n_points)
    return scan_spectrum(params, grid, method=method, state=state)


def _side_extrema(extrema, center, minima_mode):
    """Deepest extremum on each side of the centre frequency."""
    entries = extrema.minima if minima_mode else extrema.maxima
    lower = [e for e in entries if e.omega < center]
    upper = [e for e in entries if e.omega >= center]
    pick = min if minima_mode else max
    lo = pick(lower, key=lambda e: e.value) if lower else None
    hi = pick(upper, key=lambda e: e.value) if upper else None
    return lo, hi, len(entries)


def _refine_extremum(params, state, column, omega_guess, half_width, method):
    """Re-sample a narrow window around a coarse maximum and re-refine."""
    grid = np.linspace(omega_guess - half_width, omega_guess + half_width,
                       _REFINE_POINTS)
    result = scan_spectrum(params, grid, method=method, state=state)
    maxima = find_extrema(result, column).maxima
    if not maxima:
        return None
    return min(maxima, key=lambda e: abs(e.omega - omega_guess))


def window_splitting(params: SystemParams, mode: str = "t-minima",
                     window_frac: float = DEFAULT_WINDOW_FRAC,
                     n_points: int = DEFAULT_WINDOW_POINTS,
                     state: SteadyState | None = None,
                     method: str = "closed",
                     scan: ScanResult | None = None) -> float:
    """Half the separation of the split transparency window (rad/s).

    Scans the transmission over ``[1-window_frac, 1+window_frac]*omega_m``
    and measures the two minima straddling the mechanical frequency; with
    the microwave pump off only one minimum exists and the splitting is 0.
    ``mode="r-maxima"`` measures the separation of the two reflection peaks
    instead; both definitions agree within grid refinement.  A precomputed
    :func:`window_scan` may be passed as ``scan``; the window arguments and
    ``state`` are then not used.

    Raises :class:`AnalysisError` when the scan shows no extremum at all,
    which signals parameters outside the transparency regime.
    """
    if mode not in ("t-minima", "r-maxima"):
        raise InvalidParameterError(f"unknown splitting mode {mode!r}")
    if scan is None:
        if state is None:
            state = solve_steady_state(params)
        scan = window_scan(params, state, window_frac, n_points, method)
    minima_mode = mode == "t-minima"
    extrema = find_extrema(scan, "T" if minima_mode else "R")
    lo, hi, count = _side_extrema(extrema, params.omega_m, minima_mode)
    if count == 0:
        raise AnalysisError(
            "no transparency structure found in the scan window")
    if lo is None or hi is None:
        return 0.0
    return 0.5 * (hi.omega - lo.omega)


@dataclass(frozen=True)
class Port:
    """One output channel of the router at a specific probe frequency."""

    label: str
    omega: float
    r_value: float
    t_value: float
    threshold_met: bool


@dataclass(frozen=True)
class RoutingReport:
    """Routing summary: where the probe photon goes and how cleanly.

    ``omega0`` is the window splitting (0 when the pump is off), ``center``
    the symmetric point of the port pattern.  ``degenerate`` marks reports
    where no mechanical structure exists at all (e.g. zero optomechanical
    coupling) and only a bare transmit port is listed.
    """

    pump_on: bool
    center: float
    omega0: float
    ports: tuple[Port, ...]
    degenerate: bool = False


def routing_report(params: SystemParams,
                   state: SteadyState | None = None,
                   window_frac: float = DEFAULT_WINDOW_FRAC,
                   n_points: int = DEFAULT_WINDOW_POINTS,
                   r_reflect_min: float = DEFAULT_R_REFLECT_MIN,
                   t_transmit_min: float = DEFAULT_T_TRANSMIT_MIN,
                   method: str = "closed",
                   scan: ScanResult | None = None) -> RoutingReport:
    """Classify the router's output ports at the current operating point.

    Pump off: a single reflect port at the transparency dip.  Pump on: a
    transmit port at the transmission maximum near the mechanical frequency
    plus two reflect ports at the split reflection peaks, ``omega0`` apart
    from their midpoint.  Port frequencies come from a coarse scan followed
    by a dense local re-scan at the relevant column (reflection for reflect
    ports), so they are far more accurate than the coarse grid step.  The
    coarse scan is :func:`window_scan` over the same window, state and
    method; a precomputed one may be passed as ``scan``.

    Note the reflect-port midpoint sits slightly below the transmit port:
    position-type coupling pulls both hybrid modes down by about
    ``omega0**2 / (2*omega_m)``, a real second-order effect, not a grid
    artefact.
    """
    if state is None:
        state = solve_steady_state(params)
    pump_on = params.power_p > 0.0
    wm = params.omega_m
    coarse_step = 2.0 * window_frac * wm / (n_points - 1)
    half = 4.0 * coarse_step

    if scan is None:
        scan = window_scan(params, state, window_frac, n_points, method)
    extrema = find_extrema(scan, "T")
    lo, hi, count = _side_extrema(extrema, wm, True)

    def port(label, omega, want_reflect):
        spectra = _node_spectra(params, state, omega, method)
        r, t = spectra["r_refl"], spectra["t_trans"]
        met = (r > r_reflect_min) if want_reflect else (t > t_transmit_min)
        return Port(label, float(omega), float(r), float(t), met)

    def reflect_peak(omega_guess):
        refined = _refine_extremum(params, state, "R", omega_guess, half,
                                   method)
        return refined.omega if refined is not None else omega_guess

    if count == 0:
        peaks = extrema.maxima
        omega_top = max(peaks, key=lambda e: e.value).omega if peaks else wm
        return RoutingReport(pump_on=pump_on, center=float(omega_top),
                             omega0=0.0,
                             ports=(port("transmit", omega_top, False),),
                             degenerate=True)

    if lo is None or hi is None:
        dip = lo if lo is not None else hi
        omega_dip = reflect_peak(dip.omega)
        return RoutingReport(pump_on=pump_on, center=float(omega_dip),
                             omega0=0.0,
                             ports=(port("reflect", omega_dip, True),))

    w_lo = reflect_peak(lo.omega)
    w_hi = reflect_peak(hi.omega)
    omega0 = 0.5 * (w_hi - w_lo)

    between = [e for e in extrema.maxima if w_lo < e.omega < w_hi]
    guess_top = max(between, key=lambda e: e.value).omega if between else wm
    top = _refine_extremum(params, state, "T", guess_top, half, method)
    center = top.omega if top is not None else guess_top

    ports = (port("transmit", center, False),
             port("reflect-lower", w_lo, True),
             port("reflect-upper", w_hi, True))
    return RoutingReport(pump_on=pump_on, center=float(center),
                         omega0=float(omega0), ports=ports)


@dataclass(frozen=True)
class SweepRow:
    power_p: float
    omega0: float
    ports: tuple[Port, ...]


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    errors: list[tuple[int, float, str]]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def power_sweep(params: SystemParams, powers,
                pin_optical: bool = False, pin_microwave: bool = False,
                window_frac: float = DEFAULT_WINDOW_FRAC,
                n_points: int = DEFAULT_WINDOW_POINTS,
                r_reflect_min: float = DEFAULT_R_REFLECT_MIN,
                t_transmit_min: float = DEFAULT_T_TRANSMIT_MIN,
                method: str = "closed") -> SweepResult:
    """Routing behaviour versus microwave pump power.

    Rows run in ascending power order and the steady-state branch is tracked
    from row to row (the previous displacement seeds the next solve).
    Errors in one row are recorded and the sweep continues.  When the
    detunings are operated in pinned mode the pinning is re-resolved per
    row, since the static displacement changes with power.
    """
    powers = [float(p) for p in powers]
    if any(p < 0.0 for p in powers):
        raise InvalidParameterError("powers must be nonnegative")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise InvalidParameterError("powers must be strictly increasing")

    rows: list[SweepRow] = []
    errors: list[tuple[int, float, str]] = []
    q_prev: float | None = None
    for i, power in enumerate(powers):
        row_params = replace(params, power_p=power)
        try:
            if pin_optical or pin_microwave:
                row_params = pin_effective_detunings(
                    row_params, pin_optical, pin_microwave)
            state = solve_steady_state(row_params, q_seed=q_prev)
            report = routing_report(row_params, state=state,
                                    window_frac=window_frac,
                                    n_points=n_points,
                                    r_reflect_min=r_reflect_min,
                                    t_transmit_min=t_transmit_min,
                                    method=method)
        except RouterError as exc:
            errors.append((i, power, f"{type(exc).__name__}: {exc}"))
            rows.append(SweepRow(power, float("nan"), ()))
            continue
        q_prev = state.q_s
        rows.append(SweepRow(power, report.omega0, report.ports))
    return SweepResult(rows, errors)


@dataclass(frozen=True)
class CalibrationTargets:
    """What the calibrated couplings must achieve.

    ``t_center_off_max``: pump-off transmission at the mechanical frequency
    must fall below this.  ``splitting_min``: pump-on window splitting must
    exceed this (default, set at call time: five optical leak rates).
    ``r_reflect_min``: reflectivity required at both split ports.
    """

    t_center_off_max: float = DEFAULT_T_BLOCKED_MAX
    splitting_min: float | None = None
    r_reflect_min: float = DEFAULT_R_REFLECT_MIN


def _bisect_threshold(predicate, lo, hi):
    """Smallest value in (lo, hi] satisfying a monotone predicate, to
    ``_BISECT_REL_TOL`` relative."""
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi

def calibrate_couplings(params: SystemParams,
                        targets: CalibrationTargets | None = None,
                        g1_bracket: tuple[float, float] | None = None,
                        g2_bracket: tuple[float, float] | None = None,
                        pin_detunings: bool = True,
                        window_frac: float = DEFAULT_WINDOW_FRAC,
                        ) -> tuple[float, float]:
    """Find couplings that realize the router's advertised behaviour.

    Stage one bisects ``g1`` until the pump-off transmission at the
    mechanical frequency is blocked; stage two bisects ``g2`` until the
    pump-on splitting exceeds ``splitting_min``.  Reflect-port depth is
    bought with optical cooperativity, not ``g2``, so when a reflect port
    misses ``r_reflect_min``, stage three bisects ``g1`` upward on that
    depth, between the stage-one value and the top of ``g1_bracket``.
    More ``g1`` keeps the pump-off window blocked but shifts the splitting
    slightly, so ``g2`` is re-bisected once, only if the splitting was
    lost; that last step does not check its bracket and never raises.
    Couplings that already meet a stage's target are kept.

    Raises :class:`CalibrationError`, with the closest couplings tried in
    ``closest``, when a stage's target is unreachable inside its bracket.
    """
    targets = targets or CalibrationTargets()
    splitting_min = (targets.splitting_min if targets.splitting_min is not None
                     else 5.0 * 2.0 * params.kappa1)
    g1_lo, g1_hi = g1_bracket or (params.g1, max(params.g1, 1.0) * 1e3)
    g2_lo, g2_hi = g2_bracket or (params.g2, max(params.g2, 1.0) * 1e3)

    def prepared(p):
        return pin_effective_detunings(p) if pin_detunings else p

    def t_center_off(g1):
        p = prepared(replace(params, g1=g1, power_p=0.0))
        state = solve_steady_state(p)
        return transmission(p, state, p.omega_m)

    windows = {}

    def window_at(g1, g2):
        # both pump-on checks at one pair share the prepared params, steady
        # state and window scan
        if (g1, g2) not in windows:
            p = prepared(replace(params, g1=g1, g2=g2))
            state = solve_steady_state(p)
            windows[g1, g2] = p, state, window_scan(p, state, window_frac)
        return windows[g1, g2]

    def report_at(g1, g2):
        p, state, scan = window_at(g1, g2)
        return routing_report(p, state=state, window_frac=window_frac,
                              r_reflect_min=targets.r_reflect_min, scan=scan)

    def blocked(g1):
        try:
            return t_center_off(g1) < targets.t_center_off_max
        except RouterError:
            return False

    def splitting_ok(g1, g2):
        try:
            p, _, scan = window_at(g1, g2)
            return window_splitting(p, scan=scan) > splitting_min
        except RouterError:
            return False

    def depth_ok(g1, g2):
        try:
            rep = report_at(g1, g2)
        except RouterError:
            return False
        reflect = [p for p in rep.ports if p.label.startswith("reflect")]
        return len(reflect) == 2 and all(p.threshold_met for p in reflect)

    # g1 until the pump-off window blocks transmission
    if blocked(params.g1):
        g1 = params.g1
    else:
        if not blocked(g1_hi):
            raise CalibrationError(
                f"pump-off transmission target "
                f"{targets.t_center_off_max:.3g} unreachable for "
                f"g1 <= {g1_hi:.6g}",
                closest={"g1": g1_hi, "t_center_off": t_center_off(g1_hi)})
        g1 = _bisect_threshold(blocked, g1_lo, g1_hi)

    # g2 until the window splits far enough
    if splitting_ok(g1, params.g2):
        g2 = params.g2
    else:
        if not splitting_ok(g1, g2_hi):
            raise CalibrationError(
                f"splitting target {splitting_min:.6g} rad/s unreachable "
                f"for g2 <= {g2_hi:.6g}",
                closest={"g1": g1, "g2": g2_hi})
        g2 = _bisect_threshold(lambda g: splitting_ok(g1, g), g2_lo, g2_hi)

    # reflect-port depth is bought with optical cooperativity, i.e. more g1
    # (raising g1 only deepens the pump-off dip, so that target stays met)
    if not depth_ok(g1, g2):
        if not depth_ok(g1_hi, g2):
            closest = {"g1": g1_hi, "g2": g2}
            try:
                closest["report"] = report_at(g1_hi, g2)
            except RouterError as exc:
                closest["error"] = str(exc)
            raise CalibrationError(
                f"reflect-port depth target {targets.r_reflect_min} "
                f"unreachable for g1 <= {g1_hi:.6g}", closest=closest)
        g1 = _bisect_threshold(lambda g: depth_ok(g, g2), g1, g1_hi)

    # more g1 shifts the splitting only weakly; re-verify and nudge g2 once
    if not splitting_ok(g1, g2):
        g2 = _bisect_threshold(lambda g: splitting_ok(g1, g), g2, g2_hi)
    return float(g1), float(g2)
