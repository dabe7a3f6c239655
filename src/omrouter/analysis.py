"""Router semantics on top of the raw spectra.

Turns reflection/transmission scans into the quantities one would quote for
the device: dip and peak locations, the splitting of the transparency window
when the microwave pump is on, a port-by-port routing report, power sweeps,
and a calibration routine for the two couplings.  :func:`routing_report`
evaluates R and T once over a window sized from the solved state, finds
the T dips and peaks and the R peaks in one search, and measures both the
ports and the window splitting from them; :func:`window_splitting` reads
that splitting off the report.  Routing reads only reflection and
transmission, so its window, re-scans and port spectra form only those
two columns, as plain arrays; :func:`find_extrema` searches one column of
a full :class:`~omrouter.response.ScanResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnalysisError, CalibrationError, InvalidParameterError, RouterError
from .model import CONSTANTS, SystemParams
from .response import ScanResult, _node_spectra, _row_spectra, transmission
from .steady import (SteadyState, _note_missed_pins, pin_effective_detunings,
                     solve_steady_state)

__all__ = [
    "Extremum",
    "ExtremaList",
    "find_extrema",
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


def _row_extrema(x, y):
    """Strict local extrema along the last axis of ``y`` on nodes ``x``
    (same shape, one row or a 2-D batch of rows), parabola-refined.

    Returns flat arrays over the extrema, ordered by row and then by
    omega: ``(row, is_min, omega, value, refined)``.  The rows are
    searched as one flat array, minus the triples that span two rows.
    """
    n = y.shape[-1]
    x, y = x.ravel(), y.ravel()
    ok = np.isfinite(y)
    y0, y1, y2 = y[:-2], y[1:-1], y[2:]
    finite = ok[:-2] & ok[1:-1] & ok[2:]
    is_min = finite & (y1 < y0) & (y1 < y2)
    is_max = finite & (y1 > y0) & (y1 > y2)
    i = np.flatnonzero(is_min | is_max)
    i = i[i % n < n - 2]

    x0, x1, x2 = x[i], x[i + 1], x[i + 2]
    y0, y1, y2 = y[i], y[i + 1], y[i + 2]
    with np.errstate(all="ignore"):
        d1 = (y1 - y0) / (x1 - x0)
        d2 = (y2 - y1) / (x2 - x1)
        curv = (d2 - d1) / (x2 - x0)
        xv = 0.5 * (x0 + x1) - d1 / (2.0 * curv)
        yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    refined = (curv != 0.0) & np.isfinite(curv) & (x0 <= xv) & (xv <= x2)
    return (i // n, is_min[i], np.where(refined, xv, x1),
            np.where(refined, yv, y1), refined)


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

    _, is_min, omega, value, refined = _row_extrema(x, y)
    entries = [Extremum(w, v, r) for w, v, r in
               zip(omega.tolist(), value.tolist(), refined.tolist())]
    kinds = is_min.tolist()
    return ExtremaList(tuple(e for e, m in zip(entries, kinds) if m),
                       tuple(e for e, m in zip(entries, kinds) if not m))


def _window(params: SystemParams, state: SteadyState) -> np.ndarray:
    """The frequency grid (rad/s) of :func:`routing_report`'s window, at
    most just under ``+-omega_m`` wide (``docs/derivation_notes.md``,
    "Analysis window")."""
    wm = params.omega_m
    coupling = params.g2 * math.sqrt(
        CONSTANTS.hbar / (2.0 * params.mass * wm)) * abs(state.c_s)
    lower = 1.0 - 2.0 * coupling / wm
    need = (1.0 - math.sqrt(lower) + 2.0 * params.kappa1 / wm
            if lower > 0.0 else 1.0)
    frac, n_points = DEFAULT_WINDOW_FRAC, DEFAULT_WINDOW_POINTS
    if need > DEFAULT_WINDOW_FRAC:
        step = 2.0 * DEFAULT_WINDOW_FRAC / (DEFAULT_WINDOW_POINTS - 1)
        half = min(math.ceil(need / step), math.ceil(1.0 / step) - 1)
        frac, n_points = half * step, 2 * half + 1
    return wm * np.linspace(1.0 - frac, 1.0 + frac, n_points)


def _first_least(omega, key, default=None):
    """The entry of ``omega`` with the least ``key``, the first by omega on
    a tie (as :func:`min` picks), or ``default`` when ``omega`` is empty."""
    return float(omega[np.argmin(key)]) if omega.size else default


def _refine_maxima(params, state, column, guesses, half_width, method):
    """Re-sample a narrow window around each coarse maximum and re-refine.

    All windows are rows of one kernel call.  Returns, per guess, the
    refined maximum of ``column`` nearest to it, or the guess itself when
    its window shows no maximum.
    """
    rows = np.stack([np.linspace(guess - half_width, guess + half_width,
                                 _REFINE_POINTS) for guess in guesses])
    y = _row_spectra(params, state, rows, method)[column]
    row, is_min, omega, _, _ = _row_extrema(rows, y)
    refined = []
    for k, guess in enumerate(guesses):
        maxima = omega[(row == k) & ~is_min]
        refined.append(_first_least(maxima, np.abs(maxima - guess), guess))
    return refined


def window_splitting(params: SystemParams,
                     state: SteadyState | None = None,
                     method: str = "closed") -> float:
    """Half the separation of the split transparency window (rad/s).

    The :func:`routing_report` measure ``omega0_window``: half the distance
    between the deepest transmission minima on either side of the
    mechanical frequency in the report's window.  With the microwave pump
    off only one minimum exists and the splitting is 0.

    Raises :class:`AnalysisError` when the window shows no minimum at all,
    which signals parameters outside the transparency regime.
    """
    omega0 = routing_report(params, state=state, method=method).omega0_window
    if omega0 is None:
        raise AnalysisError(
            "no transparency structure found in the scan window")
    return omega0


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

    ``omega0`` is the splitting of the reflect ports (0 when the pump is
    off), ``center`` the symmetric point of the port pattern.
    ``omega0_window`` is half the distance between the two transmission
    dips of the window (:func:`window_splitting`): 0.0 with one dip,
    ``None`` when the window shows none.  ``degenerate`` marks reports
    where no mechanical structure exists at all (e.g. zero optomechanical
    coupling) and only a bare transmit port is listed.  ``warnings`` holds
    one note when the pump is on but fewer than three ports were found.
    """

    pump_on: bool
    center: float
    omega0: float
    ports: tuple[Port, ...]
    degenerate: bool = False
    warnings: tuple[str, ...] = ()
    omega0_window: float | None = None


def routing_report(params: SystemParams,
                   state: SteadyState | None = None,
                   r_reflect_min: float = DEFAULT_R_REFLECT_MIN,
                   t_transmit_min: float = DEFAULT_T_TRANSMIT_MIN,
                   method: str = "closed") -> RoutingReport:
    """Classify the router's output ports at the current operating point.

    Pump off: a single reflect port at the transparency dip.  Pump on: a
    transmit port at the transmission maximum near the mechanical frequency
    plus two reflect ports at the split reflection peaks, ``omega0`` apart
    from their midpoint.  Port frequencies come from a coarse window
    followed by a dense local re-scan at the relevant column.  The window
    is ``+-DEFAULT_WINDOW_FRAC*omega_m`` on ``DEFAULT_WINDOW_POINTS``
    nodes, widened at the same grid step when the microwave-mechanical
    normal-mode splitting of ``state`` predicts the lower port outside it.
    One search over the window's T and R rows finds the T dips and peaks
    and the R peaks, as :func:`find_extrema` finds them in a
    :func:`~omrouter.response.scan_spectrum` of the same grid; where two
    extrema tie, the first by omega wins.  A reflect port's re-scan is
    centred on the coarse reflection maximum nearest its transmission dip,
    on the same side of ``omega_m`` (on the dip itself when that side
    shows no reflection maximum), so the port sits on the reflection peak
    far more accurately than the coarse grid step.

    A pumped report makes four kernel calls: the window, both
    reflect-peak re-scans as one batch, the transmit re-scan, and the
    spectra at all three ports.  Every node gets the same arithmetic as in
    a scan of its own, so batching changes no bit of the report.  Raises
    :class:`SingularPointError` naming the first singular port frequency.

    A pumped report with fewer than three ports carries a warning naming
    the window: the report then shows the pump-off pattern (one reflect
    port, ``omega0`` = 0).

    Note the reflect-port midpoint sits slightly below the transmit port:
    position-type coupling pulls both hybrid modes down by about
    ``omega0**2 / (2*omega_m)``, a real second-order effect, not a grid
    artefact.
    """
    if state is None:
        state = solve_steady_state(params)
    pump_on = params.power_p > 0.0
    wm = params.omega_m
    coarse_step = (2.0 * DEFAULT_WINDOW_FRAC * wm
                   / (DEFAULT_WINDOW_POINTS - 1))
    half = 4.0 * coarse_step

    grid = _window(params, state)
    window = _row_spectra(params, state, grid, method)
    row, is_min, omega, value, _ = _row_extrema(
        np.stack([grid, grid]),
        np.stack([window["t_trans"], window["r_refl"]]))
    dip, t_peak = (row == 0) & is_min, (row == 0) & ~is_min
    r_peak = (row == 1) & ~is_min
    below = omega < wm
    # the deepest T dip on each side of omega_m
    lo, hi = (_first_least(omega[dip & side], value[dip & side])
              for side in (below, ~below))
    omega0_window = 0.0 if dip.any() else None
    if lo is not None and hi is not None:
        omega0_window = 0.5 * (hi - lo)

    def report(center, omega0, specs, degenerate=False):
        # specs: (label, omega, want_reflect) per port, evaluated together
        spectra = _node_spectra(params, state, [w for _, w, _ in specs],
                                method)
        ports = tuple(
            Port(label, float(w), s["r_refl"], s["t_trans"],
                 s["r_refl"] > r_reflect_min if want_reflect
                 else s["t_trans"] > t_transmit_min)
            for (label, w, want_reflect), s in zip(specs, spectra))
        warnings = ()
        if pump_on and len(ports) < 3:
            frac = (grid[-1] - grid[0]) / (2.0 * wm)
            warnings = (f"pump on, but {len(ports)} of 3 ports found in "
                        f"the +-{frac:g} omega_m window; a split "
                        f"line may lie outside it",)
        return RoutingReport(pump_on=pump_on, center=float(center),
                             omega0=float(omega0), ports=ports,
                             degenerate=degenerate, warnings=warnings,
                             omega0_window=omega0_window)

    if not dip.any():
        omega_top = _first_least(omega[t_peak], -value[t_peak], wm)
        return report(omega_top, 0.0, [("transmit", omega_top, False)],
                      degenerate=True)

    def reflect_seed(dip_omega):
        # from about 200 nW an R peak lies farther from its T dip than the
        # re-scan reaches: start at the R peak nearest the dip, on its side
        side = omega[r_peak & (below == (dip_omega < wm))]
        return _first_least(side, np.abs(side - dip_omega), dip_omega)

    if lo is None or hi is None:
        (omega_port,) = _refine_maxima(
            params, state, "r_refl", [reflect_seed(hi if lo is None else lo)],
            half, method)
        return report(omega_port, 0.0, [("reflect", omega_port, True)])

    w_lo, w_hi = _refine_maxima(params, state, "r_refl",
                                [reflect_seed(lo), reflect_seed(hi)], half,
                                method)
    omega0 = 0.5 * (w_hi - w_lo)

    between = t_peak & (w_lo < omega) & (omega < w_hi)
    guess_top = _first_least(omega[between], -value[between], wm)
    (center,) = _refine_maxima(params, state, "t_trans", [guess_top], half,
                               method)
    return report(center, omega0, [("transmit", center, False),
                                   ("reflect-lower", w_lo, True),
                                   ("reflect-upper", w_hi, True)])


@dataclass(frozen=True)
class SweepRow:
    """One power of a sweep: its report's ``omega0`` and ports, and the
    warnings of its steady state and then of its report."""

    power_p: float
    omega0: float
    ports: tuple[Port, ...]
    warnings: tuple[str, ...] = ()


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
                r_reflect_min: float = DEFAULT_R_REFLECT_MIN,
                t_transmit_min: float = DEFAULT_T_TRANSMIT_MIN,
                method: str = "closed") -> SweepResult:
    """Routing behaviour versus microwave pump power.

    Rows run in ascending power order.  The first row ramps its solve
    from zero; each later row is seeded from the displacement of the last
    row solved, so the steady-state branch is tracked from row to row.
    Every solve uses the default ``ramp_steps`` and ``residual_tol``.
    Errors in one row are recorded and the sweep continues.  In pinned
    mode the detunings are re-pinned per row, since the static
    displacement changes with power; the bare detunings of ``params`` on
    a pinned side are not used.  Each row carries its steady state's
    warnings, among them a pinned detuning that the seeded solve misses,
    then its routing report's, and each report sizes its own window.
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
            state = _note_missed_pins(
                row_params, solve_steady_state(row_params, q_seed=q_prev),
                pin_optical, pin_microwave)
            report = routing_report(row_params, state=state,
                                    r_reflect_min=r_reflect_min,
                                    t_transmit_min=t_transmit_min,
                                    method=method)
        except RouterError as exc:
            errors.append((i, power, f"{type(exc).__name__}: {exc}"))
            rows.append(SweepRow(power, float("nan"), ()))
            continue
        q_prev = state.q_s
        rows.append(SweepRow(power, report.omega0, report.ports,
                             state.warnings + report.warnings))
    return SweepResult(rows, errors)


@dataclass(frozen=True)
class CalibrationTargets:
    """What the calibrated couplings must achieve.

    ``t_center_off_max``: pump-off transmission at the mechanical frequency
    must fall below this.  ``splitting_min``: the pump-on splitting of the
    reflect ports (the routing report's ``omega0``) must exceed this
    (default, set at call time: five optical leak rates).
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
    Couplings that already meet a stage's target are kept.  Every check
    first pins both effective detunings to ``omega_m``
    (:func:`pin_effective_detunings`) and reads one :func:`routing_report`
    per coupling pair.

    Raises :class:`CalibrationError`, with the closest couplings tried in
    ``closest``, when a stage's target is unreachable inside its bracket.
    """
    targets = targets or CalibrationTargets()
    splitting_min = (targets.splitting_min if targets.splitting_min is not None
                     else 5.0 * 2.0 * params.kappa1)
    g1_lo, g1_hi = g1_bracket or (params.g1, max(params.g1, 1.0) * 1e3)
    g2_lo, g2_hi = g2_bracket or (params.g2, max(params.g2, 1.0) * 1e3)

    def t_center_off(g1):
        p = pin_effective_detunings(replace(params, g1=g1, power_p=0.0))
        state = solve_steady_state(p)
        return transmission(p, state, p.omega_m)

    reports = {}

    def report_at(g1, g2):
        # both pump-on checks at one pair read one report
        if (g1, g2) not in reports:
            p = pin_effective_detunings(replace(params, g1=g1, g2=g2))
            reports[g1, g2] = routing_report(
                p, r_reflect_min=targets.r_reflect_min)
        return reports[g1, g2]

    def blocked(g1):
        try:
            return t_center_off(g1) < targets.t_center_off_max
        except RouterError:
            return False

    def splitting_ok(g1, g2):
        try:
            return report_at(g1, g2).omega0 > splitting_min
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
