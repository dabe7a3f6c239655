"""Router semantics on top of the raw spectra.

Turns reflection/transmission scans into the quantities one would quote for
the device: dip and peak locations, the splitting of the transparency window
when the microwave pump is on, a port-by-port routing report, power sweeps,
and a calibration routine for the two couplings.  :func:`routing_report`
scans no grid: it finds the stationary points of T and R on the closed
form's polynomials, formed in :mod:`omrouter._forms`, by the
seed-and-certify pattern of :mod:`omrouter._roots` (one eigenvalue call
seeds them, and a bracketed solve on the factored closed form certifies
each one it needs), and
measures both the ports and the window splitting from them;
:func:`window_splitting` reads that splitting off the same split lines
(:func:`_split_lines`) and evaluates no port.  The port
spectra are R and T from one kernel call, which forms all five response
coefficients at the ports; :func:`find_extrema` searches one column of a
full :class:`~omrouter.response.ScanResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._forms import port_factors, port_slopes, stationary_polynomials
from ._roots import (companion_roots, false_position, samples_and_seeds,
                     sign_changes)
from .errors import AnalysisError, CalibrationError, InvalidParameterError, RouterError
from .model import SystemParams
from .response import ScanResult, _node_spectra, transmission
from .steady import SteadyState, operating_point

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

DEFAULT_R_REFLECT_MIN = 0.99
DEFAULT_T_TRANSMIT_MIN = 0.95
DEFAULT_T_BLOCKED_MAX = 0.01

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

    ok = np.isfinite(y)
    y0, y1, y2 = y[:-2], y[1:-1], y[2:]
    finite = ok[:-2] & ok[1:-1] & ok[2:]
    is_min = finite & (y1 < y0) & (y1 < y2)
    i = np.flatnonzero(is_min | (finite & (y1 > y0) & (y1 > y2)))

    x0, x1, x2 = x[i], x[i + 1], x[i + 2]
    y0, y1, y2 = y[i], y[i + 1], y[i + 2]
    with np.errstate(all="ignore"):
        d1 = (y1 - y0) / (x1 - x0)
        d2 = (y2 - y1) / (x2 - x1)
        curv = (d2 - d1) / (x2 - x0)
        xv = 0.5 * (x0 + x1) - d1 / (2.0 * curv)
        yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    refined = (curv != 0.0) & np.isfinite(curv) & (x0 <= xv) & (xv <= x2)
    entries = [Extremum(w, v, r) for w, v, r in
               zip(np.where(refined, xv, x1).tolist(),
                   np.where(refined, yv, y1).tolist(), refined.tolist())]
    kinds = is_min[i].tolist()
    return ExtremaList(tuple(e for e, m in zip(entries, kinds) if m),
                       tuple(e for e, m in zip(entries, kinds) if not m))


def _stationary_points(params: SystemParams, state: SteadyState):
    """The T minima, T maxima and R maxima at ``omega >= 0``, each a list
    of ``(T, omega)`` by omega (rad/s).

    The roots of :func:`~omrouter._forms.stationary_polynomials`, from
    one eigenvalue call on their stacked companion matrices, only seed
    them, through :func:`~omrouter._roots.samples_and_seeds` on ``y`` from
    -1 (``omega = 0``) to 1 above the highest real part.  Each sign change
    of the slope (:func:`~omrouter._forms.port_slopes`) between
    neighbouring samples is solved in rad/s by
    :func:`~omrouter._roots.false_position`, started at the one real root
    inside; a slope of exactly zero at a sample, or one that is not
    finite, ends no bracket.
    """
    wm = params.omega_m
    factors = port_factors(params, state.delta1, state.delta2,
                           abs(state.a_s) ** 2, abs(state.c_s) ** 2)
    nodes, seeds = [], []
    for roots in companion_roots(stationary_polynomials(factors)):
        samples, real = samples_and_seeds(
            roots, -1.0, max(z.real for z in roots) + 1.0)
        nodes.append([wm * (1.0 + y) for y in samples])
        seeds.append([wm * (1.0 + y) for y in real])
    split = len(nodes[0])
    d_t, d_r, _ = port_slopes(factors,
                              np.array(nodes[0] + nodes[1]) / wm - 1.0)
    points = ([], [], [])
    for k, slopes in enumerate((d_t[:split].tolist(), d_r[split:].tolist())):
        for lo, hi, f_lo, f_hi in sign_changes(nodes[k], slopes)[1]:
            if k and f_lo < 0.0:
                continue  # an R minimum
            omega = false_position(
                lambda w, k=k: port_slopes(factors, w / wm - 1.0)[k],
                lo, hi, f_lo, f_hi, seeds[k])
            points[k + (f_lo > 0.0)].append(
                (port_slopes(factors, omega / wm - 1.0)[2], omega))
    return points


def _split_lines(t_min, wm):
    """The split lines: the deepest T dip on each side of ``wm``, by omega
    (zero to two of them), from the ``(T, omega)`` T minima ``t_min``;
    :func:`min` takes the first by omega on a tie."""
    return [min(side)[1] for side in ([d for d in t_min if d[1] < wm],
                                      [d for d in t_min if d[1] >= wm])
            if side]


def window_splitting(params: SystemParams, state: SteadyState) -> float:
    """Half the separation of the split transparency window (rad/s).

    The :func:`routing_report` measure ``omega0_window``: half the distance
    between the deepest transmission minima on either side of the
    mechanical frequency (:func:`_split_lines`).  With the microwave pump
    off only one minimum exists and the splitting is 0.  It reads the
    stationary points of T alone and evaluates no port, so no report
    error (a singular port, no R maximum) reaches it.

    Raises :class:`AnalysisError` when transmission has no minimum at any
    ``omega >= 0``, which signals parameters outside the transparency
    regime.
    """
    dips = _split_lines(_stationary_points(params, state)[0], params.omega_m)
    if not dips:
        raise AnalysisError("no transmission dip at omega >= 0")
    return 0.5 * (dips[-1] - dips[0])


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
    dips (:func:`window_splitting`): 0.0 with one dip, ``None`` when
    there is none.  ``degenerate`` marks reports
    where no mechanical structure exists at all (e.g. zero optomechanical
    coupling) and only a bare transmit port is listed.  ``warnings`` notes
    a transmit port placed at ``omega_m`` for want of a T maximum, and a
    pumped report with fewer than three ports.
    """

    pump_on: bool
    center: float
    omega0: float
    ports: tuple[Port, ...]
    degenerate: bool = False
    warnings: tuple[str, ...] = ()
    omega0_window: float | None = None


def routing_report(params: SystemParams, state: SteadyState,
                   r_reflect_min: float = DEFAULT_R_REFLECT_MIN,
                   t_transmit_min: float = DEFAULT_T_TRANSMIT_MIN,
                   method: str = "closed") -> RoutingReport:
    """Classify the router's output ports at the current operating point.

    Pump off: a single reflect port at the transparency dip.  Pump on: a
    transmit port at the transmission maximum near the mechanical frequency
    plus two reflect ports at the split reflection peaks, ``omega0`` apart
    from their midpoint.  Every port is a stationary point of T or R at
    ``omega >= 0`` (:func:`_stationary_points`; no grid): a split line is
    the deepest T dip on one side of ``omega_m``, a reflect port the R
    maximum nearest a split line, and the transmit port the highest T
    maximum between the reflect ports; the first by omega wins a tie.
    With no T dip at all the report is degenerate: one transmit port at
    the highest T maximum.  With no T maximum where one is wanted, the
    transmit port sits at ``omega_m`` and the report warns.

    The ports are found on the closed form whatever ``method`` is, and
    their R and T come from one kernel call by ``method``: a report makes
    one eigenvalue call and one port-spectra call.  Raises
    :class:`SingularPointError` naming the first singular port frequency,
    and :class:`AnalysisError` if there is a T dip but no R maximum.  A
    pumped report with fewer than three ports (no T dip on one side, or
    one R maximum nearest both dips) warns; it shows the pump-off pattern
    (one reflect port, ``omega0`` 0).

    Note the reflect-port midpoint sits slightly below the transmit port:
    position-type coupling pulls both hybrid modes down by about
    ``omega0**2 / (2*omega_m)``, a real second-order effect, not a grid
    artefact.
    """
    pump_on = params.power_p > 0.0
    wm = params.omega_m
    t_min, t_max, r_max = _stationary_points(params, state)
    dips = _split_lines(t_min, wm)
    omega0_window = 0.5 * (dips[-1] - dips[0]) if dips else None
    notes = []  # the warnings of tallest()

    def report(center, omega0, specs, degenerate=False):
        # specs: (label, omega, want_reflect) per port, evaluated together
        spectra = _node_spectra(params, state, [w for _, w, _ in specs],
                                method)
        ports = tuple(
            Port(label, float(w), r, t,
                 r > r_reflect_min if want_reflect else t > t_transmit_min)
            for (label, w, want_reflect), r, t
            in zip(specs, spectra["r_refl"].tolist(),
                   spectra["t_trans"].tolist()))
        warnings = tuple(notes)
        if pump_on and len(ports) < 3:
            warnings += (f"pump on, but {len(ports)} of 3 ports found: the "
                         "split lines are not resolved",)
        return RoutingReport(pump_on=pump_on, center=float(center),
                             omega0=float(omega0), ports=ports,
                             degenerate=degenerate, warnings=warnings,
                             omega0_window=omega0_window)

    def tallest(where, lo=0.0, hi=math.inf):
        # the highest T maximum strictly between lo and hi, else omega_m
        tops = [(-t, w) for t, w in t_max if lo < w < hi]
        if not tops:
            notes.append(f"no transmission maximum {where}: transmit port "
                         "placed at omega_m")
        return min(tops)[1] if tops else wm

    if not dips:
        omega_top = tallest("at omega > 0")
        return report(omega_top, 0.0, [("transmit", omega_top, False)],
                      degenerate=True)
    if not r_max:
        raise AnalysisError("no reflection maximum at omega >= 0")
    # a reflect port at the R maximum nearest each dip; two dips can
    # share it.  min() takes the first by omega on a tie, here, in
    # tallest() and in _split_lines
    reflect = sorted({min((abs(w - dip), w) for _, w in r_max)[1]
                      for dip in dips})
    if len(reflect) == 1:
        return report(reflect[0], 0.0, [("reflect", reflect[0], True)])
    w_lo, w_hi = reflect
    center = tallest("between the reflect ports", w_lo, w_hi)
    return report(center, 0.5 * (w_hi - w_lo),
                  [("transmit", center, False),
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


def power_sweep(params: SystemParams, powers,
                pin_optical: bool = False, pin_microwave: bool = False,
                r_reflect_min: float = DEFAULT_R_REFLECT_MIN,
                t_transmit_min: float = DEFAULT_T_TRANSMIT_MIN,
                method: str = "closed") -> SweepResult:
    """Routing behaviour versus microwave pump power.

    Rows run in ascending power order.  The first row ramps its solve
    from zero; each later row is seeded from the displacement of the last
    row solved, so the steady-state branch is tracked from row to row.
    Every solve uses the default ``residual_tol``.  Errors in one row are
    recorded and the sweep continues.  In pinned mode the detunings are
    re-pinned per row, at the root connected to zero power, since the
    static displacement changes with power; the bare detunings of
    ``params`` on a pinned side are not used.  Each row carries its
    steady state's warnings, among them a pinned detuning that the seeded
    solve misses, then its routing report's.
    """
    powers = [float(p) for p in powers]
    if not all(math.isfinite(p) for p in powers):
        raise InvalidParameterError("powers must be finite")
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
            row_params, state = operating_point(
                row_params, pin_optical, pin_microwave, q_seed=q_prev)
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
    Couplings that already meet a stage's target are kept.  When the top
    of a stage's bracket misses its target (the splitting is not monotone
    in ``g2``: past some ``g2`` the pins are missed), the stage tries 2, 4,
    8, ... times the bracket's lower end, below the top, and bisects below
    the first that meets it; a lower end of 0 tries nothing.  Every check
    first pins both effective detunings to ``omega_m`` and solves there
    (:func:`~omrouter.steady.operating_point`), then reads one
    :func:`routing_report` per coupling pair.

    Raises :class:`CalibrationError`, with the closest couplings tried in
    ``closest``, when a stage's target is unreachable inside its bracket.
    """
    targets = targets or CalibrationTargets()
    splitting_min = (targets.splitting_min if targets.splitting_min is not None
                     else 5.0 * 2.0 * params.kappa1)
    g1_lo, g1_hi = g1_bracket or (params.g1, max(params.g1, 1.0) * 1e3)
    g2_lo, g2_hi = g2_bracket or (params.g2, max(params.g2, 1.0) * 1e3)

    def t_center_off(g1):
        p, state = operating_point(replace(params, g1=g1, power_p=0.0),
                                   True, True)
        return transmission(p, state, p.omega_m)

    reports = {}

    def report_at(g1, g2):
        # both pump-on checks at one pair read one report
        if (g1, g2) not in reports:
            p, state = operating_point(replace(params, g1=g1, g2=g2),
                                       True, True)
            reports[g1, g2] = routing_report(
                p, state=state, r_reflect_min=targets.r_reflect_min)
        return reports[g1, g2]

    def guarded(check):
        # a trial coupling whose solve or report fails misses its target
        def ok(*args):
            try:
                return check(*args)
            except RouterError:
                return False
        return ok

    @guarded
    def blocked(g1):
        return t_center_off(g1) < targets.t_center_off_max

    @guarded
    def splitting_ok(g1, g2):
        return report_at(g1, g2).omega0 > splitting_min

    @guarded
    def depth_ok(g1, g2):
        reflect = [p for p in report_at(g1, g2).ports
                   if p.label.startswith("reflect")]
        return len(reflect) == 2 and all(p.threshold_met for p in reflect)

    def meet(ok, value, lo, hi, failure):
        # keep value if it meets the target, else bisect the threshold in
        # (lo, hi]; if even hi misses it (a target need not be monotone
        # in the coupling), bisect below the first of 2*lo, 4*lo, ...
        # under hi that meets it, and raise failure() if none does
        if ok(value):
            return value
        if ok(hi):
            return _bisect_threshold(ok, lo, hi)
        while 0.0 < 2.0 * lo < hi:
            if ok(2.0 * lo):
                return _bisect_threshold(ok, lo, 2.0 * lo)
            lo *= 2.0
        raise failure()

    def depth_failure():
        closest = {"g1": g1_hi, "g2": g2}
        try:
            closest["report"] = report_at(g1_hi, g2)
        except RouterError as exc:
            closest["error"] = str(exc)
        return CalibrationError(
            f"reflect-port depth target {targets.r_reflect_min} "
            f"unreachable for g1 <= {g1_hi:.6g}", closest=closest)

    # g1 until the pump-off window blocks transmission
    g1 = meet(blocked, params.g1, g1_lo, g1_hi, lambda: CalibrationError(
        f"pump-off transmission target {targets.t_center_off_max:.3g} "
        f"unreachable for g1 <= {g1_hi:.6g}",
        closest={"g1": g1_hi, "t_center_off": t_center_off(g1_hi)}))
    # g2 until the window splits far enough
    g2 = meet(lambda g: splitting_ok(g1, g), params.g2, g2_lo, g2_hi,
              lambda: CalibrationError(
                  f"splitting target {splitting_min:.6g} rad/s unreachable "
                  f"for g2 <= {g2_hi:.6g}", closest={"g1": g1, "g2": g2_hi}))
    # reflect-port depth is bought with optical cooperativity, i.e. more g1
    # (raising g1 only deepens the pump-off dip, so that target stays met)
    g1 = meet(lambda g: depth_ok(g, g2), g1, g1, g1_hi, depth_failure)

    # more g1 shifts the splitting only weakly; re-verify and nudge g2 once
    if not splitting_ok(g1, g2):
        g2 = _bisect_threshold(lambda g: splitting_ok(g1, g), g2, g2_hi)
    return float(g1), float(g2)
