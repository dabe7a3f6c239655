"""Self-consistent steady state of the driven three-mode system.

With both pumps on, the static displacement of the shared resonator obeys a
force balance between its restoring force and the two radiation-pressure
terms, each a Lorentzian in the displacement itself.  Clearing both
denominators turns it into a polynomial of degree at most 5, so it has 1, 3,
or 5 real solutions.  The solver finds them by the seed-and-certify pattern
of :mod:`omrouter._roots`: the quintic's roots place the samples (its one
sample rule, on ``[-1, 1]`` in ``q/q_max``), sign changes of the balance
itself bracket every branch, and false position solves each bracket from
the quintic's real root inside it.  The balance's coefficients and its
cleared quintic are formed in :mod:`omrouter._forms`; this module keeps
the sampling, bracketing, polishing and branch policy.  It selects the
branch continuously connected to the undriven state via a power ramp.
An ``auto`` detuning is pinned from the balance's own roots at full power,
with no ramp and no solve: the root connected to zero power is the first
one met walking from ``q = 0`` in the direction of the net force there.
:func:`operating_point` pins, solves at the pinned detunings and notes each
pinned detuning the solved state misses, in one call.
One batched eigenvalue call gives the quintic's roots at every power scale
of the ramp.  Every scale is scanned for sign changes of the balance
itself, which certifies its candidate roots (exact zeros and brackets).
An intermediate scale only steers the track, so each of its brackets
stands for the one real quintic root inside it, and only a bracket that
holds none or several is solved.  The full-power scale solves every
bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._forms import balance_coefficients, quintic_row
from ._roots import (ABS_TOL, REL_TOL, companion_roots, samples_and_seeds,
                     sign_changes, false_position as _false_position)
from .errors import BracketingError, ConvergenceError, InvalidParameterError
from .model import CONSTANTS, SystemParams, drive_amplitudes, effective_detunings

__all__ = [
    "SteadyState",
    "force_balance",
    "enumerate_branches",
    "solve_steady_state",
    "steady_residual",
    "pin_effective_detunings",
    "operating_point",
]

# the ramp's nonzero power scales, from zero power to full
_RAMP_SCALES = tuple(np.linspace(0.0, 1.0, 11)[1:].tolist())
_DEFAULT_RESIDUAL_TOL = 1e-10
_EQUIDISTANT_TOL = 1e-15  # metres; branch-tracking ambiguity threshold
# a pinned effective detuning farther than this from omega_m (relative)
# is reported as missed
_PIN_TOL = 1e-9


@dataclass(frozen=True)
class SteadyState:
    """Converged operating point of the driven system.

    ``q_s``/``p_s`` are the resonator displacement (m) and momentum
    (kg*m/s, exactly zero), ``a_s``/``c_s`` the complex optical and
    microwave amplitudes, ``delta1``/``delta2`` the effective detunings
    (rad/s).  ``residual`` is the relative fixed-point mismatch and
    ``branch_index`` the position of the selected root in ``branches``,
    the ascending full-power roots it was picked from.  ``warnings``
    collects non-fatal solver notes such as branch-tracking ambiguity.
    """

    q_s: float
    p_s: float
    a_s: complex
    c_s: complex
    delta1: float
    delta2: float
    residual: float
    branch_index: int
    warnings: tuple[str, ...] = ()
    branches: tuple[float, ...] = ()


def _balance(params: SystemParams, power_scale, drives=None):
    """The static force balance at ``power_scale``.

    Returns the coefficients ``(m_w2, num_opt, num_mw, k1sq, k2sq)`` of
    :func:`~omrouter._forms.balance_coefficients` and the balance as a
    function of a float or an array ``q``.  ``power_scale`` is one float, so the
    coefficients are floats and the function closes over plain floats: the
    sample checks and the bracket solve call it many times across a ramp,
    where attribute lookups would dominate.  ``drives`` are the pump
    amplitudes of :func:`drive_amplitudes`, if the caller already has them.
    """
    coeffs = balance_coefficients(
        params, power_scale,
        *(drive_amplitudes(params) if drives is None else drives))
    m_w2, num_opt, num_mw, k1sq, k2sq = coeffs
    da, dc, g1, g2 = params.delta_a, params.delta_c, params.g1, params.g2

    def balance(q):
        return (m_w2 * q - num_mw / (k2sq + (dc - g2 * q) ** 2)
                + num_opt / (k1sq + (da + g1 * q) ** 2))

    return coeffs, balance


def force_balance(params: SystemParams, q, power_scale: float = 1.0):
    """Net static force on the resonator at displacement ``q`` (N).

    Vectorized over ``q``.  Zeros of this function are steady-state
    displacements.  ``power_scale`` multiplies both pump powers, which is
    what the ramp-based branch tracking varies; a negative or non-finite
    one raises :class:`InvalidParameterError`.
    """
    _check_power_scale(power_scale)
    out = _balance(params, power_scale)[1](np.asarray(q, dtype=float))
    return float(out) if out.ndim == 0 else out


def _check_power_scale(power_scale) -> None:
    if not (math.isfinite(power_scale) and power_scale >= 0.0):
        raise InvalidParameterError(
            f"power_scale must be finite and >= 0, got {power_scale!r}")


def _quintic_samples(coeffs, da, dc, g1, g2):
    """Displacement samples whose sign changes bracket every root.

    ``coeffs`` are :func:`_balance`'s coefficients at each power scale in
    turn, as floats, and ``da``, ``dc``, ``g1``, ``g2`` the balance's bare
    detunings and couplings.  Each scale's cleared quintic in
    ``x = q/q_max`` is :func:`~omrouter._forms.quintic_row`'s, and its
    samples and real roots are those of
    :func:`~omrouter._roots.samples_and_seeds` on ``[-1, 1]`` in ``x``.
    One eigenvalue call takes the roots of every scale from the stacked
    companion matrices.  The degree and any zero root do not depend on
    the scale, so one trim of zero coefficients serves the whole stack.
    Yields, for each scale in turn, its ascending samples and its real
    roots, both in ``q``.
    """
    q_maxes, rows = zip(*(quintic_row(c, da, dc, g1, g2) for c in coeffs))
    poly = np.array(rows)
    used = np.nonzero(np.any(poly != 0.0, axis=0))[0]
    zero_roots = [0j] * (5 - used[-1])
    for q_max, roots in zip(
            q_maxes, companion_roots(poly[:, used[0]:used[-1] + 1])):
        samples, seeds = samples_and_seeds(roots + zero_roots, -1.0, 1.0)
        yield [q_max * x for x in samples], [q_max * x for x in seeds]


def _amplitude_form(params: SystemParams, drives, power_scale: float):
    """The balance and its slope at ``power_scale`` in the amplitude form
    that :func:`steady_residual` evaluates, for :func:`_polish_root`."""
    hbar, m_w2 = CONSTANTS.hbar, params.mass * params.omega_m**2
    k1, k2, g1, g2 = params.kappa1, params.kappa2, params.g1, params.g2
    da, dc = params.delta_a, params.delta_c
    scale_amp = math.sqrt(power_scale)
    es_l, es_p = scale_amp * drives[0], scale_amp * drives[1]

    def balance_and_slope(x):
        d1 = da + g1 * x
        d2 = dc - g2 * x
        a2 = abs(es_l / (2.0 * k1 + 1j * d1)) ** 2
        c2 = abs(es_p / (2.0 * k2 + 1j * d2)) ** 2
        den1 = (2.0 * k1) ** 2 + d1**2
        den2 = (2.0 * k2) ** 2 + d2**2
        value = m_w2 * x - hbar * g2 * c2 + hbar * g1 * a2
        slope = (m_w2 - 2.0 * hbar * g2**2 * es_p**2 * d2 / den2**2
                 - 2.0 * hbar * g1**2 * es_l**2 * d1 / den1**2)
        return value, slope

    return balance_and_slope


def _polish_root(balance_and_slope, q: float, lo: float, hi: float) -> float:
    """Newton-polish a bracketed root of the force balance.

    Works on the amplitude form of the balance from
    :func:`_amplitude_form`.  Near a radiation-pressure resonance the two
    force terms dwarf their difference and the bracket solve alone leaves
    the *measured* relative residual pinned orders of magnitude above
    machine precision; Newton against the metric's own arithmetic removes
    that amplification.
    """
    best_q = q
    best_val, slope = balance_and_slope(q)
    for _ in range(12):
        if best_val == 0.0 or slope == 0.0 or not math.isfinite(slope):
            break
        step = -best_val / slope
        candidate = best_q + step
        # never leave the originating sign-change bracket: a wild Newton
        # step must not merge this root with a neighbour
        if not math.isfinite(candidate) or candidate == best_q:
            break
        if not lo <= candidate <= hi:
            break
        value, new_slope = balance_and_slope(candidate)
        if abs(value) >= abs(best_val):
            break
        best_q, best_val, slope = candidate, value, new_slope
    return best_q


def _stages(params: SystemParams, scales) -> list:
    """Each power scale's balance, as the ``stage`` argument of
    :func:`_scan` and :func:`_stage_roots`.

    Holds ``None`` at every scale when the balance is undriven, which it
    is at every scale or at no positive one.  Otherwise holds
    ``(func, make_form, samples, real_roots)`` per scale: the scalar
    balance, a factory of its amplitude form for the Newton polish (built
    only for a stage that solves a bracket), and the samples and real
    roots that :func:`_quintic_samples` gives from its one eigenvalue call.
    """
    drives = drive_amplitudes(params)
    scales = np.asarray(scales, dtype=float).tolist()
    balances = [_balance(params, scale, drives) for scale in scales]
    if not any(coeffs[1] or coeffs[2] for coeffs, _ in balances):
        return [None] * len(scales)
    quintic = _quintic_samples([coeffs for coeffs, _ in balances],
                               params.delta_a, params.delta_c, params.g1,
                               params.g2)
    return [(func, partial(_amplitude_form, params, drives, scale), samples,
             real_roots)
            for scale, (_, func), (samples, real_roots)
            in zip(scales, balances, quintic)]


def _scan(stage) -> tuple[list, list]:
    """The candidate roots of one stage from :func:`_stages`: the
    ``(zeros, brackets)`` of :func:`~omrouter._roots.sign_changes` on the
    balance at the samples of a driven stage.  Raises
    :class:`BracketingError` if there is no candidate at all.
    """
    func, _, samples, _ = stage
    zeros, brackets = sign_changes(samples, map(func, samples))
    if not (zeros or brackets):
        raise BracketingError(
            "no sign change found while bracketing the force balance")
    return zeros, brackets


def _stage_roots(stage, follow: bool = False) -> list[float]:
    """The ascending real roots of the balance at one power scale.

    ``stage`` comes from :func:`_stages` (or :func:`_pinned_root`), and its
    :func:`_scan` gives the candidates.  Each exact zero is a root.  Each
    bracket is solved by :func:`~omrouter._roots.false_position`, started
    at the quintic's real root inside it if there is exactly one, and then
    Newton-polished without leaving it.  With ``follow``, as at an
    intermediate ramp stage, a bracket that holds exactly one real quintic
    root stands for that root unsolved, and only a bracket that holds none
    or several is solved.  Roots closer than the dedupe tolerance
    ``ABS_TOL + 10*REL_TOL*|q|`` to the last one kept are dropped.
    """
    if stage is None:
        return [0.0]
    func, make_form, _, real_roots = stage
    zeros, brackets = _scan(stage)
    found, form = list(zeros), None
    for lo, hi, f_lo, f_hi in brackets:
        inside = [q for q in real_roots if lo < q < hi]
        if follow and len(inside) == 1:
            found.append(inside[0])
            continue
        form = form or make_form()
        root = _false_position(func, lo, hi, f_lo, f_hi, real_roots)
        found.append(_polish_root(form, root, lo, hi))
    found.sort()
    deduped = found[:1]
    for q in found[1:]:
        if abs(q - deduped[-1]) > ABS_TOL + 10.0 * REL_TOL * abs(q):
            deduped.append(q)
    return deduped


def enumerate_branches(params: SystemParams,
                       power_scale: float = 1.0) -> list[float]:
    """All real steady-state displacements, ascending.

    The balance has at most 5 real roots and, for generic parameters, an
    odd count (1, 3, or 5).  Samples seeded by the companion-matrix roots
    of the cleared quintic are checked for sign changes of the balance
    itself; each bracket is solved by Anderson-Bjorck false position and
    then Newton-polished without leaving it.  The full-power stage of
    :func:`solve_steady_state` runs the same per-scale code, so its
    ``branches`` are these roots bit for bit.
    Raises :class:`InvalidParameterError` for a negative or non-finite
    ``power_scale``, and :class:`BracketingError` if no sign change is
    seen, which is impossible for the continuous balance, since it is
    negative at ``-q_max`` and positive at ``+q_max``, and indicates a bug.
    """
    _check_power_scale(power_scale)
    return _stage_roots(_stages(params, [power_scale])[0])


def _state_from_root(params: SystemParams, roots: list[float], index: int,
                     warnings: tuple[str, ...]) -> SteadyState:
    q = roots[index]
    eps_l, eps_p = drive_amplitudes(params)
    delta1, delta2 = effective_detunings(params, q)
    a_s = eps_l / (2.0 * params.kappa1 + 1j * delta1)
    c_s = eps_p / (2.0 * params.kappa2 + 1j * delta2)
    state = SteadyState(q_s=q, p_s=0.0, a_s=a_s, c_s=c_s,
                        delta1=delta1, delta2=delta2, residual=0.0,
                        branch_index=index, warnings=warnings,
                        branches=tuple(roots))
    return replace(state, residual=steady_residual(params, state))


def solve_steady_state(params: SystemParams, q_seed: float | None = None,
                       residual_tol: float = _DEFAULT_RESIDUAL_TOL) -> SteadyState:
    """Solve for the physical steady state.

    By default the selected branch is the one continuously connected to the
    undriven system: both pump powers are ramped from zero over the
    private ``_RAMP_SCALES`` (0.1 to 1.0 in steps of 0.1) and at each
    stage the root nearest the previous selection is kept.  The ramp can
    step over a fold and land on a root on the far side of ``q = 0`` from
    the net force there, which :func:`_pinned_root`'s exact rule never
    does.  Passing ``q_seed`` tracks from the seed instead, over the single
    full-power stage, which is what sweep continuation uses.  One
    eigenvalue call serves all stages.  Every stage is scanned for the
    sign changes of the balance itself, so each candidate root it keeps is
    certified.  An intermediate stage's roots only steer the track, so it
    stands each bracket for the one real quintic root inside it and
    solves only a bracket that holds none or several (see
    :func:`_stage_roots`); a stand-in lies in the same bracket as the root
    it stands for.  The full-power stage solves every bracket through the
    same per-scale code as :func:`enumerate_branches`, so the state
    carries, as ``branches``, the full-power roots it was picked from,
    equal bit for bit to ``enumerate_branches(params)``.

    Raises :class:`InvalidParameterError` for a ``q_seed`` that is not
    finite or a NaN ``residual_tol``, and :class:`ConvergenceError` if the
    fixed-point residual of the returned state exceeds ``residual_tol``.
    """
    if math.isnan(residual_tol):
        raise InvalidParameterError("residual_tol must not be NaN")
    if q_seed is None:
        prev, scales = 0.0, _RAMP_SCALES
        where = " at power scale {:.2f}"
    elif not math.isfinite(q_seed):
        raise InvalidParameterError(f"q_seed must be finite, got {q_seed!r}")
    else:
        prev, scales = q_seed, [1.0]
        where = ": two roots equidistant from seed"
    warnings: tuple[str, ...] = ()
    stages = _stages(params, scales)
    last = len(stages) - 1
    for i, (scale, stage) in enumerate(zip(scales, stages)):
        roots = _stage_roots(stage, follow=i < last)
        index, ambiguous = _nearest(roots, prev)
        prev = roots[index]
        if ambiguous:
            warnings += ("branch tracking ambiguous" + where.format(scale),)

    state = _state_from_root(params, roots, index, warnings)
    if state.residual > residual_tol:
        raise ConvergenceError(
            f"steady-state residual {state.residual:.3e} exceeds "
            f"{residual_tol:.1e}")
    return state


def _nearest(roots: list[float], target: float) -> tuple[int, bool]:
    """Index of the root nearest ``target``, the first one on a tie, and
    whether the runner-up is within ``_EQUIDISTANT_TOL`` as near."""
    dists = [abs(r - target) for r in roots]
    order = sorted(range(len(dists)), key=dists.__getitem__)
    ambiguous = (len(order) > 1
                 and dists[order[1]] - dists[order[0]] < _EQUIDISTANT_TOL)
    return order[0], ambiguous


def steady_residual(params: SystemParams, state: SteadyState) -> float:
    """Largest relative mismatch of the three fixed-point relations.

    Recomputes displacement from the stored amplitudes and the amplitudes
    from the stored displacement, so it is an independent consistency check
    rather than a copy of the solver's arithmetic.  Each mismatch is
    normalized by the larger side's magnitude plus a 1e-30 floor.
    """
    hbar = CONSTANTS.hbar
    eps_l, eps_p = drive_amplitudes(params)
    delta1, delta2 = effective_detunings(params, state.q_s)

    q_pred = (hbar * params.g2 * abs(state.c_s) ** 2
              - hbar * params.g1 * abs(state.a_s) ** 2) / (
                  params.mass * params.omega_m**2)
    a_pred = eps_l / (2.0 * params.kappa1 + 1j * delta1)
    c_pred = eps_p / (2.0 * params.kappa2 + 1j * delta2)

    def rel(x, y):
        return abs(x - y) / (max(abs(x), abs(y)) + 1e-30)

    return max(rel(state.q_s, q_pred), rel(state.a_s, a_pred),
               rel(state.c_s, c_pred))


def pin_effective_detunings(params: SystemParams, pin_optical: bool = True,
                            pin_microwave: bool = True) -> SystemParams:
    """Return params whose bare detunings put the *effective* detunings on
    the mechanical frequency, at the pinned root continued from zero power.

    Each pinned pump then sits on its lower mechanical sideband whatever
    static displacement the drives induce.  A pinned side's Lorentzian is
    a constant, so with both sides pinned the balance is linear in ``q``,
    and with one it is a cubic (:func:`_pinned_root`;
    docs/derivation_notes.md, "Pinned operating point").  No steady state
    is solved: where the ramped solve settles on another root,
    :func:`operating_point` says so.
    """
    if not (pin_optical or pin_microwave):
        return params
    t = params.omega_m
    if pin_optical and pin_microwave:
        hbar = CONSTANTS.hbar
        m_w2 = params.mass * params.omega_m**2
        eps_l, eps_p = drive_amplitudes(params)
        a2 = eps_l**2 / ((2.0 * params.kappa1) ** 2 + t**2)
        c2 = eps_p**2 / ((2.0 * params.kappa2) ** 2 + t**2)
        q = (hbar * params.g2 * c2 - hbar * params.g1 * a2) / m_w2
    else:
        q = _pinned_root(params, pin_optical)
    return replace(
        params, delta_a=t - params.g1 * q if pin_optical else params.delta_a,
        delta_c=t + params.g2 * q if pin_microwave else params.delta_c)


def _pinned_root(params: SystemParams, pin_optical: bool) -> float:
    """The displacement that puts the optical (``pin_optical``) or else the
    microwave effective detuning on ``omega_m``, the other side bare.

    With that side's coupling zeroed and its detuning at ``omega_m``, its
    Lorentzian is the pinned constant, and the quintic of
    :func:`_quintic_samples` at these floats is the pinned cubic.  Its
    full-power roots are solved once (:func:`_stage_roots`), and the one
    connected to zero power is returned: the nearest root above ``q = 0``
    if the pinned balance is negative there, the nearest below if it is
    positive, and the root nearest 0 if it is exactly 0
    (docs/derivation_notes.md, "Pinned operating point").
    """
    t = params.omega_m
    da, dc, g1, g2 = ((t, params.delta_c, 0.0, params.g2) if pin_optical
                      else (params.delta_a, t, params.g1, 0.0))
    coeffs = balance_coefficients(params, 1.0, *drive_amplitudes(params))
    m_w2, num_opt, num_mw, k1sq, k2sq = coeffs
    if not (num_opt or num_mw):
        return 0.0

    def balance_and_slope(x):
        d1, d2 = da + g1 * x, dc - g2 * x
        den1, den2 = k1sq + d1 * d1, k2sq + d2 * d2
        return (m_w2 * x - num_mw / den2 + num_opt / den1,
                m_w2 - 2.0 * (g2 * num_mw * d2 / den2**2
                              + g1 * num_opt * d1 / den1**2))

    samples, real = next(_quintic_samples([coeffs], da, dc, g1, g2))
    roots = _stage_roots((lambda x: balance_and_slope(x)[0],
                          lambda: balance_and_slope, samples, real))
    at_zero = balance_and_slope(0.0)[0]
    if at_zero == 0.0:
        return roots[_nearest(roots, 0.0)[0]]
    return min((q for q in roots if (q > 0.0) == (at_zero < 0.0)), key=abs)


def operating_point(params: SystemParams, pin_optical: bool = False,
                    pin_microwave: bool = False, q_seed: float | None = None,
                    residual_tol: float = _DEFAULT_RESIDUAL_TOL
                    ) -> tuple[SystemParams, SteadyState]:
    """Pin the ``auto`` detunings, solve the steady state there, and note
    each pinned effective detuning the state misses.

    Returns ``(pinned_params, state)``: the params of
    :func:`pin_effective_detunings` and the state of
    :func:`solve_steady_state` at them, which takes ``q_seed`` and
    ``residual_tol``.  Pinning puts a detuning on ``omega_m`` for the
    displacement it constructs, the pinned balance's root connected to
    zero power; a solve that settles on another root (the ramp above
    about 7.5 uW on the reference device, or a sweep row seeded from the
    last) misses it.  The state's warnings then gain one
    ``"<key> = auto missed omega_m: ..."`` note per pinned side it misses
    by more than ``_PIN_TOL * omega_m``.
    """
    params = pin_effective_detunings(params, pin_optical, pin_microwave)
    state = solve_steady_state(params, q_seed, residual_tol)
    wm = params.omega_m
    missed = tuple(
        f"{key} = auto missed omega_m: {name} = {value / wm:.6g} omega_m"
        for key, name, value, pinned in (
            ("delta_a", "delta1", state.delta1, pin_optical),
            ("delta_c", "delta2", state.delta2, pin_microwave))
        if pinned and abs(value - wm) > _PIN_TOL * wm)
    return params, replace(state, warnings=state.warnings + missed)
