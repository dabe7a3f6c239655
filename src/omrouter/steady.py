"""Self-consistent steady state of the driven three-mode system.

With both pumps on, the static displacement of the shared resonator obeys a
force balance between its restoring force and the two radiation-pressure
terms, each a Lorentzian in the displacement itself.  Clearing both
denominators turns it into a polynomial of degree at most 5, so it has 1, 3,
or 5 real solutions.  The solver brackets every branch by sign changes of
the balance at samples placed by that quintic's roots, solves each bracket
by false position started at the quintic's real root inside it, and selects
the branch continuously connected to the undriven state via a power ramp.
One batched eigenvalue call gives the quintic's roots at every power scale
of the ramp; a plain loop then samples and solves one scale at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketingError, ConvergenceError, InvalidParameterError
from .model import CONSTANTS, SystemParams, drive_amplitudes, effective_detunings

__all__ = [
    "SteadyState",
    "force_balance",
    "enumerate_branches",
    "solve_steady_state",
    "steady_residual",
    "pin_effective_detunings",
]

# A bracket is solved once it is this tight (absolute metres / relative).
# The relative term matters: the fixed-point residual is judged relative to
# the displacement, and physical roots range from femtometres down to
# ~1e-24 m at weak coupling, so the absolute floor sits far below them all.
_Q_ABS_TOL = 1e-36
_Q_REL_TOL = 1e-13

_DEFAULT_RAMP_STEPS = 11
_DEFAULT_RESIDUAL_TOL = 1e-10
_EQUIDISTANT_TOL = 1e-15  # metres; branch-tracking ambiguity threshold


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

    Returns its coefficients ``(m_w2, num_opt, num_mw, k1sq, k2sq)`` and the
    balance ``m_w2*q - num_mw/(k2sq + (delta_c - g2*q)**2)
    + num_opt/(k1sq + (delta_a + g1*q)**2)`` as a function of floats or
    arrays.  An array of scales gives arrays ``num_opt`` and ``num_mw`` that
    broadcast against ``q``.  At one float scale it closes over plain
    floats: the sample checks and the bracket solve call it many times
    across a ramp, where attribute lookups would dominate.  ``drives`` are
    the pump amplitudes of :func:`drive_amplitudes`, if the caller already
    has them.
    """
    hbar = CONSTANTS.hbar
    eps_l, eps_p = drive_amplitudes(params) if drives is None else drives
    coeffs = (params.mass * params.omega_m**2,
              hbar * params.g1 * power_scale * eps_l**2,
              hbar * params.g2 * power_scale * eps_p**2,
              (2.0 * params.kappa1) ** 2, (2.0 * params.kappa2) ** 2)
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
    what the ramp-based branch tracking varies.
    """
    out = _balance(params, power_scale)[1](np.asarray(q, dtype=float))
    return float(out) if out.ndim == 0 else out


def _quintic_samples(params: SystemParams, coeffs):
    """Displacement samples whose sign changes bracket every root.

    ``coeffs`` come from :func:`_balance` at a column of power scales.  The
    balance times both Lorentzian denominators is a polynomial of degree
    at most 5 in ``x = q/q_max``, where ``q_max`` bounds every root.  The
    samples are ``x = +-1``, the midpoints between the real parts of its
    roots and the real part of each complex pair, which separates a
    near-double root's two sign changes.  A real root itself is not a
    sample: as a bracket end within rounding of the true root, it would
    stop the Newton polish short (docs/derivation_notes.md).  One
    eigenvalue call takes the roots of every scale from the stacked
    companion matrices.  The degree and any zero root do not depend on the
    scale, so one trim of zero coefficients serves the whole stack.  Yields,
    for each scale in turn, its ascending samples and its real roots, both
    in ``q``.
    """
    m_w2, num_opt, num_mw, k1sq, k2sq = coeffs
    q_max = 1.1 * (num_opt / k1sq + num_mw / k2sq) / m_w2
    s1, s2 = params.g1 * q_max, params.g2 * q_max
    da, dc = params.delta_a, params.delta_c
    a0, a1, a2 = s1 * s1, 2.0 * da * s1, k1sq + da**2
    b0, b1, b2 = s2 * s2, -2.0 * dc * s2, k2sq + dc**2
    mq = m_w2 * q_max
    # x*D1*D2*m_w2*q_max + num_opt*D2 - num_mw*D1, highest power first
    poly = np.concatenate((
        mq * (a0 * b0),
        mq * (a0 * b1 + a1 * b0),
        mq * (a0 * b2 + a1 * b1 + a2 * b0),
        mq * (a1 * b2 + a2 * b1) + (num_opt * b0 - num_mw * a0),
        mq * (a2 * b2) + (num_opt * b1 - num_mw * a1),
        num_opt * b2 - num_mw * a2), axis=1)
    used = np.nonzero(np.any(poly != 0.0, axis=0))[0]
    poly = poly[:, used[0]:used[-1] + 1]
    rows, n = poly.shape[0], poly.shape[1] - 1
    companion = np.zeros((rows, n, n))
    companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    zero_roots = [0j] * (5 - used[-1])
    for scale_max, roots in zip(q_max[:, 0].tolist(),
                                np.linalg.eigvals(companion).tolist()):
        roots += zero_roots
        real = [min(max(z.real, -1.0), 1.0) for z in roots]
        seeds = sorted(real)
        samples = sorted([x for x, z in zip(real, roots) if z.imag != 0.0]
                         + [0.5 * (b + a) for a, b in zip(seeds, seeds[1:])]
                         + [-1.0, 1.0])
        yield ([scale_max * x for x in samples],
               [scale_max * z.real for z in roots if z.imag == 0.0])


def _false_position(func, lo, hi, f_lo, f_hi, seed=math.nan):
    """Refine a sign-change bracket by Anderson-Bjorck false position.

    The first point is ``seed`` if it lies strictly inside the bracket.
    ``b`` is the newest point and ``a`` the bracket's other end, so the two
    always straddle a sign change and the secant point lies between them.
    When ``a`` is kept, its value is scaled by ``1 - f_x/f_b`` (by 1/2 if
    that is not positive), which pulls the next secant point across the
    root.  The secant point is kept half the stopping width away from both
    ends, so once it has converged the next step closes the bracket.  The
    solve stops once the bracket is no wider than
    ``_Q_ABS_TOL + _Q_REL_TOL*|mid|`` and returns its midpoint, or a point
    at which ``func`` is exactly zero.
    """
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    x = seed if lo < seed < hi else None
    for _ in range(200):
        width = b - a
        tol = _Q_ABS_TOL + _Q_REL_TOL * abs(0.5 * (a + b))
        if abs(width) <= tol:
            break
        if x is None:
            edge = 0.5 * tol / abs(width)
            # the secant point as the fraction of the way from b back to a
            x = b - min(max(f_b / (f_b - f_a), edge), 1.0 - edge) * width
        f_x = func(x)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) != (f_b < 0.0):
            a, f_a = b, f_b
        else:
            m = 1.0 - f_x / f_b
            f_a *= m if m > 0.0 else 0.5
        b, f_b, x = x, f_x, None
    return 0.5 * (a + b)


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


def _enumerate(params: SystemParams, scales) -> list[list[float]]:
    """The ascending real roots of the balance at each power scale.

    The balance is undriven at every scale, with the single root 0, or at
    no positive one.  Otherwise each scale's samples from
    :func:`_quintic_samples` are evaluated in turn, and every sign change
    between neighbouring samples with a finite, nonzero balance is a
    bracket.  Each bracket is solved by :func:`_false_position`, started at
    the quintic's real root inside it if there is exactly one, and then
    Newton-polished without leaving it.
    """
    scales = np.asarray(scales, dtype=float)
    drives = drive_amplitudes(params)
    coeffs = _balance(params, scales[:, None], drives)[0]
    if not (np.any(coeffs[1]) or np.any(coeffs[2])):
        return [[0.0] for _ in scales]
    roots = []
    for scale, (samples, real_roots) in zip(scales.tolist(),
                                            _quintic_samples(params, coeffs)):
        func = _balance(params, scale, drives)[1]
        form = _amplitude_form(params, drives, scale)
        found, lo, f_lo = [], None, None
        for hi in samples:
            f_hi = func(hi)
            if f_hi == 0.0:
                found.append(hi)
            elif math.isfinite(f_hi):
                if lo is not None and (f_hi < 0.0) != (f_lo < 0.0):
                    inside = [q for q in real_roots if lo < q < hi]
                    seed = inside[0] if len(inside) == 1 else math.nan
                    root = _false_position(func, lo, hi, f_lo, f_hi, seed)
                    found.append(_polish_root(form, root, lo, hi))
                lo, f_lo = hi, f_hi
        if not found:
            raise BracketingError(
                "no sign change found while bracketing the force balance")
        found.sort()
        deduped = found[:1]
        for q in found[1:]:
            if abs(q - deduped[-1]) > _Q_ABS_TOL + 10.0 * _Q_REL_TOL * abs(q):
                deduped.append(q)
        roots.append(deduped)
    return roots


def enumerate_branches(params: SystemParams,
                       power_scale: float = 1.0) -> list[float]:
    """All real steady-state displacements, ascending.

    The balance has at most 5 real roots and, for generic parameters, an
    odd count (1, 3, or 5).  Samples seeded by the companion-matrix roots
    of the cleared quintic are checked for sign changes of the balance
    itself; each bracket is solved by Anderson-Bjorck false position and
    then Newton-polished without leaving it.  This is the one-scale case of
    the enumeration the power ramp of :func:`solve_steady_state` runs over
    all its scales in one call, and returns the same roots bit for bit.
    Raises :class:`BracketingError` if no sign change is seen, which is
    impossible for the continuous balance, since it is negative at
    ``-q_max`` and positive at ``+q_max``, and indicates a bug.
    """
    return _enumerate(params, [power_scale])[0]


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
                       ramp_steps: int = _DEFAULT_RAMP_STEPS,
                       residual_tol: float = _DEFAULT_RESIDUAL_TOL) -> SteadyState:
    """Solve for the physical steady state.

    By default the selected branch is the one continuously connected to the
    undriven system: both pump powers are ramped from zero in ``ramp_steps``
    stages and at each stage the root nearest the previous selection is
    kept.  Passing ``q_seed`` tracks from the seed instead, over the single
    full-power stage, which is what sweep continuation uses.  The roots of
    all stages come from one call of the enumeration behind
    :func:`enumerate_branches`, equal bit for bit to calling it at each
    scale, and the state carries the full-power roots it was picked from as
    ``branches``.

    Raises :class:`ConvergenceError` if the fixed-point residual of the
    returned state exceeds ``residual_tol``.
    """
    if q_seed is None:
        if ramp_steps < 2:
            raise InvalidParameterError("ramp_steps must be >= 2")
        prev, scales = 0.0, np.linspace(0.0, 1.0, ramp_steps)[1:]
        where = " at power scale {:.2f}"
    else:
        prev, scales = q_seed, [1.0]
        where = ": two roots equidistant from seed"
    warnings: tuple[str, ...] = ()
    for scale, roots in zip(scales, _enumerate(params, scales)):
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
                            pin_microwave: bool = True,
                            target: float | None = None,
                            tol: float = 1e-9,
                            max_iter: int = 64) -> SystemParams:
    """Return params whose bare detunings put the *effective* detunings on
    target (default: the mechanical frequency) at the converged steady state.

    This realizes the usual operating condition in which each pump sits on
    its lower mechanical sideband regardless of the static displacement the
    drives themselves induce.  With both sides pinned the construction is
    closed-form; pinning one side iterates the solve/update cycle.
    """
    if not (pin_optical or pin_microwave):
        return params
    t = params.omega_m if target is None else target
    hbar = CONSTANTS.hbar
    m_w2 = params.mass * params.omega_m**2

    if pin_optical and pin_microwave:
        eps_l, eps_p = drive_amplitudes(params)
        a2 = eps_l**2 / ((2.0 * params.kappa1) ** 2 + t**2)
        c2 = eps_p**2 / ((2.0 * params.kappa2) ** 2 + t**2)
        q = (hbar * params.g2 * c2 - hbar * params.g1 * a2) / m_w2
        return replace(params, delta_a=t - params.g1 * q,
                       delta_c=t + params.g2 * q)

    current = replace(params,
                      delta_a=t if pin_optical else params.delta_a,
                      delta_c=t if pin_microwave else params.delta_c)
    for _ in range(max_iter):
        state = solve_steady_state(current)
        err = 0.0
        if pin_optical:
            err = max(err, abs(state.delta1 - t))
        if pin_microwave:
            err = max(err, abs(state.delta2 - t))
        if err <= tol * params.omega_m:
            return current
        current = replace(
            current,
            delta_a=(t - params.g1 * state.q_s) if pin_optical
            else current.delta_a,
            delta_c=(t + params.g2 * state.q_s) if pin_microwave
            else current.delta_c)
    raise ConvergenceError("detuning pinning did not converge")
