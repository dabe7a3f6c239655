"""Self-consistent steady state of the driven three-mode system.

With both pumps on, the static displacement of the shared resonator obeys a
force balance between its restoring force and the two radiation-pressure
terms, each a Lorentzian in the displacement itself.  Clearing both
denominators turns it into a polynomial of degree at most 5, so it has 1, 3,
or 5 real solutions.  The solver brackets every branch by sign changes of
the balance at samples seeded by that quintic's roots, and selects the
branch continuously connected to the undriven state via a power ramp.
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

# Bisection stops once the bracket is this tight (absolute metres / relative).
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
    ``branch_index`` the position of the selected root in the ascending
    branch list.  ``warnings`` collects non-fatal solver notes such as
    branch-tracking ambiguity.
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


def _balance(params: SystemParams, power_scale: float):
    """The static force balance at ``power_scale``.

    Returns its coefficients ``(m_w2, num_opt, num_mw, k1sq, k2sq)`` and the
    balance ``m_w2*q - num_mw/(k2sq + (delta_c - g2*q)**2)
    + num_opt/(k1sq + (delta_a + g1*q)**2)`` as a function of floats or
    arrays.  It closes over plain floats: bisection calls it thousands of
    times across a ramp, where attribute lookups would dominate.
    """
    hbar = CONSTANTS.hbar
    eps_l, eps_p = drive_amplitudes(params)
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


def _quintic_samples(params: SystemParams, coeffs) -> np.ndarray:
    """Displacement samples whose sign changes bracket every root.

    The balance times both Lorentzian denominators is a polynomial of
    degree at most 5 in ``x = q/q_max``, where ``q_max`` bounds every root.
    The samples are ``x = +-1``, the midpoints between the real parts of
    its roots and the real part of each complex pair, which separates a
    near-double root's two sign changes.  A real root itself is not a
    sample: as a bracket end within rounding of the true root, it would stop
    the Newton polish short (docs/derivation_notes.md).
    """
    m_w2, num_opt, num_mw, k1sq, k2sq = coeffs
    q_max = 1.1 * (num_opt / k1sq + num_mw / k2sq) / m_w2
    s1, s2 = params.g1 * q_max, params.g2 * q_max
    da, dc = params.delta_a, params.delta_c
    d1 = np.array([s1**2, 2.0 * da * s1, k1sq + da**2])
    d2 = np.array([s2**2, -2.0 * dc * s2, k2sq + dc**2])
    poly = np.polyadd(np.polymul([m_w2 * q_max, 0.0], np.polymul(d1, d2)),
                      num_opt * d2 - num_mw * d1)
    roots = np.roots(poly)
    seeds = np.unique(np.clip(roots.real, -1.0, 1.0))
    pairs = np.clip(roots.real[roots.imag != 0.0], -1.0, 1.0)
    mids = 0.5 * (seeds[1:] + seeds[:-1])
    return q_max * np.unique(np.concatenate((pairs, mids, [-1.0, 1.0])))


def _bisect(func, lo, hi, f_lo, f_hi):
    """Refine a sign-change bracket until it is tight in both senses."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= _Q_ABS_TOL + _Q_REL_TOL * abs(mid):
            break
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _polish_root(params: SystemParams, q: float, power_scale: float,
                 lo: float, hi: float) -> float:
    """Newton-polish a bracketed root of the force balance.

    Works on the amplitude form of the balance, i.e. the same floating-point
    expressions :func:`steady_residual` evaluates.  Near a radiation-pressure
    resonance the two force terms dwarf their difference and bisection alone
    leaves the *measured* relative residual pinned orders of magnitude above
    machine precision; Newton against the metric's own arithmetic removes
    that amplification.
    """
    hbar = CONSTANTS.hbar
    eps_l, eps_p = drive_amplitudes(params)
    scale_amp = math.sqrt(power_scale)
    es_l = scale_amp * eps_l
    es_p = scale_amp * eps_p
    m_w2 = params.mass * params.omega_m**2
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2

    def balance_and_slope(x):
        d1 = params.delta_a + g1 * x
        d2 = params.delta_c - g2 * x
        a2 = abs(es_l / (2.0 * k1 + 1j * d1)) ** 2
        c2 = abs(es_p / (2.0 * k2 + 1j * d2)) ** 2
        den1 = (2.0 * k1) ** 2 + d1**2
        den2 = (2.0 * k2) ** 2 + d2**2
        value = m_w2 * x - hbar * g2 * c2 + hbar * g1 * a2
        slope = (m_w2 - 2.0 * hbar * g2**2 * es_p**2 * d2 / den2**2
                 - 2.0 * hbar * g1**2 * es_l**2 * d1 / den1**2)
        return value, slope

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


def enumerate_branches(params: SystemParams,
                       power_scale: float = 1.0) -> list[float]:
    """All real steady-state displacements, ascending.

    The balance has at most 5 real roots and, for generic parameters, an
    odd count (1, 3, or 5).  Samples seeded by the roots of the cleared
    quintic are checked for sign changes of the balance itself; each
    bracket is bisected and then Newton-polished without leaving it.
    Raises :class:`BracketingError` if no sign change is seen, which is
    impossible for the continuous balance, since it is negative at
    ``-q_max`` and positive at ``+q_max``, and indicates a bug.
    """
    coeffs, func = _balance(params, power_scale)
    _, num_opt, num_mw, _, _ = coeffs
    if num_opt == 0.0 and num_mw == 0.0:
        return [0.0]

    samples = _quintic_samples(params, coeffs)
    values = func(samples)
    roots = [float(samples[i]) for i in np.nonzero(values == 0.0)[0]]
    signs = np.sign(values)
    nz = signs != 0
    idx_nz = np.nonzero(nz)[0]
    flip = np.nonzero(signs[idx_nz][:-1] * signs[idx_nz][1:] < 0)[0]
    for k in flip:
        i, j = idx_nz[k], idx_nz[k + 1]
        lo, hi = float(samples[i]), float(samples[j])
        root = _bisect(func, lo, hi, float(values[i]), float(values[j]))
        roots.append(_polish_root(params, root, power_scale, lo, hi))
    if not roots:
        raise BracketingError(
            "no sign change found while bracketing the force balance")

    roots.sort()
    deduped = [roots[0]]
    for r in roots[1:]:
        if abs(r - deduped[-1]) > _Q_ABS_TOL + 10.0 * _Q_REL_TOL * abs(r):
            deduped.append(r)
    return deduped


def _state_from_root(params: SystemParams, q: float, branch_index: int,
                     warnings: tuple[str, ...]) -> SteadyState:
    eps_l, eps_p = drive_amplitudes(params)
    delta1, delta2 = effective_detunings(params, q)
    a_s = eps_l / (2.0 * params.kappa1 + 1j * delta1)
    c_s = eps_p / (2.0 * params.kappa2 + 1j * delta2)
    state = SteadyState(q_s=q, p_s=0.0, a_s=a_s, c_s=c_s,
                        delta1=delta1, delta2=delta2, residual=0.0,
                        branch_index=branch_index, warnings=warnings)
    return replace(state, residual=steady_residual(params, state))


def solve_steady_state(params: SystemParams, q_seed: float | None = None,
                       ramp_steps: int = _DEFAULT_RAMP_STEPS,
                       residual_tol: float = _DEFAULT_RESIDUAL_TOL) -> SteadyState:
    """Solve for the physical steady state.

    By default the selected branch is the one continuously connected to the
    undriven system: both pump powers are ramped from zero in ``ramp_steps``
    stages and at each stage the root nearest the previous selection is
    kept.  Passing ``q_seed`` skips the ramp and picks the full-power root
    nearest the seed, which is what sweep continuation uses.

    Raises :class:`ConvergenceError` if the fixed-point residual of the
    returned state exceeds ``residual_tol``.
    """
    warnings: tuple[str, ...] = ()

    if q_seed is not None:
        roots = enumerate_branches(params)
        q, ambiguous = _nearest(roots, q_seed)
        if ambiguous:
            warnings += ("branch tracking ambiguous: two roots equidistant "
                         "from seed",)
    else:
        if ramp_steps < 2:
            raise InvalidParameterError("ramp_steps must be >= 2")
        prev = 0.0
        roots = [0.0]
        for scale in np.linspace(0.0, 1.0, ramp_steps)[1:]:
            roots = enumerate_branches(params, float(scale))
            prev, ambiguous = _nearest(roots, prev)
            if ambiguous:
                warnings += (f"branch tracking ambiguous at power scale "
                             f"{scale:.2f}",)
        q = prev

    branch_index = int(np.argmin([abs(r - q) for r in roots]))
    state = _state_from_root(params, q, branch_index, warnings)
    if state.residual > residual_tol:
        raise ConvergenceError(
            f"steady-state residual {state.residual:.3e} exceeds "
            f"{residual_tol:.1e}")
    return state


def _nearest(roots: list[float], target: float) -> tuple[float, bool]:
    dists = np.abs(np.asarray(roots) - target)
    order = np.argsort(dists, kind="stable")
    ambiguous = (len(roots) > 1
                 and dists[order[1]] - dists[order[0]] < _EQUIDISTANT_TOL)
    return roots[int(order[0])], bool(ambiguous)


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
