"""Seed-and-certify root finding for a function with a polynomial form.

Both the steady state and the routing ports are the real roots of a
function (the force balance, the slope of T or R) whose cleared
denominators give a polynomial.  The polynomial's companion-matrix roots
place the samples (:func:`samples_and_seeds`); the sign changes of the
function itself between neighbouring samples certify the brackets
(:func:`sign_changes`); and false position solves each bracket, started at
the one real polynomial root inside it (:func:`false_position`).  The
polynomial only seeds: every root returned is a root of the function.
"""

from __future__ import annotations

import math

import numpy as np

# A bracket is solved once it is this tight (absolute / relative).  The
# relative term matters: the steady state's fixed-point residual is judged
# relative to the displacement, and its roots range from femtometres down
# to ~1e-24 m at weak coupling, so the absolute floor sits far below them.
ABS_TOL = 1e-36
REL_TOL = 1e-13


def companion_roots(poly) -> list:
    """The complex roots of each row of ``poly`` (highest power first, the
    first coefficient nonzero), from one eigenvalue call on the stacked
    companion matrices."""
    n = poly.shape[1] - 1
    companion = np.zeros((len(poly), n, n))
    companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(companion).tolist()


def samples_and_seeds(roots, lo: float, hi: float) -> tuple[list, list]:
    """The samples that bracket the roots of a function on ``[lo, hi]``,
    and the seeds of its bracket solves, from its polynomial's ``roots``.

    This is the one sample rule.  The samples, ascending and distinct,
    are ``lo`` and ``hi``, and every midpoint between the real parts of
    two neighbouring roots and the real part of every complex root that
    lies strictly inside ``(lo, hi)``.  A midpoint separates two
    neighbouring roots; a complex root's real part separates the two sign
    changes of a near-double root that rounding has split into a complex
    pair.  A real root itself is not a sample: as a bracket end within
    rounding of the true root, it would stop the steady state's Newton
    polish short (docs/derivation_notes.md, "Branch enumeration").  The
    seeds are the real roots as given, in order and unclamped.
    """
    parts = sorted(z.real for z in roots)
    inner = ([0.5 * (a + b) for a, b in zip(parts, parts[1:])]
             + [z.real for z in roots if z.imag != 0.0])
    samples = sorted({lo, hi, *(x for x in inner if lo < x < hi)})
    return samples, [z.real for z in roots if z.imag == 0.0]


def sign_changes(samples, values) -> tuple[list, list]:
    """The exact zeros and the sign-change brackets of a function whose
    ``values`` at the ascending ``samples`` are given.

    A sample with value exactly zero is a zero.  It neither starts nor
    ends a bracket, so a sign change across it still brackets it.  A NaN
    or infinite value is skipped.  Every sign change between neighbouring
    kept samples is a bracket ``(lo, hi, f_lo, f_hi)``.  Returns
    ``(zeros, brackets)``, each in sample order.
    """
    zeros, brackets, lo, f_lo = [], [], None, None
    for hi, f_hi in zip(samples, values):
        if f_hi == 0.0:
            zeros.append(hi)
        elif math.isfinite(f_hi):
            if lo is not None and (f_hi < 0.0) != (f_lo < 0.0):
                brackets.append((lo, hi, f_lo, f_hi))
            lo, f_lo = hi, f_hi
    return zeros, brackets


def false_position(func, lo, hi, f_lo, f_hi, seeds=()):
    """Refine a sign-change bracket by Anderson-Bjorck false position.

    The first point is the one of ``seeds`` strictly inside the bracket,
    if exactly one is; otherwise it is the secant point.  ``b`` is the
    newest point and ``a`` the bracket's other end, so the two always
    straddle a sign change and the secant point lies between them.  When
    ``a`` is kept, its value is scaled by ``1 - f_x/f_b`` (by 1/2 if that
    is not positive), which pulls the next secant point across the root.
    The secant point is kept half the stopping width away from both ends,
    so once it has converged the next step closes the bracket.  The solve
    stops once the bracket is no wider than ``ABS_TOL + REL_TOL*|mid|``
    and returns its midpoint, or a point at which ``func`` is exactly zero.
    """
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    inside = [x for x in seeds if lo < x < hi]
    x = inside[0] if len(inside) == 1 else None
    for _ in range(200):
        width = b - a
        tol = ABS_TOL + REL_TOL * abs(0.5 * (a + b))
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
