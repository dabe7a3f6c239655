"""The polynomials that the root finders solve, formed from plain floats.

Two pieces of algebra carry the router.  The static force balance,
cleared of both Lorentzian denominators, is a quintic in the resonator's
displacement (:func:`balance_coefficients`, :func:`quintic_row`); its real
roots are the steady-state branches.  The closed-form response
``z = N(y)/D(y)`` in ``y = omega/omega_m - 1`` (:func:`port_factors`,
:func:`port_polynomials`, :func:`port_slopes`) has the output ports at the
stationary points of T and R (:func:`stationary_polynomials`).
:mod:`omrouter.steady` and :mod:`omrouter.analysis` form their polynomials
here and keep the sampling, bracketing, polishing and branch policy; the
generic root finding is :mod:`omrouter._roots`.  Nothing here takes a
``SteadyState``, so ``steady`` itself can import it.
"""

from __future__ import annotations

import numpy as np

from .model import CONSTANTS, SystemParams


def balance_coefficients(params: SystemParams, power_scale: float,
                         eps_l: float, eps_p: float) -> tuple:
    """The static force balance's coefficients at ``power_scale``,
    ``(m_w2, num_opt, num_mw, k1sq, k2sq)``, with the balance
    ``m_w2*q - num_mw/(k2sq + (delta_c - g2*q)**2)
    + num_opt/(k1sq + (delta_a + g1*q)**2)``; ``eps_l`` and ``eps_p``
    are the pump amplitudes of :func:`~omrouter.model.drive_amplitudes`.
    """
    hbar = CONSTANTS.hbar
    return (params.mass * params.omega_m**2,
            hbar * params.g1 * power_scale * eps_l**2,
            hbar * params.g2 * power_scale * eps_p**2,
            (2.0 * params.kappa1) ** 2, (2.0 * params.kappa2) ** 2)


def quintic_row(coeffs, da, dc, g1, g2) -> tuple:
    """``(q_max, row)``: a bound on every root of the balance with the
    coefficients ``coeffs`` (:func:`balance_coefficients`), bare
    detunings ``da``, ``dc`` and couplings ``g1``, ``g2``, and the balance
    times both Lorentzian denominators as six coefficients in
    ``x = q/q_max``, highest power first.  A zero coupling leaves its
    Lorentzian constant and the leading coefficients zero."""
    m_w2, num_opt, num_mw, k1sq, k2sq = coeffs
    q_max = 1.1 * (num_opt / k1sq + num_mw / k2sq) / m_w2
    s1, s2 = g1 * q_max, g2 * q_max
    a0, a1, a2 = s1 * s1, 2.0 * da * s1, k1sq + da**2
    b0, b1, b2 = s2 * s2, -2.0 * dc * s2, k2sq + dc**2
    mq = m_w2 * q_max
    # x*D1*D2*m_w2*q_max + num_opt*D2 - num_mw*D1, highest power first
    return q_max, (mq * (a0 * b0),
                   mq * (a0 * b1 + a1 * b0),
                   mq * (a0 * b2 + a1 * b1 + a2 * b0),
                   mq * (a1 * b2 + a2 * b1) + (num_opt * b0 - num_mw * a0),
                   mq * (a2 * b2) + (num_opt * b1 - num_mw * a1),
                   num_opt * b2 - num_mw * a2)


def port_factors(params: SystemParams, delta1: float, delta2: float,
                 a_sq: float, c_sq: float) -> tuple:
    """``response._intermediates`` in ``y = omega/omega_m - 1``, frequencies
    scaled by ``omega_m``, at the effective detunings ``delta1``,
    ``delta2`` and the intracavity ``a_sq = |a_s|**2``, ``c_sq = |c_s|**2``:
    with ``a1 = y + al1``, ``b1 = be1 - y``, ``a2 = y + al2``,
    ``b2 = be2 - y`` and ``n = y*(y + 2 + ig) + ig``,
    ``z = sqrt(2*kappa1)*e1 = -i*k1*num/den`` for
    ``num = ca*a2*b2 + cc*a1 + n*a1*a2*b2`` and
    ``den = pa*a2*b2 + cc*a1*b1 + n*b1*a1*a2*b2``."""
    wm = params.omega_m
    d1, d2 = delta1 / wm, delta2 / wm
    k1, k2 = 2.0 * params.kappa1 / wm, 2.0 * params.kappa2 / wm
    scale = CONSTANTS.hbar / (params.mass * wm**3)
    ca = scale * a_sq * params.g1**2
    cc = 2.0 * scale * c_sq * params.g2**2 * d2
    return (k1, ca, cc, 2.0 * ca * d1, 1.0 + d1 + 1j * k1,
            d1 - 1.0 - 1j * k1, 1.0 + d2 + 1j * k2, d2 - 1.0 - 1j * k2,
            1j * params.gamma_m / wm)


def port_slopes(factors, y):
    """``(dT, dR, T)`` at ``y`` (a float or an array) on the factored
    closed form; ``dT`` and ``dR`` are dT/dy and dR/dy times
    ``|den|**4/2``."""
    k1, ca, cc, pa, al1, be1, al2, be2, ig = factors
    a1, b1 = y + al1, be1 - y
    n, dn = y * (y + (2.0 + ig)) + ig, 2.0 * y + (2.0 + ig)
    p, dp = (y + al2) * (be2 - y), (be2 - al2) - 2.0 * y  # a2*b2
    q, dq = a1 * p, p + a1 * dp
    bq = b1 * q
    num = ca * p + cc * a1 + n * q
    den = pa * p + cc * a1 * b1 + n * bq
    dnum = ca * dp + cc + dn * q + n * dq
    dden = pa * dp + cc * (b1 - a1) + dn * bq + n * (b1 * dq - q)
    z = -1j * k1 * num
    cw = den.conjugate() * (-1j * k1) * (dnum * den - num * dden)
    return ((z.conjugate() * cw).real, ((z - den).conjugate() * cw).real,
            abs(z) ** 2 / abs(den) ** 2)


def port_polynomials(factors):
    """``N`` (degree 5) and ``D`` (degree 6), highest power first, with
    ``z = N(y)/D(y)`` (:func:`port_factors`)."""
    k1, ca, cc, pa, al1, be1, al2, be2, ig = factors
    a1, b1 = np.array([1.0, al1]), np.array([-1.0, be1])
    p = np.convolve([1.0, al2], [-1.0, be2])
    nq = np.convolve([1.0, 2.0 + ig, ig], np.convolve(a1, p))
    num = nq.copy()
    num[3:] += ca * p
    num[4:] += cc * a1
    den = np.convolve(b1, nq)
    den[4:] += pa * p + cc * np.convolve(a1, b1)
    return -1j * k1 * num, den


def stationary_polynomials(factors):
    """The stacked degree-21 rows, highest power first, of
    ``Re(conj(N)*conj(D)*W)`` (T stationary) and of
    ``Re(conj(N - D)*conj(D)*W)`` (R stationary), ``W = N'*D - N*D'``
    (``docs/derivation_notes.md``, "Ports at stationary points")."""
    num, den = port_polynomials(factors)
    w = (np.convolve(num[:-1] * np.arange(5.0, 0.0, -1.0), den)
         - np.convolve(num, den[:-1] * np.arange(6.0, 0.0, -1.0)))
    cdw = np.convolve(den.conjugate(), w)
    diff = -den
    diff[1:] += num
    return np.stack([np.convolve(num.conjugate(), cdw).real,
                     np.convolve(diff.conjugate(), cdw).real[1:]])
