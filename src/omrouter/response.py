"""Frequency-domain response and output spectra of the probed optical port.

Two independent evaluation paths are provided on purpose:

* ``closed`` -- explicit algebraic coefficients obtained by eliminating the
  mechanical fluctuation from the linearized dynamics (fast, vectorized);
* ``oracle`` -- a direct solve of the 6x6 frequency-domain linear system in
  the doubled basis ``(da, da^+, dc, dc^+, dq, dp)``.

The oracle is the arbiter of correctness: the closed forms were derived by
hand and every sign/conjugation choice in them is validated against the
matrix solve (see docs/derivation_notes.md).  The probe frequency ``omega``
is measured relative to the optical pump carrier, so the conventional axis
value "omega/omega_m = 1" is the lower mechanical sideband.

Every kernel call forms all five coefficients (``e1``, ``f1``, ``e2``,
``f2``, ``v``) on its nodes by either path.  One helper forms the spectra
(R, T, S_thermal, S_vacuum) from them; :func:`scan_spectrum` returns all
four as the array columns of a :class:`ScanResult`.  The routing report's
port spectra form R and T alone, so no report op pays for the Bose
occupation.  Every node is evaluated by the same elementwise arithmetic,
or the same 6x6 solve, whatever the size and shape of the call.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularPointError
from .model import CONSTANTS, SystemParams, thermal_occupation
from .steady import SteadyState

__all__ = [
    "ResponseCoefficients",
    "ScanResult",
    "closed_form_coefficients",
    "linear_solve_coefficients",
    "coefficients",
    "reflection",
    "transmission",
    "thermal_noise_spectrum",
    "vacuum_noise_spectrum",
    "scan_spectrum",
    "closed_vs_oracle_deviation",
]

_D_FLOOR = 1e-300
_COEFF_NAMES = ("e1", "f1", "e2", "f2", "v")
_SCAN_COLUMNS = ("omega", "r_refl", "t_trans", "s_thermal", "s_vacuum")


@dataclass(frozen=True)
class ResponseCoefficients:
    """Linear response of the optical fluctuation at one frequency.

    ``e1``/``f1`` multiply the co- and counter-rotating optical inputs,
    ``e2``/``f2`` the microwave inputs, and ``v`` the mechanical force noise.
    ``a1``..``b2`` are the four shifted cavity denominators, ``n_mech`` the
    mechanical response polynomial, and ``d_det`` the common denominator of
    the closed forms.
    """

    omega: float
    e1: complex
    f1: complex
    e2: complex
    f2: complex
    v: complex
    a1: complex
    b1: complex
    a2: complex
    b2: complex
    n_mech: complex
    d_det: complex


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Spectrum scan output: one array per column plus an error summary.

    ``omega``, ``r_refl``, ``t_trans``, ``s_thermal`` and ``s_vacuum`` hold
    one value per grid node (all but ``omega`` dimensionless).  The columns
    are read-only copies of the arrays passed in.  Nodes that failed carry
    NaN in the affected columns and contribute an entry
    ``(index, omega, message)`` to ``errors``.
    """

    omega: np.ndarray
    r_refl: np.ndarray
    t_trans: np.ndarray
    s_thermal: np.ndarray
    s_vacuum: np.ndarray
    errors: list[tuple[int, float, str]]

    def __post_init__(self):
        for name in _SCAN_COLUMNS:
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __len__(self):
        return self.omega.size

    def column(self, name: str) -> np.ndarray:
        """One column by field name, as a read-only array.

        Raises :class:`InvalidParameterError` for an unknown name.
        """
        if name not in _SCAN_COLUMNS:
            raise InvalidParameterError(f"unknown spectrum column {name!r}")
        return getattr(self, name)


def _intermediates(params: SystemParams, state: SteadyState, omega):
    d1, d2 = state.delta1, state.delta2
    a1 = d1 + omega + 2j * params.kappa1
    b1 = d1 - omega - 2j * params.kappa1
    a2 = d2 + omega + 2j * params.kappa2
    b2 = d2 - omega - 2j * params.kappa2
    n = omega**2 + 1j * omega * params.gamma_m - params.omega_m**2
    hbar = CONSTANTS.hbar
    pa = 2.0 * hbar * abs(state.a_s) ** 2 * params.g1**2 * d1
    pc = 2.0 * hbar * abs(state.c_s) ** 2 * params.g2**2 * d2
    d = pa * a2 * b2 + pc * a1 * b1 + params.mass * n * a1 * b1 * a2 * b2
    return a1, b1, a2, b2, n, d


def _closed_arrays(params: SystemParams, state: SteadyState, omega):
    """Closed-form coefficient arrays and a bad-node mask, elementwise on
    ``omega`` of any shape."""
    a1, b1, a2, b2, n, d = _intermediates(params, state, omega)
    bad = (np.abs(d) < _D_FLOOR) | ~np.isfinite(d)
    d = np.where(bad, 1.0, d)
    hbar = CONSTANTS.hbar
    a_s, c_s = state.a_s, state.c_s
    g1, g2 = params.g1, params.g2
    s1, s2 = math.sqrt(2.0 * params.kappa1), math.sqrt(2.0 * params.kappa2)
    # hbar multiplies only the coupling-squared terms of e1; putting it on
    # the mechanical term as well would be dimensionally inconsistent with
    # the shared denominator (docs/derivation_notes.md, verified vs oracle).
    return {
        "e1": -1j * s1 * (
            hbar * abs(a_s) ** 2 * g1**2 * a2 * b2
            + 2.0 * hbar * abs(c_s) ** 2 * g2**2 * state.delta2 * a1
            + params.mass * n * a1 * a2 * b2) / d,
        "f1": -1j * s1 * hbar * a_s**2 * g1**2 * a2 * b2 / d,
        "e2": -1j * s2 * hbar * g1 * g2 * a_s * np.conj(c_s) * a1 * a2 / d,
        "f2": 1j * s2 * hbar * g1 * g2 * a_s * c_s * a1 * b2 / d,
        "v": a_s * g1 * a1 * a2 * b2 / d,
    }, bad


def _oracle_system(params: SystemParams, state: SteadyState, omega):
    """Scaled 6x6 system matrix batch and the shared right-hand sides.

    Frequencies are scaled by the mechanical frequency and the mechanical
    coordinates by ``sqrt(hbar/(m*omega_m))`` so the matrix entries stay
    near unity despite the SI magnitudes.  One matrix per node of
    ``omega``, flattened; the right-hand side columns follow
    ``_COEFF_NAMES``.
    """
    wm = params.omega_m
    x_s = math.sqrt(CONSTANTS.hbar / (params.mass * wm))
    g1t = params.g1 * x_s / wm
    g2t = params.g2 * x_s / wm
    k1t = params.kappa1 / wm
    k2t = params.kappa2 / wm
    d1t = state.delta1 / wm
    d2t = state.delta2 / wm
    gmt = params.gamma_m / wm
    om = np.asarray(omega, dtype=float).reshape(-1) / wm
    n = om.size
    a_s, c_s = state.a_s, state.c_s

    mat = np.zeros((n, 6, 6), dtype=complex)
    mat[:, 0, 0] = 2.0 * k1t + 1j * (d1t - om)
    mat[:, 0, 4] = 1j * g1t * a_s
    mat[:, 1, 1] = 2.0 * k1t - 1j * (d1t + om)
    mat[:, 1, 4] = -1j * g1t * np.conj(a_s)
    mat[:, 2, 2] = 2.0 * k2t + 1j * (d2t - om)
    mat[:, 2, 4] = -1j * g2t * c_s
    mat[:, 3, 3] = 2.0 * k2t - 1j * (d2t + om)
    mat[:, 3, 4] = 1j * g2t * np.conj(c_s)
    mat[:, 4, 4] = -1j * om
    mat[:, 4, 5] = -1.0
    mat[:, 5, 0] = g1t * np.conj(a_s)
    mat[:, 5, 1] = g1t * a_s
    mat[:, 5, 2] = -g2t * np.conj(c_s)
    mat[:, 5, 3] = -g2t * c_s
    mat[:, 5, 4] = 1.0
    mat[:, 5, 5] = gmt - 1j * om

    rhs = np.zeros((6, 5), dtype=complex)
    rhs[0, 0] = math.sqrt(2.0 * params.kappa1) / wm
    rhs[1, 1] = math.sqrt(2.0 * params.kappa1) / wm
    rhs[2, 2] = math.sqrt(2.0 * params.kappa2) / wm
    rhs[3, 3] = math.sqrt(2.0 * params.kappa2) / wm
    rhs[5, 4] = 1.0 / (params.mass * wm**2 * x_s)
    return mat, rhs


def _oracle_arrays(params: SystemParams, state: SteadyState, omega):
    """Matrix-solve coefficient arrays and a bad-node mask, shaped like
    ``omega``.  A node whose matrix is singular, or whose solution is not
    finite, is bad."""
    mat, rhs = _oracle_system(params, state, omega)
    try:
        row = np.linalg.solve(mat, rhs[None, :, :])[:, 0, :]
    except np.linalg.LinAlgError:
        row = np.full((mat.shape[0], len(_COEFF_NAMES)), np.nan, dtype=complex)
        for i, node in enumerate(mat):
            with contextlib.suppress(np.linalg.LinAlgError):
                row[i] = np.linalg.solve(node, rhs)[0]
    bad = ~np.isfinite(row).all(axis=1)
    shape = np.shape(omega)
    return ({name: row[:, k].reshape(shape)
             for k, name in enumerate(_COEFF_NAMES)}, bad.reshape(shape))


def _arrays(params, state, omega, method):
    """One kernel call: the five coefficient arrays and a bad-node mask on
    the nodes of ``omega`` (at least 1-D, any shape) by either path."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if method == "closed":
        return _closed_arrays(params, state, omega)
    if method == "oracle":
        return _oracle_arrays(params, state, omega)
    raise InvalidParameterError(f"unknown evaluation method {method!r}")


def closed_form_coefficients(params: SystemParams, state: SteadyState,
                             omega: float) -> ResponseCoefficients:
    """Closed-form response coefficients at a single frequency."""
    return coefficients(params, state, omega, method="closed")


def linear_solve_coefficients(params: SystemParams, state: SteadyState,
                              omega: float) -> ResponseCoefficients:
    """Response coefficients from the direct 6x6 matrix solve."""
    return coefficients(params, state, omega, method="oracle")


def coefficients(params: SystemParams, state: SteadyState, omega: float,
                 method: str = "closed") -> ResponseCoefficients:
    """Response coefficients at a single frequency by either path.

    Raises :class:`SingularPointError` at a singular node; the message
    carries the 6x6 system's condition estimate there.
    """
    omega = float(omega)
    arrs, bad = _arrays(params, state, omega, method)
    if bad[0]:
        mat, _ = _oracle_system(params, state, omega)
        try:
            cond = float(np.linalg.cond(mat[0]))
        except np.linalg.LinAlgError:
            cond = math.inf
        raise SingularPointError(
            f"{method} response singular at omega={omega!r} "
            f"(condition estimate {cond:.3e})")
    a1, b1, a2, b2, n, d = _intermediates(params, state, omega)
    return ResponseCoefficients(
        omega=omega, **{k: complex(arrs[k][0]) for k in _COEFF_NAMES},
        a1=complex(a1), b1=complex(b1), a2=complex(a2), b2=complex(b2),
        n_mech=complex(n), d_det=complex(d))


def _rt(params: SystemParams, e1) -> dict:
    """R and T from the ``e1`` array."""
    z = math.sqrt(2.0 * params.kappa1) * e1
    return {"r_refl": np.abs(z - 1.0) ** 2, "t_trans": np.abs(z) ** 2}


def _spectra(params: SystemParams, omega: np.ndarray, arrs) -> dict:
    """The four spectrum columns from the coefficient arrays ``arrs`` on
    ``omega`` (any shape).

    The thermal column is evaluated at 1 rad/s where omega = 0, since it
    is singular there; callers mask those nodes.
    """
    safe = np.where(omega == 0.0, 1.0, omega)
    nbar = np.atleast_1d(thermal_occupation(np.abs(safe),
                                            params.temperature))
    return {**_rt(params, arrs["e1"]),
            "s_thermal": (4.0 * params.kappa1 * np.abs(arrs["v"]) ** 2
                          * CONSTANTS.hbar * params.gamma_m * params.mass
                          * np.abs(safe) * (nbar + (safe < 0.0))),
            "s_vacuum": 4.0 * params.kappa1 * np.abs(arrs["f1"]) ** 2}


def _node_spectra(params, state, nodes, method) -> dict:
    """R and T at the frequencies ``nodes``, as 1-D arrays, from one
    kernel call.

    Raises :class:`SingularPointError` naming the first singular node.
    """
    grid = np.atleast_1d(np.asarray(nodes, dtype=float))
    arrs, bad = _arrays(params, state, grid, method)
    if bad.any():
        omega = float(grid[np.argmax(bad)])
        raise SingularPointError(f"response singular at omega={omega!r}")
    return _rt(params, arrs["e1"])


def _one_spectrum(params, state, omega, method, column):
    """One spectrum column at ``omega``: a float for scalar input, else an
    array with NaN at singular nodes.

    Raises :class:`SingularPointError` at a singular scalar node.
    """
    grid = np.atleast_1d(np.asarray(omega, dtype=float))
    arrs, bad = _arrays(params, state, grid, method)
    scalar = np.ndim(omega) == 0
    if scalar and bad[0]:
        raise SingularPointError(
            f"response singular at omega={float(grid[0])!r}")
    values = np.where(bad, np.nan, _spectra(params, grid, arrs)[column])
    return float(values[0]) if scalar else values


def reflection(params: SystemParams, state: SteadyState, omega,
               method: str = "closed"):
    """Probability that the probe photon leaves through the input port."""
    return _one_spectrum(params, state, omega, method, "r_refl")


def transmission(params: SystemParams, state: SteadyState, omega,
                 method: str = "closed"):
    """Probability that the probe photon leaves through the far port."""
    return _one_spectrum(params, state, omega, method, "t_trans")


def vacuum_noise_spectrum(params: SystemParams, state: SteadyState, omega,
                          method: str = "closed"):
    """Output photons per unit dimensionless bandwidth from vacuum inputs
    scattered off the counter-rotating channel, ``4*kappa1*|f1|**2``."""
    return _one_spectrum(params, state, omega, method, "s_vacuum")


def thermal_noise_spectrum(params: SystemParams, state: SteadyState, omega,
                           method: str = "closed"):
    """Output noise transduced from the mechanical thermal bath.

    Evaluated through the Bose occupation rather than the raw ``coth``
    correlator so that it is numerically stable and exactly zero at T = 0
    for positive frequencies:

        S = 4*kappa1*|v|^2 * hbar*gamma_m*m * |omega| * (nbar + [omega < 0])

    Raises :class:`InvalidParameterError` at omega = 0.
    """
    if np.any(np.asarray(omega, dtype=float) == 0.0):
        raise InvalidParameterError(
            "thermal spectrum is singular at omega = 0")
    return _one_spectrum(params, state, omega, method, "s_thermal")


def scan_spectrum(params: SystemParams, omega_grid, method: str = "closed",
                  *, state: SteadyState) -> ScanResult:
    """Evaluate all four spectra on a 1-D frequency grid at ``state``.

    Per-node failures are recorded in the result's error list while the
    scan continues, one entry per node, by precedence: a singular
    denominator (all columns NaN), then omega = 0 (thermal column NaN),
    then a non-finite value (all columns NaN).  An empty grid gives empty
    columns.
    """
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0.0):
        raise InvalidParameterError("omega grid must be strictly increasing")
    arrs, singular = _arrays(params, state, grid, method)
    cols = _spectra(params, grid, arrs)
    zero = (grid == 0.0) & ~singular
    finite = np.isfinite(np.stack(list(cols.values()))).all(axis=0)
    nonfinite = ~finite & ~singular & ~zero
    failed = singular | nonfinite
    cols = {name: np.where(failed, np.nan, values)
            for name, values in cols.items()}
    cols["s_thermal"][zero] = np.nan
    errors = []
    for i in np.flatnonzero(singular | zero | nonfinite).tolist():
        if singular[i]:
            errors.append((i, float(grid[i]), "singular response denominator"))
        elif zero[i]:
            errors.append((i, 0.0, "thermal spectrum singular at omega = 0"))
        else:
            errors.append((i, float(grid[i]), "non-finite spectrum value"))
    return ScanResult(omega=grid, errors=errors, **cols)


def closed_vs_oracle_deviation(params: SystemParams, state: SteadyState,
                               omega_grid) -> dict[str, float]:
    """Worst relative disagreement between the two evaluation paths.

    Returns per-coefficient maxima plus the overall ``"max"`` entry.  The
    relative deviation uses an absolute floor of 1e-12 in the denominator so
    coefficients that are identically zero compare cleanly.
    """
    grid = np.asarray(omega_grid, dtype=float)
    closed, bad_c = _closed_arrays(params, state, grid)
    oracle, bad_o = _oracle_arrays(params, state, grid)
    if np.any(bad_c) or np.any(bad_o):
        raise SingularPointError("deviation grid hits a singular node")
    out: dict[str, float] = {}
    for name in _COEFF_NAMES:
        x, y = closed[name], oracle[name]
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-12)
        out[name] = float(np.max(np.abs(x - y) / denom))
    out["max"] = max(out.values())
    return out
